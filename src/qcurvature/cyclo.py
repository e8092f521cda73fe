"""Exact arithmetic in Z[q]: q-numbers, Gaussian binomials, cyclotomic moduli.

All coefficients are arbitrary-precision integers and every operation is
exact.  "q is a primitive N-th root of unity" is modelled algebraically as
reduction modulo the N-th cyclotomic polynomial, which turns "this vanishes
at a primitive root" into a decidable remainder test.
"""

from __future__ import annotations

__all__ = [
    "CycloModulus",
    "QPoly",
    "ZERO",
    "ONE",
    "q_number",
    "q_factorial",
    "q_binomial",
    "cyclotomic",
    "divisors",
    "reduce",
    "coeffs_list",
    "poly_from_coeffs",
]

from collections.abc import Callable, Iterable, Sequence
from functools import cache
from itertools import accumulate
from math import isqrt
from operator import add


class Frozen:
    """Immutable value whose fields are ``__slots__``, set once (:meth:`_fill`), compared
    within one class, hashed together (not when one is a dict) and shown by ``repr``.

    A class whose own ``__slots__`` holds one field gets that slot's setter
    as ``_set``, through which :meth:`_trusted` builds it."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        own = cls.__dict__.get("__slots__", ())
        if len(own) == 1:
            cls._set = getattr(cls, own[0]).__set__

    @classmethod
    def _trusted(cls, value: object) -> Frozen:
        """The one-field value holding ``value`` as it is: no check, no copy.

        Internal constructor: the caller guarantees that ``value`` is already
        in the form the checking constructor would make.
        """
        made = object.__new__(cls)
        cls._set(made, value)  # the slot's descriptor, past __setattr__
        return made

    def _fill(self, *values: object) -> None:
        cls = type(self)
        for name, value in zip(self.__slots__, values):
            getattr(cls, name).__set__(self, value)  # the slot's descriptor, past __setattr__

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __setstate__(self, state: tuple) -> None:  # copy and pickle; state[1] maps slot to value
        self._fill(*(state[1][name] for name in self.__slots__))


class QPoly(Frozen):
    """Polynomial in the formal variable q with integer coefficients.

    ``coeffs[i]`` holds the coefficient of ``q**i``.  The tuple is kept
    canonical: empty for the zero polynomial, last entry nonzero otherwise.
    Instances are immutable and structural equality is ring equality.

    >>> QPoly((1, 1)) * QPoly((1, 1))
    QPoly('1 + 2*q + q^2')
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...] = ()):
        c = int_tuple(coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        QPoly._set(self, c)

    def __eq__(self, other: object) -> bool:
        return self.coeffs == other.coeffs if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> QPoly:
        """The polynomial ``coefficient * q**exponent``."""
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        return cls((0,) * exponent + (coefficient,))

    # -- ring structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: QPoly | int) -> QPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        if len(a) == len(b):  # only equal lengths can cancel the top
            while out and out[-1] == 0:
                out.pop()
        return QPoly._trusted(tuple(out))

    __radd__ = __add__

    def __neg__(self) -> QPoly:
        return QPoly._trusted(tuple(-c for c in self.coeffs))

    def __sub__(self, other: QPoly | int) -> QPoly:
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else self + (-other)

    def __rsub__(self, other: QPoly | int) -> QPoly:
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else other + (-self)

    def __mul__(self, other: QPoly | int) -> QPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        if len(a) < len(b):
            a, b = b, a
        width = len(a)
        out = [0] * (width + len(b) - 1)
        for j, cb in enumerate(b):
            if cb:
                row = a if cb == 1 else [cb * ca for ca in a]
                out[j : j + width] = map(add, out[j : j + width], row)
        # Z has no zero divisors, so the top coefficient is nonzero
        return QPoly._trusted(tuple(out))

    __rmul__ = __mul__

    def shift(self, e: int) -> QPoly:
        """The product with the monomial ``q**e``: a shift of the coefficients."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if not e or not self.coeffs:
            return self
        return QPoly._trusted((0,) * e + self.coeffs)

    def __pow__(self, n: int) -> QPoly:
        if n < 0:
            raise ValueError("negative powers are not defined in Z[q]")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, divisor: QPoly) -> tuple[QPoly, QPoly]:
        """Long division; every leading-coefficient division must be exact.

        Sufficient for this package: all divisors in use are monic.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lead = divisor.coeffs[-1]
        quot = [0] * max(len(self.coeffs) - len(divisor.coeffs) + 1, 0)
        rem = list(self.coeffs)
        while len(rem) >= len(divisor.coeffs):
            head, r = divmod(rem[-1], lead)
            if r:
                raise ValueError(f"{rem[-1]} is not divisible by {lead}")
            shift = len(rem) - len(divisor.coeffs)
            quot[shift] = head
            for i, c in enumerate(divisor.coeffs):
                rem[shift + i] -= head * c
            while rem and rem[-1] == 0:
                rem.pop()
        return QPoly(tuple(quot)), QPoly._trusted(tuple(rem))

    def exact_div(self, divisor: QPoly) -> QPoly:
        """Quotient of an exact division; raises ValueError on a remainder."""
        quot, rem = divmod(self, divisor)
        if not rem.is_zero():
            raise ValueError(f"{self} is not divisible by {divisor}")
        return quot

    def evaluate(self, x: int) -> int:
        """Value at an integer point (Horner); used for q=1 specialisation."""
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    # -- rendering ---------------------------------------------------------

    def _render(self, gap: str, times: str, power: str) -> str:
        """The rendering loop shared by every format.

        ``gap`` surrounds each sign after the first term, ``times`` joins a
        coefficient to its power of q, and ``power % i`` renders ``q^i`` for
        i >= 2.  The first term carries only a minus sign.
        """
        plus, minus = f"{gap}+{gap}", f"{gap}-{gap}"
        parts: list[str] = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if c < 0:
                sign = minus if parts else "-"
                c = -c
            else:
                sign = plus if parts else ""
            if i == 0:
                parts.append(f"{sign}{c}")
            else:
                q = "q" if i == 1 else power % i
                parts.append(f"{sign}{q}" if c == 1 else f"{sign}{c}{times}{q}")
        return "".join(parts) or "0"

    def __str__(self) -> str:
        return self._render(" ", "*", "q^%d")

    def compact(self) -> str:
        """Whitespace-free rendering, e.g. ``1+q`` (for embedding in terms)."""
        return self._render("", "*", "q^%d")

    def latex(self) -> str:
        return self._render("", "", "q^{%d}")

    def __repr__(self) -> str:
        return f"QPoly('{self}')"


def int_tuple(values: Iterable[int]) -> tuple[int, ...]:
    """``values`` as a tuple, rejecting anything but ``int`` (``bool`` included)."""
    out = tuple(values)
    for x in out:
        if type(x) is not int:
            raise TypeError(f"expected an int, got {type(x).__name__} {x!r}")
    return out


def _coerce(value: object) -> QPoly:
    """``value`` as a polynomial; NotImplemented for anything but QPoly or int."""
    if isinstance(value, QPoly):
        return value
    if isinstance(value, int):
        return QPoly((value,))
    return NotImplemented


ZERO = QPoly()
ONE = QPoly((1,))


def q_number(k: int) -> QPoly:
    """The q-integer 1 + q + ... + q^(k-1); zero for k = 0.

    >>> print(q_number(3))
    1 + q + q^2
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    return QPoly((1,) * k)


def _times_q_number(coeffs: list[int], m: int) -> list[int]:
    """Coefficients of p * [m]_q for m >= 1, p given by ``coeffs``.

    [m]_q = (1 - q^m) / (1 - q), so coefficient i of the product is a
    windowed prefix sum: the sum of p's coefficients i - m + 1 .. i.
    """
    sums = list(accumulate(coeffs + [0] * (m - 1)))
    return sums[:m] + [high - low for high, low in zip(sums[m:], sums)]


def _over_q_number(coeffs: list[int], m: int) -> list[int]:
    """Coefficients of p / [m]_q for m >= 1; raises ValueError unless exact.

    Multiplies by 1 - q, then divides by 1 - q^m: the quotient r has
    r_j = c_j + r_(j-m), a prefix sum along each residue class mod m, and
    the division is exact when its last m entries vanish.
    """
    c = [a - b for a, b in zip(coeffs + [0], [0] + coeffs)]
    for r in range(m):
        c[r::m] = accumulate(c[r::m])
    if any(c[-m:]):
        raise ValueError(f"not divisible by [{m}]_q")
    return c[:-m]


@cache
def q_factorial(k: int) -> QPoly:
    """Product of the q-integers 1..k; the empty product 1 for k = 0.

    One running product, multiplied by [m]_q for m = 2..k as a windowed
    prefix sum (:func:`_times_q_number`).  No recursion and no general product.

    >>> print(q_factorial(3))
    1 + 2*q + 2*q^2 + q^3
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    coeffs = [1]
    for m in range(2, k + 1):
        coeffs = _times_q_number(coeffs, m)
    return QPoly._trusted(tuple(coeffs))


@cache
def q_binomial(n: int, k: int) -> QPoly:
    """Gaussian binomial coefficient, as a windowed product.

    With k replaced by min(k, n - k) (the coefficient is symmetric in k and
    n - k), pass i = 1..k multiplies by [n - k + i]_q and divides exactly
    by [i]_q, each a linear pass over the coefficients
    (:func:`_times_q_number`, :func:`_over_q_number`).  After pass i the
    running value is [n - k + i choose i]_q, a polynomial, so every division
    is exact.  Out-of-range k yields 0.

    >>> print(q_binomial(4, 2))
    1 + q + 2*q^2 + q^3 + q^4
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return ZERO
    k = min(k, n - k)
    coeffs = [1]
    for i in range(1, k + 1):
        coeffs = _over_q_number(_times_q_number(coeffs, n - k + i), i)
    return QPoly._trusted(tuple(coeffs))


def divisors(n: int) -> list[int]:
    """Positive divisors of n in ascending order."""
    if n < 1:
        raise ValueError("n must be positive")
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    large = [n // d for d in reversed(small) if d * d != n]
    return small + large


def totient(n: int) -> int:
    """Euler's phi(n), the degree of the n-th cyclotomic polynomial, by trial
    division: at most sqrt(n) steps, where building Phi_n takes far more."""
    phi, rest, p = n, n, 2
    while p * p <= rest:
        if rest % p == 0:
            phi -= phi // p
            while rest % p == 0:
                rest //= p
        p += 1
    return phi - phi // rest if rest > 1 else phi


@cache
def cyclotomic(n: int) -> QPoly:
    """The n-th cyclotomic polynomial, by exact division of q^n - 1.

    Builds Phi_m for every divisor m of n in ascending order: q^m - 1 divided
    by the Phi of each smaller divisor of m, all built already.

    >>> print(cyclotomic(4))
    1 + q^2
    """
    phi: dict[int, QPoly] = {}
    for m in divisors(n):
        numerator = QPoly.monomial(m) - ONE
        for d in divisors(m)[:-1]:
            numerator = numerator.exact_div(phi[d])
        phi[m] = numerator
    return phi[n]


class CycloModulus(Frozen):
    """The quotient ring Z[q]/Phi_n(q), i.e. q as a primitive n-th root of unity."""

    __slots__ = ("n", "phi")

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("a primitive root of unity needs n >= 2")
        # phi is derived, never given: reduce() folds modulo q^n - 1 first,
        # which is exact only for Phi_n
        self._fill(n, cyclotomic(n))

    @classmethod
    def of(cls, n: int) -> CycloModulus:
        return cls(n)

    def reduce(self, p: QPoly) -> QPoly:
        return reduce(p, self)


def reduce(p: QPoly, m: CycloModulus) -> QPoly:
    """Unique remainder of p modulo the cyclotomic modulus, by :func:`_folded_remainder`."""
    return _folded_remainder(m)(p.coeffs)


def _folded_remainder(m: CycloModulus) -> Callable[[Sequence[int]], QPoly]:
    """The function taking values to the remainder of ``sum(values[i] * q**i)``
    modulo ``m``'s Phi_n; ``values`` is left as it is.

    Values past the first n are first folded modulo q^n - 1, an O(len)
    rotation that is exact because Phi_n divides q^n - 1.  Then a
    remainder-only long division: Phi_n is monic, so each step subtracts the
    top value times phi's lower terms and no quotient is built.  The result
    keeps integer coefficients and has degree < deg(phi).  Phi's nonzero
    lower terms are listed once, for every call of the returned function, so
    a caller reducing many values holds one.
    """
    n, d = m.n, m.phi.degree
    low = [(j, c) for j, c in enumerate(m.phi.coeffs[:d]) if c]

    def remainder(values: Sequence[int]) -> QPoly:
        values = [sum(values[i::n]) for i in range(n)] if len(values) > n else list(values)
        for top in range(len(values) - 1, d - 1, -1):
            head = values[top]
            if head:
                base = top - d
                for j, c in low:
                    values[base + j] -= head * c
        del values[d:]
        while values and not values[-1]:
            values.pop()
        return QPoly._trusted(tuple(values))

    return remainder


def coeffs_list(p: QPoly) -> list[int]:
    """JSON form: ascending coefficient list, ``[]`` for zero."""
    return list(p.coeffs)


def poly_from_coeffs(coeffs: Iterable[int]) -> QPoly:
    return QPoly(tuple(coeffs))

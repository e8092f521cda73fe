#!/usr/bin/env python3
"""Exact q-arithmetic: q-numbers, Gaussian binomials, roots of unity.

Everything lives in Z[q].  A "primitive N-th root of unity" is not a
complex number here but the quotient ring Z[q]/Phi_N(q), so statements
like "this coefficient vanishes at a primitive root" become exact
remainder computations.
"""

from qcurvature import CycloModulus, cyclotomic, q_binomial, q_factorial, q_number, reduce

print("q-numbers [k]_q = 1 + q + ... + q^(k-1):")
for k in range(5):
    print(f"  [{k}]_q = {q_number(k)}")

print("\nq-factorials:")
for k in range(5):
    print(f"  [{k}]_q! = {q_factorial(k)}")

print("\nGaussian binomials (a windowed product of q-numbers, each division by [i]_q exact):")
for n in range(5):
    row = "   ".join(str(q_binomial(n, k)) for k in range(n + 1))
    print(f"  n={n}:  {row}")

print("\nCyclotomic polynomials, the minimal polynomials of primitive roots:")
for n in range(1, 7):
    print(f"  Phi_{n} = {cyclotomic(n)}")

print("\nAt a primitive N-th root of unity, [N]_q = 0 and the inner")
print("binomials (N choose k) for 0 < k < N all vanish:")
for n in (3, 4, 5):
    modulus = CycloModulus.of(n)
    inner = [str(reduce(q_binomial(n, k), modulus)) for k in range(1, n)]
    print(f"  N={n}: [N]_q -> {reduce(q_number(n), modulus)},  inner binomials -> {inner}")

print("\nGeneric values are kept exact; reduction is always a separate, last step.")

"""The public surface: each name is declared once, in the module that defines it."""

import ast
import inspect
import re
from pathlib import Path

import pytest

import qcurvature
from qcurvature import curvature, cyclo, freealg, paths

MODULES = (cyclo, paths, freealg, curvature)

# The package's public names in order; changing this list changes the API.
PUBLIC = [
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
    "Comp",
    "Edge",
    "WeightRule",
    "successors",
    "enumerate_vertices",
    "path_sum_enum",
    "path_sum_dp",
    "forward_tables",
    "Term",
    "OperatorPoly",
    "ElementPoly",
    "normal_order",
    "q_derivative",
    "multiply_by_a",
    "deformed_power",
    "deformed_power_first_order",
    "maurer_cartan_element",
    "CurvatureExpansion",
    "InfinitesimalCoefficients",
    "CompositionSumComparison",
    "COMPOSITION_SUM_READINGS",
    "VerifyReport",
    "path_expansion",
    "path_root_expansion",
    "generic_expansion",
    "root_of_unity_expansion",
    "infinitesimal_coefficients",
    "infinitesimal_from_operator",
    "infinitesimal_composition_sum",
    "four_step_listing_mismatches",
    "resolve_default_rule",
    "verify_suite",
]


def test_package_names_are_pinned_and_distinct():
    assert qcurvature.__all__ == PUBLIC
    assert len(set(PUBLIC)) == len(PUBLIC)


def test_package_reexports_each_module_all():
    assert qcurvature.__all__ == [name for module in MODULES for name in module.__all__]
    for module in MODULES:
        for name in module.__all__:
            assert getattr(qcurvature, name) is getattr(module, name), name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from qcurvature import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC)


def test_package_imports_no_name_one_by_one():
    for node in ast.parse(inspect.getsource(qcurvature)).body:
        if isinstance(node, ast.ImportFrom) and node.module is not None:
            assert [alias.name for alias in node.names] == ["*"], node.module


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_module_all_lists_only_what_it_defines(module):
    defined = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(target.id for target in node.targets if isinstance(target, ast.Name))
    assert set(module.__all__) <= defined
    for name in module.__all__:
        value = getattr(module, name)
        if callable(value):  # functions, cached functions and classes
            assert value.__module__ == module.__name__, name


ROOT = Path(__file__).resolve().parent.parent

# Public names kept with no reader outside tests, each for its reason.
KEPT_UNREAD = {
    "q_derivative": "test_freealg.py checks the dM step of maurer_cartan_element against it",
    "multiply_by_a": "test_freealg.py checks the a*M step of maurer_cartan_element against it",
}


def python_reads(path):
    """Names that the Python file ``path`` reads, as a name or an attribute.

    Strings and docstrings do not count, nor does a name inside its own
    top-level definition.
    """
    read = set()
    for statement in ast.parse(path.read_text()).body:
        names = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        names.discard(getattr(statement, "name", None))
        read |= names
    return read


def readme_reads():
    """Identifiers in README.md's code: fenced blocks and backtick spans."""
    text = (ROOT / "README.md").read_text()
    code = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.DOTALL)
    return {name for span in code for name in re.findall(r"[A-Za-z_]\w*", span)}


def test_every_public_name_has_a_reader():
    files = [*(ROOT / "src" / "qcurvature").glob("*.py"), *(ROOT / "demos").glob("*.py")]
    files += (ROOT / "perfbench").glob("*.py")
    read = readme_reads().union(*map(python_reads, files))
    unread = [name for name in qcurvature.__all__ if name not in read]
    assert unread == list(KEPT_UNREAD)

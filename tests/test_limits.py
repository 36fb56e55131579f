"""The size policy: one module owns every cap, and verifying nothing never passes.

Also: the invariant-checking modules raise typed errors instead of asserting, and the
library computes in integers and fractions only (no float dtype anywhere in it).
"""

import ast
from pathlib import Path

import pytest

import hochlat
from hochlat import limits
from hochlat.checks import CHECKS, run_checks
from hochlat.errors import SizeBound
from hochlat.hochschild import triword_count
from hochlat.lattice import build_bool
from hochlat.shuffles import shuffle_lattice

PACKAGE = Path(hochlat.__file__).parent


def _bound_max_names(path):
    """MAX_* names the module assigns itself (imported names are not counted)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id.startswith("MAX_")
    }


def test_only_limits_binds_caps():
    assert _bound_max_names(PACKAGE / "limits.py") == {"MAX_N", "MAX_ELEMENTS"}
    tree = ast.parse((PACKAGE / "limits.py").read_text(encoding="utf-8"))
    values = {node.targets[0].id: node.value for node in tree.body if isinstance(node, ast.Assign)}
    assert isinstance(values["MAX_N"], ast.Constant)  # the one hand-set cap
    assert "MAX_N" in {node.id for node in ast.walk(values["MAX_ELEMENTS"]) if isinstance(node, ast.Name)}
    assert limits.MAX_ELEMENTS == triword_count(limits.MAX_N)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "limits.py":
            assert _bound_max_names(path) == set(), path.name


def test_validators():
    limits.check_n(limits.MAX_N)
    limits.check_range("a", 0, 0)
    limits.check_elements("x", limits.MAX_ELEMENTS)
    with pytest.raises(SizeBound):
        limits.check_n(limits.MAX_N + 1)
    with pytest.raises(SizeBound):
        limits.check_n(0)
    with pytest.raises(SizeBound):
        limits.check_range("a", -1, 0)
    with pytest.raises(SizeBound):
        limits.check_elements("x", limits.MAX_ELEMENTS + 1)
    limits.check_int64("x", 2**63 - 1)
    with pytest.raises(SizeBound, match="int64"):
        limits.check_int64("x", 2**63)


def test_guards_reject_huge_sizes_without_building_them():
    """Bool(n) and Shuf(a, b) have at least 2**n and 2**(a + b) elements, so n and a + b are capped at the bit
    length of MAX_ELEMENTS less one; neither guard forms 2**n or sums a shuffle count first."""
    top = limits.MAX_ELEMENTS.bit_length() - 1
    assert 2**top <= limits.MAX_ELEMENTS < 2 ** (top + 1)
    assert build_bool(top).poset.n == 2**top
    for build in (lambda: build_bool(15000), lambda: build_bool(10**9), lambda: build_bool(10**100)):
        with pytest.raises(SizeBound, match=f"^n must satisfy 0 <= n <= {top}, got"):
            build()
    for a, b in ((20000, 1), (1, 20000), (10**100, 0), (top, 1)):
        with pytest.raises(SizeBound, match=f"^a \\+ b must satisfy 0 <= a \\+ b <= {top}, got {a + b}$"):
            shuffle_lattice(a, b)


def test_constructions_reject_negative_sizes():
    with pytest.raises(SizeBound):
        shuffle_lattice(-1, 1)
    with pytest.raises(SizeBound):
        shuffle_lattice(1, -1)
    with pytest.raises(SizeBound):
        build_bool(-1)
    with pytest.raises(SizeBound):
        build_bool(limits.MAX_ELEMENTS.bit_length())


def test_run_checks_refuses_empty_bundles_and_out_of_range_n():
    lines = []
    with pytest.raises(SizeBound):
        run_checks(3, [], write=lines.append)
    for n in (0, limits.MAX_N + 1):
        with pytest.raises(SizeBound):
            run_checks(n, CHECKS, write=lines.append)
    assert lines == []


@pytest.mark.parametrize("name", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_no_assert_statements(name):
    tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
    assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree))


FLOAT_DTYPES = {"float16", "float32", "float64", "float_"}


def _float_dtypes(tree):
    """Float dtype names and attributes, and astype(float) calls, in a module's AST."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in FLOAT_DTYPES:
            yield node.id
        elif isinstance(node, ast.Attribute) and node.attr in FLOAT_DTYPES:
            yield node.attr
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype"
            and any(isinstance(arg, ast.Name) and arg.id == "float" for arg in node.args)
        ):
            yield "astype(float)"


def test_float_scan_finds_float_dtypes():
    tree = ast.parse("x = np.zeros(3, dtype=np.float32).astype(float) + float64(1)")
    assert sorted(_float_dtypes(tree)) == ["astype(float)", "float32", "float64"]


@pytest.mark.parametrize("name", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_no_float_dtypes(name):
    tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
    assert list(_float_dtypes(tree)) == []

"""The two sides of each identity come from independent pipelines: the Hecke
L-value (hecke) and the accelerated 3F2 summation (hyp3f2) share only the
numerics of mpnum, and neither reads the published claims."""

import ast
import pathlib
import subprocess
import sys

import pytest

import ellhyp

PIPELINES = ("hecke", "hyp3f2")


def _source(name):
    return (pathlib.Path(ellhyp.__file__).parent / f"{name}.py").read_text()


def _imports(tree):
    """Every imported module, relative ones as '.name'."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                yield from ("." + (node.module or alias.name)
                            for alias in node.names)
            else:
                yield node.module


@pytest.mark.parametrize("name", PIPELINES)
def test_pipeline_imports_only_stdlib_mpmath_and_mpnum(name):
    for module in _imports(ast.parse(_source(name))):
        top = module.split(".")[0]
        assert (module == ".mpnum" or top == "mpmath"
                or top in sys.stdlib_module_names), (name, module)


@pytest.mark.parametrize("name, other", [PIPELINES, PIPELINES[::-1]])
def test_pipelines_do_not_import_each_other(name, other):
    for module in _imports(ast.parse(_source(name))):
        assert other not in module.split("."), (name, module)


@pytest.mark.parametrize("name", PIPELINES)
def test_pipeline_does_not_mention_claims(name):
    assert "claims" not in _source(name)


def test_hyp3f2_holds_no_conductor_literal():
    # rhs_main sums the identity it is handed: no curve is named in hyp3f2
    literals = {node.value for node in ast.walk(ast.parse(_source("hyp3f2")))
                if isinstance(node, ast.Constant)}
    assert not {36, 64} & literals


def test_exact_layers_do_not_load_the_numeric_kernel():
    # claims pulls in cyclo, ecdiv and all of ksym: exact arithmetic only
    probe = ("import sys, ellhyp.claims; "
             "print(sorted({'mpmath', 'ellhyp.mpnum'} & set(sys.modules)))")
    src = str(pathlib.Path(ellhyp.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], cwd=src,
                         capture_output=True, text=True, check=True,
                         timeout=60)
    assert out.stdout.strip() == "[]"


# What product code uses of mpmath, exactly: numbers, precision control,
# printing, elementary functions and the Bernoulli numbers, each a name that
# an integer routine has yet to replace.  Its special functions (gamma,
# loggamma, bernoulli, hyp3f2, zeta, elliprf, agm, gammainc, ...) are the
# oracles of the tests, so src/ must compute its own.
MPMATH_ALLOWED = {
    "mpf", "mpc", "workprec", "nstr", "ldexp", "nint", "pi", "euler",
    "bernfrac", "exp", "log", "sqrt", "re", "im",
}
MPMATH_ORACLES = {"gamma", "loggamma", "bernoulli", "hyp3f2", "zeta",
                  "elliprf", "agm", "gammainc"}


def _mpmath_names(tree):
    """Every mpmath.<name> attribute and every name imported from mpmath."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "mpmath"):
            yield node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "mpmath":
            yield from (alias.name for alias in node.names)


def test_src_uses_only_elementary_mpmath():
    assert not MPMATH_ALLOWED & MPMATH_ORACLES
    root = pathlib.Path(ellhyp.__file__).parent
    used = {(path.relative_to(root).as_posix(), name)
            for path in sorted(root.rglob("*.py"))
            for name in _mpmath_names(ast.parse(path.read_text()))}
    assert used, "the walk found no mpmath use at all"
    assert sorted(u for u in used if u[1] not in MPMATH_ALLOWED) == []
    # the list names no more than src/ uses
    assert {name for _, name in used} == MPMATH_ALLOWED


def test_the_3f2_tail_forms_no_power():
    # the tail's scale t_{M+1} (M+1) / u_{M+1} and the Hurwitz zeta values
    # without their factor a^(1-s) need no power, root or log; the tail is
    # one integer ball, so hurwitz_zeta and accelerated_tail read no mpmath
    # name at all, nor an mpnum name that reaches mpmath
    forbidden = {"power", "root", "log"}
    assert not forbidden & set(_mpmath_names(ast.parse(_source("hyp3f2"))))
    for module, function in [("mpnum", "hurwitz_zeta"),
                             ("hyp3f2", "accelerated_tail")]:
        tree = ast.parse(_source(module))
        mpmath_names = {"mpmath", *_mpmath_names(tree), "Ball", "workprec",
                        "eps"}
        assert not mpmath_names & set(_names_read(tree, function)), function


def _private_reads(tree):
    """Every underscore name the module reads from another ellhyp module:
    `from .mod import _x`, and `mod._x` for a module bound by
    `from . import mod`."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "ellhyp"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"{node.module}.{alias.name}"
                if node.module in (None, "ellhyp"):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            yield f"{node.value.id}.{node.attr}"


def test_modules_read_no_private_name_of_another():
    # an underscore name is its module's own; another module that needs it
    # needs a public name (tests may still read private names)
    probe = ast.parse("from . import a as b\nfrom .c import _d, e\n"
                      "b._f, b.g, h._i\n")
    assert sorted(_private_reads(probe)) == ["b._f", "c._d"]
    root = pathlib.Path(ellhyp.__file__).parent
    reads = sorted((path.relative_to(root).as_posix(), name)
                   for path in sorted(root.rglob("*.py"))
                   for name in _private_reads(ast.parse(path.read_text())))
    assert reads == []


# The O_K arithmetic of the theta series; the point-count oracle is worth
# having only while it computes a_p without any of it.
O_K_HELPERS = {"_mul", "_conj", "_norm", "_units", "residue", "_hnf",
               "_theta"}


def _names_read(tree, function):
    """Every name and attribute read inside the top-level function."""
    (node,) = [n for n in tree.body
               if isinstance(n, ast.FunctionDef) and n.name == function]
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_point_count_oracle_reads_no_o_k_helper():
    tree = ast.parse(_source("hecke"))
    defined = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert O_K_HELPERS <= defined, O_K_HELPERS - defined
    assert "_theta" in set(_names_read(tree, "build_coeffs"))
    assert not O_K_HELPERS & set(_names_read(tree, "ap_pointcount"))

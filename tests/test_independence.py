"""The two sides of each identity come from independent pipelines: the Hecke
L-value (hecke) and the accelerated 3F2 summation (hyp3f2) share only the
numerics of mpnum, and neither reads the published claims."""

import ast
import pathlib
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

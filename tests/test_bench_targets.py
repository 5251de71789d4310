"""Every layer the benchmark tracer wraps must exist under its traced name."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from ellhyp import ellper, hecke, hyp3f2

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("modname, attr",
                         [(t[0], t[1]) for t in _targets()],
                         ids=lambda x: x)
def test_trace_target_resolves(modname, attr):
    owner = importlib.import_module(modname)
    cls_name, _, name = attr.rpartition(".")
    if cls_name:
        owner = getattr(owner, cls_name)
        assert name in vars(owner), f"{modname}.{attr} is not defined there"
    assert callable(getattr(owner, name)), f"{modname}.{attr}"


def test_tail_coefficients_count_is_second_positional():
    # the tracer's count_max hook reads `count` as args[1]
    sig = inspect.signature(hyp3f2.tail_coefficients)
    params = list(sig.parameters.values())
    assert params[1].name == "count"
    assert params[1].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


@pytest.mark.parametrize("fn, names", [
    (hecke.l_two, ["c", "tbl", "ctx"]),        # args[0], args[2]
    (hecke.lstar_zero, ["c"]),                 # args[0].N
    (hyp3f2.f32_unit, ["p", "ctx"]),           # args[0], args[1].digits
    (hyp3f2.rhs_main, ["curve_id"]),           # args[0]
    (ellper.lattice, ["N", "ctx"]),            # args[0], args[1].digits
], ids=["l_two", "lstar_zero", "f32_unit", "rhs_main", "lattice"])
def test_hooked_arguments_are_leading_positionals(fn, names):
    # the tracer hooks read these arguments by position, so a reordered or
    # keyword-only parameter breaks the --trace 1 run
    params = list(inspect.signature(fn).parameters.values())[: len(names)]
    assert [q.name for q in params] == names
    assert all(q.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
               for q in params)

"""Every layer the benchmark tracer wraps must exist under its traced name."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from ellhyp import hyp3f2

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

"""One fresh interpreter: set up `ellhyp`, then run ops one after another.

Reads {"ops": [argv, ...], "trace": bool, "spans": path or null} as JSON on
stdin and writes one JSON object to stdout.  Each op goes through the
`ellhyp` entry point `cli.main(argv)` with its output captured.  Run from the
benchmark:  python3 bench/worker.py < request.json
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def set_up() -> dict:
    """Import the package the way `ellhyp` does, timing the ksym import and
    the claims load on their own.  The parent measures the whole set-up from
    before it started this interpreter to the returned `ready` time."""
    sys.path.insert(0, str(ROOT / "src"))
    import ellhyp.ecdiv  # noqa: F401  (mpmath, mpnum, cyclo, ecdiv)
    t0 = time.monotonic()
    import ellhyp.ksym  # noqa: F401
    t1 = time.monotonic()
    import ellhyp.cli  # noqa: F401
    from ellhyp import claims
    t2 = time.monotonic()
    claims.raw()
    t3 = time.monotonic()
    return {"ksym.import_s": t1 - t0, "claims.load_s": t3 - t2, "ready": t3}


def run_ops(ops, tracer=None) -> list:
    from ellhyp import cli
    results = []
    for i, argv in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.begin_op(i, "op." + argv[0])
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        results.append({"rc": rc, "seconds": seconds, "stdout": out.getvalue(),
                        "stderr": err.getvalue()})
    return results


def understated(tracer) -> dict:
    """Calls whose reported error is smaller than their true error.

    f32_unit: checked where the parameters are in Dixon's form, against
    Dixon's sum at +20 digits.  rhs_main: checked against the independent L
    side of the same op, |R - L| > err(R) + err(L)."""
    import mpmath
    from oracles import dixon_form, dixon_value

    f32 = 0
    for p, digits, val, err in tracer.records["f32_unit"]:
        form = dixon_form((p.a1, p.a2, p.a3, p.b1, p.b2))
        if form is not None:
            with mpmath.workdps(digits + 20):
                f32 += abs(val - dixon_value(*form, digits + 20)) > err
    lside = {(op, curve): (val, err) for op, curve, val, err in tracer.records["lstar"]}
    rhs = 0
    for op, curve, val, err in tracer.records["rhs"]:
        lval, lerr = lside[(op, curve)]
        with mpmath.workdps(400):
            rhs += abs(val - lval) > err + lerr
    return {"hyp3f2.f32_unit.err_understated": int(f32),
            "hyp3f2.rhs_main.err_understated": int(rhs)}


def main() -> None:
    request = json.load(sys.stdin)
    setup = set_up()
    tracer = None
    if request.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    results = run_ops(request["ops"], tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reply = {"setup": setup, "ops": results, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        reply["trace"] = tracer.summary()
        reply["trace"]["stats"].update(understated(tracer))
        lattice = tracer.records["lattice"]
        reply["trace"]["lattice_distinct"] = len(set(lattice))
        if request.get("spans"):
            tracer.write_spans(request["spans"])
    json.dump(reply, sys.stdout)


if __name__ == "__main__":
    main()

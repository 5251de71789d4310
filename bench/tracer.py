"""Spans and counters around calls into the layers of `ellhyp`, from outside.

`Tracer.install()` wraps module functions and class methods in place.  A
wrapped name is replaced in every `ellhyp` namespace that binds the same
object (for example `cli` imports `ord_at` and `verify_divisor` directly), and
every alias of a method (`__radd__ = __add__`) is replaced as well.

A timed wrapper records a span (op id, name, start, end, parent span); a
counting wrapper only counts calls.  Hooks run after a call returns and derive
stats from its arguments and result.  Spans stay in memory until
`write_spans`.
"""

from __future__ import annotations

import functools
import gzip
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _note_count_max(tr, args, kwargs, result):
    count = kwargs.get("count", args[1] if len(args) > 1 else None)
    key = "hyp3f2.tail_coefficients.count_max"
    tr.stats[key] = max(tr.stats[key], count)


def _note_afe_terms(tr, args, kwargs, result):
    hecke = sys.modules["ellhyp.hecke"]
    curve, ctx = args[0], args[2]
    tr.stats["hecke.afe_terms"] += hecke.afe_n_max(curve, ctx)


def _note_lattice(tr, args, kwargs, result):
    tr.records["lattice"].append((args[0], args[1].digits))


def _note_f32(tr, args, kwargs, result):
    tr.records["f32_unit"].append((args[0], args[1].digits, result.val, result.err))


def _note_side(side):
    def note(tr, args, kwargs, result):
        curve = args[0].N if side == "lstar" else args[0]
        tr.records[side].append((tr.op, curve, result.val, result.err))
    return note


def _note_ok(tr, args, kwargs, result):
    tr.stats["ksym.series.expand.useful"] += 1


# (module, attribute or Class.method, metric prefix, timed, hook after return)
TARGETS = [
    ("ellhyp.cli", "emit", "cli.report", True, None),
    ("ellhyp.hyp3f2", "tail_coefficients", "hyp3f2.tail_coefficients", True,
     _note_count_max),
    ("ellhyp.hyp3f2", "accelerated_tail", "hyp3f2.accelerated_tail", True, None),
    ("ellhyp.hyp3f2", "f32_unit", "hyp3f2.f32_unit", True, _note_f32),
    ("ellhyp.hyp3f2", "rhs_main", "hyp3f2.rhs_main", True, _note_side("rhs")),
    ("ellhyp.mpnum", "hurwitz_zeta", "mpnum.hurwitz_zeta", True, None),
    ("ellhyp.mpnum", "upper_incomplete_gamma", "mpnum.upper_incomplete_gamma",
     True, None),
    ("ellhyp.mpnum", "agm", "mpnum.agm", False, None),
    ("ellhyp.hecke", "l_two", "hecke.l_two", True, _note_afe_terms),
    ("ellhyp.hecke", "build_coeffs", "hecke.build_coeffs", True, None),
    ("ellhyp.hecke", "lstar_zero", "hecke.lstar_zero", True, _note_side("lstar")),
    ("ellhyp.ksym.series", "verify_divisor", "ksym.series.verify_divisor", True,
     None),
    ("ellhyp.ksym.series", "ord_at", "ksym.series.ord_at", True, _note_ok),
    ("ellhyp.ksym.series", "_leading", "ksym.series.leading", False, _note_ok),
    ("ellhyp.ksym.series", "_expand", "ksym.series.expand", False, None),
    ("ellhyp.ksym.series", "tame_symbol", "ksym.series.tame_symbol", True, None),
    ("ellhyp.ksym.ffield", "FFElem.norm_to_rational_subfield",
     "ksym.ffield.norm_to_rational_subfield", True, None),
    ("ellhyp.ksym.ffield", "FFElem.__mul__", "ksym.ffield.FFElem.mul", False, None),
    ("ellhyp.ksym.ffield", "FFElem.inv", "ksym.ffield.FFElem.inv", False, None),
    ("ellhyp.ksym.ratfunc", "RatFunc.__init__", "ksym.ratfunc.RatFunc.init",
     False, None),
    ("ellhyp.ksym.ratfunc", "Poly.gcd", "ksym.ratfunc.Poly.gcd", True, None),
    ("ellhyp.ksym.symbols", "rosset_tate", "ksym.symbols.rosset_tate", True, None),
    ("ellhyp.ksym.symbols", "rosset_tate_chain", "ksym.symbols.rosset_tate_chain",
     True, None),
    ("ellhyp.cyclo", "CycloNum.__mul__", "cyclo.CycloNum.mul", False, None),
    ("ellhyp.cyclo", "CycloNum.__add__", "cyclo.CycloNum.add", False, None),
    ("ellhyp.cyclo", "CycloNum.inv", "cyclo.CycloNum.inv", False, None),
    ("ellhyp.ecdiv", "beta_map", "ecdiv.beta_map", True, None),
    ("ellhyp.ecdiv", "b3_reduce", "ecdiv.b3_reduce", True, None),
    ("ellhyp.ecdiv", "torsion_Ef", "ecdiv.torsion_Ef", True, None),
    ("ellhyp.ecdiv", "GroupLaw.add", "ecdiv.GroupLaw.add", False, None),
    ("ellhyp.ellper", "elliptic_log", "ellper.elliptic_log", True, None),
    ("ellhyp.ellper", "torsion_label", "ellper.torsion_label", True, None),
    ("ellhyp.ellper", "lattice", "ellper.lattice", False, _note_lattice),
]


class Tracer:
    def __init__(self):
        self.spans = []          # (op, name, start, end, parent index)
        self.stack = []          # indices of the open spans
        self.counts = Counter()  # calls per counted (untimed) name
        self.stats = Counter()   # values the hooks derive from arguments
        self.records = defaultdict(list)
        self.op = -1

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, fn, hook):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (self.op, name, start, end, parent)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return wrapper

    def _counted(self, name, fn, hook):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "ellhyp" or n.startswith("ellhyp.")]
        for modname, attr, name, timed, hook in TARGETS:
            owner = sys.modules[modname]
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
                orig = owner.__dict__[meth]
            else:
                orig = getattr(owner, meth)
            wrapped = (self._timed if timed else self._counted)(name, orig, hook)
            # every binding of the same object: class aliases, or module
            # namespaces that imported the function by name
            owners = [owner] if cls_name else modules
            for ns in owners:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, key, wrapped)

    # -- ops --------------------------------------------------------------

    def begin_op(self, op: int, name: str) -> None:
        self.op = op
        self.stack.append(len(self.spans))
        self.spans.append((op, name, perf_counter(), None, -1))

    def end_op(self) -> None:
        idx = self.stack.pop()
        op, name, start, _, parent = self.spans[idx]
        self.spans[idx] = (op, name, start, perf_counter(), parent)

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self time per span name; covered and uncovered op time.

        Self time is a span's duration minus the time its child spans cover.
        Op spans (parent -1) are roots; their self time is the part of the
        op that no layer span covers."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        op_s = uncovered_s = 0.0
        for i, (_, name, start, end, parent) in enumerate(self.spans):
            if parent < 0:
                op_s += end - start
                uncovered_s += end - start - child[i]
            else:
                calls[name] += 1
                self_s[name] += end - start - child[i]
        return {"calls": dict(calls), "self_s": dict(self_s),
                "counts": dict(self.counts), "stats": dict(self.stats),
                "op_s": op_s,
                "uncovered_s": uncovered_s}

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("op,name,start,end,parent\n")
            for op, name, start, end, parent in self.spans:
                fh.write(f"{op},{name},{start:.9f},{end:.9f},{parent}\n")

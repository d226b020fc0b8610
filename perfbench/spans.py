"""Spans around the calls into each rdbridge module, and the per-layer metrics.

``Tracer`` wraps the public functions of ``rdbridge`` from outside the
package and installs each wrapper under every module-level name through
which a caller looks it up (``rdbridge.io_cli.ba_fixed_point`` for the
CLI, ``rdbridge.blahut.ba_fixed_point`` for ``rd_curve``, and so on).
The library itself is not modified; leaving the ``with`` block restores
the original names.

A span records name, start, end, parent and op id.  Spans opened in a
worker thread with no open span of their own (``rd_curve``'s thread
pool) take the innermost open span of the main thread as parent.  Self
time is a span's duration minus the union of its children's intervals.
Span times are CPU seconds of the process, the clock of the end-to-end
metrics before their speed calibration (NOTES.md says why).
"""
from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict

import rdbridge.blahut
import rdbridge.distortion
import rdbridge.io_cli
import rdbridge.schrodinger
import rdbridge.verify
from rdbridge.errors import ConvergenceError

# Layer -> public functions to wrap.  ``measures`` only validates
# vectors in O(n) and gets no layer metric.
TRACED = {
    "blahut": ("ba_fixed_point", "rd_curve", "rd_value_from_nu", "dual_certificate"),
    "schrodinger": ("sinkhorn", "eval_J", "eval_L", "schrodinger_residual"),
    "verify": ("check_optimality", "compare_curve"),
    "io_cli": ("parse_config_text", "resolve_config", "build_problem", "solve_point_for_distortion", "load_nu", "_emit"),
    "distortion": (
        "discretize_gaussian", "discretize_uniform", "squared_error", "hamming",
        "normalize_loss", "d_max", "d_floor", "expected_loss",
    ),
}
CLOCK = time.process_time
# Modules whose globals hold the names callers look up.
CALLERS = (rdbridge.io_cli, rdbridge.blahut, rdbridge.verify, rdbridge.schrodinger)


def _ba_attrs(args, kwargs, point):
    dist = args[1] if len(args) > 1 else kwargs["dist"]
    return {
        "iterations": point.iterations, "converged": point.converged, "beta": point.beta,
        "n": dist.shape[0], "m": dist.shape[1],
    }


def _sinkhorn_attrs(args, kwargs, result):
    pair = result[0]
    return {"iterations": pair.iterations, "converged": pair.converged, "beta": pair.beta}


ATTRS = {
    "blahut.ba_fixed_point": _ba_attrs,
    "schrodinger.sinkhorn": _sinkhorn_attrs,
    "verify.check_optimality": lambda a, k, r: {"verdict": r.verdict},
    "io_cli._emit": lambda a, k, r: {"bytes": len(a[0].encode())},
}


class Tracer:
    """Collects spans while active; use as a context manager."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op_id: int | None = None
        self._stacks: dict[int, list] = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()
        self._saved: list = []

    def _stack(self) -> list:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            with self._lock:
                stack = self._stacks.setdefault(ident, [])
        return stack

    def _open(self, name: str) -> dict:
        stack = self._stack()
        if stack:
            parent = stack[-1]["id"]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1]["id"] if main and threading.get_ident() != self._main else None
        with self._lock:
            span = {"id": len(self.spans), "name": name, "parent": parent, "op": self.op_id}
            self.spans.append(span)
        stack.append(span)
        span["start"] = CLOCK()
        return span

    def _close(self, span: dict):
        span["end"] = CLOCK()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Open a span for the duration of the ``with`` block."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name, lambda args, kwargs, result: {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                try:
                    result = fn(*args, **kwargs)
                except ConvergenceError as err:
                    span.update(attrs(args, kwargs, err.partial))
                    raise
            span.update(attrs(args, kwargs, result))
            return result

        return traced

    def __enter__(self):
        wrappers = {}
        for layer, names in TRACED.items():
            module = getattr(rdbridge, layer)
            for fname in names:
                fn = getattr(module, fname)
                wrappers[fn] = self.wrap(f"{layer}.{fname}", fn)
        for module in CALLERS:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def dump(self, path):
        """Write the spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _union(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    return total + (cur_hi - cur_lo if cur_hi is not None else 0.0)


def dur(span) -> float:
    return span["end"] - span["start"]


def covered(spans) -> float:
    """Time covered by the union of the spans' intervals (pool threads overlap)."""
    return _union((s["start"], s["end"]) for s in spans)


class SpanIndex:
    """Lookup helpers over a finished list of spans."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        self.children = defaultdict(list)
        for s in spans:
            if s["parent"] is not None:
                self.children[s["parent"]].append(s)

    def named(self, *names):
        return [s for s in self.spans if s["name"] in names]

    def self_time(self, span) -> float:
        lo, hi = span["start"], span["end"]
        kids = [(max(c["start"], lo), min(c["end"], hi)) for c in self.children[span["id"]]]
        return dur(span) - _union((a, b) for a, b in kids if b > a)

    def ancestors(self, span):
        while span["parent"] is not None:
            span = self.by_id[span["parent"]]
            yield span

    def outermost(self, names, stop=()):
        """Spans with a name in ``names`` that have no ancestor in ``names`` or ``stop``."""
        blocked = set(names) | set(stop)
        return [s for s in self.named(*names) if not any(a["name"] in blocked for a in self.ancestors(s))]


_BA = "blahut.ba_fixed_point"
_SK = "schrodinger.sinkhorn"
_CHECK = "verify.check_optimality"
_POINT = "io_cli.solve_point_for_distortion"
_CERT = ("blahut.dual_certificate", "blahut.rd_value_from_nu")
_EVAL = ("schrodinger.eval_J", "schrodinger.eval_L", "schrodinger.schrodinger_residual")
_DIST = tuple(f"distortion.{n}" for n in TRACED["distortion"])
_IO = tuple(f"io_cli.{n}" for n in TRACED["io_cli"]) + ("io_cli.main",)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, n_ops: int) -> tuple[dict, list]:
    """Per-layer metrics from the spans of ``n_ops`` ops, and notes on absent ones.

    Times and counts are per op unless the unit says otherwise.  A metric
    whose spans never occur is reported as 0 with a note saying so.
    """
    ix = SpanIndex(spans)
    ba, sk = ix.named(_BA), ix.named(_SK)
    ba_s, sk_s = covered(ba), covered(sk)
    ba_its, sk_its = sum(s["iterations"] for s in ba), sum(s["iterations"] for s in sk)
    checks = ix.named(_CHECK)
    point_solves = [s for s in ba if any(a["name"] == _POINT for a in ix.ancestors(s))]
    # name -> (value, unit, spans it is computed from)
    table = {
        "blahut.solves": (len(ba) / n_ops, "1/op", (_BA,)),
        "blahut.iterations": (ba_its / n_ops, "1/op", (_BA,)),
        "blahut.unconverged": (sum(not s["converged"] for s in ba) / n_ops, "1/op", (_BA,)),
        "blahut.solve_s": (ba_s / n_ops, "s/op", (_BA,)),
        "blahut.us_per_iter": (1e6 * _ratio(ba_s, ba_its), "us", (_BA,)),
        # Computed, 4 n m flops per iteration (two matvecs); at n <= 257
        # every array fits in cache, so this is no bandwidth figure.
        "blahut.flops_per_s": (_ratio(sum(4.0 * s["n"] * s["m"] * s["iterations"] for s in ba), ba_s), "flop/s", (_BA,)),
        "blahut.curve_self_s": (
            sum(ix.self_time(s) for s in ix.named("blahut.rd_curve")) / n_ops, "s/op", ("blahut.rd_curve",)
        ),
        "blahut.certificate_s": (covered(ix.outermost(_CERT, stop=(_BA,))) / n_ops, "s/op", _CERT),
        "schrodinger.solves": (len(sk) / n_ops, "1/op", (_SK,)),
        "schrodinger.iterations": (sk_its / n_ops, "1/op", (_SK,)),
        "schrodinger.unconverged": (sum(not s["converged"] for s in sk) / n_ops, "1/op", (_SK,)),
        "schrodinger.solve_s": (sk_s / n_ops, "s/op", (_SK,)),
        "schrodinger.ms_per_iter": (1e3 * _ratio(sk_s, sk_its), "ms", (_SK,)),
        "schrodinger.eval_s": (covered(ix.named(*_EVAL)) / n_ops, "s/op", _EVAL),
        "verify.check_s": (sum(map(ix.self_time, checks)) / n_ops, "s/op", (_CHECK,)),
        **{
            f"verify.verdict_{v}": (sum(s["verdict"] == v for s in checks) / n_ops, "1/op", (_CHECK,))
            for v in ("optimal", "suboptimal", "inconclusive")
        },
        "verify.compare_s": (covered(ix.named("verify.compare_curve")) / n_ops, "s/op", ("verify.compare_curve",)),
        "io_cli.solves_per_point": (_ratio(len(point_solves), len(ix.named(_POINT))), "1/point", (_POINT,)),
        "io_cli.self_s": (sum(map(ix.self_time, ix.named(*_IO))) / n_ops, "s/op", _IO),
        "io_cli.out_bytes": (sum(s["bytes"] for s in ix.named("io_cli._emit")) / n_ops, "bytes/op", ("io_cli._emit",)),
        "io_cli.build_s": (covered(ix.named("io_cli.build_problem")) / n_ops, "s/op", ("io_cli.build_problem",)),
        "distortion.build_s": (covered(ix.outermost(_DIST)) / n_ops, "s/op", _DIST),
    }
    present = {s["name"] for s in spans}
    values = {name: {"value": value, "unit": unit} for name, (value, unit, _) in table.items()}
    absent = [
        f"{name}: 0, this workload never calls {' or '.join(sources)}"
        for name, (_, _, sources) in table.items()
        if not present.intersection(sources)
    ]
    return values, absent


def op_counts(spans) -> dict:
    """Machine-independent counts per op id: BA iterations per beta, Sinkhorn
    iterations, solves, verdicts."""
    per_op = defaultdict(lambda: defaultdict(list))
    for s in spans:
        if s["name"] == _BA:
            per_op[s["op"]]["ba"].append((s["beta"], s["iterations"]))
        elif s["name"] == _SK:
            per_op[s["op"]]["sinkhorn"].append((s["beta"], s["iterations"]))
        elif s["name"] == _CHECK:
            per_op[s["op"]]["verdicts"].append(s["verdict"])
    # Thread-pool solves finish in any order; sort so the record is canonical.
    return {op: {k: sorted(v) for k, v in d.items()} for op, d in per_op.items()}

#!/usr/bin/env python3
"""rdbridge benchmark: closed-loop CLI workloads with checked answers.

Run from the repository root:

    python3 perfbench/run.py --workload gaussian-curve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One client calls ``rdbridge.io_cli.main`` in-process, each op starting
when the previous one returns.  The workload's op list (a "pass") comes
from the seed and repeats as often as ``--seconds`` hold at the
workload's nominal pass time; every op's output is checked, and repeated
passes must reproduce every output byte for byte.  A fixed calibration
kernel runs between ops, and each op's CPU time is rescaled by the
kernel's speed around it, so the gated times do not follow the shared
host's speed phases.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` spends half the time untraced and half traced and prints
the per-layer metrics plus the tracing overhead.  The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
NOTES.md explains the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# Pin BLAS to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("gaussian-curve", "uniform-target", "gaussian-certify", "bernoulli-compare")
SETUP_PROBES = 4
SETUP_TIMEOUT = 60
# Two passes at least, so every op's output is checked for repeating.
MIN_PASSES = 2
# No further pass starts once it would end past WALL_CAP * --seconds, so a
# run on a machine much slower than the nominal pass times ends in time.
WALL_CAP = 1.4
# CPU seconds of calibrate() in the slow phase of the reference machine
# (NOTES.md).  Gated times are CPU seconds times CAL_REF over the median
# of the kernel times around them.
CAL_REF = 0.021


class BenchError(Exception):
    """The benchmark cannot run here (no sources, a broken import, ...)."""


def log(*parts):
    print(*parts, flush=True)


def import_rdbridge():
    if not (SRC / "rdbridge" / "__init__.py").is_file():
        raise BenchError(f"no rdbridge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rdbridge

    if Path(rdbridge.__file__).resolve().parent != (SRC / "rdbridge").resolve():
        raise BenchError(f"imported rdbridge from {rdbridge.__file__}, not from {SRC}")
    return rdbridge


def setup(workload: str, seed: int, workdir: Path):
    """Import rdbridge and generate the inputs; returns (CPU seconds, inputs, argvs)."""
    t0 = time.process_time()
    import_rdbridge()
    sys.path.insert(0, str(HERE))
    import workloads

    inputs = workloads.generate(workload, seed)
    argvs = inputs.materialize(workdir)
    return time.process_time() - t0, inputs, argvs


def calibrate() -> float:
    """CPU seconds of a fixed kernel shaped like the program's hot loops.

    50 Blahut-Arimoto-like steps (a 257 x 257 exp and two mat-vecs), one
    log-domain Sinkhorn-like step (two scipy logsumexp over 257 x 257) and
    a plain-Python loop.  The shared host runs at speeds up to 30% apart
    for seconds to minutes at a time, and code of each of these kinds
    slows by its own amount; the ratio of an op's CPU time to this
    kernel's, timed right around the op, follows the phases to within a
    few percent (NOTES.md), so the gated metrics are scaled by it.  The
    kernel calls nothing from rdbridge, so no change to the program
    moves it.
    """
    import numpy as np
    from scipy.special import logsumexp

    x = np.linspace(-6.0, 6.0, 257)
    loss = (x[:, None] - x[None, :]) ** 2
    p = np.exp(-(x**2) / 2.0)
    p /= p.sum()
    log_p = np.log(p)
    c0 = time.process_time()
    q = np.full(p.size, 1.0 / p.size)
    for _ in range(50):
        kernel = np.exp(-2.0 * loss)
        q = q * (kernel.T @ (p / (kernel @ q)))
        q /= q.sum()
    f = -logsumexp(-2.0 * loss + log_p[None, :], axis=1)
    logsumexp(-2.0 * loss + (f + log_p)[:, None], axis=0)
    acc = 0
    for i in range(40000):
        acc += (i * i) % 7
    return time.process_time() - c0


def setup_probe(workload: str, seed: int) -> float:
    """Time one set-up in a fresh interpreter, scaled to the reference speed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    cpu, cal = map(float, proc.stdout.strip().splitlines()[-1].split())
    return cpu * CAL_REF / cal


def environment() -> dict:
    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "cpu": "unknown",
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "unknown",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return env


@dataclass
class OpResult:
    cpu: float  # CPU seconds of the process during the op, all threads
    wall: float
    outcome: object  # workloads.Outcome
    slot: int  # index in Run.cal of the kernel time taken just before the op
    scaled: float = 0.0  # cpu at the reference speed, set by Run.rescale()


def run_op(main, argv: list, out: Path, threads: int):
    """One CLI call; returns (CPU seconds, wall seconds, exit code, output text)."""
    if threads > 1:
        os.environ["RD_BRIDGE_THREADS"] = str(threads)
    else:
        os.environ.pop("RD_BRIDGE_THREADS", None)
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        code = main(argv + ["--out", str(out)])
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code
    except Exception as exc:  # a crash is a failed op, not a failed benchmark
        traceback.print_exc()
        code = f"raised {exc!r}"
    cpu, wall = time.process_time() - c0, time.perf_counter() - t0
    text = out.read_text() if out.exists() else ""
    out.unlink(missing_ok=True)
    return cpu, wall, code, text


class Run:
    """The op results of whole passes, kept apart for untraced and traced passes."""

    def __init__(self, inputs, argvs, workdir: Path):
        self.inputs, self.argvs, self.out = inputs, argvs, workdir / "out.txt"
        self.passes = {False: [], True: []}  # traced -> list of passes
        self.failures = set()
        self.first_text = {}
        self.nondeterministic = set()
        self.cal = []  # calibrate() samples, one before the first op and one after each op

    def one_pass(self, main, tracer=None) -> list:
        import workloads

        results = []
        n_pass = len(self.passes[False]) + len(self.passes[True])
        if not self.cal:
            self.cal.append(calibrate())
        for i, (op, argv) in enumerate(zip(self.inputs.ops, self.argvs)):
            if tracer is not None:
                tracer.op_id = n_pass * len(self.argvs) + i
                with tracer.span("io_cli.main"):
                    cpu, wall, code, text = run_op(main, argv, self.out, op.threads)
            else:
                cpu, wall, code, text = run_op(main, argv, self.out, op.threads)
            self.cal.append(calibrate())
            try:
                outcome = op.check(code, text)
            except (ValueError, KeyError, IndexError, TypeError) as err:
                outcome = workloads.Outcome(ok=False, why=f"unreadable output ({err!r}), exit {code}")
            if not outcome.ok:
                self.failures.add(f"op {i} ({argv[0]}): {outcome.why}")
            if self.first_text.setdefault(i, text) != text:
                self.nondeterministic.add(i)
            results.append(OpResult(cpu, wall, outcome, len(self.cal) - 2))
        self.passes[tracer is not None].append(results)
        return results

    def measure(self, main, seconds: float, tracer=None):
        """As many passes as fit ``seconds`` at the workload's nominal pass time."""
        import workloads

        planned = max(MIN_PASSES, int(seconds / workloads.PASS_SECONDS[self.inputs.workload] + 0.5))
        lengths, start = [], time.perf_counter()
        while len(lengths) < planned:
            late = time.perf_counter() - start + statistics.median(lengths or [0.0]) > WALL_CAP * seconds
            if len(lengths) >= MIN_PASSES and late:
                log(f"  wall cap: stopped after {len(lengths)} of {planned} passes")
                break
            lengths.append(sum(r.wall for r in self.one_pass(main, tracer)))
        self.rescale()

    def rescale(self):
        """Scale each op by the median of the two kernel times before it and the two after.

        The median of four drops one kernel run that a burst on the host
        slowed or that a quiet moment sped up; a single kernel time moved
        single ops by up to 25%.
        """
        for r in self.results():
            r.scaled = r.cpu * CAL_REF / statistics.median(self.cal[max(r.slot - 1, 0) : r.slot + 3])

    def results(self):
        return [r for traced in (False, True) for p in self.passes[traced] for r in p]


def tail(latencies: list) -> tuple[float, float, int]:
    """Highest percentile with at least ten ops beyond it: (value, percentile, ops)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n, n


def op_medians(passes: list, key: str) -> list:
    """Each op's median over the passes."""
    return [statistics.median(getattr(p[i], key) for p in passes) for i in range(len(passes[0]))]


def pass_time(passes: list, key: str) -> float:
    """The op list's time: each op's median over the passes, summed."""
    return sum(op_medians(passes, key))


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()[:16]


def _fmt(values) -> str:
    return " ".join(f"{v:.4f}" for v in values)


def end_to_end(run: Run, setup_samples: list) -> dict:
    """The end-to-end metrics of the untraced passes, in CPU seconds at the reference speed.

    The ops are CPU-bound and single-threaded apart from the
    bernoulli-compare pool, so an op's CPU time is its latency on an idle
    machine; wall time on a shared VM adds other tenants' bursts, and both
    follow the host's speed phases, which the calibration kernel takes
    out (NOTES.md).  The unscaled CPU and wall-clock figures are printed
    alongside.
    """
    passes = run.passes[False]
    results = [r for p in passes for r in p]

    def summary(key: str) -> dict:
        latencies = [getattr(r, key) for r in results]
        return {
            "wall_s": pass_time(passes, key),
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail(latencies)[0],
        }

    metrics = {key: summary(key) for key in ("scaled", "cpu", "wall")}
    _, pct, n = tail([r.scaled for r in results])
    answers = sum(op.answers for op in run.inputs.ops)
    alias = "laws_per_s" if run.inputs.workload == "gaussian-certify" else "points_per_s"
    failed = sum(not r.outcome.ok for r in results)
    certified = [r.outcome.certified for r in results if r.outcome.certified is not None]
    log(f"  setup scaled seconds: {_fmt(setup_samples)}")
    log(f"  calibration kernel: median {statistics.median(run.cal):.6f} s over {len(run.cal)} runs (reference {CAL_REF} s)")
    log(f"  pass scaled seconds: {_fmt(sum(r.scaled for r in p) for p in passes)}")
    log(f"  op medians, scaled seconds: {_fmt(op_medians(passes, 'scaled'))}")
    log(f"  pass CPU seconds: {_fmt(sum(r.cpu for r in p) for p in passes)}")
    log(f"  pass wall seconds: {_fmt(sum(r.wall for r in p) for p in passes)}")
    log(f"  op_tail_s is p{pct:.1f} of {n} ops")
    log("  unscaled CPU: " + ", ".join(f"{k} {v:.6g} s" for k, v in metrics["cpu"].items()))
    log("  wall clock: " + ", ".join(f"{k} {v:.6g} s" for k, v in metrics["wall"].items()))
    log(f"  {alias} {answers / metrics['scaled']['wall_s']:.6g} 1/s ({answers} answers per pass / wall_s)")
    log(f"  failed_frac {failed / n:.6g} ({failed}/{n})")
    if certified:
        log(f"  certified_frac {sum(certified) / len(certified):.6g} ({sum(certified)}/{len(certified)})")
    values = dict(setup_s=statistics.median(setup_samples), **metrics["scaled"])
    return {k: {"value": v, "unit": "s"} for k, v in values.items()}


def per_layer(run: Run, tracer) -> dict:
    import spans

    n_ops = len(run.argvs)
    untraced = pass_time(run.passes[False], "scaled")
    traced = pass_time(run.passes[True], "scaled")
    metrics, absent = spans.layer_metrics(tracer.spans, n_ops * len(run.passes[True]))
    metrics["trace.overhead_pct"] = {"value": 100.0 * (traced / untraced - 1.0), "unit": "%"}
    log(f"  untraced pass scaled seconds: {_fmt(sum(r.scaled for r in p) for p in run.passes[False])}")
    log(f"  traced pass scaled seconds: {_fmt(sum(r.scaled for r in p) for p in run.passes[True])}")
    for note in absent:
        log(f"  absent {note}")
    by_index = {}
    for op_id, record in sorted(spans.op_counts(tracer.spans).items()):
        if by_index.setdefault(op_id % n_ops, record) != record:
            run.nondeterministic.add(op_id % n_ops)
    log(f"  traced counts digest {digest(by_index)}")
    for i, record in sorted(by_index.items()):
        compact = {k: [v[-1] if isinstance(v, tuple) else v for v in vals] for k, vals in record.items()}
        log(f"  op {i} counts {json.dumps(compact)}")
    return metrics


def run_workload(args) -> int:
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_samples = []
        if not args.trace:
            setup_samples = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        cpu, inputs, argvs = setup(args.workload, args.seed, workdir)
        setup_samples.append(cpu * CAL_REF / calibrate())
        from rdbridge.io_cli import main

        log(f"perfbench env {json.dumps(environment())}")
        log(f"perfbench workload {args.workload} seed {args.seed}: {len(argvs)} ops per pass, closed loop, 1 client")
        run = Run(inputs, argvs, workdir)
        run_op(main, argvs[0], run.out, inputs.ops[0].threads)  # warm-up, not timed
        if args.trace:
            import spans

            run.measure(main, args.seconds / 2)
            tracer = spans.Tracer()
            with tracer:
                run.measure(main, args.seconds / 2, tracer)
            metrics = per_layer(run, tracer)
            path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.dump(path)
            log(f"  spans written to {path.relative_to(ROOT)}")
        else:
            run.measure(main, args.seconds)
            metrics = end_to_end(run, setup_samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = run.results()
    outcomes = [r.outcome for r in run.passes[bool(args.trace)][0]]
    log(f"  answers digest {digest([o.answers for o in outcomes])}")
    log(f"  output digest {digest(run.first_text)}")
    log(f"  counts digest {digest([o.counts for o in outcomes])}")
    for failure in sorted(run.failures):
        log(f"  FAILED {failure}")
    for i in sorted(run.nondeterministic):
        log(f"  NONDETERMINISTIC op {i}: output or counts differ between passes")
    for name, m in metrics.items():
        log(f"  metric {name} {m['value']:.6g} {m['unit']}")
    failed = sum(not r.outcome.ok for r in results)
    result = {
        "correct": failed == 0 and not run.nondeterministic,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, then one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"workload {workload} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            workdir = WORK / f"probe-{os.getpid()}"
            try:
                cpu = setup(args.workload, args.seed, workdir)[0]
                print(cpu, calibrate())
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

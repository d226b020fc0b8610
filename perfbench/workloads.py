"""Workload generation and answer checks for the rdbridge benchmark.

A workload turns the benchmark seed into a fixed list of CLI ops (a
"pass").  Each op carries its argv for ``rdbridge.io_cli.main``, the
number of answers it produces, and a check that parses the op's output
file and compares it with a reference computed here, not by the program.

Free parameters are drawn per op from the middle tenth of one cell of
their range, so every seed covers the whole range once per pass and the
cost of a pass barely depends on the seed: solver cost is a rough, in
places step-like function of these parameters (bisection paths, support
collapse, critical slopes), and free draws over the whole range moved a
pass by 20-40% between seeds.  NOTES.md records the cells and why.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import rdbridge
from rdbridge.io_cli import build_problem, resolve_config

WORKLOADS = ("gaussian-curve", "uniform-target", "gaussian-certify", "bernoulli-compare")
# CPU seconds of one pass on the 2-core Xeon VM the benchmark was tuned
# on.  A run makes --seconds / PASS_SECONDS passes, so every run of a
# workload has the same op count and its tail is the same percentile.
PASS_SECONDS = {"gaussian-curve": 3.8, "uniform-target": 3.9, "gaussian-certify": 10.6, "bernoulli-compare": 8.5}

# gaussian-curve: the README run.conf fixture (Gaussian, 257 points, mse,
# warm start), with a shorter schedule and a looser tol so one curve
# takes a fraction of a second instead of 20-40 s.
CURVE_CONF = """\
source.kind = gaussian
source.points = 257
distortion.kind = mse
betas.lo = 2.0
betas.hi = 10.0
betas.count = 4
tol = 5e-4
max_iter = 300000
units = nats
"""
CURVE_OPS = 12
CURVE_SIGMA = (0.8, 1.25)
CURVE_RATE_BOUND = 5e-3  # acceptance criterion 2

# uniform-target: bisection for a target distortion f * d_max.
UNIFORM_POINTS = 201
UNIFORM_TOL = 1e-3
UNIFORM_OPS = 8
UNIFORM_F = (0.35, 0.63)
UNIFORM_SLB_MARGIN = 5e-3

# gaussian-certify: candidate laws near the optimum, checked and scaled.
CERTIFY_POINTS = 257
CERTIFY_LAWS = 8
# Law k takes beta cell k and eps cell CERTIFY_PAIRING[k]: a fixed
# pairing, so the seed cannot put every large eps on a large beta.
CERTIFY_PAIRING = (2, 5, 0, 7, 4, 1, 6, 3)
CERTIFY_BETA = (1.5, 6.0)
CERTIFY_EPS = (1e-4, 1e-1)
CERTIFY_FLOOR = -1e-12

# bernoulli-compare: cold 30-point sweep on the thread pool.
BERNOULLI_BETAS = (0.1, 20.0, 30)
BERNOULLI_TOL = 1e-11
BERNOULLI_P = (0.05, 0.45)
BERNOULLI_THREADS = 2
COMPARE_BOUND = 1e-6  # the CLI default of compare.bound


@dataclass
class Outcome:
    """What one op's output says, and whether it passed its check."""

    ok: bool
    why: str = ""
    answers: dict = field(default_factory=dict)  # (D, R, slack)-style values
    counts: dict = field(default_factory=dict)  # machine-independent counts
    certified: bool | None = None


@dataclass
class Op:
    """One CLI call: argv (``--out`` is appended at run time) and its check."""

    argv: list
    answers: int
    check: object  # (exit_code, output_text) -> Outcome
    threads: int = 1


@dataclass
class Inputs:
    """A workload's op list plus the files the ops read."""

    workload: str
    ops: list
    files: dict  # relative name -> text

    def materialize(self, workdir: Path) -> list:
        """Write the input files and return argv lists with paths resolved."""
        workdir.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (workdir / name).write_text(text)
        return [
            [str(workdir / a[1:]) if isinstance(a, str) and a.startswith("@") else a for a in op.argv]
            for op in self.ops
        ]


CELL_BAND = (0.45, 0.55)


def in_cells(rng: np.random.Generator, edges) -> np.ndarray:
    """One draw from the middle tenth of each cell between consecutive edges."""
    edges = np.asarray(edges, dtype=float)
    u = CELL_BAND[0] + (CELL_BAND[1] - CELL_BAND[0]) * rng.random(edges.size - 1)
    return edges[:-1] + u * np.diff(edges)


def stratified(rng: np.random.Generator, k: int, lo: float, hi: float) -> np.ndarray:
    """One draw from the middle tenth of each of k equal slices of [lo, hi]."""
    return in_cells(rng, np.linspace(lo, hi, k + 1))


def _f(x: float) -> str:
    return repr(float(x))


def _csv_rows(text: str) -> list:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:] if "=" not in line]


def _fail(why: str, **kw) -> Outcome:
    return Outcome(ok=False, why=why, **kw)


# ---------------------------------------------------------------- curve

def _curve_check(sigma: float):
    def check(code: int, text: str) -> Outcome:
        rows = _csv_rows(text)
        answers = {
            "D": [float(r["distortion"]) for r in rows],
            "R": [float(r["rate"]) for r in rows],
            "slack": [float(r["certificate_slack"]) for r in rows],
        }
        counts = {"ba_iterations": [int(r["iterations"]) for r in rows]}
        if code != 0 or len(rows) != 4 or not all(r["converged"] == "1" for r in rows):
            return _fail(f"exit {code}, {len(rows)} rows", answers=answers, counts=counts)
        err = max(abs(r - 0.5 * math.log(sigma * sigma / d)) for d, r in zip(answers["D"], answers["R"]))
        if not err <= CURVE_RATE_BOUND:
            return _fail(f"|R - R_gauss| = {err:.3e} > {CURVE_RATE_BOUND}", answers=answers, counts=counts)
        return Outcome(ok=True, answers=answers, counts=counts)

    return check


def gaussian_curve(rng: np.random.Generator) -> Inputs:
    ops = [
        Op(["curve", "--config", "@run.conf", "--source.sigma", _f(s)], 4, _curve_check(float(s)))
        for s in stratified(rng, CURVE_OPS, *CURVE_SIGMA)
    ]
    return Inputs("gaussian-curve", ops, {"run.conf": CURVE_CONF})


# ---------------------------------------------------------------- target

def _point_check(target: float, d_max: float, tol: float):
    band = 10.0 * tol * d_max

    def check(code: int, text: str) -> Outcome:
        doc = json.loads(text)
        d, r = doc["distortion"], doc["rate"]
        report = doc["report"]
        answers = {"D": d, "R": r, "slack": report["certificate_slack"], "dual_gap": report["dual_gap"]}
        counts = {"ba_iterations_last": doc["iterations"], "verdict": report["verdict"]}
        certified = report["verdict"] == "optimal"
        # Uniform on [-1, 1]: h = ln 2, so SLB(D) = ln 2 - (1/2) ln(2 pi e D).
        slb = max(0.0, math.log(2.0) - 0.5 * math.log(2.0 * math.pi * math.e * d))
        if code != 0 or not doc["converged"]:
            why = f"exit {code}, converged={doc['converged']}"
        elif not abs(d - target) <= band:
            why = f"|D - target| = {abs(d - target):.3e} > {band:.3e}"
        elif not r >= slb - UNIFORM_SLB_MARGIN:
            why = f"R = {r:.6g} below SLB {slb:.6g}"
        else:
            return Outcome(ok=True, answers=answers, counts=counts, certified=certified)
        return _fail(why, answers=answers, counts=counts, certified=certified)

    return check


def uniform_target(rng: np.random.Generator) -> Inputs:
    cfg = resolve_config({"source.kind": "uniform", "source.points": str(UNIFORM_POINTS), "distortion.kind": "mse"})
    mu, dist, _, _ = build_problem(cfg)
    d_max, _ = rdbridge.d_max(mu, dist)
    base = [
        "point", "--source.kind", "uniform", "--source.points", str(UNIFORM_POINTS),
        "--distortion.kind", "mse", "--tol", _f(UNIFORM_TOL),
    ]
    ops = [
        Op(base + ["--distortion", _f(f * d_max)], 1, _point_check(float(f * d_max), d_max, UNIFORM_TOL))
        for f in stratified(rng, UNIFORM_OPS, *UNIFORM_F)
    ]
    return Inputs("uniform-target", ops, {})


# ---------------------------------------------------------------- certify

_VERDICT_EXIT = {"optimal": 0, "suboptimal": 3, "inconclusive": 2}


def _check_check(code: int, text: str) -> Outcome:
    report = json.loads(text)["report"]
    answers = {k: report[k] for k in ("g_spread", "l_value", "dual_gap", "certificate_slack")}
    counts = {"verdict": report["verdict"]}
    l_value = report["l_value"]
    if code != _VERDICT_EXIT[report["verdict"]]:
        why = f"exit {code} for verdict {report['verdict']}"
    elif l_value is not None and not l_value >= CERTIFY_FLOOR:
        why = f"L = {l_value:.3e} < {CERTIFY_FLOOR}"
    elif not report["dual_gap"] >= CERTIFY_FLOOR:
        why = f"dual_gap = {report['dual_gap']:.3e} < {CERTIFY_FLOOR}"
    else:
        return Outcome(ok=True, answers=answers, counts=counts)
    return _fail(why, answers=answers, counts=counts)


def _sinkhorn_check(code: int, text: str) -> Outcome:
    doc = json.loads(text)
    answers = {"D": doc["distortion"], "J": doc["J"], "L": doc["L"], "residuals": doc["residuals"]}
    if code != 0 or doc["L"] is None:
        return _fail(f"exit {code}, L = {doc['L']}", answers=answers)
    if not doc["L"] >= CERTIFY_FLOOR:
        return _fail(f"L = {doc['L']:.3e} < {CERTIFY_FLOOR}", answers=answers)
    return Outcome(ok=True, answers=answers)


def candidate_law(grid: np.ndarray, beta: float, eps: float, rng: np.random.Generator) -> np.ndarray:
    """Discretized N(0, 1 - 1/(2 beta)) mixed with Dirichlet noise of weight eps."""
    var = 1.0 - 1.0 / (2.0 * beta)
    law = np.exp(-(grid**2) / (2.0 * var))
    law /= law.sum()
    noise = rng.dirichlet(np.ones(grid.size))
    law = (1.0 - eps) * law + eps * noise
    return law / law.sum()


def gaussian_certify(rng: np.random.Generator) -> Inputs:
    grid = rdbridge.discretize_gaussian(1.0, 6.0, CERTIFY_POINTS).grid
    betas = stratified(rng, CERTIFY_LAWS, *CERTIFY_BETA)
    log_eps = stratified(rng, CERTIFY_LAWS, *np.log(CERTIFY_EPS))[list(CERTIFY_PAIRING)]
    base = ["--source.kind", "gaussian", "--source.points", str(CERTIFY_POINTS), "--distortion.kind", "mse"]
    ops, files = [], {}
    for k in rng.permutation(CERTIFY_LAWS):
        beta, log_e = betas[k], log_eps[k]
        law = candidate_law(grid, float(beta), float(np.exp(log_e)), rng)
        name = f"law{k}.json"
        files[name] = json.dumps({"weights": [float(w) for w in law], "labels": [float(x) for x in grid]})
        args = base + ["--beta", _f(beta), "--nu", "@" + name]
        ops.append(Op(["check"] + args, 1, _check_check))
        ops.append(Op(["sinkhorn"] + args, 1, _sinkhorn_check))
    return Inputs("gaussian-certify", ops, files)


# ---------------------------------------------------------------- compare

def _binary_entropy(p: float) -> float:
    return 0.0 if p <= 0.0 or p >= 1.0 else -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def _compare_check(p: float):
    def check(code: int, text: str) -> Outcome:
        rows = _csv_rows(text)
        reported = float(text.strip().splitlines()[-1].split("=", 1)[1])
        answers = {
            "D": [float(r["distortion"]) for r in rows],
            "R": [float(r["rate"]) for r in rows],
            "max_abs_err": reported,
        }
        if code != 0 or len(rows) != BERNOULLI_BETAS[2]:
            return _fail(f"exit {code}, {len(rows)} rows", answers=answers)
        if not reported <= COMPARE_BOUND:
            return _fail(f"max_abs_err {reported:.3e} > {COMPARE_BOUND}", answers=answers)
        for d, r in zip(answers["D"], answers["R"]):
            ref = _binary_entropy(p) - _binary_entropy(d) if d < min(p, 1.0 - p) else 0.0
            if not abs(r - ref) <= COMPARE_BOUND:
                return _fail(f"|R - R_oracle| = {abs(r - ref):.3e} at D={d:.6g}", answers=answers)
        return Outcome(ok=True, answers=answers)

    return check


def bernoulli_ps(rng: np.random.Generator) -> np.ndarray:
    """One p per cell between the critical sources of the beta schedule.

    Bernoulli(p) under Hamming loss has its critical slope at
    beta_c = ln((1 - p) / p), where Blahut-Arimoto slows down without
    bound.  The scheduled betas inside the p range cut it into 14 cells;
    drawing beta_c from the middle tenth of each cell (in log beta) keeps
    every op's cost finite and near its cell's typical value.
    """
    lo, hi, count = BERNOULLI_BETAS
    log_b = np.linspace(math.log(lo), math.log(hi), count)
    beta_c_lo = math.log((1.0 - BERNOULLI_P[1]) / BERNOULLI_P[1])
    beta_c_hi = math.log((1.0 - BERNOULLI_P[0]) / BERNOULLI_P[0])
    inside = log_b[(log_b >= math.log(beta_c_lo)) & (log_b <= math.log(beta_c_hi))]
    beta_c = np.exp(in_cells(rng, inside))
    return 1.0 / (1.0 + np.exp(beta_c))


def bernoulli_compare(rng: np.random.Generator) -> Inputs:
    lo, hi, count = BERNOULLI_BETAS
    ops = [
        Op(
            [
                "compare", "--oracle", "bernoulli", "--source.p", _f(p), "--tol", _f(BERNOULLI_TOL),
                "--warm_start", "false", "--betas.lo", _f(lo), "--betas.hi", _f(hi), "--betas.count", str(count),
            ],
            count,
            _compare_check(float(p)),
            threads=BERNOULLI_THREADS,
        )
        for p in bernoulli_ps(rng)
    ]
    return Inputs("bernoulli-compare", ops, {})


_GENERATORS = {
    "gaussian-curve": gaussian_curve,
    "uniform-target": uniform_target,
    "gaussian-certify": gaussian_certify,
    "bernoulli-compare": bernoulli_compare,
}


def generate(workload: str, seed: int) -> Inputs:
    """The workload's op list for this seed, in a seeded order."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    inputs = _GENERATORS[workload](rng)
    if workload != "gaussian-certify":  # certify keeps check/sinkhorn alternating
        inputs.ops = [inputs.ops[i] for i in rng.permutation(len(inputs.ops))]
    return inputs

"""Config ingestion and the command-line surface over the solvers.

The CLI reads a flat ``key = value`` config file (every key can also be
given as a ``--key`` flag, flags win), builds the requested source and
loss matrix, and runs one of five commands:

    curve     sweep a beta schedule, write the curve as CSV
    point     solve one point, by beta or by target distortion, as JSON
    check     verdict on a candidate reconstruction law, as JSON
    sinkhorn  Schrodinger potentials and dual values for (mu, nu), as JSON
    compare   swept rates against a closed-form oracle, as CSV

All outputs are deterministic byte-for-byte for a fixed config: the
solvers are seedless.  Exit codes: 0 success (or --help), 1 invalid
input, config or command line, 2 partial or failed convergence (or an
inconclusive verdict / exceeded comparison bound), 3 suboptimal verdict.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from .blahut import RDCurve, ba_fixed_point, rd_curve, solve_point_for_distortion
from .distortion import (
    DistortionMatrix,
    SourceSpec,
    discretize_gaussian,
    discretize_uniform,
    expected_loss,
    hamming,
    squared_error,
)
from .errors import (
    ConvergenceError,
    EmptyComparisonError,
    InvalidInputError,
    StaleCertificateError,
)
from .measures import ProbabilityVector
from .schrodinger import eval_J, eval_L, schrodinger_residual, sinkhorn
from .verify import (
    check_optimality,
    compare_curve,
    oracle_bernoulli_hamming,
    oracle_gaussian_mse,
)

LN2 = math.log(2.0)

SOURCE_KINDS = ("bernoulli", "uniform", "gaussian", "custom")
DISTORTION_KINDS = ("hamming", "mse", "custom")
UNITS = ("nats", "bits")
LOG_LEVELS = ("debug", "info", "warning", "error")
# The config keys whose value must be one of a fixed set of names.
_CHOICES = {"source.kind": SOURCE_KINDS, "distortion.kind": DISTORTION_KINDS, "units": UNITS}

# Every config key, its parser, and its default.  The config file is a
# flat key=value document; '#' starts a comment.  All keys double as
# --key command-line flags, and flags override the file.
_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOL_WORDS[text.strip().lower()]
    except KeyError:
        raise InvalidInputError(f"expected a boolean, got {text!r}") from None


def _parse_floats(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.replace(",", " ").split()])
    except ValueError:
        raise InvalidInputError(f"expected a list of reals, got {text!r}") from None


_SCHEMA: dict[str, tuple] = {
    "source.kind": (str, "bernoulli"),
    "source.p": (float, 0.3),
    "source.sigma": (float, 1.0),
    "source.width": (float, 6.0),
    "source.points": (int, 257),
    "source.weights": (_parse_floats, None),
    "source.labels": (_parse_floats, None),
    "distortion.kind": (str, "hamming"),
    "distortion.file": (str, None),
    "betas.lo": (float, 0.1),
    "betas.hi": (float, 20.0),
    "betas.count": (int, 30),
    "betas.list": (_parse_floats, None),
    "tol": (float, 1e-9),
    "max_iter": (int, 100000),
    "units": (str, "nats"),
    "warm_start": (_parse_bool, True),
    "compare.bound": (float, 1e-6),
    "compare.d_lo": (float, 0.0),
    "compare.d_hi": (float, float("inf")),
}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse a flat key=value document into raw string values.

    Blank lines and '#' comments are ignored; later keys override
    earlier ones.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise InvalidInputError(f"config line {lineno} is not key = value: {line!r}")
        key, value = body.split("=", 1)
        raw[key.strip()] = value.strip()
    return raw


def resolve_config(
    file_values: dict[str, str] | None = None,
    overrides: dict[str, str] | None = None,
) -> dict:
    """Layer defaults, config-file values, and flag overrides into one dict.

    The result holds every key of the schema with its parsed value.

    Raises:
        InvalidInputError: unknown key, unparseable value, or a value
            violating the documented invariants (tol range, geometric
            schedule shape, unit names).
    """
    values = {key: default for key, (_, default) in _SCHEMA.items()}
    for layer in (file_values or {}), (overrides or {}):
        for key, raw in layer.items():
            if key not in _SCHEMA:
                raise InvalidInputError(f"unknown config key {key!r}")
            parse = _SCHEMA[key][0]
            try:
                values[key] = parse(raw) if isinstance(raw, str) else raw
            except (TypeError, ValueError) as err:
                raise InvalidInputError(f"bad value for {key}: {err}") from None

    if not 0.0 < values["tol"] <= 1e-2:
        raise InvalidInputError(
            f"tol out of range: need 0 < tol <= 1e-2, got {values['tol']}"
        )
    for key, choices in _CHOICES.items():
        if values[key] not in choices:
            raise InvalidInputError(f"{key} must be one of {choices}, got {values[key]!r}")
    if values["max_iter"] < 1:
        raise InvalidInputError(f"max_iter must be >= 1, got {values['max_iter']}")
    if values["betas.list"] is None:
        lo, hi, count = values["betas.lo"], values["betas.hi"], values["betas.count"]
        if lo <= 0 or hi <= lo or count < 2:
            raise InvalidInputError(
                "geometric beta schedule needs lo > 0, hi > lo, count >= 2; "
                f"got lo={lo}, hi={hi}, count={count}"
            )
    return values


def _config_json(cfg: dict) -> dict:
    """JSON-ready copy of a resolved configuration."""
    out = {}
    for key, val in cfg.items():
        if isinstance(val, np.ndarray):
            out[key] = [float(v) for v in val]
        elif isinstance(val, float) and math.isinf(val):
            out[key] = "inf"
        else:
            out[key] = val
    return out


def build_problem(
    cfg: dict,
) -> tuple[ProbabilityVector, DistortionMatrix, np.ndarray | None, SourceSpec | None]:
    """Construct (mu, rho, reconstruction labels, source spec) from a config.

    The reconstruction alphabet always equals the source alphabet: the
    curve solvers prune unused reconstruction atoms on their own.
    """
    kind = cfg["source.kind"]
    spec: SourceSpec | None = None
    if kind == "bernoulli":
        p = cfg["source.p"]
        if not 0.0 < p < 1.0:
            raise InvalidInputError(f"source.p must lie in (0, 1), got {p}")
        mu = ProbabilityVector([1.0 - p, p], labels=[0.0, 1.0])
    elif kind == "uniform":
        spec = discretize_uniform(-1.0, 1.0, cfg["source.points"])
        mu = spec.weights
    elif kind == "gaussian":
        spec = discretize_gaussian(
            cfg["source.sigma"], cfg["source.width"], cfg["source.points"]
        )
        mu = spec.weights
    else:
        if cfg["source.weights"] is None:
            raise InvalidInputError("source.kind=custom requires source.weights")
        mu = ProbabilityVector(cfg["source.weights"], labels=cfg["source.labels"])

    labels = mu.labels
    dkind = cfg["distortion.kind"]
    if dkind == "hamming":
        dist = hamming(len(mu))
    elif dkind == "mse":
        if labels is None:
            raise InvalidInputError("mse distortion needs labelled source atoms")
        dist = squared_error(labels, labels)
    else:
        if cfg["distortion.file"] is None:
            raise InvalidInputError("distortion.kind=custom requires distortion.file")
        path = cfg["distortion.file"]
        try:
            text = Path(path).read_text()
        except OSError as err:
            raise InvalidInputError(f"cannot read {path}: {err}") from None
        dist = DistortionMatrix([_parse_floats(line) for line in text.splitlines() if line.strip()])
        if dist.shape[0] != len(mu):
            raise InvalidInputError(
                f"distortion matrix has {dist.shape[0]} rows for {len(mu)} source atoms"
            )
    return mu, dist, labels, spec


def _rate_scale(units: str) -> float:
    """Single conversion site: multiply a nats-valued rate by this."""
    return 1.0 if units == "nats" else 1.0 / LN2


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _csv_text(header: str, rows) -> str:
    """The header line, then one line per row: floats through ``_fmt``, strings as they are."""
    lines = [",".join(v if isinstance(v, str) else _fmt(v) for v in row) for row in rows]
    return "\n".join([header, *lines]) + "\n"


def _curve_csv(curve: RDCurve, units: str) -> str:
    scale = _rate_scale(units)
    return _csv_text(
        "beta,distortion,rate,iterations,certificate_slack,converged",
        (
            (p.beta, p.distortion, p.rate * scale, str(p.iterations), p.certificate_slack,
             "1" if p.converged else "0")
            for p in curve.points
        ),
    )


def _report_json(report) -> dict:
    """An OptimalityReport's fields in order, with a NaN l_value as null."""
    doc = dataclasses.asdict(report)
    if math.isnan(doc["l_value"]):
        doc["l_value"] = None
    return doc


def _json_text(doc: dict) -> str:
    """``json.dumps(doc, indent=2)`` and a newline, byte for byte."""
    return _json(doc, "\n") + "\n"


def _json(value, newline: str) -> str:
    """``json.dumps(value, indent=2)`` nested where ``newline`` starts each of its lines.

    Finite floats go through ``float.__repr__``, as in ``json``, and a list
    of them is joined in one pass, at any depth: the indenting encoder is
    pure Python and spends about a microsecond on each number.  Strings,
    string-keyed objects and other lists are written here.  Every other
    value (an integer, None, inf, nan, a numpy scalar, a non-string key)
    goes through ``json.dumps`` and is indented.
    """
    kind = type(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    if kind is str:
        return json.dumps(value)
    inner = newline + "  "
    if kind is list and value:
        try:
            text = ("," + inner).join(map(float.__repr__, value))
        except TypeError:  # an entry that is not a float
            text = "n"
        if "n" in text:  # an entry that is not a finite float
            text = ("," + inner).join(_json(item, inner) for item in value)
        return "[" + inner + text + newline + "]"
    if kind is dict and value and all(type(key) is str for key in value):
        items = (f"{json.dumps(key)}: {_json(item, inner)}" for key, item in value.items())
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return json.dumps(value, indent=2).replace("\n", newline)


def _emit(text: str, out: str | None):
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)


def load_nu(path: str, labels: np.ndarray | None = None) -> ProbabilityVector:
    """Read a reconstruction law from JSON or columned text.

    Accepted layouts: a JSON object with a ``nu_star`` entry (as written
    by ``point``), a JSON object with ``weights``/``labels``, a bare
    JSON array of weights, or plain text with one weight (or ``label
    weight`` pair) per line.

    Raises:
        InvalidInputError: unreadable file or no parse yields a valid
            probability vector.
    """
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise InvalidInputError(f"cannot read {path}: {err}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        rows = [line.split() for line in text.splitlines() if line.strip()]
        try:
            if all(len(r) == 1 for r in rows) and rows:
                return ProbabilityVector([float(r[0]) for r in rows], labels=labels)
            if all(len(r) == 2 for r in rows) and rows:
                return ProbabilityVector(
                    [float(r[1]) for r in rows], labels=[float(r[0]) for r in rows]
                )
        except ValueError:
            pass
        raise InvalidInputError(
            f"{path} is neither JSON nor one/two-column numeric text"
        ) from None
    if isinstance(obj, dict):
        node = obj.get("nu_star", obj)
        if not isinstance(node, dict) or "weights" not in node:
            raise InvalidInputError(f"{path}: JSON carries no weights")
        return ProbabilityVector(node["weights"], labels=node.get("labels", labels))
    if isinstance(obj, list):
        return ProbabilityVector(obj, labels=labels)
    raise InvalidInputError(f"{path}: JSON must be an object or array")


def _beta_schedule(cfg: dict) -> np.ndarray:
    if cfg["betas.list"] is not None:
        return np.asarray(cfg["betas.list"], dtype=float)
    return np.geomspace(cfg["betas.lo"], cfg["betas.hi"], cfg["betas.count"])


def _sweep(cfg: dict, mu: ProbabilityVector, dist: DistortionMatrix) -> RDCurve:
    """The configured beta schedule, swept from the uniform law."""
    return rd_curve(
        mu,
        dist,
        _beta_schedule(cfg),
        tol=cfg["tol"],
        max_iter=cfg["max_iter"],
        warm_start=cfg["warm_start"],
    )


def _cmd_curve(cfg: dict, args) -> int:
    mu, dist, _, _ = build_problem(cfg)
    curve = _sweep(cfg, mu, dist)
    _emit(_curve_csv(curve, cfg["units"]), args.out)
    return 0 if all(p.converged for p in curve.points) else 2


def _cmd_point(cfg: dict, args) -> int:
    """Solve one point by --beta or --distortion; exit 0 if it converged, else 2.

    A --distortion inside a jump of D(beta) converges and exits 0.
    """
    if (args.beta is None) == (args.distortion is None):
        raise InvalidInputError("point needs exactly one of --beta or --distortion")
    mu, dist, labels, _ = build_problem(cfg)
    budget = {"tol": cfg["tol"], "max_iter": cfg["max_iter"]}
    exit_code = 0
    try:
        if args.distortion is not None:
            point = solve_point_for_distortion(mu, dist, args.distortion, **budget)
        else:
            point = ba_fixed_point(mu, dist, args.beta, **budget)
    except ConvergenceError as err:
        point, exit_code = err.partial, 2
    report = check_optimality(mu, dist, point.beta, point.nu_star)
    scale = _rate_scale(cfg["units"])
    doc = {
        "config": _config_json(cfg),
        "beta": point.beta,
        "distortion": point.distortion,
        "rate": point.rate * scale,
        "iterations": point.iterations,
        "converged": point.converged,
        "nu_star": {
            "weights": [float(w) for w in point.nu_star.weights],
            "labels": None if labels is None else [float(v) for v in labels],
        },
        "report": _report_json(report),
    }
    _emit(_json_text(doc), args.out)
    return exit_code


def _candidate(cfg: dict, args, command: str):
    """(mu, rho, nu) for a command that takes --beta and a --nu law file."""
    if args.beta is None:
        raise InvalidInputError(f"{command} needs --beta")
    if args.nu is None:
        raise InvalidInputError(f"{command} needs --nu FILE")
    mu, dist, labels, _ = build_problem(cfg)
    return mu, dist, load_nu(args.nu, labels=labels)


def _cmd_check(cfg: dict, args) -> int:
    mu, dist, nu = _candidate(cfg, args, "check")
    report = check_optimality(mu, dist, args.beta, nu)
    doc = {"config": _config_json(cfg), "report": _report_json(report)}
    _emit(_json_text(doc), args.out)
    return {"optimal": 0, "suboptimal": 3, "inconclusive": 2}[report.verdict]


def _cmd_sinkhorn(cfg: dict, args) -> int:
    mu, dist, nu = _candidate(cfg, args, "sinkhorn")
    exit_code = 0
    try:
        pair, coupling = sinkhorn(mu, nu, dist, args.beta, tol=min(cfg["tol"], 1e-10))
    except ConvergenceError as err:
        pair, coupling = err.partial
        exit_code = 2
    row_res, col_res, eq8_res = schrodinger_residual(mu, nu, dist, pair)
    scale = _rate_scale(cfg["units"])
    try:
        distortion = expected_loss(coupling.joint, dist)
        j_value = eval_J(mu, nu, dist, args.beta, distortion, pair) * scale
        l_value = eval_L(mu, nu, dist, args.beta, pair)
    except StaleCertificateError:
        distortion = None
        j_value = None
        l_value = None
    doc = {
        "config": _config_json(cfg),
        "beta": float(args.beta),
        "logF": [float(v) for v in pair.logF],
        "logG": [float(v) for v in pair.logG],
        "logK": pair.logK,
        "residuals": {"row": row_res, "col": col_res, "eq8": eq8_res},
        "iterations": pair.iterations,
        "converged": pair.converged,
        "distortion": distortion,
        "J": j_value,
        "L": l_value,
    }
    _emit(_json_text(doc), args.out)
    return exit_code


# Each --oracle: the source and loss kinds it holds for, the config key
# of its parameter, and its closed form R(parameter, D) in nats.
_ORACLES = {
    "bernoulli": ("bernoulli", "hamming", "source.p", oracle_bernoulli_hamming),
    "gaussian": ("gaussian", "mse", "source.sigma", oracle_gaussian_mse),
}


def _cmd_compare(cfg: dict, args) -> int:
    mu, dist, _, _ = build_problem(cfg)
    source, loss, param, closed_form = _ORACLES[args.oracle]
    if (cfg["source.kind"], cfg["distortion.kind"]) != (source, loss):
        raise InvalidInputError(
            f"{args.oracle} oracle needs source.kind={source} and distortion.kind={loss}"
        )
    oracle = functools.partial(closed_form, cfg[param])
    curve = _sweep(cfg, mu, dist)
    max_err, table = compare_curve(curve, oracle, cfg["compare.d_lo"], cfg["compare.d_hi"])
    scale = _rate_scale(cfg["units"])
    rows = ((d, r * scale, r_oracle * scale, abs(r - r_oracle) * scale) for d, r, r_oracle in table)
    text = _csv_text("distortion,rate,rate_oracle,abs_err", rows)
    _emit(text + f"max_abs_err={_fmt(max_err * scale)}\n", args.out)
    return 0 if max_err * scale <= cfg["compare.bound"] else 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after.

    Building it costs about 2 ms, a fifth of a short ``check``; parsing
    leaves the parser unchanged, so one instance serves every call.
    """
    parser = argparse.ArgumentParser(
        prog="rdbridge",
        description="Rate-distortion curves, Schrodinger potentials, and "
        "optimality certificates on finite alphabets.",
    )
    sub = parser.add_subparsers(dest="command")
    for name, help_text in [
        ("curve", "sweep a beta schedule and emit the curve as CSV"),
        ("point", "solve a single point by beta or target distortion"),
        ("check", "verdict on a candidate reconstruction law"),
        ("sinkhorn", "solve the scaling problem for a fixed (mu, nu)"),
        ("compare", "compare swept rates against a closed-form oracle"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="flat key=value config file")
        cmd.add_argument("--out", help="output path (default stdout)")
        cmd.add_argument(
            "--log-level",
            type=str.lower,
            choices=LOG_LEVELS,
            help="log rdbridge's records at this level and above to stderr",
        )
        for key in _SCHEMA:
            cmd.add_argument(f"--{key}", dest=key, metavar="V")
        if name == "point":
            cmd.add_argument("--beta", type=float, help="solve at this slope")
            cmd.add_argument(
                "--distortion", type=float, help="search beta for this distortion"
            )
        if name in ("check", "sinkhorn"):
            cmd.add_argument("--beta", type=float, help="trade-off slope")
            cmd.add_argument("--nu", help="reconstruction law file (JSON or text)")
        if name == "compare":
            cmd.add_argument("--oracle", choices=tuple(_ORACLES), required=True)
    return parser


def _configure_logging(level: str) -> None:
    """Send the records of rdbridge's loggers at ``level`` and above to stderr.

    The stderr handler goes on the root logger at the first call of the
    process (``logging.basicConfig`` leaves a configured root alone); each
    call sets the level.  Log records never enter a command's output.
    """
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("rdbridge").setLevel(level.upper())


_COMMANDS = {
    "curve": _cmd_curve,
    "point": _cmd_point,
    "check": _cmd_check,
    "sinkhorn": _cmd_sinkhorn,
    "compare": _cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the exit code instead of raising SystemExit.

    ``--help`` returns 0 and a usage error 1, after argparse has printed
    its message.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return 0 if exit_.code == 0 else 1
    if args.command is None:
        parser.print_help(sys.stderr)
        return 1
    if args.log_level is not None:
        _configure_logging(args.log_level)
    try:
        file_values = None
        if args.config is not None:
            try:
                text = Path(args.config).read_text()
            except OSError as err:
                raise InvalidInputError(f"cannot read config: {err}") from None
            file_values = parse_config_text(text)
        overrides = {
            key: value
            for key, value in vars(args).items()
            if key in _SCHEMA and value is not None
        }
        cfg = resolve_config(file_values, overrides)
        return _COMMANDS[args.command](cfg, args)
    except (InvalidInputError, EmptyComparisonError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

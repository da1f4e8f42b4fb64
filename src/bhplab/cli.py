"""Command-line experiment runner with machine-readable reports.

Each subcommand loads a JSON config, runs one experiment kind, and
writes one JSON report, `<kind>.json`, into the output directory; for a
fixed (config, seed) pair its bytes are fixed.  Every key a command reads
is read through `config` before its first walk, so a malformed value
exits 1 as a configuration error; config keys a command does not read
are still ignored.

Exit codes: 0 completed (a "violated" verdict is data, not failure),
1 configuration error, 2 runtime/stall error, 3 underpowered,
4 acceptance failure (summarize only).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import operator
import sys
from pathlib import Path

import numpy as np

from . import bhp, exitstats, kernel as kernelmod
from .config import (build_domain, build_kernel, build_model, count, flag,
                     load_config, objects, pairs, real, reals, text)
from .errors import (BhpLabError, CapabilityError, ConfigError,
                     DivergenceError, DomainError, EstimationError,
                     SamplerStallError, UnderpoweredError)
from .rng import RngStream
from .sampler import BALL_FACTOR, survival_prob_ball

SCHEMA = "bhplab/1"

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_UNDERPOWERED = 3
EXIT_ACCEPTANCE = 4


# ===================================================================== #
# report plumbing
# ===================================================================== #

def encode(v):
    """JSON-ready copy of a report value; dataclasses encode by field."""
    if dataclasses.is_dataclass(v) and not isinstance(v, type):
        return {f.name: encode(getattr(v, f.name))
                for f in dataclasses.fields(v)}
    if isinstance(v, np.ndarray):
        return encode(v.tolist())
    if isinstance(v, (np.floating, np.integer, np.bool_)):
        return encode(v.item())
    if isinstance(v, float) and not np.isfinite(v):
        return {"__float__": "nan" if np.isnan(v) else
                "inf" if v > 0 else "-inf"}
    if isinstance(v, dict):
        return {str(k): encode(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [encode(x) for x in v]
    return v


OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
       ">=": operator.ge, "==": operator.eq,
       "abs<=": lambda value, threshold: abs(value) <= threshold}


def check(name: str, value, threshold, op: str) -> dict:
    status = "pass" if OPS[op](value, threshold) else "fail"
    return {"name": name, "value": value, "threshold": threshold,
            "op": op, "status": status}


def write_report(out_dir: str, kind: str, config: dict, results,
                 checks: list) -> str:
    config = {k: v for k, v in config.items() if k != "out"}
    payload = {
        "schema": SCHEMA,
        "kind": kind,
        "config": encode(config),
        "results": encode(results),
        "checks": encode(checks),
    }
    path = Path(out_dir) / f"{kind}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return str(path)


def _axis(spec: dict, key: str, default: int, d: int) -> int:
    axis = count(spec, key, default, least=0)
    if axis >= d:
        raise ConfigError(f"{key} {axis} lies outside [0, {d})")
    return axis


def _point(cfg: dict, key: str, default: list, d: int) -> np.ndarray:
    return np.array(reals(cfg, key, default, d))


def _predicate(spec: dict, d: int):
    """Vectorized exit-point predicate from a JSON target spec in R^d."""
    kind = spec.get("kind", "complement")
    if kind == "complement":
        return lambda y: np.ones(len(np.atleast_2d(y)), dtype=bool)
    if kind in ("norm-gt", "norm-le"):
        c = _point(spec, "center", [0.0] * d, d)
        stat = lambda y: np.linalg.norm(np.atleast_2d(y) - c, axis=1)
    elif kind in ("coordinate-gt", "coordinate-lt"):
        axis = _axis(spec, "axis", 0, d)
        stat = lambda y: np.atleast_2d(y)[:, axis]
    else:
        raise ConfigError(f"unknown target kind {kind!r}")
    v = real(spec, "value")
    if kind.endswith("-gt"):
        return lambda y: stat(y) > v
    if kind == "norm-le":
        return lambda y: stat(y) <= v
    return lambda y: stat(y) < v


# ===================================================================== #
# experiment runners
# ===================================================================== #

def run_check_kernel(cfg: dict, rng: RngStream, out: str) -> str:
    J = build_kernel(cfg.get("kernel"))
    jt_grid = reals(cfg, "jt_grid", np.logspace(-2, 1, 13).tolist(),
                    positive=True)
    phi_grid = reals(cfg, "phi_grid", np.logspace(-3, 2, 26).tolist(),
                     positive=True)
    check_reverse = flag(cfg, "check_reverse_doubling", True)
    expect = cfg.get("expect", {})
    tol = real(expect, "tol", 1e-6)
    refs = {key: real(expect, key) for key in ("c4", "c5") if key in expect}

    results = {}
    try:
        results["jt"] = kernelmod.check_jt(J, J.scale, np.array(jt_grid),
                                           rng=rng)
    except DivergenceError as exc:
        results["jt"] = kernelmod.ConditionReport(
            condition="(Jt)", verdict=kernelmod.VIOLATED,
            notes=f"tail integral diverged: {exc}")
    results["phi"] = kernelmod.check_phi(J.scale, np.array(phi_grid),
                                         check_reverse=check_reverse)
    tails = {}
    for r in jt_grid:
        try:
            tails[f"{r:g}"] = kernelmod.tail_mass(J, np.zeros(J.dim), r)
        except DivergenceError:
            tails[f"{r:g}"] = None
    results["tail_mass"] = tails

    checks = []
    jt = results["jt"]
    for key, ref in refs.items():
        got = jt.constants.get(key.upper(), float("nan"))
        checks.append(check(f"jt-{key}", got - ref, tol, "abs<="))
    if "jt_verdict" in expect:
        checks.append(check("jt-verdict", jt.verdict, expect["jt_verdict"],
                            "=="))
    if "reverse_doubling_violated" in expect:
        got = results["phi"].verdict == "violated"
        checks.append(check("phi-reverse-doubling-violated", got,
                            expect["reverse_doubling_violated"], "=="))
    return write_report(out, "check-kernel", cfg, results, checks)


def run_exit_stats(cfg: dict, rng: RngStream, out: str) -> str:
    model = build_model(cfg.get("model"))
    D = build_domain(cfg.get("domain"))
    x = _point(cfg, "x", [0.0] * D.dim, D.dim)
    n = count(cfg, "n", 100_000)
    rho = real(cfg, "rho", BALL_FACTOR)
    tspecs = objects(cfg, "targets", [])
    predicates = [_predicate(t, D.dim) for t in tspecs]
    names = [text(t, "name", f"target{i}") for i, t in enumerate(tspecs)]
    if len({"mean_exit_time", *names}) != len(names) + 1:
        raise ConfigError(f"target names must differ from each other and "
                          f"from 'mean_exit_time', got {names}")
    expect = objects(cfg, "expect", [])
    for exp in expect:
        if exp.get("target") not in ["mean_exit_time", *names]:
            raise ConfigError(f"expect entry {exp!r} names none of the "
                              f"targets {['mean_exit_time', *names]}")
    bounds = [(real(exp, "value"), real(exp, "sigmas", 3.0),
               real(exp, "tol", 0.0)) for exp in expect]

    met = exitstats.mean_exit_time(model, D, x, n, rng.substream(0), rho=rho)
    targets = {name: exitstats.harmonic_measure(model, D, x, pred, n,
                                                rng.substream(1 + i), rho=rho)
               for i, (name, pred) in enumerate(zip(names, predicates))}
    results = {"mean_exit_time": met, "targets": targets}

    checks = []
    ests = {**targets, "mean_exit_time": met}
    for exp, (ref, sig, tol) in zip(expect, bounds):
        est = ests[exp["target"]]
        checks.append(check(f"exit-stats:{exp['target']}", est.value - ref,
                            sig * est.stderr + tol, "abs<="))
    return write_report(out, "exit-stats", cfg, results, checks)


def run_ep_check(cfg: dict, rng: RngStream, out: str) -> str:
    model = build_model(cfg.get("model"))
    phi = model.kernel.scale
    r_list = reals(cfg, "r_list", [0.25, 1.0, 4.0], positive=True)
    t_factors = reals(cfg, "t_factors", [1e-3, 3e-3, 1e-2, 3e-2, 1e-1],
                      positive=True)
    n = count(cfg, "n", 20_000)
    n_steps = count(cfg, "n_steps", 64)
    max_chat = real(cfg, "max_chat") if "max_chat" in cfg else None
    scaling_pairs = None
    if flag(cfg, "scaling_check", True):
        # by scaling, P(tau_B(r1) < t1) = P(tau_B(r2) < t1 phi(r2) / phi(r1))
        default_pair = [[1.0, 1.0], [2.0, float(phi(2.0) / phi(1.0))]]
        scaling_pairs = pairs(cfg, "scaling_pairs", [default_pair],
                              positive=True)
    x0 = np.zeros(model.kernel.dim)
    rows = []
    k = 0
    for r in r_list:
        for f in t_factors:
            t = f * float(phi(r))
            est = survival_prob_ball(model, x0, r, t, n, rng.substream(k),
                                     n_steps=n_steps)
            k += 1
            rows.append({"r": r, "t": t, "p": est.value,
                         "stderr": est.stderr, "n": est.n,
                         "c_hat": est.value * float(phi(r)) / t})
    c_max = max(row["c_hat"] for row in rows)
    results = {"table": rows, "c_max": c_max}

    if scaling_pairs is not None:
        collapse = []
        for (r1, t1), (r2, t2) in scaling_pairs:
            e1 = survival_prob_ball(model, x0, r1, t1, n, rng.substream(k),
                                    n_steps=n_steps)
            e2 = survival_prob_ball(model, x0, r2, t2, n,
                                    rng.substream(k + 1), n_steps=n_steps)
            k += 2
            joint = float(np.hypot(e1.stderr, e2.stderr))
            collapse.append({"p1": e1.value, "p2": e2.value,
                             "diff": e1.value - e2.value,
                             "joint_stderr": joint,
                             "within_3se": abs(e1.value - e2.value)
                             <= 3 * joint + 1e-12})
        results["scaling_pairs"] = collapse

    checks = []
    if max_chat is not None:
        checks.append(check("ep-c-bound", c_max, max_chat, "<"))
    for i, pair in enumerate(results.get("scaling_pairs", [])):
        checks.append(check(f"ep-scaling-{i}", pair["diff"],
                            3 * pair["joint_stderr"] + 1e-12, "abs<="))
    return write_report(out, "ep-check", cfg, results, checks)


def _half_plane_pair(xi, r: float, axis: int):
    level = float(xi[axis])
    g1 = bhp.far_field_indicator(xi, 2.0 * r,
                                 lambda y: y[:, axis] > level)
    g2 = bhp.far_field_indicator(xi, 2.0 * r,
                                 lambda y: y[:, axis] < level)
    return g1, g2


def run_bhp_scan(cfg: dict, rng: RngStream, out: str) -> str:
    model = build_model(cfg.get("model"))
    D = build_domain(cfg.get("domain"))
    xi = _point(cfg, "xi", [0.0] * D.dim, D.dim)
    kappa = real(cfg, "kappa", 1.0)
    r_series = reals(cfg, "r_series", [0.4, 0.2, 0.1, 0.05], positive=True)
    grid_size = count(cfg, "grid_size", 12)
    n = count(cfg, "n", 4096)
    cap = count(cfg, "cap", exitstats.ESCALATION_CAP)
    axis = _axis(cfg, "split_axis", D.dim - 1, D.dim)
    max_spread = real(cfg, "max_spread", 2.0)
    series = bhp.bhp_scan_series(
        model, D, xi, r_series, kappa,
        lambda r: _half_plane_pair(xi, r, axis), grid_size, n, rng, cap=cap)
    checks = [check("bhp-series-spread", series["series_spread"],
                    max_spread, "<")]
    return write_report(out, "bhp-scan", cfg, series, checks)


def run_factorization(cfg: dict, rng: RngStream, out: str) -> str:
    model = build_model(cfg.get("model"))
    D = build_domain(cfg.get("domain"))
    xi = _point(cfg, "xi", [0.0] * D.dim, D.dim)
    c1 = real(cfg, "c1", 0.5)
    c2 = real(cfg, "c2", 1.5)
    c3 = real(cfg, "c3", 2.0 / 3.0)
    grid_size = count(cfg, "grid_size", 8)
    n = count(cfg, "n", 4096)
    cap = count(cfg, "cap", exitstats.ESCALATION_CAP)
    axis = _axis(cfg, "split_axis", 0, D.dim)
    radii = (reals(cfg, "r_series", positive=True) if "r_series" in cfg
             else [real(cfg, "r", 0.5, positive=True)])
    max_band = real(cfg, "max_band", 10.0)
    max_band_change = real(cfg, "max_band_change", 0.5)
    reports = []
    for k, r in enumerate(radii):
        reports.append(bhp.factorization_check(
            model, D, xi, r, c1, c2, c3, _half_plane_pair(xi, r, axis)[0],
            grid_size, n, rng.substream(k), cap=cap))
    checks = []
    for rep, r in zip(reports, radii):
        checks.append(check(f"factorization-band-r{r:g}", rep["band_ratio"],
                            max_band, "<"))
    if len(reports) >= 2:
        change = abs(reports[1]["band_ratio"] / reports[0]["band_ratio"] - 1)
        checks.append(check("factorization-band-stability", change,
                            max_band_change, "<"))
    results = {"radii": radii, "reports": reports}
    return write_report(out, "factorization", cfg, results, checks)


def run_box_method(cfg: dict, rng: RngStream, out: str) -> str:
    model = build_model(cfg.get("model"))
    D = build_domain(cfg.get("domain"))
    xi = _point(cfg, "xi", [0.0] * D.dim, D.dim)
    r = real(cfg, "r", 1.0, positive=True)
    diag = bhp.box_diagnostics(model, D, xi, r, count(cfg, "j_max", 6),
                               count(cfg, "grid_size", 24),
                               count(cfg, "n", 8192), rng)
    lam = [lay["lambda_j"] for lay in diag.layers]
    finite = [v for v in lam if np.isfinite(v)]
    checks = []
    if finite:
        checks.append(check("box-lambda-positive", min(finite), 0.0, ">"))
    return write_report(out, "box-method", cfg, diag, checks)


def run_chain_decay(cfg: dict, rng: RngStream, out: str) -> str:
    model = build_model(cfg.get("model"))
    D = build_domain(cfg.get("domain"))
    xi = _point(cfg, "xi", [0.0] * D.dim, D.dim)
    r = real(cfg, "r", 0.5, positive=True)
    x = _point(cfg, "x", (xi + r / 2).tolist(), D.dim)
    table = bhp.chain_decay(model, D, xi, r, x, count(cfg, "n", 20_000),
                            rng, m_max=count(cfg, "m_max", 8))
    checks = []
    if table["fit"] is not None:
        checks.append(check("chain-decay-rate", table["fit"]["rate_upper95"],
                            1.0, "<"))
    return write_report(out, "chain-decay", cfg, table, checks)


RUNNERS = {
    "check-kernel": run_check_kernel,
    "exit-stats": run_exit_stats,
    "ep-check": run_ep_check,
    "bhp-scan": run_bhp_scan,
    "factorization": run_factorization,
    "box-method": run_box_method,
    "chain-decay": run_chain_decay,
}


# ===================================================================== #
# summarize
# ===================================================================== #

def summarize(paths) -> int:
    if not paths:
        print("usage: bhp-lab summarize REPORT.json [REPORT.json ...]",
              file=sys.stderr)
        return EXIT_CONFIG
    rows = []
    for p in paths:
        try:
            with open(p) as fh:
                rep = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read report {p}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        try:
            rows += [(rep.get("kind", "?"), c["name"], c.get("value"),
                      c.get("op"), c.get("threshold"), c["status"])
                     for c in rep.get("checks", [])]
        except (AttributeError, KeyError, TypeError):
            print(f"error: cannot read report {p}: not a report whose checks "
                  f"each carry a name and a status", file=sys.stderr)
            return EXIT_CONFIG
    any_fail = any(row[5] == "fail" for row in rows)
    header = ("kind", "check", "value", "op", "threshold", "status")
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(6)] if rows else [len(h) for h in header]
    fmt = "  ".join("{:<%d}" % w for w in widths)
    print(fmt.format(*header))
    for r in rows:
        print(fmt.format(*[str(v) for v in r]))
    if not rows:
        print("(no checks found in the given reports)")
    return EXIT_ACCEPTANCE if any_fail else EXIT_OK


# ===================================================================== #
# entry point
# ===================================================================== #

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bhp-lab",
        description="Monte Carlo verification toolkit for exit laws, "
                    "harmonic functions, and boundary Harnack ratios "
                    "of jump processes")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--r-series", default=None,
                        help="comma-separated radius list override")
        sp.add_argument("--n", type=int, default=None)
    ssum = sub.add_parser("summarize")
    ssum.add_argument("paths", nargs="*")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "summarize":
        return summarize(args.paths)

    try:
        cfg = load_config(args.config)
        overrides = {"seed": args.seed, "out": args.out, "n": args.n}
        if args.r_series:
            overrides["r_series"] = reals(
                {"--r-series": args.r_series.split(",")}, "--r-series",
                positive=True)
        cfg.update((k, v) for k, v in overrides.items() if v is not None)
        cfg["seed"] = count(cfg, "seed", 0, least=0)
        if cfg["seed"] >= 2 ** 64:
            raise ConfigError(f"seed must be below 2^64, got {cfg['seed']}")
        path = RUNNERS[args.command](cfg, RngStream(cfg["seed"]),
                                     text(cfg, "out", "."))
    except (ConfigError, DomainError, CapabilityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnderpoweredError as exc:
        print(f"underpowered: {exc}", file=sys.stderr)
        return EXIT_UNDERPOWERED
    except (SamplerStallError, EstimationError, DivergenceError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except BhpLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Workload definitions: config generation, report accounting, output checks.

Each workload is one `bhp-lab` experiment on a fixed config; the seed given
to the benchmark becomes the config's `seed`, and nothing else reaches the
program.  Why each workload exists is recorded in bench/NOTES.md.

This module is imported by the benchmark driver only (standard library,
no numpy), so the driver process stays small.
"""

from __future__ import annotations

import math
import statistics

# Reference values for comb-exit-stats.  They come from one
# `bhp-lab exit-stats` run of the same domain, model and start point at
# n = 1,600,000 (16 worker streams, seed 918273645); `se` is that run's
# standard error.  The check allows 4 standard errors of the benchmark's
# own estimate plus 4 of the reference.
COMB_REFERENCE = {
    "mean_exit_time": {"value": 0.2089012911438595,
                       "se": 0.00016771900998292726},
    "left": {"value": 0.17922625, "se": 0.00030321630203426715},
    "top": {"value": 0.672746875, "se": 0.0003709434906236851},
}


def _slit_scan(seed: int, quick: bool) -> dict:
    return {
        "model": {"type": "isotropic-stable", "alpha": 1.5, "dim": 2},
        "domain": {"type": "slit-plane"},
        "xi": [0.0, 0.0],
        "r_series": [0.4, 0.2],
        "kappa": 1.0,
        "grid_size": 3 if quick else 12,
        "n": 512 if quick else 2048,
        "cap": 2048 if quick else 8192,
        "split_axis": 1,
        "workers": 1,
        "seed": seed,
    }


def _comb_exit_stats(seed: int, quick: bool) -> dict:
    expect = []
    for name, ref in COMB_REFERENCE.items():
        # the program's check is |est - value| <= sigmas * est.stderr + tol
        expect.append({"target": name, "value": ref["value"], "sigmas": 4.0,
                       "tol": 4.0 * ref["se"]})
    return {
        "model": {"type": "isotropic-stable", "alpha": 1.0, "dim": 2},
        "domain": {"type": "box-minus-comb", "teeth": 4, "gap": 0.25},
        "x": [0.5, 0.9],
        "n": 2000 if quick else 15_000,
        "rho": 0.5,
        "workers": 2,
        "targets": [
            {"name": "left", "kind": "coordinate-lt", "axis": 0, "value": 0.0},
            {"name": "top", "kind": "coordinate-gt", "axis": 1, "value": 1.0},
        ],
        "expect": expect,
        "seed": seed,
    }


def _sde_survival(seed: int, quick: bool) -> dict:
    alpha = 1.5
    return {
        "model": {"type": "sde-stable", "alpha": alpha, "dim": 2,
                  "sigma_scale": 2.0},
        "r_list": [0.5, 2.0],
        "t_factors": [0.01, 0.1],
        "n": 200 if quick else 1000,
        "n_steps": 8 if quick else 32,
        # leaving B(0, 2) by time 2^alpha t has the probability of leaving
        # B(0, 1) by time t (stable scaling); t = 0.1 puts it near 0.4
        "scaling_pairs": [[[1.0, 0.1], [2.0, 0.1 * 2.0 ** alpha]]],
        "max_chat": 6.0,
        "seed": seed,
    }


# name -> (bhp-lab subcommand, config builder)
WORKLOADS = {
    "slit-scan": ("bhp-scan", _slit_scan),
    "comb-exit-stats": ("exit-stats", _comb_exit_stats),
    "sde-survival": ("ep-check", _sde_survival),
}


def config(workload: str, seed: int, quick: bool = False) -> dict:
    return WORKLOADS[workload][1](seed, quick)


def report_paths(report: dict) -> int:
    """Paths behind the report's estimates, from its `n` fields."""
    res = report["results"]
    kind = report["kind"]
    if kind == "bhp-scan":
        return sum(rep["n_total"] for rep in res["reports"])
    if kind == "exit-stats":
        return res["mean_exit_time"]["n"] + sum(
            t["n"] for t in res["targets"].values())
    if kind == "ep-check":
        # scaling pairs carry no n field: each side ran the config's n
        pairs = len(res.get("scaling_pairs", []))
        return (sum(row["n"] for row in res["table"])
                + 2 * pairs * report["config"]["n"])
    raise ValueError(f"no path accounting for report kind {kind!r}")


def _estimates(report: dict) -> list:
    """(value, stderr) of every estimate the report publishes."""
    res = report["results"]
    kind = report["kind"]
    if kind == "bhp-scan":
        return [(e["value"], e["stderr"]) for rep in res["reports"]
                for e in rep["h1"] + rep["h2"]]
    if kind == "exit-stats":
        ests = [res["mean_exit_time"]] + list(res["targets"].values())
        return [(e["value"], e["stderr"]) for e in ests]
    if kind == "ep-check":
        # scaling-pair estimates are binomial over the config's n paths,
        # with the standard error the program computes for them
        n = report["config"]["n"]
        pairs = [p for pair in res.get("scaling_pairs", [])
                 for p in (pair["p1"], pair["p2"])]
        return ([(row["p"], row["stderr"]) for row in res["table"]]
                + [(p, math.sqrt(p * (1.0 - p) / n)) for p in pairs])
    raise ValueError(f"no estimates known for report kind {kind!r}")


def median_rel_stderr(report: dict) -> float:
    rel = [se / abs(v) if v else math.inf for v, se in _estimates(report)]
    return statistics.median(rel)


def output_problems(report: dict) -> list:
    """Checks on a report beyond its own `checks` list; [] when it is sound."""
    problems = [f"report check {c['name']} is {c['status']}"
                for c in report["checks"] if c["status"] != "pass"]
    if not report["checks"]:
        problems.append("report carries no checks")
    res = report["results"]
    for value, se in _estimates(report):
        if not (isinstance(value, (int, float)) and math.isfinite(value)
                and isinstance(se, (int, float)) and math.isfinite(se)
                and se >= 0):
            problems.append(f"estimate {value!r} +- {se!r} is not finite")
    if report["kind"] == "bhp-scan":
        # R[i, j] R[j, i] = 1, so the largest gated ratio is at least 1
        for c in res["c_hat_series"]:
            if not (isinstance(c, float) and 1.0 <= c < math.inf):
                problems.append(f"c_hat {c!r} is not a finite ratio >= 1")
    if report["kind"] in ("exit-stats", "ep-check"):
        probs = ([t["value"] for t in res["targets"].values()]
                 if report["kind"] == "exit-stats"
                 else [row["p"] for row in res["table"]])
        for p in probs:
            if not 0.0 <= p <= 1.0:
                problems.append(f"probability {p!r} outside [0, 1]")
    return problems

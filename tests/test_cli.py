import hashlib
import inspect
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from bhplab import bhp, exitstats, sampler
from bhplab.cli import (EXIT_ACCEPTANCE, EXIT_CONFIG, EXIT_OK,
                        EXIT_RUNTIME, EXIT_UNDERPOWERED, encode, main)
from bhplab.domains import Ball
from bhplab.exitstats import harmonic_measure, mean_exit_time
from bhplab.rng import RngStream
from bhplab.sampler import IsotropicStable, mean_exit_constant


def _write(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _load_report(out_dir, kind):
    with open(out_dir / f"{kind}.json") as fh:
        return json.load(fh)


POWER_KERNEL = {"dim": 1, "scale": {"form": "power", "alpha": 1.0}}


# ------------------------------------------------------------------ #
# subcommands run end to end
# ------------------------------------------------------------------ #

def test_check_kernel_power_passes(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "kernel": POWER_KERNEL,
        "expect": {"c4": 2.0, "c5": 2.0, "tol": 1e-5,
                   "jt_verdict": "holds-numerically"},
    })
    rc = main(["check-kernel", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_OK
    rep = _load_report(tmp_path, "check-kernel")
    assert rep["schema"] == "bhplab/1"
    assert all(c["status"] == "pass" for c in rep["checks"])
    assert rep["results"]["jt"]["verdict"] == "holds-numerically"


def test_check_kernel_geometric_scale_flagged(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "kernel": {"dim": 1, "scale": {"form": "geometric-stable",
                                       "alpha": 1.0}},
        "phi_grid": np.logspace(-12, 2, 57).tolist(),
        "expect": {"reverse_doubling_violated": True},
    })
    rc = main(["check-kernel", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_OK
    rep = _load_report(tmp_path, "check-kernel")
    assert rep["results"]["phi"]["verdict"] == "violated"
    assert all(c["status"] == "pass" for c in rep["checks"])


def test_exit_stats_unit_interval(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "model": {"type": "isotropic-stable", "alpha": 1.0, "dim": 1},
        "domain": {"type": "ball", "center": [0.0], "radius": 1.0},
        "n": 20000, "rho": 0.7, "seed": 7,
        "targets": [{"name": "far", "kind": "norm-gt", "center": [0.0],
                     "value": 2.0}],
        "expect": [{"target": "mean_exit_time", "value": 1.0, "sigmas": 3.5}],
    })
    rc = main(["exit-stats", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_OK
    rep = _load_report(tmp_path, "exit-stats")
    assert all(c["status"] == "pass" for c in rep["checks"])
    assert 0.0 < rep["results"]["targets"]["far"]["value"] < 1.0


def test_exit_stats_targets_with_exact_values(tmp_path):
    # from the center of the unit interval the default walk is one exact
    # exit of the Cauchy process: every exit lands in the complement, by
    # symmetry half of them on the left, and by the Poisson kernel
    # (1/pi) / (|y| sqrt(y^2 - 1)), P(|y| <= 2) = (2/pi) arcsec 2 = 2/3
    targets = [{"name": "all", "kind": "complement"},
               {"name": "near", "kind": "norm-le", "value": 2.0},
               {"name": "left", "kind": "coordinate-lt", "value": 0.0}]
    cfg = _write(tmp_path, "c.json", {**UNIT_INTERVAL, "n": 20000,
                                      "targets": targets})
    assert main(["exit-stats", "--config", cfg,
                 "--out", str(tmp_path)]) == EXIT_OK
    got = _load_report(tmp_path, "exit-stats")["results"]["targets"]
    assert got["all"]["value"] == 1.0
    for name, exact in (("near", 2.0 / 3.0), ("left", 0.5)):
        assert abs(got[name]["value"] - exact) <= 4 * got[name]["stderr"]
        assert 0.0 < got[name]["stderr"] < 0.005


def test_ep_check_runs(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "model": {"type": "sde-stable", "alpha": 1.0, "dim": 1, "dt": 0.01},
        "r_list": [1.0], "t_factors": [0.01], "n": 2000, "n_steps": 8,
        "scaling_pairs": [], "seed": 5,
    })
    rc = main(["ep-check", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_OK
    rep = _load_report(tmp_path, "ep-check")
    assert rep["results"]["c_max"] > 0
    assert len(rep["results"]["table"]) == 1


def test_ep_check_runs_on_the_chain(tmp_path):
    # the chain carries its dimension in its kernel only
    cfg = _write(tmp_path, "c.json", {
        "model": {"type": "stable-like-chain", "kernel": POWER_KERNEL,
                  "h": 0.1, "r_cut": 2.0},
        "r_list": [1.0], "t_factors": [0.1], "n": 300,
        "scaling_pairs": [], "seed": 4,
    })
    assert main(["ep-check", "--config", cfg,
                 "--out", str(tmp_path)]) == EXIT_OK
    assert 0.0 <= _load_report(tmp_path, "ep-check")["results"]["c_max"]


def test_ep_check_default_scaling_pair_follows_alpha(tmp_path):
    # the default pair must rescale time by phi(2) / phi(1) = 2^alpha
    cfg = _write(tmp_path, "c.json", {
        "model": {"type": "sde-stable", "alpha": 1.5, "dim": 2},
        "r_list": [1.0], "t_factors": [0.1], "n": 20000, "n_steps": 32,
        "seed": 5,
    })
    rc = main(["ep-check", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_OK
    rep = _load_report(tmp_path, "ep-check")
    status = {c["name"]: c["status"] for c in rep["checks"]}
    assert status["ep-scaling-0"] == "pass"


def test_ep_check_c_bound_passes_and_fails(tmp_path):
    rows = []
    for max_chat in (1e6, 1e-6):
        cfg = _write(tmp_path, "c.json", {**SDE_LINE, "t_factors": [0.1],
                                          "n": 1000, "seed": 5,
                                          "max_chat": max_chat})
        assert main(["ep-check", "--config", cfg,
                     "--out", str(tmp_path)]) == EXIT_OK
        rep = _load_report(tmp_path, "ep-check")
        c_max = rep["results"]["c_max"]
        assert c_max == max(row["c_hat"] for row in rep["results"]["table"])
        rows += [c for c in rep["checks"] if c["name"] == "ep-c-bound"]
    assert [(c["value"], c["threshold"], c["status"]) for c in rows] == [
        (c_max, 1e6, "pass"), (c_max, 1e-6, "fail")]
    assert 0.0 < c_max < 1e6


def test_ep_check_has_no_default_pair_without_power_scale(tmp_path):
    # a stable process on a gamma clock is not self-similar, so the
    # scaling identity behind the default pair does not hold for it
    cfg = _write(tmp_path, "c.json", {
        "model": {"type": "geometric-stable", "alpha": 1.5, "dim": 2},
        "r_list": [0.5, 2.0], "t_factors": [0.01, 0.1], "n": 2000,
        "n_steps": 16, "max_chat": 100, "seed": 3,
    })
    assert main(["ep-check", "--config", cfg,
                 "--out", str(tmp_path)]) == EXIT_OK
    rep = _load_report(tmp_path, "ep-check")
    assert rep["results"]["scaling_pairs"] == []
    assert [c["name"] for c in rep["checks"]] == ["ep-c-bound"]
    assert len(rep["results"]["table"]) == 4


def test_chain_decay_runs(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "model": {"type": "isotropic-stable", "alpha": 1.0, "dim": 2},
        "domain": {"type": "half-space", "normal": [0.0, 1.0]},
        "xi": [0.0, 0.0], "x": [0.0, 0.2], "r": 0.5, "n": 4000, "m_max": 4,
        "seed": 3,
    })
    rc = main(["chain-decay", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_OK
    rep = _load_report(tmp_path, "chain-decay")
    s = rep["results"]["survival"]
    assert len(s) == 4 and all(0.0 <= v <= 1.0 for v in s)


def test_box_method_runs(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "model": {"type": "isotropic-stable", "alpha": 1.0, "dim": 2},
        "domain": {"type": "half-space", "normal": [0.0, 1.0]},
        "xi": [0.0, 0.0], "r": 1.0, "j_max": 2, "grid_size": 8, "n": 1000,
        "seed": 2,
    })
    rc = main(["box-method", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_OK
    rep = _load_report(tmp_path, "box-method")
    assert len(rep["results"]["layers"]) == 2


def test_box_method_checks_the_least_finite_lambda(tmp_path):
    cfg = _write(tmp_path, "c.json", {**HALF_PLANE, "r": 1.0, "j_max": 3,
                                      "grid_size": 24, "n": 2000,
                                      "seed": 31})
    assert main(["box-method", "--config", cfg,
                 "--out", str(tmp_path)]) == EXIT_OK
    rep = _load_report(tmp_path, "box-method")
    # an empty layer's lambda, +inf, is written as {"__float__": "inf"}
    finite = [lay["lambda_j"] for lay in rep["results"]["layers"]
              if not isinstance(lay["lambda_j"], dict)]
    assert finite and min(finite) > 0
    assert rep["checks"] == [{"name": "box-lambda-positive",
                              "value": min(finite), "threshold": 0.0,
                              "op": ">", "status": "pass"}]


def test_check_kernel_reads_a_tabulated_scale(tmp_path):
    # a table of r^1.5 interpolates log-log linearly, so it is r^1.5
    r = np.logspace(-4, 3, 29)
    cfg = _write(tmp_path, "c.json", {"kernel": {"dim": 1, "scale": {
        "form": "tabulated", "r": r.tolist(), "phi": (r ** 1.5).tolist()}}})
    assert main(["check-kernel", "--config", cfg,
                 "--out", str(tmp_path)]) == EXIT_OK
    phi = _load_report(tmp_path, "check-kernel")["results"]["phi"]
    assert phi["verdict"] == "holds-numerically"
    assert phi["constants"]["beta"] == pytest.approx(1.5, rel=1e-9)


def test_factorization_r_series_key(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "model": {"type": "isotropic-stable", "alpha": 1.0, "dim": 2},
        "domain": {"type": "half-space", "normal": [0.0, 1.0]},
        "xi": [0.0, 0.0], "r_series": [0.5, 0.25], "grid_size": 2,
        "n": 2048, "cap": 120000, "seed": 9,
    })
    rc = main(["factorization", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_OK
    rep = _load_report(tmp_path, "factorization")
    assert rep["results"]["radii"] == [0.5, 0.25]
    assert rep["config"]["r_series"] == [0.5, 0.25]
    names = [c["name"] for c in rep["checks"]]
    assert "factorization-band-stability" in names


# ------------------------------------------------------------------ #
# exit codes
# ------------------------------------------------------------------ #

def test_missing_config_is_config_error(tmp_path):
    rc = main(["check-kernel", "--config", str(tmp_path / "nope.json")])
    assert rc == EXIT_CONFIG


def test_invalid_model_is_config_error(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "model": {"type": "brownian"},
        "domain": {"type": "ball"},
    })
    rc = main(["exit-stats", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG


# a walker of the plane minus a segment and a point escapes to infinity
ESCAPING = {
    "model": {"type": "isotropic-stable", "alpha": 1.5, "dim": 2},
    "domain": {"type": "segment-complement",
               "segments": [[[0, 0], [1, 0]], [[0, 1], [0, 1]]]},
    "x": [0.5, 0.5], "n": 2000, "seed": 1,
    "targets": [{"name": "up", "kind": "coordinate-gt", "axis": 1,
                 "value": 0.5}],
}


def test_escape_to_infinity_is_a_runtime_error(tmp_path, capsys):
    rc = main(["exit-stats", "--config", _write(tmp_path, "c.json", ESCAPING),
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_RUNTIME
    assert "escaped to infinity" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


UNIT_INTERVAL = {
    "model": {"type": "isotropic-stable", "alpha": 1.0, "dim": 1},
    "domain": {"type": "ball", "center": [0.0], "radius": 1.0},
    "n": 2000, "seed": 11,
}
HALF_PLANE = {
    "model": {"type": "isotropic-stable", "alpha": 1.0, "dim": 2},
    "domain": {"type": "half-space", "normal": [0.0, 1.0]},
    "xi": [0.0, 0.0], "r_series": [0.5], "grid_size": 2, "n": 256,
}
SDE_LINE = {
    "model": {"type": "sde-stable", "alpha": 1.0, "dim": 1},
    "r_list": [1.0], "t_factors": [0.01], "n": 100, "n_steps": 4,
    "scaling_pairs": [],
}


# each model fixes a dimension the domain does not have; these reach the
# walk's entry (or factorization's boundary integral), which refuses them
# before any draw
HALF_PLANE_AT = {"domain": {"type": "half-space", "normal": [0.0, 1.0]},
                 "x": [0.0, 0.5]}
DIMENSION_MISMATCH = [
    ("exit-stats",
     {"model": {"type": "isotropic-stable", "alpha": 1.5, "dim": 3},
      "domain": {"type": "slit-plane"}, "x": [0.0, 0.5]}, 3),
    ("exit-stats",
     {"model": {"type": "isotropic-stable", "alpha": 1.5, "dim": 1},
      **HALF_PLANE_AT}, 1),
    ("exit-stats",
     {"model": {"type": "stable-like-chain", "kernel": POWER_KERNEL,
                "h": 0.125, "r_cut": 1.0}, **HALF_PLANE_AT}, 1),
    ("factorization",
     {"model": {"type": "isotropic-stable", "alpha": 1.5, "dim": 3},
      **HALF_PLANE_AT}, 3),
]


@pytest.mark.parametrize("command, cfg, dim", DIMENSION_MISMATCH)
def test_model_and_domain_of_different_dimensions_is_config_error(
        tmp_path, capsys, command, cfg, dim):
    start = time.perf_counter()
    rc = main([command, "--config",
               _write(tmp_path, "c.json", {**cfg, "n": 1000}),
               "--out", str(tmp_path / "out")])
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG and err.startswith("config error: ")
    # naming both dimensions: the domain's, then the model's or kernel's
    assert "dimension 2 but the" in err and f"has dimension {dim}" in err
    assert not (tmp_path / "out").exists()


@pytest.fixture
def no_walks(monkeypatch):
    """Fail the test if any exit or survival sample is drawn."""
    from bhplab import bhp, cli, exitstats

    def walk(*args, **kwargs):
        raise AssertionError("an experiment walked before its config failed")

    monkeypatch.setattr(exitstats, "gather_exits", walk)
    monkeypatch.setattr(bhp, "walk_exit_batch_indexed", walk)
    monkeypatch.setattr(cli, "survival_prob_ball", walk)


def _config_error(tmp_path, capsys, command, cfg):
    # --out would override a config's own "out", so it is left off for one
    out = [] if "out" in cfg else ["--out", str(tmp_path)]
    rc = main([command, "--config", _write(tmp_path, "c.json", cfg), *out])
    err = capsys.readouterr().err
    return rc == EXIT_CONFIG and err.startswith("config error: ")


def test_exit_stats_expect_naming_no_target_is_config_error(
        tmp_path, capsys, no_walks):
    far = {"name": "far", "kind": "norm-gt", "value": 2.0}
    for expect in ({"target": "near", "value": 0.5}, {"value": 0.5}):
        cfg = {**UNIT_INTERVAL, "targets": [far], "expect": [expect]}
        assert _config_error(tmp_path, capsys, "exit-stats", cfg)


def test_spec_without_value_is_config_error(tmp_path, capsys, no_walks):
    far = {"name": "far", "kind": "norm-gt"}
    assert _config_error(tmp_path, capsys, "exit-stats",
                         {**UNIT_INTERVAL, "targets": [far]})
    expect = {"target": "mean_exit_time", "sigmas": 3.0}
    assert _config_error(tmp_path, capsys, "exit-stats",
                         {**UNIT_INTERVAL, "expect": [expect]})


def test_split_axis_outside_the_dimension_is_config_error(tmp_path, capsys,
                                                         no_walks):
    for command in ("bhp-scan", "factorization"):
        for axis in (2, -1):
            cfg = {**HALF_PLANE, "split_axis": axis}
            assert _config_error(tmp_path, capsys, command, cfg)


def test_target_axis_outside_the_dimension_is_config_error(tmp_path, capsys,
                                                          no_walks):
    for kind in ("coordinate-gt", "coordinate-lt"):
        target = {"name": "right", "kind": kind, "axis": 1, "value": 0.5}
        assert _config_error(tmp_path, capsys, "exit-stats",
                             {**UNIT_INTERVAL, "targets": [target]})
    disk = {**UNIT_INTERVAL,
            "model": {"type": "isotropic-stable", "alpha": 1.0, "dim": 2},
            "domain": {"type": "ball", "center": [0.0, 0.0], "radius": 1.0}}
    for center in ([0.0, 0.0, 0.0], [0.0]):
        target = {"name": "far", "kind": "norm-gt", "center": center,
                  "value": 2.0}
        assert _config_error(tmp_path, capsys, "exit-stats",
                             {**disk, "targets": [target]})


# a radius or time that is not positive, and the key the error must name;
# after a valid first entry, it must fail before that entry walks
NON_POSITIVE = [
    ("bhp-scan", {**HALF_PLANE, "r_series": [0.4, -0.2]}, "r_series"),
    ("bhp-scan", {**HALF_PLANE, "r_series": [0.4, 0]}, "r_series"),
    ("factorization", {**HALF_PLANE, "r_series": [0.5, -0.25]}, "r_series"),
    ("ep-check", {**SDE_LINE, "r_list": [1.0, 0.0]}, "r_list"),
    ("ep-check", {**SDE_LINE, "t_factors": [0.1, -0.01]}, "t_factors"),
    ("ep-check", {**SDE_LINE, "scaling_pairs": [[[1.0, 1.0], [2.0, -1.0]]]},
     "scaling_pairs"),
    ("check-kernel", {"kernel": POWER_KERNEL,
                      "phi_grid": [0, 0.001, 1, 100]}, "phi_grid"),
    ("check-kernel", {"kernel": POWER_KERNEL,
                      "jt_grid": [0.001, 0, 1, 10]}, "jt_grid"),
    ("check-kernel", {"kernel": POWER_KERNEL,
                      "jt_grid": [-1, 10, 100, 1000, 10000]}, "jt_grid"),
]


@pytest.mark.parametrize("command, cfg", [
    ("bhp-scan", {**HALF_PLANE, "r_series": []}),
    ("factorization", {**HALF_PLANE, "r_series": []}),
    ("ep-check", {**SDE_LINE, "r_list": []}),
    ("ep-check", {**SDE_LINE, "t_factors": []}),
    ("exit-stats", {**UNIT_INTERVAL, "n": 0}),
    ("ep-check", {**SDE_LINE, "n": 0}),
    ("bhp-scan", {**HALF_PLANE, "n": 0}),
    ("factorization", {**HALF_PLANE, "n": 0}),
    ("box-method", {**HALF_PLANE, "n": 0}),
    ("chain-decay", {**HALF_PLANE, "n": 0}),
    ("ep-check", {**SDE_LINE, "n_steps": 0}),
    ("ep-check", {**SDE_LINE, "n_steps": -2}),
    ("box-method", {**HALF_PLANE, "j_max": 0}),
    ("chain-decay", {**HALF_PLANE, "m_max": 0}),
    ("bhp-scan", {**HALF_PLANE, "cap": 0}),
    ("factorization", {**HALF_PLANE, "cap": 100}),
    ("exit-stats", {**UNIT_INTERVAL, "n": "abc"}),
    ("exit-stats", {**UNIT_INTERVAL, "n": 2.7}),
    ("exit-stats", {**UNIT_INTERVAL, "seed": "x"}),
    ("exit-stats", {**UNIT_INTERVAL, "seed": 1.5}),
    ("exit-stats", {**UNIT_INTERVAL, "seed": -1}),
    ("ep-check", {**SDE_LINE, "r_list": [1.0, "abc"]}),
    ("ep-check", {**SDE_LINE, "t_factors": 0.01}),
    ("bhp-scan", {**HALF_PLANE, "r_series": [0.4, "abc"]}),
    ("bhp-scan", {**HALF_PLANE, "r_series": "0.4,abc"}),
    ("bhp-scan", {**HALF_PLANE, "cap": "abc"}),
    ("factorization", {**HALF_PLANE, "cap": 4096.5}),
    ("bhp-scan", {**HALF_PLANE, "grid_size": "abc"}),
    ("box-method", {**HALF_PLANE, "grid_size": 2.5}),
    # malformed values, read before any walk
    ("bhp-scan", {**HALF_PLANE, "kappa": "abc"}),
    ("bhp-scan", {**HALF_PLANE, "split_axis": "x"}),
    ("exit-stats", {**UNIT_INTERVAL, "seed": 2 ** 64}),
    ("exit-stats", {**UNIT_INTERVAL, "rho": "x"}),
    ("exit-stats", {k: v for k, v in UNIT_INTERVAL.items() if k != "model"}),
    ("box-method", {**HALF_PLANE, "r": "x"}),
    ("factorization", {**HALF_PLANE, "c1": "x"}),
    ("exit-stats", {**UNIT_INTERVAL,
                    "model": {**UNIT_INTERVAL["model"], "alpha": "x"}}),
    ("exit-stats", {**UNIT_INTERVAL, "targets": [
        {"name": "right", "kind": "coordinate-gt", "axis": "x",
         "value": 0.5}]}),
    ("exit-stats", {**UNIT_INTERVAL, "expect": [
        {"target": "mean_exit_time", "value": 1.0, "sigmas": "x"}]}),
    ("bhp-scan", {**HALF_PLANE, "max_spread": "x"}),
    ("ep-check", {**SDE_LINE, "max_chat": "x"}),
    ("bhp-scan", {**HALF_PLANE, "xi": ["a", 0]}),
    ("check-kernel", {"kernel": POWER_KERNEL, "jt_grid": ["a"]}),
    ("exit-stats", {**UNIT_INTERVAL,
                    "domain": {**UNIT_INTERVAL["domain"], "radius": "abc"}}),
    ("exit-stats", {**UNIT_INTERVAL,
                    "model": {**UNIT_INTERVAL["model"], "type": 5}}),
    # a retired key
    ("ep-check", {**SDE_LINE, "scaling_check": False}),
    ("exit-stats", []),
    ("exit-stats", {**UNIT_INTERVAL, "targets": 5}),
    ("ep-check", {**SDE_LINE, "scaling_pairs": [[1.0, 2.0]]}),
    # target names and the output directory, read before any walk
    ("exit-stats", {**UNIT_INTERVAL, "targets": [
        {"name": ["a"], "kind": "norm-gt", "value": 2.0}]}),
    ("exit-stats", {**UNIT_INTERVAL, "targets": [
        {"name": "a", "kind": "norm-gt", "value": 2.0},
        {"name": "a", "kind": "norm-gt", "value": 3.0}]}),
    ("exit-stats", {**UNIT_INTERVAL, "targets": [
        {"name": "mean_exit_time", "kind": "norm-gt", "value": 2.0}]}),
    ("exit-stats", {**UNIT_INTERVAL, "out": 5}),
    # JSON reads 1e400 as inf, so the default bounds would be [inf, inf]
    ("ep-check", {**SDE_LINE,
                  "model": {**SDE_LINE["model"], "sigma_scale": 1e400}}),
] + [(command, cfg) for command, cfg, _ in NON_POSITIVE] + [
    # a word for a flag
    ("check-kernel", {"kernel": POWER_KERNEL,
                      "check_reverse_doubling": "false"}),
])
def test_empty_series_or_no_paths_is_config_error(tmp_path, capsys, no_walks,
                                                  command, cfg):
    assert _config_error(tmp_path, capsys, command, cfg)
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


@pytest.mark.parametrize("command, cfg, key", NON_POSITIVE)
def test_non_positive_entry_is_named_by_its_key(tmp_path, capsys, no_walks,
                                                command, cfg, key):
    main([command, "--config", _write(tmp_path, "c.json", cfg),
          "--out", str(tmp_path)])
    assert capsys.readouterr().err.startswith(
        f"config error: {key} must be a list of ")


def test_ep_check_rejects_the_retired_scaling_check(tmp_path, capsys,
                                                   no_walks):
    # scaling_pairs [] skips the pairs; an ignored scaling_check false
    # would run the default pair instead
    cfg = {k: v for k, v in SDE_LINE.items() if k != "scaling_pairs"}
    for value in (False, True):
        rc = main(["ep-check", "--config",
                   _write(tmp_path, "c.json", {**cfg, "scaling_check": value}),
                   "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG and err.startswith("config error: ")
        assert "scaling_pairs" in err
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


def test_factorization_bad_r_is_reported_under_r(tmp_path, capsys, no_walks):
    cfg = {k: v for k, v in HALF_PLANE.items() if k != "r_series"}
    rc = main(["factorization", "--config",
               _write(tmp_path, "c.json", {**cfg, "r": "abc"}),
               "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: r must be ")


@pytest.mark.parametrize("command, cfg", [
    ("box-method", {**HALF_PLANE, "r": -1}),
    ("box-method", {**HALF_PLANE, "r": 0}),
    ("chain-decay", {**HALF_PLANE, "r": -0.5}),
    ("factorization", {**{k: v for k, v in HALF_PLANE.items()
                          if k != "r_series"}, "r": -0.5}),
])
def test_non_positive_r_is_named_as_r(tmp_path, capsys, no_walks, command,
                                      cfg):
    rc = main([command, "--config", _write(tmp_path, "c.json", cfg),
               "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: r ")


def test_underpowered_factorization_exits_3(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "model": {"type": "isotropic-stable", "alpha": 1.0, "dim": 2},
        "domain": {"type": "half-space", "normal": [0.0, 1.0]},
        "xi": [0.0, 0.0], "r": 0.5, "grid_size": 2, "n": 64, "cap": 128,
        "seed": 1,
    })
    rc = main(["factorization", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_UNDERPOWERED


# ------------------------------------------------------------------ #
# summarize
# ------------------------------------------------------------------ #

def test_summarize_pass_and_fail(tmp_path, capsys):
    good = _write(tmp_path, "good.json", {
        "kernel": POWER_KERNEL,
        "expect": {"c4": 2.0, "tol": 1e-5},
    })
    main(["check-kernel", "--config", good, "--out", str(tmp_path / "a")])
    assert main(["summarize", str(tmp_path / "a" / "check-kernel.json")]) \
        == EXIT_OK

    bad = _write(tmp_path, "bad.json", {
        "kernel": POWER_KERNEL,
        "expect": {"c4": 3.0, "tol": 1e-5},     # the true constant is 2
    })
    main(["check-kernel", "--config", bad, "--out", str(tmp_path / "b")])
    assert main(["summarize", str(tmp_path / "b" / "check-kernel.json")]) \
        == EXIT_ACCEPTANCE
    out = capsys.readouterr().out
    assert "fail" in out


def test_summarize_without_reports_is_config_error(tmp_path, capsys):
    assert main(["summarize"]) == EXIT_CONFIG
    assert main(["summarize", str(tmp_path / "missing.json")]) == EXIT_CONFIG
    # a JSON list, and a check without its name or status, are no reports
    for name, rep in (("list.json", []),
                      ("nameless.json", {"checks": [{"status": "pass"}]}),
                      ("statusless.json", {"checks": [{"name": "a"}]})):
        capsys.readouterr()
        assert main(["summarize", _write(tmp_path, name, rep)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: cannot read report")


# ------------------------------------------------------------------ #
# determinism
# ------------------------------------------------------------------ #

def test_reports_byte_identical(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "model": {"type": "isotropic-stable", "alpha": 1.0, "dim": 1},
        "domain": {"type": "ball", "center": [0.0], "radius": 1.0},
        "n": 5000, "seed": 11,
    })
    main(["exit-stats", "--config", cfg, "--out", str(tmp_path / "r1")])
    main(["exit-stats", "--config", cfg, "--out", str(tmp_path / "r2")])
    a = (tmp_path / "r1" / "exit-stats.json").read_bytes()
    b = (tmp_path / "r2" / "exit-stats.json").read_bytes()
    assert a == b


def test_bhp_scan_writes_one_byte_identical_report(tmp_path):
    cfg = _write(tmp_path, "c.json", {**HALF_PLANE, "n": 8192, "cap": 8192,
                                      "seed": 1})
    for out in ("r1", "r2"):
        assert main(["bhp-scan", "--config", cfg,
                     "--out", str(tmp_path / out)]) == EXIT_OK
        assert [p.name for p in (tmp_path / out).iterdir()] == \
            ["bhp-scan.json"]
    assert (tmp_path / "r1" / "bhp-scan.json").read_bytes() == \
        (tmp_path / "r2" / "bhp-scan.json").read_bytes()


def _exit_digest(tmp_path, monkeypatch, command, cfg, owner, name,
                 shelled=False):
    """sha256 of the exits of every group of paths that owner.name walks
    in one run, group by group in call order, so it does not depend on
    which groups share a walk; each group's `shelled` mask too if
    `shelled` is set.  A call's groups are its `n` (`sizes` for the
    walk itself)."""
    h = hashlib.sha256()
    walk = getattr(owner, name)
    signature = inspect.signature(getattr(sampler, name))
    key = "n" if "n" in signature.parameters else "sizes"

    def recording(*args, **kwargs):
        batch = walk(*args, **kwargs)
        sizes = np.atleast_1d(signature.bind(*args, **kwargs).arguments[key])
        edges = np.cumsum([0, *sizes])
        for lo, hi in zip(edges[:-1], edges[1:]):
            group = batch.take(slice(lo, hi))
            fields = [group.y, group.w, group.steps, group.stalled]
            if shelled:
                fields.append(group.shelled)
            for a in fields:
                h.update(np.ascontiguousarray(a).tobytes())
        return batch

    monkeypatch.setattr(owner, name, recording)
    assert main([command, "--config", _write(tmp_path, "c.json", cfg),
                 "--out", str(tmp_path)]) == EXIT_OK
    return h.hexdigest()


# recorded from the walk at the default ball factor rho = 1, on numpy 2.4
# (its Generator.beta and standard_normal streams); only eval_harmonic
# walks with a stopping shell, so these runs must draw exactly these
# exits
UNSHELLED_EXIT_DIGESTS = {
    "exit-stats":
        "df7fb79f49c9bce3ddcad39b323744806938d10f10faffb59b44754ff40dd9c1",
    "box-method":
        "beac4e208fee432565ea5e723ef5599377725f40c44b3b9aa259cbaf0d233b8a",
    "chain-decay":
        "d67fed2500e9b72799f81b2bd6f2ba58392faf394a812d8365c26d0e9f8362dd",
}


def test_unshelled_experiments_walk_as_before(tmp_path, monkeypatch):
    comb = {
        "model": {"type": "isotropic-stable", "alpha": 1.0, "dim": 2},
        "domain": {"type": "box-minus-comb"}, "x": [0.5, 0.9], "n": 3000,
        "targets": [{"name": "top", "kind": "coordinate-gt", "axis": 1,
                     "value": 1.0}],
        "seed": 3,
    }
    slit = {
        "model": {"type": "isotropic-stable", "alpha": 1.5, "dim": 2},
        "domain": {"type": "slit-plane"}, "xi": [0.0, 0.0], "r": 0.5,
        "j_max": 2, "grid_size": 4, "n": 1000, "m_max": 3, "seed": 4,
    }
    got = {
        "exit-stats": _exit_digest(tmp_path, monkeypatch, "exit-stats", comb,
                                   exitstats, "sample_exits"),
        "box-method": _exit_digest(tmp_path, monkeypatch, "box-method", slit,
                                   exitstats, "sample_exits"),
        "chain-decay": _exit_digest(tmp_path, monkeypatch, "chain-decay",
                                    slit, bhp, "walk_exit_batch_indexed"),
    }
    assert got == UNSHELLED_EXIT_DIGESTS


# recorded as UNSHELLED_EXIT_DIGESTS were; bhp-scan's walks (through
# eval_harmonic) stop in an epsilon-shell at the slit, as the slit-plane
# benchmark's do, so this pins the shelled walk's exits and shell stops
SHELLED_EXIT_DIGESTS = {
    "bhp-scan":
        "4b5fdd4689e400d4e13f7259e7eb5aa71583c6ad06f93c43f55994f47398f8f7",
}


def test_shelled_experiments_walk_as_before(tmp_path, monkeypatch):
    slit = {
        "model": {"type": "isotropic-stable", "alpha": 1.5, "dim": 2},
        "domain": {"type": "slit-plane"}, "xi": [0.0, 0.0],
        "r_series": [0.4], "grid_size": 3, "n": 512, "cap": 2048,
        "split_axis": 1, "seed": 5,
    }
    got = {"bhp-scan": _exit_digest(tmp_path, monkeypatch, "bhp-scan", slit,
                                    exitstats, "sample_exits", shelled=True)}
    assert got == SHELLED_EXIT_DIGESTS


def test_workers_key_is_ignored_and_flag_rejected(tmp_path, monkeypatch):
    # results depend on (config, seed) alone: an old "workers" key is an
    # unknown key like any other, and there is no flag or variable for it
    plain = _write(tmp_path, "a.json", UNIT_INTERVAL)
    keyed = _write(tmp_path, "b.json", {**UNIT_INTERVAL, "workers": 3})
    monkeypatch.setenv("BHPLAB_WORKERS", "3")
    assert main(["exit-stats", "--config", plain,
                 "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(["exit-stats", "--config", keyed,
                 "--out", str(tmp_path / "b")]) == EXIT_OK
    a = _load_report(tmp_path / "a", "exit-stats")
    b = _load_report(tmp_path / "b", "exit-stats")
    assert a["results"] == b["results"] and a["checks"] == b["checks"]
    assert "workers" not in a["config"] and b["config"]["workers"] == 3
    # nor for any other run value: the config is the one way in
    for flag in (["--workers", "2"], ["--seed", "1"], ["--n", "5"],
                 ["--r-series", "0.4"]):
        with pytest.raises(SystemExit) as exc:
            main(["exit-stats", "--config", plain, *flag])
        assert exc.value.code == 2


def test_seed_changes_results(tmp_path):
    base = {
        "model": {"type": "isotropic-stable", "alpha": 1.0, "dim": 1},
        "domain": {"type": "ball", "center": [0.0], "radius": 1.0},
        # at rho = 1 a walk from the center is one exact exit, and its
        # mean exit time is the same for every seed
        "n": 2000, "rho": 0.5,
    }
    for seed in (1, 2):
        cfg = _write(tmp_path, f"c{seed}.json", {**base, "seed": seed})
        main(["exit-stats", "--config", cfg,
              "--out", str(tmp_path / f"s{seed}")])
    r1 = _load_report(tmp_path / "s1", "exit-stats")
    r2 = _load_report(tmp_path / "s2", "exit-stats")
    assert r1["results"]["mean_exit_time"]["value"] \
        != r2["results"]["mean_exit_time"]["value"]


def test_exit_stats_estimates_equal_the_one_point_estimators(tmp_path):
    # the mean exit time and the targets walk as points of one call, yet
    # each estimate is what its own estimator gives on its own substream
    targets = [{"name": "left", "kind": "coordinate-lt", "axis": 0,
                "value": 0.0},
               {"name": "far", "kind": "norm-gt", "value": 2.0}]
    cfg = _write(tmp_path, "c.json", {**UNIT_INTERVAL, "x": [0.3],
                                      "rho": 0.5, "targets": targets})
    assert main(["exit-stats", "--config", cfg,
                 "--out", str(tmp_path)]) == EXIT_OK
    got = _load_report(tmp_path, "exit-stats")["results"]
    model, D = IsotropicStable(1.0, 1), Ball([0.0], 1.0)
    rng = RngStream(UNIT_INTERVAL["seed"])
    n = UNIT_INTERVAL["n"]
    want = {"mean_exit_time": mean_exit_time(model, D, [0.3], n,
                                             rng.substream(0), rho=0.5),
            "targets": {
                "left": harmonic_measure(model, D, [0.3],
                                         lambda y: y[:, 0] < 0.0, n,
                                         rng.substream(1), rho=0.5),
                "far": harmonic_measure(model, D, [0.3],
                                        lambda y: np.linalg.norm(y, axis=1)
                                        > 2.0, n,
                                        rng.substream(2), rho=0.5)}}
    assert got == json.loads(json.dumps(encode(want)))


def test_default_walk_exits_the_largest_ball(tmp_path):
    # with no rho key a walk from the center of the unit ball exits the
    # whole ball in one step, so every path weighs exactly E tau
    cfg = _write(tmp_path, "c.json", UNIT_INTERVAL)
    assert main(["exit-stats", "--config", cfg,
                 "--out", str(tmp_path)]) == EXIT_OK
    met = _load_report(tmp_path, "exit-stats")["results"]["mean_exit_time"]
    assert met["value"] == pytest.approx(mean_exit_constant(1, 1.0),
                                         rel=1e-12)
    assert met["stderr"] < 1e-8


# ------------------------------------------------------------------ #
# cold start
# ------------------------------------------------------------------ #

def test_experiments_load_no_scipy(tmp_path):
    # importing scipy takes longer than a small experiment takes to run,
    # so only the quadratures import it; numpy.random loads with the
    # package, as setup, not inside the first walk.  pytest has loaded
    # scipy already, hence the fresh interpreter
    run = ("import json, sys; import bhplab.cli as cli\n"
           "def scipy_modules():\n"
           "    return sorted(m for m in sys.modules\n"
           "                  if m == 'scipy' or m.startswith('scipy.'))\n"
           "loaded = [scipy_modules(), 'numpy.random' in sys.modules]\n"
           "for command, cfg in zip(sys.argv[2::2], sys.argv[3::2]):\n"
           "    assert cli.main([command, '--config', cfg,\n"
           "                     '--out', sys.argv[1]]) == cli.EXIT_OK\n"
           "print(json.dumps([*loaded, scipy_modules()]))")
    chain = {**HALF_PLANE, "x": [0.0, 0.2], "r": 0.5, "n": 4000,
             "m_max": 4, "seed": 3}
    argv = [str(tmp_path)]
    for command, cfg in (("exit-stats", UNIT_INTERVAL),
                         ("bhp-scan", HALF_PLANE), ("ep-check", SDE_LINE),
                         ("chain-decay", chain)):
        argv += [command, _write(tmp_path, f"{command}.cfg.json", cfg)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", run, *argv], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300).stdout
    assert json.loads(out.splitlines()[-1]) == [[], True, []]

import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from bhplab import bhp, exitstats
from bhplab.cli import (EXIT_ACCEPTANCE, EXIT_CONFIG, EXIT_OK,
                        EXIT_UNDERPOWERED, main)
from bhplab.sampler import mean_exit_constant


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


def test_ep_check_runs(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "model": {"type": "sde-stable", "alpha": 1.0, "dim": 1, "dt": 0.01},
        "r_list": [1.0], "t_factors": [0.01], "n": 2000, "n_steps": 8,
        "scaling_check": False, "seed": 5,
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
        "scaling_check": False, "seed": 4,
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


def test_factorization_r_series_flag(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "model": {"type": "isotropic-stable", "alpha": 1.0, "dim": 2},
        "domain": {"type": "half-space", "normal": [0.0, 1.0]},
        "xi": [0.0, 0.0], "grid_size": 2, "n": 2048, "cap": 120000,
        "seed": 9,
    })
    rc = main(["factorization", "--config", cfg, "--out", str(tmp_path),
               "--r-series", "0.5,0.25"])
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
    "scaling_check": False,
}


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
    rc = main([*command.split(), "--config", _write(tmp_path, "c.json", cfg),
               *out])
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


# a radius or time that is not positive, after a valid first entry, and
# the key the error must name; it must fail before the first entry walks
NON_POSITIVE = [
    ("bhp-scan", {**HALF_PLANE, "r_series": [0.4, -0.2]}, "r_series"),
    ("bhp-scan --r-series 0.4,0", HALF_PLANE, "--r-series"),
    ("factorization", {**HALF_PLANE, "r_series": [0.5, -0.25]}, "r_series"),
    ("ep-check", {**SDE_LINE, "r_list": [1.0, 0.0]}, "r_list"),
    ("ep-check", {**SDE_LINE, "t_factors": [0.1, -0.01]}, "t_factors"),
    ("ep-check", {**SDE_LINE, "scaling_check": True,
                  "scaling_pairs": [[[1.0, 1.0], [2.0, -1.0]]]},
     "scaling_pairs"),
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
    ("bhp-scan --r-series 0.4,abc", HALF_PLANE),
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
    ("ep-check", {**SDE_LINE, "scaling_check": "false"}),
    ("exit-stats", []),
    ("exit-stats", {**UNIT_INTERVAL, "targets": 5}),
    ("ep-check", {**SDE_LINE, "scaling_check": True,
                  "scaling_pairs": [[1.0, 2.0]]}),
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
] + [(command, cfg) for command, cfg, _ in NON_POSITIVE])
def test_empty_series_or_no_paths_is_config_error(tmp_path, capsys, no_walks,
                                                  command, cfg):
    assert _config_error(tmp_path, capsys, command, cfg)
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


@pytest.mark.parametrize("command, cfg, key", NON_POSITIVE)
def test_non_positive_entry_is_named_by_its_key(tmp_path, capsys, no_walks,
                                                command, cfg, key):
    main([*command.split(), "--config", _write(tmp_path, "c.json", cfg),
          "--out", str(tmp_path)])
    assert capsys.readouterr().err.startswith(
        f"config error: {key} must be a list of ")


def test_factorization_bad_r_is_reported_under_r(tmp_path, capsys, no_walks):
    cfg = {k: v for k, v in HALF_PLANE.items() if k != "r_series"}
    rc = main(["factorization", "--config",
               _write(tmp_path, "c.json", {**cfg, "r": "abc"}),
               "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: r must be ")


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

def _strip_timestamp(text: str) -> str:
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', text)


def test_reports_byte_identical_modulo_timestamp(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "model": {"type": "isotropic-stable", "alpha": 1.0, "dim": 1},
        "domain": {"type": "ball", "center": [0.0], "radius": 1.0},
        "n": 5000, "seed": 11,
    })
    main(["exit-stats", "--config", cfg, "--out", str(tmp_path / "r1")])
    main(["exit-stats", "--config", cfg, "--out", str(tmp_path / "r2")])
    a = (tmp_path / "r1" / "exit-stats.json").read_text()
    b = (tmp_path / "r2" / "exit-stats.json").read_text()
    assert _strip_timestamp(a) == _strip_timestamp(b)


def _exit_digest(tmp_path, monkeypatch, command, cfg, owner, name):
    """sha256 of every exit batch that owner.name returns in one run."""
    h = hashlib.sha256()
    walk = getattr(owner, name)

    def recording(*args, **kwargs):
        batch = walk(*args, **kwargs)
        for a in (batch.y, batch.w, batch.steps, batch.stalled):
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
        "2c7ed6956e39e013536af02e9a51d08b76511cbab93c2efdc9929e58988a2f9d",
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
    with pytest.raises(SystemExit) as exc:
        main(["exit-stats", "--config", plain, "--workers", "2"])
    assert exc.value.code == 2


def test_seed_changes_results(tmp_path):
    base = {
        "model": {"type": "isotropic-stable", "alpha": 1.0, "dim": 1},
        "domain": {"type": "ball", "center": [0.0], "radius": 1.0},
        # at rho = 1 a walk from the center is one exact exit, and its
        # mean exit time is the same for every seed
        "n": 2000, "rho": 0.5,
    }
    cfg = _write(tmp_path, "c.json", base)
    main(["exit-stats", "--config", cfg, "--out", str(tmp_path / "s1"),
          "--seed", "1"])
    main(["exit-stats", "--config", cfg, "--out", str(tmp_path / "s2"),
          "--seed", "2"])
    r1 = _load_report(tmp_path / "s1", "exit-stats")
    r2 = _load_report(tmp_path / "s2", "exit-stats")
    assert r1["results"]["mean_exit_time"]["value"] \
        != r2["results"]["mean_exit_time"]["value"]


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

def test_experiments_load_neither_scipy_stats_nor_integrate(tmp_path):
    # scipy.stats and scipy.integrate take longer to import than a small
    # experiment takes to run, so only the code that calls them imports
    # them; pytest has loaded scipy.integrate already, hence the fresh
    # interpreter
    run = ("import json, sys; import bhplab.cli as cli\n"
           "for command, cfg in zip(sys.argv[2::2], sys.argv[3::2]):\n"
           "    assert cli.main([command, '--config', cfg,\n"
           "                     '--out', sys.argv[1]]) == cli.EXIT_OK\n"
           "print(json.dumps(sorted({'scipy.stats', 'scipy.integrate'}\n"
           "                        & set(sys.modules))))")
    argv = [str(tmp_path)]
    for command, cfg in (("exit-stats", UNIT_INTERVAL),
                         ("bhp-scan", HALF_PLANE), ("ep-check", SDE_LINE)):
        argv += [command, _write(tmp_path, f"{command}.cfg.json", cfg)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", run, *argv], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300).stdout
    assert json.loads(out.splitlines()[-1]) == []

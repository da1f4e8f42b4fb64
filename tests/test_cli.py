import hashlib
import json
import re

import numpy as np
import pytest

from bhplab import bhp, exitstats
from bhplab.cli import (EXIT_ACCEPTANCE, EXIT_CONFIG, EXIT_OK,
                        EXIT_UNDERPOWERED, main)


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


@pytest.fixture
def no_walks(monkeypatch):
    """Fail the test if any exit sample is drawn."""
    from bhplab import exitstats

    def walk(*args, **kwargs):
        raise AssertionError("an experiment walked before its config failed")

    monkeypatch.setattr(exitstats, "gather_exits", walk)


def _config_error(tmp_path, capsys, command, cfg):
    rc = main([command, "--config", _write(tmp_path, "c.json", cfg),
               "--out", str(tmp_path)])
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


def test_summarize_without_reports_is_config_error(tmp_path):
    assert main(["summarize"]) == EXIT_CONFIG
    assert main(["summarize", str(tmp_path / "missing.json")]) == EXIT_CONFIG


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


# recorded from the walk before bhp-scan's stopping shell existed, on
# numpy 2.4 (its Generator.beta and standard_normal streams); only
# eval_harmonic walks with a shell, so these runs must still draw exactly
# those exits
UNSHELLED_EXIT_DIGESTS = {
    "exit-stats":
        "a3f617deb1a06d42966f62f51e4d0f355bb8cd3a17fe5aacc3d0a49bd05220e5",
    "box-method":
        "4c4a26ead0ce2f1374467add5566141a6f1a607532cefe07e19027b702cd57b4",
    "chain-decay":
        "99c8d48d6682cf1da8c08cc9a1f316043d9bf79832113f678633891ba3e6bbd9",
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
        "n": 2000,
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

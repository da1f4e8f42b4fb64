"""The bhplab benchmark: one `bhp-lab` workload, timed end to end, or traced.

    python3 bench/run.py --workload slit-scan --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --quick

Every experiment runs `bhplab.cli.main` in a fresh interpreter
(bench/experiment.py) on a config generated from --seed
(bench/workloads.py).  Closed loop: one experiment at a time, the same
invocation repeated until --seconds are used, at least twice.

With --trace 0 the last line holds the end-to-end metrics; with --trace 1
the run alternates untraced and traced experiments and the last line holds
the per-layer metrics of the traced ones (bench/tracer.py).  Earlier lines
give each metric by name and unit, the failure share, the report digest,
machine facts and, for traced runs, the tracing overhead.

An experiment fails when its exit code is not 0, a report check or an
output check (workloads.output_problems) does not pass, its report digest
(timestamp stripped) differs from the other experiments of the run, or
(traced) the traced path count differs from the report's.

--quick runs every workload untraced and traced at tiny sizes and checks
that every metric named in BENCHMARK.json is printed with its unit.
Notes on the workloads and the measurement limits: bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

SETUP_SAMPLES = 3        # set-up-only interpreters per run
MIN_REPS = 2             # so that every run compares report digests
RUN_LIMIT_S = 170.0      # children still running then are killed


# ===================================================================== #
# one child interpreter
# ===================================================================== #

class Child:
    """Spawns experiment.py and reaps it with its own resource usage."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        # One BLAS thread: on a shared 2-core host, BLAS threads contending
        # with other tenants made experiments slower and far noisier
        # (bench/NOTES.md).
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p),
            OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1")
        self.count = 0

    def run(self, argv: list, opts: list) -> dict:
        self.count += 1
        tag = f"c{self.count}"
        result_path = self.workdir / f"{tag}.result.json"
        with open(self.workdir / f"{tag}.log", "w") as log:
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "experiment.py"),
                 str(result_path), *opts, "--", *argv],
                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT, env=self.env)
        timer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out = {"exit": proc.returncode,
               "cpu_s": usage.ru_utime + usage.ru_stime,
               "rss_mb": usage.ru_maxrss / 1024.0}
        try:
            with open(result_path) as fh:
                out.update(json.load(fh))
        except (OSError, json.JSONDecodeError):
            out["missing_result"] = True
        return out


def report_digest(report: dict, out_dir: Path) -> str:
    """sha256 over the report (timestamp removed) and any CSV tables."""
    payload = {k: v for k, v in report.items() if k != "timestamp"}
    h = hashlib.sha256(json.dumps(payload, sort_keys=True).encode())
    for path in sorted(out_dir.glob("*.csv")):
        h.update(b"\0" + path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ===================================================================== #
# one run
# ===================================================================== #

def machine_facts() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "platform": platform.platform()}


def _experiment(child: Child, workload: str, cfg_path: Path, index: int,
                traced: bool) -> dict:
    out_dir = child.workdir / f"out{index}"
    out_dir.mkdir()
    command = workloads.WORKLOADS[workload][0]
    rep = child.run([command, "--config", str(cfg_path), "--out",
                     str(out_dir)], ["--trace"] if traced else [])
    rep["traced"] = traced
    rep["problems"] = []
    if rep.get("missing_result") or rep["exit"] != 0:
        rep["problems"].append(f"exit code {rep['exit']}")
        return rep
    with open(out_dir / f"{command}.json") as fh:
        report = json.load(fh)
    rep["digest"] = report_digest(report, out_dir)
    rep["paths"] = workloads.report_paths(report)
    rep["rel_stderr"] = workloads.median_rel_stderr(report)
    rep["problems"] += workloads.output_problems(report)
    if traced:
        t = rep["trace"]
        seen = (t["sampler.sample_exits.paths"]
                + t["sampler.survival_prob_ball.paths"] - rep["stalled"])
        if seen != rep["paths"]:
            rep["problems"].append(
                f"traced path count {seen} != report path count "
                f"{rep['paths']}")
    return rep


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 quick: bool) -> dict:
    """Runs the closed loop; returns every sample and the derived metrics."""
    start = time.monotonic()
    workdir = WORK / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(workloads.config(workload, seed, quick),
                                   indent=2))
    child = Child(workdir, start + RUN_LIMIT_S)
    load_before = os.getloadavg()

    setup_argv = [workloads.WORKLOADS[workload][0], "--config", str(cfg_path)]
    setups = [child.run(setup_argv, ["--setup-only"])
              for _ in range(1 if quick else SETUP_SAMPLES)]

    reps = []
    t0 = time.monotonic()
    cycle = [False, True] if trace else [False]
    while True:
        for traced in cycle:
            reps.append(_experiment(child, workload, cfg_path, len(reps),
                                    traced))
        cycles = len(reps) // len(cycle)
        elapsed = time.monotonic() - t0
        enough = len(reps) >= MIN_REPS
        if enough and elapsed * (cycles + 1) / cycles > seconds:
            break
        if time.monotonic() - start > RUN_LIMIT_S / 2:
            break

    digests = Counter(r["digest"] for r in reps if "digest" in r)
    common = digests.most_common(1)[0][0] if digests else None
    for r in reps:
        if "digest" in r and r["digest"] != common:
            r["problems"].append("report differs from the other runs of "
                                 "the same invocation")
    failed = sum(1 for r in reps if r["problems"])
    ok = [r for r in reps if not r["problems"]]
    untraced = [r for r in ok if not r["traced"]]
    setup_samples = [s["setup_s"] for s in setups + reps if "setup_s" in s]

    detail = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "quick": quick,
        "machine": machine_facts(),
        "versions": next((s["versions"] for s in setups if "versions" in s),
                         None),
        "load_before": load_before, "load_after": os.getloadavg(),
        "digest": common, "attempted": len(reps), "failed": failed,
        "failed_frac": failed / len(reps),
        "setup_s": setup_samples,
        "runs": [{k: r.get(k) for k in ("traced", "wall_s", "cpu_s",
                                         "setup_s", "rss_mb", "paths",
                                         "rel_stderr", "digest", "exit",
                                         "problems")} for r in reps],
    }
    metrics = {}
    if untraced:
        walls = [r["wall_s"] for r in untraced]
        metrics.update({
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(walls),
            "paths_per_s": statistics.median(r["paths"] / r["wall_s"]
                                              for r in untraced),
            "time_to_1pct_s": statistics.median(
                r["wall_s"] * (r["rel_stderr"] / 0.01) ** 2
                for r in untraced),
            "peak_rss_mb": max(r["rss_mb"] for r in reps),
        })
    traced = [r for r in ok if r["traced"]]
    if trace and traced and untraced:
        for name in traced[0]["trace"]:
            metrics[name] = statistics.median(r["trace"][name]
                                              for r in traced)
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in untraced))
        detail["tracing_overhead_s"] = metrics["trace.overhead_s"]
    detail["spread"] = {
        "wall_s": summarize([r["wall_s"] for r in untraced]),
        "setup_s": summarize(setup_samples),
    }
    detail["correct"] = failed == 0 and bool(untraced) and (
        bool(traced) or not trace)
    if failed == 0:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"detail": detail, "metrics": metrics}


def summarize(samples: list) -> dict:
    """Median, plus the highest percentile with at least 10 samples above."""
    out = {"n": len(samples),
           "median": statistics.median(samples) if samples else None,
           "high": None}
    k = len(samples)
    if k >= 11:
        out["high"] = {"pct": 100.0 * (k - 10) / k,
                       "value": sorted(samples)[k - 11]}
    return out


# ===================================================================== #
# output
# ===================================================================== #

def metric_specs(trace: bool) -> list:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def result_line(run: dict, trace: bool) -> dict:
    d = run["detail"]
    specs = metric_specs(trace)
    return {"correct": d["correct"], "attempted": d["attempted"],
            "failed": d["failed"],
            "metrics": {s["name"]: {"value": run["metrics"][s["name"]],
                                    "unit": s["unit"]}
                        for s in specs if s["name"] in run["metrics"]}}


def print_run(run: dict, trace: bool) -> dict:
    d = run["detail"]
    line = result_line(run, trace)
    print(f"# {d['workload']} seed={d['seed']} trace={int(trace)} "
          f"runs={d['attempted']} digest={d['digest']}")
    for name, m in line["metrics"].items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    # printed but not gated in BENCHMARK.json (bench/NOTES.md says why)
    if not trace and "time_to_1pct_s" in run["metrics"]:
        print(f"#   time_to_1pct_s = {run['metrics']['time_to_1pct_s']:.6g} s")
    print(f"#   failed_frac = {d['failed_frac']:.6g} 1")
    for r in d["runs"]:
        for p in r["problems"]:
            print(f"#   FAILED: {p}")
    print(json.dumps({"detail": d}))
    return line


def quick() -> int:
    """Every workload, untraced and traced, at tiny sizes."""
    bad = []
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            run = run_workload(workload, 1, 1.0, trace, quick=True)
            line = print_run(run, trace)
            print(json.dumps(line))
            if not line["correct"]:
                bad.append(f"{workload} trace={int(trace)}: not correct")
            for s in metric_specs(trace):
                if s["name"] not in line["metrics"]:
                    bad.append(f"{workload} trace={int(trace)}: "
                               f"metric {s['name']} not printed")
    for b in bad:
        print(f"quick: {b}", file=sys.stderr)
    print("quick: ok" if not bad else "quick: FAILED")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()
    if not (SRC / "bhplab" / "cli.py").is_file():
        print(f"bench: no bhplab sources under {SRC}", file=sys.stderr)
        return 2
    if args.quick:
        return quick()
    if args.workload is None:
        ap.error("--workload is required unless --quick is given")
    run = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace), quick=False)
    line = print_run(run, bool(args.trace))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

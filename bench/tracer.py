"""Per-layer spans and counters, installed by patching bhplab's public names.

A name is patched where its caller looks it up: `bhp` and `exitstats`
import `gather_exits`, `sample_exits` and friends by name, `cli` imports
`survival_prob_ball` and `build_model` by name, and `sampler` calls
`ball_exit_centered` and `stable_increment` as module globals.  Patching
only the defining module would silently miss those calls.

Spans are kept in memory (a call count and a busy time per span name) and
turned into metrics once the experiment ends.  With `workers` > 1 every
worker part still runs in this process, so all spans are seen; if a later
version runs parts in child processes, spans inside them are not recorded.
"""

from __future__ import annotations

import dataclasses
import os
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.count = Counter()
        self.open = Counter()
        self.steps = []

    # ----------------------------------------------------------- spans
    def _span(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            self.open[name] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.busy[name] += perf_counter() - t0
                self.calls[name] += 1
                self.open[name] -= 1
            if on_result is not None:
                on_result(out)
            return out
        return traced

    def patch(self, owner, attr, name, on_result=None):
        setattr(owner, attr, self._span(name, getattr(owner, attr), on_result))

    # ------------------------------------------------------ installation
    def install(self):
        from bhplab import bhp, cli, domains, exitstats, sampler

        count = self.count

        def points(out):
            return 1 if np.ndim(out) == 0 else len(out)

        def on_walk(batch):
            self.steps.append(np.asarray(batch.steps))

        def on_sample(batch):
            count["sampler.sample_exits.paths"] += batch.n
            count["sampler.stalled"] += int(np.sum(batch.stalled))

        def on_gather(result):
            count["exitstats.gather_exits.paths"] += result[0].n
            if self.open["bhp.bhp_scan"]:
                count["bhp.scan_rounds"] += 1

        def on_scan(rep):
            count["bhp.grid_points"] += len(rep.grid)
            count["bhp.paths"] += rep.n_total

        def on_report(path):
            count["cli.report_bytes"] += os.path.getsize(path)

        def counted(key, size):
            def hook(out):
                count[key] += size(out)
            return hook

        self.patch(sampler, "ball_exit_centered", "sampler.ball_exit_centered",
                   counted("sampler.ball_exit_centered.draws", len))
        self.patch(sampler, "stable_increment", "sampler.stable_increment",
                   counted("sampler.stable_increment.draws", len))
        for owner in (sampler, bhp):
            self.patch(owner, "walk_exit_batch_indexed",
                       "sampler.walk_exit_batch_indexed", on_walk)
        for owner in (sampler, exitstats):
            self.patch(owner, "sample_exits", "sampler.sample_exits",
                       on_sample)
        for owner in (exitstats, bhp):
            self.patch(owner, "gather_exits", "exitstats.gather_exits",
                       on_gather)
        for owner in (sampler, cli):
            self.patch(owner, "survival_prob_ball",
                       "sampler.survival_prob_ball",
                       counted("sampler.survival_prob_ball.paths",
                               lambda est: est.n))
        self.patch(domains.Domain, "contains", "domains.contains",
                   counted("domains.contains.points", points))
        self.patch(domains.Domain, "dist_lb", "domains.dist_lb",
                   counted("domains.dist_lb.points", points))
        self.patch(bhp, "bhp_scan", "bhp.bhp_scan", on_scan)
        self.patch(bhp, "interior_grid", "bhp.interior_grid")
        self.patch(cli, "write_report", "cli.write_report", on_report)

        build_model = cli.build_model

        def build_counting_model(spec):
            model = build_model(spec)
            sigma = getattr(model, "sigma", None)
            if sigma is None:
                return model

            def counting_sigma(x):
                count["sampler.sigma_calls"] += 1
                return sigma(x)
            return dataclasses.replace(model, sigma=counting_sigma)

        cli.build_model = build_counting_model

    # ----------------------------------------------------------- metrics
    def metrics(self) -> dict:
        c, calls, busy = self.count, self.calls, self.busy
        steps = (np.concatenate(self.steps) if self.steps
                 else np.zeros(0, dtype=np.int64))
        walk_steps = int(steps.sum())
        q = (np.percentile(steps, [50, 90, 99]).tolist() if steps.size
             else [0.0, 0.0, 0.0])
        dom_points = c["domains.contains.points"] + c["domains.dist_lb.points"]
        dom_s = busy["domains.contains"] + busy["domains.dist_lb"]
        walk_s = busy["sampler.sample_exits"]
        attempted = c["sampler.sample_exits.paths"]
        grid_points = c["bhp.grid_points"]

        def ratio(a, b):
            return a / b if b else 0.0

        m = {}
        for span in ("sampler.sample_exits", "sampler.ball_exit_centered",
                     "sampler.survival_prob_ball", "sampler.stable_increment",
                     "domains.contains", "domains.dist_lb",
                     "exitstats.gather_exits", "bhp.bhp_scan"):
            m[f"{span}.calls"] = calls[span]
            m[f"{span}.s"] = busy[span]
        m.update({
            "sampler.sample_exits.paths": attempted,
            "sampler.walk_steps": walk_steps,
            "sampler.steps_per_path.p50": q[0],
            "sampler.steps_per_path.p90": q[1],
            "sampler.steps_per_path.p99": q[2],
            "sampler.steps_per_path.max": int(steps.max()) if steps.size else 0,
            "sampler.steps_per_s": ratio(walk_steps, walk_s),
            "sampler.walk_self_s": walk_s - busy["sampler.ball_exit_centered"]
            - dom_s,
            "sampler.ball_exit_centered.draws":
                c["sampler.ball_exit_centered.draws"],
            "sampler.active_per_iteration": ratio(
                c["sampler.ball_exit_centered.draws"],
                calls["sampler.ball_exit_centered"]),
            "sampler.survival_prob_ball.paths":
                c["sampler.survival_prob_ball.paths"],
            "sampler.stable_increment.draws":
                c["sampler.stable_increment.draws"],
            "sampler.sigma_calls": c["sampler.sigma_calls"],
            "domains.contains.points": c["domains.contains.points"],
            "domains.dist_lb.points": c["domains.dist_lb.points"],
            "domains.points_per_s": ratio(dom_points, dom_s),
            "domains.points_per_step": ratio(dom_points, walk_steps),
            "exitstats.gather_exits.paths": c["exitstats.gather_exits.paths"],
            "exitstats.parts_per_call": ratio(
                calls["sampler.sample_exits"], calls["exitstats.gather_exits"]),
            "exitstats.stall_frac": ratio(c["sampler.stalled"], attempted),
            "bhp.rounds_per_point": ratio(c["bhp.scan_rounds"], grid_points),
            "bhp.paths_per_point": ratio(c["bhp.paths"], grid_points),
            "bhp.interior_grid.s": busy["bhp.interior_grid"],
            "cli.write_report.s": busy["cli.write_report"],
            "cli.report_bytes": c["cli.report_bytes"],
        })
        return m

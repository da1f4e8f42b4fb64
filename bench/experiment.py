"""One experiment in a fresh interpreter: time set-up, then `cli.main(argv)`.

    python3 bench/experiment.py RESULT.json [--trace] [--setup-only] \
        -- SUBCOMMAND --config CFG --out DIR

Set-up is `import bhplab.cli` plus loading the config.  The timings (and,
with --trace, the per-layer metrics) are written to RESULT.json; the
exit code is the one `cli.main` returned.  `bhplab` must be importable,
e.g. through PYTHONPATH.
"""

import json
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    import bhplab.cli as cli
    from bhplab.config import load_config

    result_path, opts = sys.argv[1], sys.argv[2:sys.argv.index("--")]
    argv = sys.argv[sys.argv.index("--") + 1:]
    load_config(argv[argv.index("--config") + 1])
    setup_s = time.perf_counter() - t0

    import numpy
    import scipy
    result = {"setup_s": setup_s, "rc": 0,
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if "--setup-only" not in opts:
        tracer = None
        if "--trace" in opts:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        t1 = time.perf_counter()
        rc = cli.main(argv)
        result["wall_s"] = time.perf_counter() - t1
        result["rc"] = rc
        if tracer is not None:
            result["trace"] = tracer.metrics()
            result["stalled"] = tracer.count["sampler.stalled"]
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""topoloc benchmark: train, localize and navigate workloads.

    python3 perfbench/run.py --workload {train,localize,navigate,all} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
`src/` directory, and nothing is installed.  `all` runs the three workloads
one after another, each in its own process.  Each workload is single-process
and closed-loop: an op starts when the previous one has returned.

- train:    `trainer.train` on the acceptance tests' mixed-domain config
            (33-node map, tau 15, batch 3, n' 40, mix 0.4, validation every
            10 iterations).  Op = one training iteration.
- localize: `evaluation.eval_run` with a `ModelLocalizer` over deviated sim
            trajectories on the same map.  Op = one localize step, with its
            share of the scoring.
- navigate: `navigation.run_trial` on the benchmark layout with nine
            identical corridors (about 124 nodes), starts and goals drawn as
            `topoloc eval-nav` draws them, 400-step limit.  Op = one
            control-loop step.

A run sets its inputs up once, runs one untimed warm-up round, then repeats
rounds for `--seconds`; further set-ups are spread over the run and
`setup_s` is the median of all of them.  Every op's output is checked; an op
that raises or fails its check counts in `failed`, and `failed_ratio` is
printed beside the metrics.

With `--trace 0` the last stdout line holds the end-to-end metrics:
`setup_s`, `ops_per_s`, `op_ms_p50`, `op_ms_slowest1pct` (mean of the
slowest 1% of ops: on localize and navigate the collector's generation-2
pauses fall on about 0.6% of ops, so a plain p99 sits on that cliff and jumps
between runs) and `peak_rss_mb`.  With `--trace 1` rounds alternate between
untraced and traced, and the last line holds the per-layer metrics of the
traced rounds, measured by wrapping the program's public functions from
outside (see bench_trace.py).
"""

from __future__ import annotations

import os

# pinned before numpy is first imported, so BLAS starts single-threaded
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train", "localize", "navigate")


def import_program():
    """Put the checkout's `src/` first on the path; fail if the package is not there."""
    if not (SRC / "topoloc" / "__init__.py").is_file():
        raise SystemExit(f"error: no topoloc sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import topoloc
    if Path(topoloc.__file__).resolve().parent != SRC / "topoloc":
        raise SystemExit(f"error: imported topoloc from {topoloc.__file__}, not {SRC}")


def git_sha():
    """Commit of the checkout, read from .git without running git; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy as np
    blas = "unknown"
    try:
        blas_cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_cfg.get('name')} {blas_cfg.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_sha": git_sha(),
    }


def slowest_mean(values, share):
    """Mean of the slowest `share` of `values` (at least one value)."""
    k = max(1, int(len(values) * share))
    return statistics.fmean(sorted(values)[-k:])


def run(workload, seed, seconds, trace, size=None, make_localizer=None):
    """Set up, warm up and measure one workload; returns the result object."""
    from bench_trace import Tracer
    from bench_workloads import FULL, WORKLOADS

    size = size or FULL
    setup, do_round = WORKLOADS[workload]

    def timed_setup():
        t0 = perf_counter()
        inputs = setup(seed, size, make_localizer)
        setup_s.append(perf_counter() - t0)
        return inputs

    setup_s = []
    inputs = timed_setup()
    rounds = [do_round(inputs)]  # warm-up: checked, not timed
    plain, traced = [], []
    tracer = Tracer()
    start = perf_counter()
    while True:
        if trace and len(traced) < len(plain):
            tracer.install()
            try:
                r = do_round(inputs)
            finally:
                tracer.uninstall()
            traced.append(r)
        else:
            r = do_round(inputs)
            plain.append(r)
        rounds.append(r)
        # further set-ups are spread over the run, so they see the same host speed
        while len(setup_s) < size.setup_reps and \
                perf_counter() - start >= seconds * len(setup_s) / size.setup_reps:
            timed_setup()
        if perf_counter() - start >= seconds and (traced or not trace):
            break
    while len(setup_s) < size.setup_reps:
        timed_setup()

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    fingerprint = rounds[0].fingerprint
    repeatable = all(r.fingerprint == fingerprint for r in rounds)
    plain_ops = sum(len(r.op_s) for r in plain)
    plain_s = sum(r.seconds for r in plain)
    # when every op failed there are no op times; report zeros beside correct=false
    if trace:
        traced_ops = sum(len(r.op_s) for r in traced)
        metrics = tracer.layer_metrics(
            max(traced_ops, 1), sum(r.seconds for r in traced), plain_s / max(plain_ops, 1),
            sum(r.fingerprint.get("submap_nodes", 0) for r in traced))
    else:
        op_ms = [1e3 * s for r in plain for s in r.op_s] or [0.0]
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "ops_per_s": (plain_ops / plain_s, "1/s"),
            "op_ms_p50": (statistics.median(op_ms), "ms"),
            "op_ms_slowest1pct": (slowest_mean(op_ms, 0.01), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "rounds": len(rounds), "timed_ops": plain_ops,
        "fingerprint": fingerprint, "repeatable": repeatable,
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "correct": failed == 0 and repeatable,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        for workload in WORKLOAD_NAMES:
            code = subprocess.run([sys.executable, __file__, "--workload", workload,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)]).returncode
            if code:
                return code
        return 0
    import_program()

    print("env " + json.dumps(environment()), flush=True)
    res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {res['workload']} seed {res['seed']} trace {res['trace']} "
          f"rounds {res['rounds']} timed_ops {res['timed_ops']} "
          f"repeatable {res['repeatable']}")
    print("fingerprint " + json.dumps(res["fingerprint"]))
    for name, m in res["metrics"].items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(f"metric failed_ratio {res['failed_ratio']!r} ratio "
          f"({res['failed']} of {res['attempted']} ops)")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

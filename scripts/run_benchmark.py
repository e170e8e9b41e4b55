#!/usr/bin/env python3
"""End-to-end benchmark run: world -> data -> map -> training -> localization
and navigation report tables, all through the CLI.

Usage:
    python3 scripts/run_benchmark.py --out runs/benchmark [--seed 0] [--fast]

--fast shrinks the training schedule for a quick smoke run.
"""

import argparse
import json
import os
import sys

from topoloc.cli import main as cli


def run(*argv):
    code = cli([str(a) for a in argv])
    if code != 0:
        sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/benchmark")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--fast", action="store_true",
                    help="short training schedule for a smoke run")
    args = ap.parse_args()

    out = args.out
    os.makedirs(out, exist_ok=True)
    world = os.path.join(out, "world.json")
    train_cfg = os.path.join(out, "train_cfg.json")
    schedule = ({"tau": 5, "max_iters": 20, "patience_iters": 20,
                 "batch_size": 1, "val_every": 5}
                if args.fast else
                {"tau": 15, "n_prime": 40, "lr_main": 1e-3,
                 "lr_encoder": 3e-4, "patience_iters": 120, "batch_size": 3,
                 "max_iters": 400, "val_every": 10})
    with open(train_cfg, "w") as fh:
        json.dump(schedule, fh, indent=2)

    run("gen-world", "--out", out, "--seed", args.seed)
    # one clean pass builds the map; separate passes provide train/val/test
    run("collect", "--world", world, "--out", out, "--seed", args.seed + 1,
        "--count", 1, "--deviation", 0.0, "--full-span", "--name", "mapping.json")
    run("collect", "--world", world, "--out", out, "--seed", args.seed + 2,
        "--count", 6, "--deviation", 0.3, "--full-span", "--name", "train_sim.json")
    run("collect", "--world", world, "--out", out, "--seed", args.seed + 3,
        "--count", 2, "--deviation", 0.3, "--full-span", "--name", "val_sim.json")
    run("collect", "--world", world, "--out", out, "--seed", args.seed + 4,
        "--count", 3, "--deviation", 0.3, "--full-span", "--name", "test_sim.json")
    run("collect", "--world", world, "--out", out, "--seed", args.seed + 5,
        "--count", 4, "--deviation", 0.3, "--domain", "real_like",
        "--full-span", "--name", "train_real.json")
    run("collect", "--world", world, "--out", out, "--seed", args.seed + 6,
        "--count", 3, "--deviation", 0.3, "--domain", "real_like",
        "--full-span", "--name", "test_real.json")
    run("build-map", "--trajectories", os.path.join(out, "mapping.json"),
        "--out", out, "--seed", args.seed)

    mp = os.path.join(out, "map.json")
    for method in ("ours", "no_gclstm", "no_skip"):
        run("train", "--map", mp,
            "--sim-data", os.path.join(out, "train_sim.json"),
            "--real-data", os.path.join(out, "train_real.json"),
            "--val-data", os.path.join(out, "val_sim.json"),
            "--config", train_cfg, "--out", out, "--seed", args.seed,
            "--method", method)

    for method in ("ours", "no_gclstm", "no_skip", "nearest", "oracle"):
        argv = ["eval-loc", "--map", mp,
                "--data", os.path.join(out, "test_sim.json"),
                "--method", method, "--out", out, "--seed", args.seed,
                "--name", f"loc_{method}.csv"]
        if method in ("ours", "no_gclstm", "no_skip"):
            argv += ["--model", os.path.join(out, f"checkpoint_{method}.json")]
        run(*argv)
    for method in ("ours", "nearest"):
        argv = ["eval-loc", "--map", mp,
                "--data", os.path.join(out, "test_real.json"),
                "--method", method, "--out", out, "--seed", args.seed,
                "--name", f"loc_real_{method}.csv"]
        if method == "ours":
            argv += ["--model", os.path.join(out, "checkpoint_ours.json")]
        run(*argv)

    trials = 10 if args.fast else 50
    for method in ("ours", "no_gclstm", "oracle"):
        argv = ["eval-nav", "--world", world, "--map", mp, "--method", method,
                "--trials", trials, "--out", out, "--seed", args.seed,
                "--name", f"nav_{method}.csv"]
        if method in ("ours", "no_gclstm"):
            argv += ["--model", os.path.join(out, f"checkpoint_{method}.json")]
        run(*argv)

    run("report", "--out", out)


if __name__ == "__main__":
    main()

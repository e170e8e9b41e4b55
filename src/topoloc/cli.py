"""Command-line pipeline: world generation through navigation evaluation.

Every command reads/writes flat JSON or CSV artifacts under --out, embeds
the seed and a hash of its effective configuration in each artifact, and
derives all randomness from the --seed flag, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from contextlib import contextmanager, suppress

import numpy as np

from . import evaluation as E
from . import localizer as L
from . import navigation as N
from . import simworld as W
from . import trainer as TR
from .tensor import memory_scope
from .topo_graph import MapConfig, Pose2D, TopoMap, build_map_real, build_map_sim

METHODS = ("ours", "no_gclstm", "no_skip", "nearest", "oracle")


class CliError(Exception):
    pass


def config_hash(obj) -> str:
    blob = json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _require(path, what):
    if path is None or not os.path.exists(path):
        raise CliError(f"missing {what}: {path}")
    return path


@contextmanager
def _reading(what, path):
    """A KeyError, TypeError or ValueError (bad JSON too) in the block is a CliError."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad {what} {path}: {exc!r}") from exc


def _load_json(path, what):
    with open(_require(path, what)) as fh:
        return json.load(fh)


def _write_json(path, meta, payload):
    with open(path, "w") as fh:
        json.dump({"meta": meta, **payload}, fh)


def _args_dict(args):
    return {k: v for k, v in vars(args).items() if k != "func"}


def _meta(args_dict, seed):
    return {"seed": seed, "config_hash": config_hash(args_dict)}


def _config(args, defaults, build):
    """`build(defaults updated by --config)`; an unknown key or rejected value is a CliError.

    `seed` is not a config key: --seed alone sets it, in `defaults`.
    """
    with _reading("config", args.config):
        overrides = _load_json(args.config, "config") if args.config else {}
        if not isinstance(overrides, dict):
            raise CliError(f"config {args.config} must hold a JSON object")
        unknown = sorted(overrides.keys() - (defaults.keys() - {"seed"}))
        if unknown:
            raise CliError(f"unknown config keys {unknown} in {args.config}")
        return build({**defaults, **overrides})


# -- commands ----------------------------------------------------------------


def cmd_gen_world(args):
    # generating the world validates the layout
    world = _config(args, W.benchmark_spec(seed=args.seed).to_dict(),
                    lambda d: W.generate_world(W.WorldSpec.from_dict(d)))
    sd = world.spec.to_dict()
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "world.json")
    _write_json(path, _meta(sd, args.seed), {"spec": sd})
    print(f"wrote {path}")


def load_world(path):
    with _reading("world artifact", path):
        return W.generate_world(W.WorldSpec.from_dict(_load_json(path, "world artifact")["spec"]))


def default_obs_model(world, noise_sigma=0.05):
    return W.ObservationModel.create(world.spec.d_obs, noise_sigma=noise_sigma,
                                     shift_seed=world.spec.seed + 7,
                                     extra_sigma=noise_sigma)


def cmd_collect(args):
    world = load_world(args.world)
    with _reading("--deviation for world", args.world):  # routes its walls do not clamp
        W.deviation_band(args.deviation, world.spec.half_width)
    obs_model = default_obs_model(world, args.noise)
    rng = np.random.default_rng(args.seed)
    trajectories = []
    for k in range(args.count):
        tseed = int(rng.integers(2 ** 31))
        if args.full_span:
            start, goal = 0.0, world.total_length
        else:
            a, b = sorted(rng.uniform(0, world.total_length, size=2))
            if b - a < 10.0:
                mid = (a + b) / 2
                a, b = max(0.0, mid - 5.0), min(world.total_length, mid + 5.0)
            start, goal = (a, b) if rng.random() < 0.5 else (b, a)
        poses = W.generate_trajectory(world, start, goal, args.deviation, tseed)
        obs = W.render_trajectory(world, poses, obs_model, args.domain, tseed + 1)
        trajectories.append({
            "seed": tseed,
            "deviation": args.deviation,
            "poses": [p.to_dict() for p in poses],
            "observations": obs.tolist(),
        })
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, args.name)
    cfg = {"world": args.world, "domain": args.domain, "count": args.count,
           "deviation": args.deviation, "noise": args.noise}
    _write_json(path, _meta(cfg, args.seed),
                {"domain": args.domain, "trajectories": trajectories})
    print(f"wrote {path} ({args.count} trajectories)")


def load_trajectories(path):
    """Each trajectory's (category: real_like or its deviation band, poses, observations)."""
    with _reading("trajectory artifact", path):
        blob = _load_json(path, "trajectory artifact")
        return [("real_like" if blob["domain"] == "real_like" else W.deviation_band(t["deviation"]),
                 [Pose2D.from_dict(p) for p in t["poses"]],
                 np.array(t["observations"], dtype=np.float64)) for t in blob["trajectories"]]


def load_domain(path, flag, domain):
    """`load_trajectories(path)`, whose artifact must hold `domain` trajectories for `flag`."""
    trajs = load_trajectories(path)
    if any((category == "real_like") != (domain == "real_like") for category, _, _ in trajs):
        raise CliError(f"{flag} takes {domain} trajectories, but {path} holds another domain")
    return trajs


def cmd_build_map(args):
    mc = _config(args, MapConfig().to_dict(), MapConfig.from_dict)
    trajs = load_trajectories(args.trajectories)
    if not 0 <= args.index < len(trajs):
        raise CliError(f"--index {args.index} out of range: {args.trajectories} "
                       f"holds {len(trajs)} trajectories")
    _, poses, obs = trajs[args.index]
    if args.style == "sim":
        with _reading("trajectory artifact", args.trajectories):  # say, a non-finite pose
            topo = build_map_sim(list(zip(obs, poses)), mc)
    else:
        topo = build_map_real(obs, mc.m_stride)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, args.name)
    cfg = {"trajectories": args.trajectories, "style": args.style,
           "map_config": mc.to_dict(), "index": args.index}
    _write_json(path, _meta(cfg, args.seed), topo.to_dict())
    print(f"wrote {path} ({topo.n} nodes, {len(topo.edges)} edges)")


def load_map(path):
    with _reading("map artifact", path):
        return TopoMap.from_dict(_load_json(path, "map artifact"))


def require_poses(topo, path, use):
    if not topo.has_poses:
        raise CliError(f"map {path} has no poses to {use}; build it with --style sim")


def build_samples(topo, sim_trajs, mc):
    return [TR.make_sim_sample(list(zip(obs, poses)), topo, mc)
            for _, poses, obs in sim_trajs]


def cmd_train(args):
    tc = _config(args, TR.TrainConfig(seed=args.seed).to_dict(), TR.TrainConfig.from_dict)
    topo = load_map(args.map)
    require_poses(topo, args.map, "label simulator rows by")
    mc = topo.config or MapConfig()
    with memory_scope():  # one scope for building the samples and training
        sim_trajs = load_domain(args.sim_data, "--sim-data", "sim")
        real_trajs = (load_domain(args.real_data, "--real-data", "real_like")
                      if args.real_data else [])
        val_trajs = load_domain(args.val_data, "--val-data", "sim")
        sim_set = build_samples(topo, sim_trajs, mc)
        real_set = [TR.make_real_like_sample(obs, mc.m_stride) for _, _, obs in real_trajs]
        val_set = [TR.window(s, 0, min(tc.tau, s.observations.shape[0] - 1))
                   for s in build_samples(topo, val_trajs, mc)]
        d_obs = topo.descriptors.shape[1]
        variant = "full" if args.method == "ours" else args.method  # or an ablation's name
        model = L.Localizer(L.LocalizerConfig(d_obs=d_obs, variant=variant), seed=args.seed)
        history = TR.train(model, sim_set, real_set, val_set, tc)
    os.makedirs(args.out, exist_ok=True)
    ck = os.path.join(args.out, f"checkpoint_{args.method}.json")
    model.save(ck)
    meta = f"config_hash={config_hash(tc.to_dict())} seed={args.seed} method={args.method}"
    history.to_csv(os.path.join(args.out, f"history_{args.method}.csv"), meta)
    print(f"wrote {ck} (best val {history.best_val:.4f} @ iter {history.best_iter})")


def make_localizer(args, topo):
    if args.method == "nearest":
        return E.NearestDescriptorLocalizer()
    if args.method == "oracle":
        return E.OracleLocalizer((topo.config or MapConfig()).omega_m)
    with _reading("model checkpoint", args.model):
        model = L.Localizer.from_checkpoint(_require(args.model, "model checkpoint"))
    width = topo.descriptors.shape[1]
    if model.cfg.d_obs != width:
        raise CliError(f"checkpoint {args.model} has d_obs={model.cfg.d_obs} but map "
                       f"{args.map} has {width}-wide descriptors")
    return E.ModelLocalizer(model, name=args.method)


def cmd_eval_loc(args):
    topo = load_map(args.map)
    mc = topo.config or MapConfig()
    trajs = load_trajectories(args.data)
    real_like = [category == "real_like" for category, _, _ in trajs]
    if not all(real_like):  # simulator rows take their targets from the map's poses
        require_poses(topo, args.map, "label simulator rows by")
    if args.method == "oracle" and any(real_like):
        raise CliError(f"--method oracle needs poses, but {args.data} holds real_like "
                       "trajectories")
    loc = make_localizer(args, topo)
    rows = []
    with memory_scope():  # one scope for all runs: the heap is kept between them
        for category, poses, obs in trajs:
            sample = (TR.make_real_like_sample(obs, mc.m_stride) if category == "real_like"
                      else TR.make_sim_sample(list(zip(obs, poses)), topo, mc))
            rows.append(E.eval_run(loc, sample.observations, sample.topo, sample.targets,
                                   sample.poses, mc.omega_m, args.method, category))
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, args.name)
    meta = f"config_hash={config_hash(_args_dict(args))} seed={args.seed}"
    E.write_report(path, rows, meta)
    print(E.format_table(rows))
    print(f"wrote {path}")


def cmd_eval_nav(args):
    world = load_world(args.world)
    topo = load_map(args.map)
    require_poses(topo, args.map, "navigate by")
    mc = topo.config or MapConfig()
    obs_model = default_obs_model(world, args.noise)
    loc = make_localizer(args, topo)
    rng = np.random.default_rng(args.seed)
    outcomes = []
    with memory_scope():  # one scope for all trials: the heap is kept between them
        for _ in range(args.trials):
            tseed = int(rng.integers(2 ** 31))
            trng = np.random.default_rng(tseed)
            start_node = _sample_start(topo, trng)
            sp = topo.poses[start_node]
            start = Pose2D(sp.x, min(max(sp.y + trng.uniform(-0.3, 0.3),
                                         -world.spec.half_width + 0.2),
                                     world.spec.half_width - 0.2), sp.theta)
            goal = _sample_goal(topo, start_node, trng)
            cfg = N.NavConfig(goal_node=goal, omega_m=mc.omega_m,
                              time_limit_steps=args.time_limit)
            outcomes.append(N.run_trial(world, topo, loc, obs_model, start, cfg, tseed))
    sr, cr, tr, cov = N.nav_metrics(outcomes)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, args.name)
    with open(path, "w") as fh:
        fh.write(f"# config_hash={config_hash(_args_dict(args))} seed={args.seed}\n")
        fh.write("method,trials,SR,CR,TR,CovR\n")
        fh.write(f"{args.method},{args.trials},{sr!r},{cr!r},{tr!r},{cov!r}\n")
    print(f"{args.method}: SR={sr:.2f} CR={cr:.2f} TR={tr:.2f} CovR={cov:.3f}")
    print(f"wrote {path}")


def _goals(topo, start_node, max_hops=12):
    """Nodes 1..max_hops directed hops from start_node, which the planner can reach."""
    hops = topo.bfs(start_node, directed=True)[0]
    return [i for i in range(topo.n) if 0 < hops[i] <= max_hops]


def _sample_start(topo, rng):
    """A uniformly drawn start node that has a goal; other draws are redrawn."""
    if not any(_goals(topo, s) for s in range(topo.n)):
        raise CliError("no node of the map has a goal along its directed edges")
    while True:
        start_node = int(rng.integers(topo.n))
        if _goals(topo, start_node):
            return start_node


def _sample_goal(topo, start_node, rng):
    """A goal drawn uniformly from the nodes `_goals` allows for start_node."""
    reachable = _goals(topo, start_node)
    return int(reachable[rng.integers(len(reachable))])


def cmd_report(args):
    rows = []
    for name in sorted(os.listdir(args.out)):
        if name.endswith(".csv") and (name.startswith("loc_") or name.startswith("nav_")):
            with open(os.path.join(args.out, name)) as fh:
                for line in fh:
                    if not line.startswith("#"):
                        rows.append(f"{name}: {line.rstrip()}")
    path = os.path.join(args.out, "summary.csv")
    with open(path, "w") as fh:
        fh.write("source_line\n")
        for r in rows:
            fh.write(r.replace(",", ";") + "\n")
    print("\n".join(rows))
    print(f"wrote {path}")


# -- argument parsing --------------------------------------------------------


def _int_at_least(low):
    """An argparse type: an integer of at least `low`, which is 0 or more."""
    def parse(text):
        if not text.strip().isdigit() or int(text) < low:
            raise argparse.ArgumentTypeError(f"must be an integer of at least {low}, got {text!r}")
        return int(text)
    return parse


def _non_negative(text):
    """An argparse type: a finite number of at least 0."""
    with suppress(ValueError):
        if 0 <= float(text) < np.inf:
            return float(text)
    raise argparse.ArgumentTypeError(f"must be a finite number of at least 0, got {text!r}")


def build_parser():
    p = argparse.ArgumentParser(prog="topoloc",
                                description="topological-map localization pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, config=False):
        if config:
            sp.add_argument("--config", default=None, help="JSON object of config overrides")
        sp.add_argument("--seed", type=_int_at_least(0), default=0)
        sp.add_argument("--out", default="out")

    sp = sub.add_parser("gen-world", help="write a world spec artifact")
    common(sp, config=True)
    sp.set_defaults(func=cmd_gen_world)

    sp = sub.add_parser("collect", help="generate trajectories + observations")
    common(sp)
    sp.add_argument("--world", required=True)
    sp.add_argument("--domain", choices=("sim", "real_like"), default="sim")
    sp.add_argument("--count", type=_int_at_least(1), default=4)
    sp.add_argument("--deviation", type=_non_negative, default=0.0)
    sp.add_argument("--noise", type=_non_negative, default=0.05)
    sp.add_argument("--name", default="trajectories.json")
    sp.add_argument("--full-span", action="store_true")
    sp.set_defaults(func=cmd_collect)

    sp = sub.add_parser("build-map", help="build a topological map artifact")
    common(sp, config=True)
    sp.add_argument("--trajectories", required=True)
    sp.add_argument("--style", choices=("sim", "real"), default="sim")
    sp.add_argument("--index", type=int, default=0)
    sp.add_argument("--name", default="map.json")
    sp.set_defaults(func=cmd_build_map)

    sp = sub.add_parser("train", help="train a localizer checkpoint")
    common(sp, config=True)
    sp.add_argument("--map", required=True)
    sp.add_argument("--sim-data", required=True)
    sp.add_argument("--real-data", default=None)
    sp.add_argument("--val-data", required=True)
    sp.add_argument("--method", choices=("ours", "no_gclstm", "no_skip"), default="ours")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval-loc", help="localization metrics CSV")
    common(sp)
    sp.add_argument("--map", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--model", default=None)
    sp.add_argument("--method", choices=METHODS, default="ours")
    sp.add_argument("--name", default="loc_eval.csv")
    sp.set_defaults(func=cmd_eval_loc)

    sp = sub.add_parser("eval-nav", help="navigation metrics CSV")
    common(sp)
    sp.add_argument("--world", required=True)
    sp.add_argument("--map", required=True)
    sp.add_argument("--model", default=None)
    sp.add_argument("--method", choices=METHODS, default="ours")
    sp.add_argument("--trials", type=_int_at_least(1), default=20)
    sp.add_argument("--time-limit", type=_int_at_least(1), default=400)
    sp.add_argument("--noise", type=_non_negative, default=0.05)
    sp.add_argument("--name", default="nav_eval.csv")
    sp.set_defaults(func=cmd_eval_nav)

    sp = sub.add_parser("report", help="aggregate metric CSVs in --out")
    common(sp)
    sp.set_defaults(func=cmd_report)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

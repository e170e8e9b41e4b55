"""End-to-end pipeline tests for the command-line interface: artifact
composition, determinism, schemas, and error reporting."""

import json
import os
import warnings

import numpy as np
import pytest

import topoloc.localizer as L
import topoloc.navigation as N
from topoloc.cli import _sample_goal, _sample_start, build_parser, main
from topoloc.topo_graph import Pose2D, TopoMap


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the whole pipeline once into a shared directory."""
    out = str(tmp_path_factory.mktemp("pipeline"))
    world = os.path.join(out, "world.json")
    tcfg = os.path.join(out, "train_cfg.json")
    with open(tcfg, "w") as fh:
        json.dump({"tau": 5, "n_prime": 20, "batch_size": 1, "max_iters": 8,
                   "patience_iters": 10, "val_every": 2}, fh)

    def run(*argv):
        assert main(list(argv)) == 0

    run("gen-world", "--out", out, "--seed", "3")
    run("collect", "--world", world, "--out", out, "--seed", "5",
        "--count", "2", "--deviation", "0.3", "--full-span",
        "--name", "sim.json")
    run("collect", "--world", world, "--out", out, "--seed", "6",
        "--count", "1", "--full-span", "--name", "mapping.json")
    run("collect", "--world", world, "--out", out, "--seed", "7",
        "--count", "1", "--domain", "real_like", "--deviation", "0.3",
        "--full-span", "--name", "real.json")
    run("build-map", "--trajectories", os.path.join(out, "mapping.json"),
        "--out", out, "--seed", "3")
    run("train", "--map", os.path.join(out, "map.json"),
        "--sim-data", os.path.join(out, "sim.json"),
        "--val-data", os.path.join(out, "sim.json"),
        "--config", tcfg, "--out", out, "--seed", "11", "--method", "ours")
    return out


def test_world_artifact_embeds_seed_and_hash(pipeline):
    with open(os.path.join(pipeline, "world.json")) as fh:
        blob = json.load(fh)
    assert blob["meta"]["seed"] == 3
    assert len(blob["meta"]["config_hash"]) == 16
    assert blob["spec"]["segments"]


def test_map_artifact_valid(pipeline):
    with open(os.path.join(pipeline, "map.json")) as fh:
        blob = json.load(fh)
    assert len(blob["nodes"]) > 10
    assert all(n["pose"] is not None for n in blob["nodes"])
    assert blob["meta"]["config_hash"]


def test_train_outputs(pipeline):
    ck = os.path.join(pipeline, "checkpoint_ours.json")
    hist = os.path.join(pipeline, "history_ours.csv")
    assert os.path.exists(ck) and os.path.exists(hist)
    lines = open(hist).read().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "iteration,train_loss,val_loss"
    assert len(lines) >= 3


def test_eval_loc_schema_and_methods(pipeline):
    for method, extra in (("nearest", []), ("oracle", []),
                          ("ours", ["--model",
                                    os.path.join(pipeline, "checkpoint_ours.json")])):
        name = f"loc_{method}.csv"
        assert main(["eval-loc", "--map", os.path.join(pipeline, "map.json"),
                     "--data", os.path.join(pipeline, "sim.json"),
                     "--method", method, "--out", pipeline, "--name", name,
                     "--seed", "1"] + extra) == 0
        lines = open(os.path.join(pipeline, name)).read().splitlines()
        assert lines[1] == "method,category,AC,ACstar,PE,ME"
        fields = lines[2].split(",")
        assert fields[0] == method
        assert 0.0 <= float(fields[2]) <= 1.0


def test_eval_loc_real_like_has_blank_pe(pipeline):
    assert main(["eval-loc", "--map", os.path.join(pipeline, "map.json"),
                 "--data", os.path.join(pipeline, "real.json"),
                 "--method", "nearest", "--out", pipeline,
                 "--name", "loc_real.csv", "--seed", "1"]) == 0
    lines = open(os.path.join(pipeline, "loc_real.csv")).read().splitlines()
    row = lines[2].split(",")
    assert row[1] == "real_like"
    assert row[4] == ""  # PE absent without poses


def test_eval_nav_runs_and_reports(pipeline):
    assert main(["eval-nav", "--world", os.path.join(pipeline, "world.json"),
                 "--map", os.path.join(pipeline, "map.json"),
                 "--method", "oracle", "--trials", "3", "--out", pipeline,
                 "--name", "nav_oracle.csv", "--seed", "2"]) == 0
    lines = open(os.path.join(pipeline, "nav_oracle.csv")).read().splitlines()
    assert lines[1] == "method,trials,SR,CR,TR,CovR"
    fields = lines[2].split(",")
    assert fields[0] == "oracle" and fields[1] == "3"
    assert abs(float(fields[2]) + float(fields[3]) + float(fields[4]) - 1.0) < 1e-12


def test_report_aggregates(pipeline):
    assert main(["report", "--out", pipeline]) == 0
    summary = open(os.path.join(pipeline, "summary.csv")).read()
    assert "loc_nearest.csv" in summary


def test_rerun_reproduces_identical_artifacts(pipeline, tmp_path):
    d = str(tmp_path)

    def run_all():
        assert main(["gen-world", "--out", d, "--seed", "3"]) == 0
        assert main(["collect", "--world", os.path.join(d, "world.json"),
                     "--out", d, "--seed", "5", "--count", "1",
                     "--deviation", "0.2", "--name", "t.json"]) == 0
        assert main(["build-map", "--trajectories", os.path.join(d, "t.json"),
                     "--out", d, "--seed", "3"]) == 0
        assert main(["eval-loc", "--map", os.path.join(d, "map.json"),
                     "--data", os.path.join(d, "t.json"), "--method", "nearest",
                     "--out", d, "--seed", "1"]) == 0

    names = ("world.json", "t.json", "map.json", "loc_eval.csv")
    run_all()
    first = {n: open(os.path.join(d, n), "rb").read() for n in names}
    run_all()
    for n in names:
        assert open(os.path.join(d, n), "rb").read() == first[n], n


def test_missing_artifact_reports_path(capsys, tmp_path):
    code = main(["build-map", "--trajectories", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "nope.json" in err


def test_train_rejects_untrainable_method(pipeline, tmp_path):
    code = main(["train", "--map", os.path.join(pipeline, "map.json"),
                 "--sim-data", os.path.join(pipeline, "sim.json"),
                 "--val-data", os.path.join(pipeline, "sim.json"),
                 "--out", str(tmp_path), "--method", "ours",
                 "--config", str(tmp_path / "missing_cfg.json")])
    assert code == 2


def _config_command(command, pipeline):
    """(argv without --out and --config, the artifact it would write)."""
    if command == "gen-world":
        return ["gen-world"], "world.json"
    if command == "build-map":
        return ["build-map", "--trajectories", os.path.join(pipeline, "mapping.json")], "map.json"
    return ["train", "--map", os.path.join(pipeline, "map.json"),
            "--sim-data", os.path.join(pipeline, "sim.json"),
            "--val-data", os.path.join(pipeline, "sim.json"),
            "--method", "ours"], "checkpoint_ours.json"


@pytest.mark.parametrize("command, config, message", [
    ("train", {"batch_sise": 2}, "batch_sise"),
    ("train", {"val_every": 0}, "val_every"),
    ("gen-world", {"no_such_key": 1}, "no_such_key"),
    ("gen-world", {"segments": []}, "segment"),
    ("build-map", {"no_such_key": 1}, "no_such_key"),
    ("build-map", {"m_stride": 0}, "m_stride"),
    ("gen-world", {"seed": 99}, "seed"),
    ("train", {"seed": 99}, "seed"),
])
def test_train_config_error_exits_2(pipeline, tmp_path, capsys, command, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    argv, artifact = _config_command(command, pipeline)
    code = main(argv + ["--out", str(tmp_path), "--config", str(path)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(tmp_path / artifact)


@pytest.mark.parametrize("argv", [["collect", "--world", "w.json"],
                                  ["eval-loc", "--map", "m.json", "--data", "d.json"],
                                  ["eval-nav", "--world", "w.json", "--map", "m.json"],
                                  ["report"]])
def test_config_flag_only_where_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv + ["--config", "cfg.json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["collect", "--world", "w.json", "--count", "0"], "--count"),
    (["eval-nav", "--world", "w.json", "--map", "m.json", "--trials", "0"], "--trials"),
    (["eval-nav", "--world", "w.json", "--map", "m.json", "--time-limit", "0"], "--time-limit"),
    (["eval-nav", "--world", "w.json", "--map", "m.json", "--trials", "-2"], "--trials"),
    (["collect", "--world", "w.json", "--noise", "nan"], "--noise"),
    (["collect", "--world", "w.json", "--noise", "-0.05"], "--noise"),
    (["eval-nav", "--world", "w.json", "--map", "m.json", "--noise", "nan"], "--noise"),
    (["collect", "--world", "w.json", "--deviation", "nan"], "--deviation"),
    (["collect", "--world", "w.json", "--deviation", "-0.3"], "--deviation"),
    (["collect", "--world", "w.json", "--deviation", "inf"], "--deviation"),
    (["collect", "--world", "w.json", "--deviation", "wide"], "--deviation"),
])
def test_counts_below_one_exit_2_at_parsing(capsys, tmp_path, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    want = ("a finite number of at least 0" if flag in ("--noise", "--deviation")
            else "an integer of at least 1")
    assert f"argument {flag}: must be {want}" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("deviation, category", [
    ("0", "not_deviated"), ("0.3", "deviated_le_1"), ("1.3", "deviated_1_to_2")])
def test_eval_loc_labels_rows_with_recorded_deviation_band(pipeline, tmp_path, deviation,
                                                           category):
    d = str(tmp_path)
    assert main(["collect", "--world", os.path.join(pipeline, "world.json"), "--out", d,
                 "--seed", "8", "--count", "2", "--deviation", deviation,
                 "--name", "t.json"]) == 0
    assert main(["eval-loc", "--map", os.path.join(pipeline, "map.json"),
                 "--data", os.path.join(d, "t.json"), "--method", "nearest",
                 "--out", d, "--seed", "1"]) == 0
    rows = open(os.path.join(d, "loc_eval.csv")).read().splitlines()[2:]
    assert [r.split(",")[1] for r in rows] == [category, category]


@pytest.mark.parametrize("deviation", [None, -1, float("nan"), float("inf"), "0.3", 2.5])
def test_eval_loc_on_bad_recorded_deviation_exits_2(pipeline, tmp_path, capsys, deviation):
    with open(os.path.join(pipeline, "sim.json")) as fh:
        blob = json.load(fh)
    if deviation is None:
        del blob["trajectories"][1]["deviation"]
    else:
        blob["trajectories"][1]["deviation"] = deviation
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    assert main(["eval-loc", "--map", os.path.join(pipeline, "map.json"), "--data", str(bad),
                 "--method", "oracle", "--out", str(tmp_path), "--seed", "2"]) == 2
    assert f"bad trajectory artifact {bad}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["bad.json"]


@pytest.mark.parametrize("half_width, deviation, most", [
    (1.0, "1.3", "0.95"),  # generate_trajectory would clamp the offsets at 0.95 m
    (1.5, "2.5", "1.45"), (3.0, "2.5", "2")])  # no band holds routes beyond 2 m
def test_collect_rejects_deviation_without_a_band(tmp_path, capsys, half_width, deviation, most):
    d = str(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"half_width": half_width}))
    assert main(["gen-world", "--config", str(cfg), "--out", d]) == 0
    assert main(["collect", "--world", os.path.join(d, "world.json"), "--out", d,
                 "--deviation", deviation]) == 2
    assert f"between 0 and {most} m, got {deviation}" in capsys.readouterr().err
    assert sorted(os.listdir(d)) == ["cfg.json", "world.json"]


def test_eval_loc_has_no_category_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval-loc", "--map", "m.json", "--data", "d.json", "--category", "deviated_le_1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --category" in capsys.readouterr().err


@pytest.mark.parametrize("index", ["1", "-1"])
def test_build_map_index_out_of_range(pipeline, tmp_path, capsys, index):
    # mapping.json holds a single trajectory
    code = main(["build-map", "--trajectories", os.path.join(pipeline, "mapping.json"),
                 "--out", str(tmp_path), "--index", index])
    assert code == 2
    assert "--index" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "map.json")


def test_build_map_on_non_finite_pose_exits_2_without_warning(pipeline, tmp_path, capsys):
    with open(os.path.join(pipeline, "mapping.json")) as fh:
        blob = json.load(fh)
    blob["trajectories"][0]["poses"][3]["x"] = float("inf")  # written as Infinity
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(blob))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["build-map", "--trajectories", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "non-finite trajectory pose" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "map.json")


def test_sampled_goals_are_plannable_on_one_way_chain():
    n = 20
    topo = TopoMap(np.zeros((n, 2)), [Pose2D(i, 0.0, 0.0) for i in range(n)],
                   [(i, i + 1) for i in range(n - 1)])
    rng = np.random.default_rng(8)
    for _ in range(120):
        start = _sample_start(topo, rng)
        goal = _sample_goal(topo, start, rng)
        assert goal != start and 0 < goal - start <= 12
        N.plan_dijkstra(topo, start, goal)  # raises when the goal is unreachable


def test_eval_nav_on_edgeless_map_fails_loudly(pipeline, tmp_path, capsys):
    with open(os.path.join(pipeline, "map.json")) as fh:
        blob = json.load(fh)
    blob["edges"] = []
    edgeless = os.path.join(tmp_path, "edgeless.json")
    with open(edgeless, "w") as fh:
        json.dump(blob, fh)
    assert main(["eval-nav", "--world", os.path.join(pipeline, "world.json"),
                 "--map", edgeless, "--method", "oracle", "--trials", "2",
                 "--out", str(tmp_path), "--seed", "2"]) == 2
    assert "no node of the map has a goal" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "nav_eval.csv")


def test_eval_on_map_of_other_descriptor_width_fails_loudly(pipeline, tmp_path, capsys):
    narrow = str(tmp_path / "narrow.json")
    L.Localizer(L.LocalizerConfig(d_obs=8)).save(narrow)
    common = ["--map", os.path.join(pipeline, "map.json"), "--model", narrow,
              "--method", "ours", "--out", str(tmp_path), "--seed", "2"]
    for argv in (["eval-loc", "--data", os.path.join(pipeline, "sim.json")],
                 ["eval-nav", "--world", os.path.join(pipeline, "world.json"), "--trials", "1"]):
        assert main(argv + common) == 2
        err = capsys.readouterr().err
        assert "d_obs=8" in err and "16-wide descriptors" in err
    assert os.listdir(tmp_path) == ["narrow.json"]


def test_eval_nav_on_map_without_poses_fails_loudly(pipeline, tmp_path, capsys):
    assert main(["build-map", "--trajectories", os.path.join(pipeline, "mapping.json"),
                 "--style", "real", "--out", str(tmp_path), "--name", "real_map.json"]) == 0
    capsys.readouterr()
    assert main(["eval-nav", "--world", os.path.join(pipeline, "world.json"),
                 "--map", str(tmp_path / "real_map.json"), "--method", "oracle",
                 "--trials", "2", "--out", str(tmp_path), "--seed", "2"]) == 2
    assert "has no poses" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "nav_eval.csv")


@pytest.mark.parametrize("field, value", [
    ("edges", [[0, 999]]),      # a node the map does not have
    ("edges", [[0, 1.9]]),      # a fractional node id
    ("edges", [[0, 1, 2]]),     # not a pair
    ("nodes", None),            # no node list at all
])
def test_eval_loc_on_malformed_map_exits_2(pipeline, tmp_path, capsys, field, value):
    with open(os.path.join(pipeline, "map.json")) as fh:
        blob = json.load(fh)
    if value is None:
        del blob[field]
    else:
        blob[field] = value
    bad = os.path.join(tmp_path, "bad_map.json")
    with open(bad, "w") as fh:
        json.dump(blob, fh)
    assert main(["eval-loc", "--map", bad, "--data", os.path.join(pipeline, "sim.json"),
                 "--method", "oracle", "--out", str(tmp_path), "--seed", "2"]) == 2
    assert f"bad map artifact {bad}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["bad_map.json"]


def test_eval_loc_on_map_with_non_finite_pose_exits_2_at_loading(pipeline, tmp_path, capsys):
    with open(os.path.join(pipeline, "map.json")) as fh:
        blob = json.load(fh)
    blob["nodes"][4]["pose"]["y"] = float("-inf")
    bad = tmp_path / "bad_map.json"
    bad.write_text(json.dumps(blob))
    assert main(["eval-loc", "--map", str(bad), "--data", os.path.join(pipeline, "sim.json"),
                 "--method", "oracle", "--out", str(tmp_path), "--seed", "2"]) == 2
    assert "non-finite map pose" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["bad_map.json"]


_WORLD_WITHOUT_SEGMENTS = {"spec": {"half_width": 1.5, "d_obs": 16, "bumps_per_segment": 6,
                                    "seed": 0}}


@pytest.mark.parametrize("what, content, argv", [
    ("model checkpoint", {"manifest": {"d_obs": 16, "bogus": 1}, "params": {}},
     ["eval-loc", "--map", "MAP", "--data", "SIM", "--model", "BAD"]),
    ("model checkpoint", {"manifest": {"d_obs": 16}, "params": {}},
     ["eval-loc", "--map", "MAP", "--data", "SIM", "--model", "BAD"]),
    ("world artifact", _WORLD_WITHOUT_SEGMENTS, ["collect", "--world", "BAD"]),
    ("trajectory artifact", "{not json",
     ["eval-loc", "--map", "MAP", "--data", "BAD", "--method", "oracle"]),
    ("config", "{not json", ["gen-world", "--config", "BAD"]),
], ids=["checkpoint-unknown-field", "checkpoint-no-params", "world-without-segments",
        "trajectories-not-json", "config-not-json"])
def test_malformed_artifact_exits_2(pipeline, tmp_path, capsys, what, content, argv):
    bad = tmp_path / "bad.json"
    bad.write_text(content if isinstance(content, str) else json.dumps(content))
    paths = {"BAD": str(bad), "MAP": os.path.join(pipeline, "map.json"),
             "SIM": os.path.join(pipeline, "sim.json")}
    assert main([paths.get(a, a) for a in argv] + ["--out", str(tmp_path)]) == 2
    assert f"bad {what} {bad}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["bad.json"]


def test_model_method_without_checkpoint_exits_2(pipeline, tmp_path, capsys):
    assert main(["eval-loc", "--map", os.path.join(pipeline, "map.json"),
                 "--data", os.path.join(pipeline, "sim.json"), "--method", "ours",
                 "--out", str(tmp_path)]) == 2
    assert "missing model checkpoint: None" in capsys.readouterr().err
    assert not os.listdir(tmp_path)

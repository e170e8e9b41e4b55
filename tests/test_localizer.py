"""Network-layer tests: manual oracles for every stage, equivariance,
edge-order invariance, and end-to-end gradient checks."""

import json
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import topoloc.localizer as L
from topoloc import tensor as T
from topoloc.tensor import Tensor, grad_check, cross_entropy, softmax_rows
from topoloc.topo_graph import MapConfig, Pose2D, TopoMap, adjacency_matrix


def small_cfg(**kw):
    base = dict(d_obs=4, d_emb=4, d_x=4, d_h=8, d_skip=4,
                enc_hidden=4, gin_hidden=8, head_hidden=8)
    base.update(kw)
    return L.LocalizerConfig(**base)


def random_map(n, d_obs, seed, edge_prob=0.4, with_poses=True):
    rng = np.random.default_rng(seed)
    descriptors = rng.normal(size=(n, d_obs))
    edges = [(i, j) for i in range(n) for j in range(n)
             if i != j and rng.random() < edge_prob]
    poses = [Pose2D(float(i), 0.0, 0.0) for i in range(n)] if with_poses else None
    return TopoMap(descriptors, poses, edges, MapConfig())


# -- encoder -----------------------------------------------------------------


def test_encode_zero_weights_zero_output():
    cfg = small_cfg()
    model = L.Localizer(cfg, seed=0)
    for w, b in model.encoder.layers:
        w.data[:] = 0.0
        b.data[:] = 0.0
    out = L.encode(model.encoder, Tensor.const(np.ones((3, cfg.d_obs))))
    assert np.all(out.data == 0.0)


def test_encode_deterministic():
    model = L.Localizer(small_cfg(), seed=1)
    x = np.random.default_rng(0).normal(size=(5, 4))
    a = L.encode(model.encoder, Tensor.const(x)).data
    b = L.encode(model.encoder, Tensor.const(x)).data
    assert np.array_equal(a, b)


def test_encode_precomputed_node_embeddings_match_per_step():
    model = L.Localizer(small_cfg(), seed=2)
    topo = random_map(6, 4, seed=3)
    ctx = L.make_context(model, topo)
    fresh = L.encode(model.encoder, Tensor.const(topo.descriptors))
    assert np.array_equal(ctx.node_embs.data, fresh.data)


# -- pair features -----------------------------------------------------------


def test_pair_features_permutation_permutes_rows():
    model = L.Localizer(small_cfg(), seed=4)
    rng = np.random.default_rng(5)
    cur = Tensor.const(rng.normal(size=(1, 4)))
    nodes = rng.normal(size=(7, 4))
    perm = rng.permutation(7)
    a = L.pair_features(model.pair, cur, Tensor.const(nodes)).data
    b = L.pair_features(model.pair, cur, Tensor.const(nodes[perm])).data
    assert np.array_equal(a[perm], b)


def test_pair_features_identical_nodes_identical_rows():
    model = L.Localizer(small_cfg(), seed=6)
    cur = Tensor.const(np.random.default_rng(7).normal(size=(1, 4)))
    node = np.random.default_rng(8).normal(size=4)
    out = L.pair_features(model.pair, cur, Tensor.const(np.stack([node, node]))).data
    assert np.array_equal(out[0], out[1])


def test_pair_features_rowwise_oracle():
    model = L.Localizer(small_cfg(), seed=9)
    rng = np.random.default_rng(10)
    cur = Tensor.const(rng.normal(size=(1, 4)))
    nodes = rng.normal(size=(5, 4))
    full = L.pair_features(model.pair, cur, Tensor.const(nodes)).data
    for i in range(5):
        row = L.pair_features(model.pair, cur, Tensor.const(nodes[i:i + 1])).data
        np.testing.assert_allclose(full[i], row[0], rtol=0, atol=1e-12)


# -- GIN aggregation ---------------------------------------------------------


def identity_gin(d, eps=0.0):
    return L.GINParams(
        Tensor.param(np.eye(d)), Tensor.param(np.zeros(d)),
        Tensor.param(np.eye(d)), Tensor.param(np.zeros(d)),
        Tensor.param(float(eps)),
    )


def test_gin_identity_mlp_sums_neighbors():
    # node 0 has feature [5,6] and neighbors [1,2] and [3,4]
    x = Tensor.const(np.array([[5.0, 6.0], [1.0, 2.0], [3.0, 4.0]]))
    out = L.gin_aggregate(identity_gin(2), x, [(0, 1), (0, 2)])
    np.testing.assert_allclose(out.data[0], [9.0, 12.0])


def test_gin_isolated_node_scales_by_one_plus_eps():
    x = Tensor.const(np.array([[2.0, 4.0]]))
    out = L.gin_aggregate(identity_gin(2, eps=0.5), x, [])
    np.testing.assert_allclose(out.data[0], [3.0, 6.0])


def test_gin_edge_order_invariance_exact():
    rng = np.random.default_rng(11)
    for case in range(20):
        n = int(rng.integers(3, 8))
        x = Tensor.const(rng.normal(size=(n, 4)))
        cfg = small_cfg()
        gin = L.GINParams.init(4, 8, 4, rng, "g")
        edges = [(i, j) for i in range(n) for j in range(n)
                 if i < j and rng.random() < 0.5]
        shuffled = list(edges)
        rng.shuffle(shuffled)
        a = L.gin_aggregate(gin, x, edges).data
        b = L.gin_aggregate(gin, x, shuffled).data
        assert np.array_equal(a, b)


def test_gin_rejects_invalid_edges():
    x = Tensor.const(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        L.gin_aggregate(identity_gin(2), x, [(0, 5)])
    with pytest.raises(ValueError):
        L.gin_aggregate(identity_gin(2), x, [(1, 1)])


def test_context_adjacency_is_the_maps_constant_blocks():
    model = L.Localizer(small_cfg(), seed=5)
    maps = [random_map(n, 4, seed=n) for n in (3, 1, 5)]
    ctx = L.make_context(model, *maps)
    assert type(ctx.adj) is np.ndarray
    want = np.zeros((9, 9))
    for m, lo in zip(maps, (0, 3, 4)):
        want[lo:lo + m.n, lo:lo + m.n] = m.adjacency
    assert np.array_equal(ctx.adj, want)
    gin, x = identity_gin(4, eps=0.3), Tensor.param(np.arange(20.0).reshape(5, 4))
    assert np.array_equal(L.gin_aggregate(gin, x, maps[2].edges).data,
                          L.gin_aggregate(gin, x, maps[2].adjacency).data)


# -- GCLSTM cell -------------------------------------------------------------


def zero_gclstm(cfg):
    def zgin(d_in):
        return L.GINParams(
            Tensor.param(np.zeros((d_in, cfg.gin_hidden))),
            Tensor.param(np.zeros(cfg.gin_hidden)),
            Tensor.param(np.zeros((cfg.gin_hidden, cfg.d_h))),
            Tensor.param(np.zeros(cfg.d_h)),
            Tensor.param(0.0),
        )
    z = lambda: Tensor.param(np.zeros(cfg.d_h))
    gins = [zgin(cfg.d_x if k % 2 == 1 else cfg.d_h) for k in range(1, 9)]
    return L.GCLSTMParams(gins, z(), z(), z(), z(), z(), z(), z())


def test_gclstm_zero_parameter_fixed_point():
    cfg = small_cfg()
    params = zero_gclstm(cfg)
    n = 5
    x = Tensor.const(np.random.default_rng(12).normal(size=(n, cfg.d_x)))
    state = L.reset_state(n, cfg.d_h)
    h, new = L.gclstm_step(params, x, adjacency_matrix([], n), state)
    # all gates sit at sigmoid(0)=0.5, so the cell state and output stay zero
    assert np.all(h.data == 0.0)
    assert np.all(new.c.data == 0.0)


def test_gclstm_saturation_retains_memory():
    cfg = small_cfg()
    params = zero_gclstm(cfg)
    params.b_f.data[:] = 20.0   # forget gate -> 1
    params.b_i.data[:] = -20.0  # input gate -> 0
    n = 4
    rng = np.random.default_rng(13)
    c_prev = rng.normal(size=(n, cfg.d_h))
    state = L.GCLSTMState(Tensor.const(np.zeros((n, cfg.d_h))), Tensor.const(c_prev))
    x = Tensor.const(rng.normal(size=(n, cfg.d_x)))
    _, new = L.gclstm_step(params, x, adjacency_matrix([(0, 1)], n), state)
    np.testing.assert_allclose(new.c.data, c_prev, atol=1e-3)


def test_gclstm_gates_in_unit_interval():
    cfg = small_cfg()
    model = L.Localizer(cfg, seed=14)
    n = 6
    rng = np.random.default_rng(15)
    x = Tensor.const(rng.normal(size=(n, cfg.d_x)))
    state = L.GCLSTMState(Tensor.const(rng.normal(size=(n, cfg.d_h))),
                          Tensor.const(rng.normal(size=(n, cfg.d_h))))
    g = model.gclstm.gins
    adj = adjacency_matrix([(0, 1), (2, 3)], n)
    i = (L.gin_aggregate(g[0], x, adj) + L.gin_aggregate(g[1], state.h, adj)
         + model.gclstm.w_ci * state.c + model.gclstm.b_i).sigmoid()
    f = (L.gin_aggregate(g[2], x, adj) + L.gin_aggregate(g[3], state.h, adj)
         + model.gclstm.w_cf * state.c + model.gclstm.b_f).sigmoid()
    assert np.all((i.data > 0) & (i.data < 1))
    assert np.all((f.data > 0) & (f.data < 1))


def test_gclstm_cell_gradients_match_finite_differences():
    cfg = small_cfg(d_x=4, d_h=4, gin_hidden=4)
    rng = np.random.default_rng(16)
    params = L.GCLSTMParams.init(cfg, rng)
    n = 8
    x_np = rng.normal(size=(n, cfg.d_x))
    h0 = rng.normal(size=(n, cfg.d_h))
    c0 = rng.normal(size=(n, cfg.d_h))
    adj = adjacency_matrix([(i, (i + 1) % n) for i in range(n)], n)
    tensors = []
    for g in params.gins:
        tensors += [g.w1, g.b1, g.w2, g.b2, g.eps]
    tensors += [params.w_ci, params.w_cf, params.w_co,
                params.b_i, params.b_f, params.b_c, params.b_o]

    def f():
        state = L.GCLSTMState(Tensor.const(h0), Tensor.const(c0))
        h, _ = L.gclstm_step(params, Tensor.const(x_np), adj, state)
        return (h * h).sum()

    report = grad_check(f, {f"p{i}": t for i, t in enumerate(tensors)})
    assert max(report.values()) < 1e-4


# -- skip path and head ------------------------------------------------------


def test_skip_path_locality():
    model = L.Localizer(small_cfg(), seed=17)
    rng = np.random.default_rng(18)
    x = rng.normal(size=(5, 4))
    a = L.skip_path(model.skip, Tensor.const(x)).data
    x2 = x.copy()
    x2[3] += 1.0
    b = L.skip_path(model.skip, Tensor.const(x2)).data
    for i in range(5):
        if i == 3:
            assert not np.array_equal(a[i], b[i])
        else:
            assert np.array_equal(a[i], b[i])


def test_skip_path_identity_weights():
    model = L.Localizer(small_cfg(), seed=19)
    (w, b), = model.skip.layers
    w.data = np.eye(4)
    b.data = np.zeros(4)
    x = np.random.default_rng(20).normal(size=(6, 4))
    out = L.skip_path(model.skip, Tensor.const(x)).data
    np.testing.assert_allclose(out, x, atol=1e-15)


def test_identify_uniform_for_identical_rows():
    model = L.Localizer(small_cfg(), seed=21)
    h = Tensor.const(np.tile(np.random.default_rng(22).normal(size=8), (5, 1)))
    skip = Tensor.const(np.tile(np.random.default_rng(23).normal(size=4), (5, 1)))
    probs = softmax_rows(L.identify_logits(model.head, h, skip)).data
    np.testing.assert_allclose(probs, np.full(5, 0.2), atol=1e-9)


def test_identify_sums_to_one_and_argmax_matches_logits():
    model = L.Localizer(small_cfg(), seed=24)
    rng = np.random.default_rng(25)
    h = Tensor.const(rng.normal(size=(7, 8)))
    skip = Tensor.const(rng.normal(size=(7, 4)))
    logits = L.identify_logits(model.head, h, skip)
    probs = softmax_rows(L.identify_logits(model.head, h, skip))
    assert abs(float(np.sum(probs.data)) - 1.0) <= 1e-9
    assert int(np.argmax(probs.data)) == int(np.argmax(logits.data))


# -- full step ---------------------------------------------------------------


def test_localize_step_uniform_on_identical_descriptors():
    cfg = small_cfg()
    model = L.Localizer(cfg, seed=26).eval()
    desc = np.random.default_rng(27).normal(size=cfg.d_obs)
    topo = TopoMap(np.tile(desc, (4, 1)), None, [], MapConfig())
    state = L.reset_state(4, cfg.d_h)
    probs, pred, _ = L.localize_step(model, state, np.zeros(cfg.d_obs), topo)
    np.testing.assert_allclose(probs.data, np.full(4, 0.25), atol=1e-9)
    assert pred == 0  # tie to smallest index


def test_localize_step_recurrence_changes_state():
    cfg = small_cfg()
    model = L.Localizer(cfg, seed=28).eval()
    topo = random_map(5, cfg.d_obs, seed=29)
    obs = np.random.default_rng(30).normal(size=cfg.d_obs)
    state = L.reset_state(5, cfg.d_h)
    _, _, s1 = L.localize_step(model, state, obs, topo)
    _, _, s2 = L.localize_step(model, s1, obs, topo)
    assert not np.array_equal(s1.h.data, s2.h.data)


def test_localize_step_probabilities_sum_to_one_across_sizes():
    cfg = small_cfg()
    model = L.Localizer(cfg, seed=31).eval()
    for n in (1, 2, 5, 11):
        topo = random_map(n, cfg.d_obs, seed=100 + n)
        state = L.reset_state(n, cfg.d_h)
        probs, _, _ = L.localize_step(
            model, state, np.random.default_rng(n).normal(size=cfg.d_obs), topo)
        assert abs(float(np.sum(probs.data)) - 1.0) <= 1e-9


def test_reset_state_shapes_and_zeros():
    state = L.reset_state(6, 9)
    assert state.h.data.shape == (6, 9)
    assert state.c.data.shape == (6, 9)
    assert np.all(state.h.data == 0.0) and np.all(state.c.data == 0.0)
    with pytest.raises(ValueError):
        L.reset_state(0, 4)


def test_localize_step_dimension_mismatch_errors():
    cfg = small_cfg()
    model = L.Localizer(cfg, seed=32)
    topo = random_map(4, cfg.d_obs, seed=33)
    with pytest.raises(ValueError):
        L.localize_step(model, L.reset_state(4, cfg.d_h), np.zeros(cfg.d_obs + 1), topo)
    bad = random_map(4, cfg.d_obs + 1, seed=34)
    with pytest.raises(ValueError):
        L.localize_step(model, L.reset_state(4, cfg.d_h), np.zeros(cfg.d_obs + 1), bad)


def permuted_map(topo, perm):
    inv = np.argsort(perm)
    descriptors = topo.descriptors[perm]
    poses = [topo.poses[i] for i in perm] if topo.has_poses else None
    edges = [(int(inv[s]), int(inv[t])) for s, t in topo.edges]
    return TopoMap(descriptors, poses, edges, topo.config)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10 ** 6))
def test_localize_step_node_relabeling_equivariance(seed):
    rng = np.random.default_rng(seed)
    cfg = small_cfg()
    model = L.Localizer(cfg, seed=35).eval()
    n = int(rng.integers(3, 9))
    topo = random_map(n, cfg.d_obs, seed=seed + 1)
    perm = rng.permutation(n)
    ptopo = permuted_map(topo, perm)
    obs = rng.normal(size=cfg.d_obs)
    h0 = rng.normal(size=(n, cfg.d_h))
    c0 = rng.normal(size=(n, cfg.d_h))
    probs, _, s = L.localize_step(
        model, L.GCLSTMState(Tensor.const(h0), Tensor.const(c0)), obs, topo)
    pprobs, _, ps = L.localize_step(
        model, L.GCLSTMState(Tensor.const(h0[perm]), Tensor.const(c0[perm])), obs, ptopo)
    np.testing.assert_allclose(probs.data[perm], pprobs.data, atol=1e-12)
    np.testing.assert_allclose(s.h.data[perm], ps.h.data, atol=1e-12)


def test_full_step_gradients_match_finite_differences():
    cfg = small_cfg(d_x=4, d_h=4, gin_hidden=4, head_hidden=4)
    model = L.Localizer(cfg, seed=36)
    topo = random_map(6, cfg.d_obs, seed=37)
    obs = np.random.default_rng(38).normal(size=cfg.d_obs)

    def f():
        state = L.reset_state(topo.n, cfg.d_h)
        _, _, _, logits = L.localize_step(model, state, obs, topo, return_logits=True)
        return cross_entropy(logits, 2)

    report = grad_check(f, model.named_params())
    assert max(report.values()) < 1e-4


# -- variants and persistence ------------------------------------------------


def test_no_gclstm_variant_is_stateless():
    cfg = small_cfg(variant="no_gclstm")
    model = L.Localizer(cfg, seed=39).eval()
    topo = random_map(5, cfg.d_obs, seed=40)
    rng = np.random.default_rng(41)
    obs = [rng.normal(size=cfg.d_obs) for _ in range(3)]
    state = L.reset_state(5, cfg.d_h)
    forward = [L.localize_step(model, state, o, topo)[1] for o in obs]
    backward = [L.localize_step(model, state, o, topo)[1] for o in reversed(obs)]
    assert forward == backward[::-1]


def test_no_skip_variant_has_fewer_params_same_output_dim():
    full = L.Localizer(small_cfg(), seed=42)
    noskip = L.Localizer(small_cfg(variant="no_skip"), seed=42)
    assert noskip.num_params() < full.num_params()
    topo = random_map(4, 4, seed=43)
    probs, _, _ = L.localize_step(noskip.eval(), L.reset_state(4, 8),
                                  np.zeros(4), topo)
    assert probs.data.shape == (4,)


def test_checkpoint_roundtrip_preserves_predictions(tmp_path):
    cfg = small_cfg()
    model = L.Localizer(cfg, seed=44).eval()
    topo = random_map(5, cfg.d_obs, seed=45)
    obs = np.random.default_rng(46).normal(size=cfg.d_obs)
    probs, _, _ = L.localize_step(model, L.reset_state(5, cfg.d_h), obs, topo)
    path = tmp_path / "model.json"
    model.save(path)
    clone = L.Localizer.from_checkpoint(path).eval()
    cprobs, _, _ = L.localize_step(clone, L.reset_state(5, cfg.d_h), obs, topo)
    assert np.array_equal(probs.data, cprobs.data)


@pytest.mark.parametrize("variant", ["full", "no_gclstm"])
def test_checkpoint_with_buffers_section_loads(tmp_path, variant):
    # files written while batch norm kept running statistics carry a
    # "buffers" section; it is ignored and predictions are unchanged
    cfg = small_cfg(variant=variant)
    model = L.Localizer(cfg, seed=52).eval()
    topo = random_map(5, cfg.d_obs, seed=53)
    obs = np.random.default_rng(54).normal(size=cfg.d_obs)
    probs, _, _ = L.localize_step(model, L.reset_state(5, cfg.d_h), obs, topo)
    path = tmp_path / "model.json"
    model.save(path)
    with open(path) as fh:
        blob = json.load(fh)
    dims = {"head.bn": cfg.head_hidden}
    if variant == "no_gclstm":
        dims.update({"frame.bn0": cfg.d_h, "frame.bn1": cfg.d_h})
    blob["buffers"] = {f"{bn}.{stat}": {"shape": [d], "data": [fill] * d}
                       for bn, d in dims.items()
                       for stat, fill in (("running_mean", 0.5), ("running_var", 2.0))}
    with open(path, "w") as fh:
        json.dump(blob, fh)
    clone = L.Localizer.from_checkpoint(path).eval()
    cprobs, _, _ = L.localize_step(clone, L.reset_state(5, cfg.d_h), obs, topo)
    assert np.array_equal(probs.data, cprobs.data)


def test_checkpoint_missing_parameter_rejected(tmp_path):
    model = L.Localizer(small_cfg(), seed=47)
    path = tmp_path / "model.json"
    model.save(path)
    params, manifest = T.load_checkpoint(path)
    del params["head.1.W"]
    with pytest.raises(KeyError, match="head.1.W"):
        L.Localizer(L.LocalizerConfig.from_dict(manifest), seed=48).load_state(params)


_ENCODER_PAIR = ["encoder.0.W", "encoder.0.b", "encoder.1.W", "encoder.1.b",
                 "encoder.2.W", "encoder.2.b", "pair.0.W", "pair.0.b", "pair.1.W", "pair.1.b"]
_GCLSTM = [f"gclstm.gin{k}.{p}" for k in range(1, 9)
           for p in ("mlp0.W", "mlp0.b", "mlp1.W", "mlp1.b", "eps")] + [
    "gclstm.w_ci", "gclstm.w_cf", "gclstm.w_co",
    "gclstm.b_i", "gclstm.b_f", "gclstm.b_c", "gclstm.b_o"]
_FRAME = ["frame.0.W", "frame.0.b", "frame.1.W", "frame.1.b",
          "frame.bn0.gamma", "frame.bn0.beta", "frame.bn1.gamma", "frame.bn1.beta"]
_SKIP = ["skip.W", "skip.b"]
_HEAD = ["head.0.W", "head.0.b", "head.1.W", "head.1.b", "head.bn.gamma", "head.bn.beta"]


_NAMES = {"full": _ENCODER_PAIR + _GCLSTM + _SKIP + _HEAD,
          "no_gclstm": _ENCODER_PAIR + _FRAME + _SKIP + _HEAD,
          "no_skip": _ENCODER_PAIR + _GCLSTM + _HEAD}


@pytest.mark.parametrize("variant", ["full", "no_gclstm", "no_skip"])
def test_parameter_names_are_the_checkpoint_format(variant):
    # a checkpoint stores parameters under these names in this order; renaming
    # one would stop earlier checkpoints from loading
    names = _NAMES[variant]
    model = L.Localizer(small_cfg(variant=variant), seed=55)
    assert list(model.named_params()) == names
    assert [p.name for p in model.encoder_params()] == names[:6]


def test_checkpoint_with_non_finite_parameter_rejected(tmp_path):
    model = L.Localizer(small_cfg(), seed=56)
    path = tmp_path / "model.json"
    model.save(path)
    with open(path) as fh:
        blob = json.load(fh)
    blob["params"]["head.bn.gamma"]["data"][1] = float("nan")
    with open(path, "w") as fh:
        json.dump(blob, fh)  # Python's json writes and reads NaN
    with pytest.raises(ValueError, match="head.bn.gamma"):
        L.Localizer.from_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_localize_step_rejects_non_finite_observation(bad):
    cfg = small_cfg()
    model = L.Localizer(cfg, seed=49).eval()
    topo = random_map(5, cfg.d_obs, seed=50)
    obs = np.random.default_rng(51).normal(size=cfg.d_obs)
    obs[2] = bad
    state = L.reset_state(5, cfg.d_h)
    with pytest.raises(ValueError, match="non-finite"):
        L.localize_step(model, state, obs, topo)


# -- map context ----------------------------------------------------------------


def test_make_context_rejects_map_of_other_descriptor_width():
    model = L.Localizer(small_cfg(), seed=60)
    with pytest.raises(ValueError, match=r"descriptors are 5 wide .* d_obs=4"):
        L.make_context(model, random_map(4, 5, seed=61))
    with pytest.raises(ValueError, match="5 wide"):  # any map of a union
        L.make_context(model, random_map(3, 4, seed=62), random_map(4, 5, seed=61))


@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("steps", [1, 3])
def test_gclstm_step_with_context_weights_matches_stacking_in_the_cell(steps, record):
    cfg = small_cfg()
    model = L.Localizer(cfg, seed=63)
    rng = np.random.default_rng(64)
    for g in model.gclstm.gins:  # eps away from 0, so that every layer scales its input
        g.eps.data = np.array(rng.uniform(-0.5, 0.5))
    topo = random_map(6, cfg.d_obs, seed=65)
    ctx = L.make_context(model, topo)
    x0 = rng.normal(size=(steps * topo.n, cfg.d_x))
    h0, c0 = rng.normal(size=(2, topo.n, cfg.d_h))
    wh, wc = rng.normal(size=(steps * topo.n, cfg.d_h)), rng.normal(size=(topo.n, cfg.d_h))

    def run(stacked):
        for p in model.parameters():
            p.grad = None
        x, h, c = Tensor.param(x0), Tensor.param(h0), Tensor.param(c0)
        with T.no_grad() if not record else nullcontext():
            out, new = L.gclstm_step(model.gclstm, x, ctx.adj, L.GCLSTMState(h, c), stacked)
        arrays = [out.data, new.h.data, new.c.data]
        if record:
            ((out * Tensor(wh)).sum() + (new.c * Tensor(wc)).sum()).backward()
            arrays += [t.grad for t in [x, h, c] + L._tensors(model.gclstm)]
        return arrays

    got, want = run(ctx.gclstm), run(None)
    assert len(got) == (3 + 3 + 47 if record else 3)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("variant", L.VARIANTS)
def test_localize_step_with_prebuilt_context_matches_context_per_step(variant):
    cfg = small_cfg(variant=variant)
    model = L.Localizer(cfg, seed=68).eval()
    topo = random_map(7, cfg.d_obs, seed=69)
    ctx = L.make_context(model, topo)
    assert (ctx.gclstm is None) == (variant == "no_gclstm")
    rng = np.random.default_rng(70)
    prebuilt = fresh = L.reset_state(topo.n, cfg.d_h)
    for _ in range(4):
        obs = rng.normal(size=cfg.d_obs)
        p, pred, prebuilt = L.localize_step(model, prebuilt, obs, topo, ctx)
        q, qred, fresh = L.localize_step(model, fresh, obs, topo)
        assert pred == qred and np.array_equal(p.data, q.data)
        assert np.array_equal(prebuilt.h.data, fresh.h.data)
        assert np.array_equal(prebuilt.c.data, fresh.c.data)


@pytest.mark.parametrize("variant", L.VARIANTS)
def test_window_logits_in_a_group_equal_the_window_run_alone(variant):
    # 15 steps of maps of 40, 33 and 27 nodes: 1,500 head rows in the group, 600, 495
    # and 405 alone, so a row sits elsewhere in a BLAS kernel's blocks of rows
    model = L.Localizer(L.LocalizerConfig(variant=variant), seed=48).train()
    rng = np.random.default_rng(49)
    topos = [random_map(n, model.cfg.d_obs, seed) for seed, n in enumerate((40, 33, 27))]
    obs = rng.normal(size=(15, len(topos), model.cfg.d_obs))
    ctx = L.make_context(model, *topos)
    rows = ctx.node_embs.shape[0]
    group, _ = L.step_logits(model, L.reset_state(rows, model.cfg.d_h), obs, ctx)
    group = group.data.reshape(15, rows)
    for k, (topo, lo) in enumerate(zip(topos, ctx.segments.starts)):
        alone, _ = L.step_logits(model, L.reset_state(topo.n, model.cfg.d_h),
                                 obs[:, k:k + 1], L.make_context(model, topo))
        assert np.array_equal(group[:, lo:lo + topo.n], alone.data.reshape(15, topo.n))

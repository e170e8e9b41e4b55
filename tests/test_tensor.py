import gc
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import topoloc.localizer as L
import topoloc.trainer as TR
from topoloc import tensor as T
from topoloc.tensor import (Adam, Segments, Tensor, batch_norm, concat,
                            cross_entropy, gclstm_cell, gin, grad_check, linear,
                            load_checkpoint, no_grad, save_checkpoint, softmax_rows,
                            take_rows)
from topoloc.topo_graph import MapConfig, TopoMap


def test_sigmoid_tanh_at_zero():
    assert Tensor.const(0.0).sigmoid().item() == 0.5
    assert Tensor.const(0.0).tanh().item() == 0.0


def test_cross_entropy_uniform_logits():
    for n in (2, 5, 8):
        loss = cross_entropy(Tensor.const(np.zeros(n)), 0)
        assert loss.item() == pytest.approx(math.log(n), abs=1e-12)
    assert cross_entropy(Tensor.const(np.zeros(8)), 3).item() == pytest.approx(2.0794, abs=1e-4)


def test_cross_entropy_target_out_of_range():
    with pytest.raises(IndexError):
        cross_entropy(Tensor.const(np.zeros(4)), 7)


def test_softmax_rows_normalized():
    rng = np.random.default_rng(0)
    x = Tensor.const(rng.normal(size=(5, 7)) * 10)
    s = softmax_rows(x)
    assert np.allclose(s.data.sum(axis=1), 1.0, atol=1e-9)


def test_backward_quadratic():
    x = Tensor.param(3.0)
    (x * x).backward()
    assert x.grad == pytest.approx(6.0)


def test_backward_requires_scalar():
    x = Tensor.param(np.ones(3))
    with pytest.raises(ValueError):
        (x * 2).backward()


def test_off_path_parameter_gets_no_gradient():
    x = Tensor.param(2.0)
    unused = Tensor.param(5.0)
    (x * x).backward()
    assert unused.grad is None


def test_shared_subexpression_accumulates():
    x = Tensor.param(2.0)
    y = x * x + x * 3.0  # dy/dx = 2x + 3 = 7
    y.backward()
    assert x.grad == pytest.approx(7.0)


def test_matmul_shapes_must_agree():
    with pytest.raises(ValueError):
        _ = Tensor.const(np.ones((2, 3))) @ Tensor.const(np.ones((2, 3)))


@pytest.mark.parametrize("shape", [(3, 4), (1, 5), (6, 2)])
def test_primitive_adjoints_random_shapes(shape):
    rng = np.random.default_rng(hash(shape) % 2 ** 31)
    a = Tensor.param(rng.normal(size=shape) + 0.1, name="a")
    b = Tensor.param(rng.normal(size=shape) + 0.1, name="b")
    w = Tensor.param(rng.normal(size=(shape[1], 3)), name="w")
    bias = Tensor.param(rng.normal(size=3), name="bias")

    def f():
        z = (a * b + a - b / 2.0) @ w + bias
        z = z.tanh() + z.sigmoid() + (z * z + 1.0).sqrt()
        z = concat([z, z.relu()], axis=1)
        return (z.sum(axis=1) * 0.25).sum() + (a * a).mean()

    report = grad_check(f, {"a": a, "b": b, "w": w, "bias": bias})
    assert max(report.values()) < 1e-4


def test_grad_check_linear_map_near_machine_epsilon():
    w = Tensor.param(np.array([1.5, -2.0, 0.5]), name="w")
    x = np.array([0.3, 0.7, -1.1])
    report = grad_check(lambda: (w * Tensor.const(x)).sum(), {"w": w})
    assert report["w"] < 1e-9


def test_grad_check_detects_corrupted_adjoint():
    w = Tensor.param(np.array([0.4, 0.9]), name="w")

    def bad_square(t):
        out = Tensor(t.data ** 2)
        out._record((t,), lambda g: t._accum(g * 3.0 * t.data))  # wrong factor
        return out

    report = grad_check(lambda: bad_square(w).sum(), {"w": w})
    assert report["w"] > 1e-2


def test_batch_norm_training_statistics():
    rng = np.random.default_rng(3)
    x = Tensor.const(rng.normal(loc=5.0, scale=3.0, size=(64, 4)))
    y = batch_norm(x, Tensor.const(np.ones(4)), Tensor.const(np.zeros(4)), eps=1e-12)
    assert np.allclose(y.data.mean(axis=0), 0.0, atol=1e-6)
    assert np.allclose(y.data.var(axis=0), 1.0, atol=1e-6)


def test_adam_zero_gradient_leaves_params():
    p = Tensor.param(np.array([1.0, 2.0]))
    opt = Adam([([p], 0.1)])
    p.grad = np.zeros(2)
    opt.step()
    assert np.array_equal(p.data, [1.0, 2.0])


def test_adam_converges_on_convex_quadratic():
    # minimum of (x-3)^2 + 2(y+1)^2 at (3, -1)
    p = Tensor.param(np.array([0.0, 0.0]))
    opt = Adam([([p], 0.05)])
    for _ in range(5000):
        opt.zero_grad()
        d = p - np.array([3.0, -1.0])
        loss = (d * d * np.array([1.0, 2.0])).sum()
        loss.backward()
        opt.step()
        if abs(p.data[0] - 3.0) < 1e-7 and abs(p.data[1] + 1.0) < 1e-7:
            break
    assert np.allclose(p.data, [3.0, -1.0], atol=1e-6)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_forward_deterministic(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 3))
    a = (Tensor.const(x).sigmoid() @ Tensor.const(x)).tanh().sum().item()
    b = (Tensor.const(x).sigmoid() @ Tensor.const(x)).tanh().sum().item()
    assert a == b


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(9)
    params = {"w": Tensor.param(rng.normal(size=(4, 3)) * 1e-7, name="w"),
              "b": Tensor.param(rng.normal(size=3) * 1e7, name="b")}
    path = os.path.join(tmp_path, "ckpt.json")
    save_checkpoint(path, params, manifest={"d": 3})
    loaded_p, manifest = load_checkpoint(path)
    assert manifest == {"d": 3}
    assert np.array_equal(loaded_p["w"], params["w"].data)
    assert np.array_equal(loaded_p["b"], params["b"].data)


# -- fused layers ---------------------------------------------------------------


def test_linear_matches_unfused_expression_and_finite_differences():
    rng = np.random.default_rng(30)
    x = Tensor.param(rng.normal(size=(5, 3)), name="x")
    w = Tensor.param(rng.normal(size=(3, 4)), name="w")
    b = Tensor.param(rng.normal(size=4), name="b")
    assert np.array_equal(linear(x, w, b).data, (x @ w + b).data)
    report = grad_check(lambda: linear(x, w, b).tanh().sum(), {"x": x, "w": w, "b": b})
    assert max(report.values()) < 1e-6


def gin_inputs(n, eps, seed):
    rng = np.random.default_rng(seed)
    return {
        "x": Tensor.param(rng.normal(size=(n, 3)), name="x"),
        "adj": Tensor.param(rng.normal(size=(n, n)), name="adj"),
        "eps": Tensor.param(eps, name="eps"),
        "w1": Tensor.param(rng.normal(size=(3, 6)), name="w1"),
        "b1": Tensor.param(rng.normal(size=6), name="b1"),
        "w2": Tensor.param(rng.normal(size=(6, 2)), name="w2"),
        "b2": Tensor.param(rng.normal(size=2), name="b2"),
    }


@pytest.mark.parametrize("n, eps", [(1, 0.0), (1, 0.7), (6, 0.0), (6, -0.4)])
def test_gin_matches_unfused_expression_and_finite_differences(n, eps):
    p = gin_inputs(n, eps, seed=31 + n)
    x, adj = p["x"], p["adj"]
    unfused = ((x * (p["eps"] + 1.0) + adj @ x) @ p["w1"] + p["b1"]).relu() @ p["w2"] + p["b2"]
    fused = gin(x, adj, p["eps"], p["w1"], p["b1"], p["w2"], p["b2"])
    assert np.array_equal(fused.data, unfused.data)
    report = grad_check(lambda: gin(*p.values()).tanh().sum(), p)
    assert max(report.values()) < 1e-6


# Unfused references: the composed expressions that the fused batch_norm,
# cross_entropy and GCLSTM cell replaced, with the two primitives (log, pick)
# that only the composed cross-entropy used.


def log_reference(t):
    out = Tensor(np.log(t.data))
    if t.requires_grad:
        out._record((t,), lambda g: t._accum(g / t.data))
    return out


def pick_reference(t, index):
    out = Tensor(t.data[index])
    if t.requires_grad:
        def bwd(g):
            full = np.zeros_like(t.data)
            full[index] = g
            t._accum(full)
        out._record((t,), bwd)
    return out


def cross_entropy_reference(logits, target_index):
    z = logits - Tensor.const(logits.data.max())
    return -pick_reference(z - log_reference(z.exp().sum()), target_index)


def batch_norm_reference(x, gamma, beta, eps):
    mu = x.mean(axis=0)
    xc = x - mu
    var = (xc * xc).mean(axis=0)
    return xc / (var + eps).sqrt() * gamma + beta


def gclstm_reference(params, x, adj, state):
    g = params.gins
    h_prev, c_prev = state.h, state.c
    i = (L.gin_aggregate(g[0], x, adj) + L.gin_aggregate(g[1], h_prev, adj)
         + params.w_ci * c_prev + params.b_i).sigmoid()
    f = (L.gin_aggregate(g[2], x, adj) + L.gin_aggregate(g[3], h_prev, adj)
         + params.w_cf * c_prev + params.b_f).sigmoid()
    c = f * c_prev + i * (L.gin_aggregate(g[4], x, adj)
                          + L.gin_aggregate(g[5], h_prev, adj) + params.b_c).tanh()
    o = (L.gin_aggregate(g[6], x, adj) + L.gin_aggregate(g[7], h_prev, adj)
         + params.w_co * c + params.b_o).sigmoid()
    return o * c.tanh(), c


def gradients(loss_fn, tensors):
    for t in tensors.values():
        t.grad = None
    loss_fn().backward()
    return {k: np.array(t.grad) for k, t in tensors.items()}


def assert_gradients_match(fused_loss, reference_loss, tensors):
    fused = gradients(fused_loss, tensors)
    reference = gradients(reference_loss, tensors)
    scale = max(float(np.max(np.abs(g))) for g in reference.values())
    for k in tensors:
        assert np.max(np.abs(fused[k] - reference[k])) <= 1e-12 * scale, k


@pytest.mark.parametrize("n", [1, 2, 7])
def test_cross_entropy_matches_unfused_expression_and_finite_differences(n):
    rng = np.random.default_rng(50 + n)
    logits = Tensor.param(rng.normal(size=n) * 3.0, name="logits")
    target = int(rng.integers(n))
    assert np.array_equal(cross_entropy(logits, target).data,
                          cross_entropy_reference(logits, target).data)
    assert_gradients_match(lambda: cross_entropy(logits, target),
                           lambda: cross_entropy_reference(logits, target),
                           {"logits": logits})
    report = grad_check(lambda: cross_entropy(logits, target), {"logits": logits})
    assert report["logits"] < 1e-6


@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("eps", [1e-5, 0.3])
def test_batch_norm_matches_unfused_expression_and_finite_differences(n, eps):
    rng = np.random.default_rng(60 + n)
    p = {"x": Tensor.param(rng.normal(loc=2.0, size=(n, 3)), name="x"),
         "gamma": Tensor.param(rng.normal(size=3), name="gamma"),
         "beta": Tensor.param(rng.normal(size=3), name="beta")}
    weights = Tensor.const(rng.normal(size=(n, 3)))
    fused = lambda: (batch_norm(p["x"], p["gamma"], p["beta"], eps) * weights).sum()
    reference = lambda: (batch_norm_reference(p["x"], p["gamma"], p["beta"], eps)
                         * weights).sum()
    assert np.array_equal(batch_norm(p["x"], p["gamma"], p["beta"], eps).data,
                          batch_norm_reference(p["x"], p["gamma"], p["beta"], eps).data)
    assert_gradients_match(fused, reference, p)
    assert max(grad_check(fused, p).values()) < 1e-6


@pytest.mark.parametrize("n", [1, 2, 7])
def test_one_segment_ops_are_bit_identical_to_unsegmented(n):
    rng = np.random.default_rng(90 + n)
    p = {"x": Tensor.param(rng.normal(loc=2.0, size=(n, 3)), name="x"),
         "gamma": Tensor.param(rng.normal(size=3), name="gamma"),
         "beta": Tensor.param(rng.normal(size=3), name="beta"),
         "logits": Tensor.param(rng.normal(size=n) * 3.0, name="logits")}
    weights = Tensor.const(rng.normal(size=(n, 3)))
    target = int(rng.integers(n))

    def bn(segments):
        return (batch_norm(p["x"], p["gamma"], p["beta"], 1e-5, segments) * weights).sum()

    def ce(segments):
        return cross_entropy(p["logits"], target, segments)

    for loss in (bn, ce):
        assert np.array_equal(loss(None).data, loss(Segments((n,))).data)
        plain = gradients(lambda: loss(None), p)
        segmented = gradients(lambda: loss(Segments((n,))), p)
        for k in p:
            assert np.array_equal(plain[k], segmented[k]), k


def test_segmented_ops_match_each_segment_alone_and_finite_differences():
    sizes = (1, 3, 5)
    bounds = list(zip(np.cumsum((0,) + sizes[:-1]), np.cumsum(sizes)))
    seg = Segments(sizes)
    rng = np.random.default_rng(95)
    p = {"x": Tensor.param(rng.normal(loc=2.0, size=(9, 3)), name="x"),
         "gamma": Tensor.param(rng.normal(size=3), name="gamma"),
         "beta": Tensor.param(rng.normal(size=3), name="beta"),
         "logits": Tensor.param(rng.normal(size=9) * 3.0, name="logits")}
    weights = Tensor.const(rng.normal(size=(9, 3)))
    targets = [0, 2, 8]
    stacked = batch_norm(p["x"], p["gamma"], p["beta"], segments=seg).data
    alone = np.concatenate([batch_norm(Tensor.const(p["x"].data[a:b]), p["gamma"],
                                       p["beta"]).data for a, b in bounds])
    assert np.allclose(stacked, alone, rtol=0.0, atol=1e-12)
    terms = [cross_entropy(Tensor.const(p["logits"].data[a:b]), t - a).item()
             for (a, b), t in zip(bounds, targets)]
    assert cross_entropy(p["logits"], targets, seg).item() == pytest.approx(sum(terms),
                                                                          rel=1e-14)
    bn = lambda: (batch_norm(p["x"], p["gamma"], p["beta"], segments=seg) * weights).sum()
    ce = lambda: cross_entropy(p["logits"], targets, seg)
    assert max(grad_check(bn, p).values()) < 1e-6
    assert max(grad_check(ce, p).values()) < 1e-6
    with pytest.raises(IndexError):  # a target outside its own segment
        cross_entropy(p["logits"], [0, 0, 8], seg)
    with pytest.raises(ValueError):
        cross_entropy(p["logits"], [0, 2], seg)


def gclstm_inputs(n, seed):
    """A GCLSTM cell with nonzero GIN eps and peepholes, a random graph and state."""
    rng = np.random.default_rng(seed)
    cfg = L.LocalizerConfig(d_x=3, d_h=4, gin_hidden=5)
    params = L.GCLSTMParams.init(cfg, rng)
    tensors = {}
    for k, g in enumerate(params.gins):
        g.eps.data = np.array(rng.uniform(-0.5, 0.5))
        tensors.update({f"gin{k}.{a}": getattr(g, a) for a in ("eps", "w1", "b1", "w2", "b2")})
    for a in ("w_ci", "w_cf", "w_co", "b_i", "b_f", "b_c", "b_o"):
        getattr(params, a).data = rng.normal(size=cfg.d_h)
        tensors[a] = getattr(params, a)
    # an asymmetric weighted adjacency, so that adj and adj.T differ
    tensors["adj"] = Tensor.param(rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.6),
                                  name="adj")
    tensors["x"] = Tensor.param(rng.normal(size=(n, cfg.d_x)), name="x")
    tensors["h"] = Tensor.param(rng.normal(size=(n, cfg.d_h)), name="h")
    tensors["c"] = Tensor.param(rng.normal(size=(n, cfg.d_h)), name="c")
    weights = [Tensor.const(rng.normal(size=(n, cfg.d_h))) for _ in range(2)]
    return params, tensors, weights


@pytest.mark.parametrize("n", [1, 2, 7])
def test_gclstm_step_matches_unfused_expression_and_finite_differences(n):
    params, p, (wh, wc) = gclstm_inputs(n, seed=70 + n)
    state = L.GCLSTMState(p["h"], p["c"])
    h, new = L.gclstm_step(params, p["x"], p["adj"], state)
    ref_h, ref_c = gclstm_reference(params, p["x"], p["adj"], state)
    assert np.array_equal(h.data, ref_h.data) and np.array_equal(new.c.data, ref_c.data)
    assert new.h is h

    def fused():
        h, new = L.gclstm_step(params, p["x"], p["adj"], state)
        return (h * wh).sum() + (new.c * wc).sum()

    def reference():
        h, c = gclstm_reference(params, p["x"], p["adj"], state)
        return (h * wh).sum() + (c * wc).sum()

    assert_gradients_match(fused, reference, p)
    assert max(grad_check(fused, p).values()) < 1e-6


def test_gclstm_step_in_no_grad_saves_nothing():
    params, p, _ = gclstm_inputs(4, seed=80)
    with no_grad():
        h, new = L.gclstm_step(params, p["x"], p["adj"], L.GCLSTMState(p["h"], p["c"]))
    for out in (h, new.c):
        assert not out.requires_grad and out._parents == () and out._backward is None


def run_cell(params, x, adj, h, c):
    """`gclstm_cell` on the GCLSTM parameters: (h, c, h_last, c_last)."""
    gins = [(g.eps, g.w1, g.b1, g.w2, g.b2) for g in params.gins]
    return gclstm_cell(x, h, c, adj, gins, params.w_ci, params.w_cf, params.w_co,
                       params.b_i, params.b_f, params.b_c, params.b_o)


def unrolled_inputs(n, steps, seed):
    """`gclstm_inputs` with x holding `steps` blocks of n rows, and loss weights per output."""
    params, p, _ = gclstm_inputs(n, seed)
    rng = np.random.default_rng(seed + 1)
    p["x"] = Tensor.param(rng.normal(size=(steps * n, p["x"].shape[1])), name="x")
    d_h = p["h"].shape[1]
    weights = [Tensor.const(rng.normal(size=(rows, d_h))) for rows in (steps * n, steps * n, n, n)]
    return params, p, weights


def weighted_sum(outputs, weights):
    return sum((out * w).sum() for out, w in zip(outputs, weights))


@pytest.mark.parametrize("steps", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_unrolled_gclstm_matches_steps_run_one_at_a_time(n, steps):
    params, p, weights = unrolled_inputs(n, steps, seed=90 + n)

    def unrolled():
        return run_cell(params, p["x"], p["adj"], p["h"], p["c"])

    def one_at_a_time():
        h, c, hs, cs = p["h"], p["c"], [], []
        for t in range(steps):
            x_t = take_rows(p["x"], np.arange(t * n, (t + 1) * n))
            h, c, _, _ = run_cell(params, x_t, p["adj"], h, c)
            hs.append(h)
            cs.append(c)
        return concat(hs), concat(cs), h, c

    for got, want in zip(unrolled(), one_at_a_time()):
        assert np.array_equal(got.data, want.data)
    h, new = L.gclstm_step(params, p["x"], p["adj"], L.GCLSTMState(p["h"], p["c"]))
    outs = unrolled()
    assert np.array_equal(h.data, outs[0].data)
    assert np.array_equal(new.h.data, outs[2].data) and np.array_equal(new.c.data, outs[3].data)
    loss = lambda: weighted_sum(unrolled(), weights)
    assert_gradients_match(loss, lambda: weighted_sum(one_at_a_time(), weights), p)
    assert max(grad_check(loss, p).values()) < 1e-6


def test_take_rows_and_last_state_row_blocks_match_finite_differences():
    rng = np.random.default_rng(96)
    x = Tensor.param(rng.normal(size=(4, 3)), name="x")
    index = np.array([2, 0, 2, 3, 2])  # row 1 untaken, row 2 taken three times
    w = Tensor.const(rng.normal(size=(5, 3)))
    assert max(grad_check(lambda: (take_rows(x, index) * w).sum(), {"x": x}).values()) < 1e-6
    params, p, weights = unrolled_inputs(3, 3, seed=97)

    def last_state():  # the loss reaches the cell only through its row blocks
        _, _, h_last, c_last = run_cell(params, p["x"], p["adj"], p["h"], p["c"])
        return weighted_sum((h_last, c_last), weights[2:])

    assert max(grad_check(last_state, p).values()) < 1e-6


def test_gclstm_step_rejects_rows_that_are_not_whole_steps():
    params, p, _ = gclstm_inputs(3, seed=82)
    state = L.GCLSTMState(p["h"], p["c"])
    for rows in (0, 2, 4):
        with pytest.raises(ValueError, match="whole steps"):
            L.gclstm_step(params, Tensor.const(np.zeros((rows, 3))), p["adj"], state)


# -- graph recording and release ----------------------------------------------------


def test_no_grad_outputs_record_no_graph():
    p = gin_inputs(4, 0.2, seed=40)
    with no_grad():
        outs = [p["x"] * 2.0, p["x"] - p["x"], (p["x"] @ p["w1"]).tanh(),
                linear(p["x"], p["w1"], p["b1"]), gin(*p.values()),
                softmax_rows(p["x"]), cross_entropy(p["b1"], 1)]
    for out in outs:
        assert out.requires_grad is False
        assert out._parents == ()
    assert (p["x"] * 2.0).requires_grad  # recording resumes after the block


def test_constant_inputs_record_no_graph():
    c = Tensor.const(np.ones((2, 2)))
    out = (c * 3.0 + c).exp()
    assert out.requires_grad is False and out._parents == ()


def small_model_and_map(variant="full", n=6, seed=41):
    cfg = L.LocalizerConfig(d_obs=4, d_emb=4, d_x=4, d_h=8, d_skip=4, enc_hidden=4,
                            gin_hidden=8, head_hidden=8, variant=variant)
    rng = np.random.default_rng(seed)
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    topo = TopoMap(rng.normal(size=(n, cfg.d_obs)), None, edges, MapConfig())
    return L.Localizer(cfg, seed=seed), topo, rng.normal(size=(5, cfg.d_obs))


@pytest.mark.parametrize("variant", L.VARIANTS)
def test_eval_step_without_graph_matches_recorded_step_bitwise(variant):
    model, topo, observations = small_model_and_map(variant)

    def run(training):
        model.training = training
        ctx = L.make_context(model, topo)
        state = L.reset_state(topo.n, model.cfg.d_h)
        steps, logits = [], []
        for obs in observations:
            probs, _, state, step_logits = L.localize_step(model, state, obs, topo, ctx,
                                                           return_logits=True)
            steps.append((probs, state.h, state.c))
            logits.append(step_logits)
        return steps, logits

    (recorded, rec_logits), (evaluated, ev_logits) = run(True), run(False)
    assert rec_logits[-1].requires_grad and not ev_logits[-1].requires_grad
    # probabilities are computed outside the graph, in training mode too
    assert not recorded[-1][0].requires_grad and recorded[-1][0]._parents == ()
    for rec, ev in zip(recorded, evaluated):
        for a, b in zip(rec, ev):
            assert np.array_equal(a.data, b.data)
            assert b._parents == ()


def test_step_logits_rejects_observations_that_are_not_one_row_per_map():
    model, topo, observations = small_model_and_map()
    ctx = L.make_context(model, topo)
    state = L.reset_state(topo.n, model.cfg.d_h)
    # a surplus query row would otherwise be gathered for no map without a word
    for bad in (observations[:1], observations[:2].reshape(1, 2, -1),
                np.zeros((0, 1, model.cfg.d_obs)), observations[0]):
        with pytest.raises(ValueError, match="d_obs"):
            L.step_logits(model, state, bad, ctx)


@pytest.mark.parametrize("variant", L.VARIANTS)
def test_training_step_records_at_most_25_graph_nodes(variant, monkeypatch):
    model, topo, observations = small_model_and_map(variant)
    ctx = L.make_context(model, topo)
    state = L.reset_state(topo.n, model.cfg.d_h)
    _, _, state = L.localize_step(model, state, observations[0], topo, ctx)
    recorded = []
    record = Tensor._record

    def counting_record(self, inputs, backward):
        recorded.append(self)
        record(self, inputs, backward)

    monkeypatch.setattr(Tensor, "_record", counting_record)
    _, _, _, logits = L.localize_step(model, state, observations[1], topo, ctx,
                                      return_logits=True)
    cross_entropy(logits, 2)
    assert 0 < len(recorded) <= 25


def batch_windows(variant="full", steps=5):
    """A model and four windows on maps of 6, 1, 4 and 9 nodes, `steps` long."""
    model, _, observations = small_model_and_map(variant, seed=41)
    rng = np.random.default_rng(42)
    windows = []
    for n in (6, 1, 4, 9):
        topo = TopoMap(rng.normal(size=(n, model.cfg.d_obs)), None,
                       [(i, i + 1) for i in range(n - 1)], MapConfig())
        obs = rng.normal(size=(steps, model.cfg.d_obs))
        windows.append(TR.Sample(obs, None, topo, [int(rng.integers(n)) for _ in range(steps)],
                                 TR.REAL_LIKE))
    return model, windows


@pytest.mark.parametrize("variant", L.VARIANTS)
def test_training_iteration_records_same_graph_for_one_and_four_windows(variant,
                                                                        monkeypatch):
    recorded = []
    record = Tensor._record

    def counting_record(self, inputs, backward):
        recorded.append(self)
        record(self, inputs, backward)

    monkeypatch.setattr(Tensor, "_record", counting_record)

    def nodes(windows, model):
        del recorded[:]
        TR.sequence_loss(model, windows)
        return len(recorded)

    model, windows = batch_windows(variant, steps=4)
    _, longer = batch_windows(variant, steps=5)
    assert nodes(windows[:1], model) == nodes(windows, model)
    per_step = nodes(longer, model) - nodes(windows, model)
    assert per_step == 0
    assert nodes(windows, model) <= 32


@pytest.mark.parametrize("variant", L.VARIANTS)
def test_sequence_loss_without_graph_matches_recorded_bitwise(variant):
    model, windows = batch_windows(variant, steps=6)
    windows.append(TR.window(windows[2], 1, 2))  # a second, 3-step group
    recorded = TR.sequence_loss(model.train(), windows)
    with no_grad():
        evaluated = TR.sequence_loss(model, windows)
    assert recorded.requires_grad and not evaluated.requires_grad
    assert evaluated.item() == recorded.item()


def test_backward_frees_graph_without_reference_cycles():
    model, windows = batch_windows()
    windows.append(TR.window(windows[0], 1, 2))  # a second, shorter group
    gc.collect()
    saved = list(gc.garbage)
    gc.garbage.clear()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        loss = TR.sequence_loss(model, windows)
        loss.backward()
        del loss
        gc.collect()
        leaked = sum(1 for obj in gc.garbage if isinstance(obj, Tensor))
    finally:
        gc.set_debug(0)
        gc.garbage[:] = saved
        gc.enable()
    assert leaked == 0
    assert all(p.grad is not None for p in model.parameters())


def test_second_backward_through_freed_graph_raises():
    x = Tensor.param(np.array([0.5, -1.5]))
    y = (x * x).sigmoid()
    loss = y.sum()
    loss.backward()
    assert loss._parents == () and y._parents == ()
    with pytest.raises(RuntimeError):
        loss.backward()
    with pytest.raises(RuntimeError):
        (y * 2.0).sum().backward()

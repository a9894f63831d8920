import contextlib

import numpy as np
import pytest

from oracles import cross_attention_oracle, scaled_attention_oracle, sum_all
from snfuse.config import RunConfig
from snfuse.errors import DimensionError
from snfuse.fusion import (
    BLEND_TERMS,
    blend,
    day_pair_adjacency,
    fuse_directions,
    gather_terms,
    gcn_fuse,
    shifted_sum,
)
from snfuse.model import ForecastModel
from snfuse.optim import ParamSet, backward, finite_diff_check
from snfuse.tensor import Tensor, block_matmul, concat, cut, linear, matmul, mul, no_grad, relu


def _windows_as_they_are(x):
    return x


def _identity_proj(d):
    params = ParamSet()
    for letter in ("q", "k", "v"):
        params.add(f"fusion.p2n.w{letter}", np.eye(d))
    return params


def _random_proj_params(rng, d):
    params = ParamSet()
    for direction in ("p2n", "n2p"):
        for letter in ("q", "k", "v"):
            params.add(f"fusion.{direction}.w{letter}", rng.uniform(-1, 1, size=(d, d)))
    return params


def _attend(query, keys, params, direction="p2n"):
    """One direction's projections (fuse_directions), then its attention core on the windows as
    they are (gather_terms): prices query news in p2n, news queries prices in n2p."""
    news, price = (keys, query) if direction == "p2n" else (query, keys)
    rows = fuse_directions(Tensor(news), Tensor(price), params, [direction])
    return gather_terms(rows, _windows_as_they_are)[direction]


# -- cross attention -----------------------------------------------------


def test_cross_att_single_key_returns_value_row():
    d = 3
    q = np.random.default_rng(0).normal(size=(4, 1, d))  # four windows of one day: one key each
    kv = np.tile([7.0, 8.0, 9.0], (4, 1, 1))
    out = _attend(q, kv, _identity_proj(d))
    np.testing.assert_allclose(out.data, kv, atol=1e-15)


def test_cross_att_zero_query_uniform_weights():
    kv = np.array([[[1.0, 3.0], [5.0, 7.0], [0.0, 2.0]]])
    out = _attend(np.zeros_like(kv), kv, _identity_proj(2))
    np.testing.assert_allclose(out.data[0], np.tile(kv[0].mean(axis=0), (3, 1)), atol=1e-12)


def test_cross_att_orthonormal_self_matches_scalar_oracle():
    d = 4
    q = np.eye(d)[:3]
    out = _attend(q[None], q[None], _identity_proj(d))
    expected = scaled_attention_oracle(q.tolist(), q.tolist(), q.tolist(), np.sqrt(d))
    np.testing.assert_allclose(out.data[0], expected, atol=1e-12)


def test_cross_att_length_mismatch_rejected():
    with pytest.raises(DimensionError, match="and length"):
        _attend(np.zeros((1, 2, 2)), np.zeros((1, 3, 2)), _identity_proj(2))


def test_cross_att_random_matches_full_oracle():
    # queries and keys come from the same window, so they are as many rows
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        t = int(rng.integers(1, 7))
        windows = int(rng.integers(1, 4))
        params = _random_proj_params(rng, d)
        q_in = rng.uniform(-2, 2, size=(windows, t, d))
        kv_in = rng.uniform(-2, 2, size=(windows, t, d))
        for direction in ("p2n", "n2p"):
            out = _attend(q_in, kv_in, params, direction)
            w = [params[f"fusion.{direction}.w{letter}"].data.tolist() for letter in "qkv"]
            for i in range(windows):
                expected = cross_attention_oracle(q_in[i].tolist(), kv_in[i].tolist(), *w)
                np.testing.assert_allclose(out.data[i], expected, atol=1e-10)


# -- direction pair ------------------------------------------------------


def test_fuse_directions_symmetry_when_inputs_tied():
    d, t = 3, 4
    params = ParamSet()
    for direction in ("p2n", "n2p"):
        for letter in ("q", "k", "v"):
            params.add(f"fusion.{direction}.w{letter}", np.eye(d))
    x = Tensor(np.random.default_rng(1).normal(size=(t, d)))
    fused = gather_terms(fuse_directions(x, x, params, ["p2n", "n2p"]), _windows_as_they_are)
    s_p2n, s_n2p = fused["p2n"], fused["n2p"]
    np.testing.assert_allclose(s_p2n.data, s_n2p.data, atol=1e-15)


def test_fuse_directions_shapes_and_oracle():
    rng = np.random.default_rng(7)
    d, t = 4, 5
    params = _random_proj_params(rng, d)
    news = rng.uniform(-1, 1, size=(t, d))
    price = rng.uniform(-1, 1, size=(t, d))
    projections = fuse_directions(Tensor(news), Tensor(price), params, ["p2n", "n2p"])
    assert [[x.shape for x in parts] for parts in projections.values()] == [[(t, d)] * 3] * 2
    fused = gather_terms(projections, _windows_as_they_are)
    s_p2n, s_n2p = fused["p2n"], fused["n2p"]
    assert s_p2n.shape == (t, d) and s_n2p.shape == (t, d)
    exp_p2n = cross_attention_oracle(
        price.tolist(), news.tolist(),
        params["fusion.p2n.wq"].data.tolist(),
        params["fusion.p2n.wk"].data.tolist(),
        params["fusion.p2n.wv"].data.tolist(),
    )
    exp_n2p = cross_attention_oracle(
        news.tolist(), price.tolist(),
        params["fusion.n2p.wq"].data.tolist(),
        params["fusion.n2p.wk"].data.tolist(),
        params["fusion.n2p.wv"].data.tolist(),
    )
    np.testing.assert_allclose(s_p2n.data, exp_p2n, atol=1e-10)
    np.testing.assert_allclose(s_n2p.data, exp_n2p, atol=1e-10)


# -- gcn + causal conv -----------------------------------------------------


def _gcn_params(d, w=None, b=None, taps=None, rng=None):
    params = ParamSet()
    params.add("fusion.gcn.w", np.eye(d) if w is None else w)
    params.add("fusion.gcn.b", np.zeros(d) if b is None else b)
    for k in range(5):
        if taps is not None:
            tap = taps[k]
        elif rng is not None:
            tap = rng.uniform(-0.5, 0.5, size=(d, d))
        else:
            tap = np.eye(d) if k == 0 else np.zeros((d, d))
        params.add(f"fusion.conv.tap{k}", tap)
    return params


def test_adjacency_self_loops_only_is_identity():
    # off its T cross edges the adjacency is the self-loops alone, halved, as every node has degree 2
    t = 4
    cross = np.eye(2 * t, k=t) + np.eye(2 * t, k=-t)
    a = day_pair_adjacency(t)
    np.testing.assert_allclose(a * (1.0 - cross), 0.5 * np.eye(2 * t), atol=1e-15)
    np.testing.assert_allclose(a * cross, 0.5 * cross, atol=1e-15)


def test_adjacency_with_edges_halves_degree_two_nodes():
    a = day_pair_adjacency(2)
    # every node has degree 2 after self-loops, so normalized entries are 1/2
    np.testing.assert_allclose(a, np.array(
        [[0.5, 0, 0.5, 0],
         [0, 0.5, 0, 0.5],
         [0.5, 0, 0.5, 0],
         [0, 0.5, 0, 0.5]]), atol=1e-15)


def test_gcn_identity_graph_passes_price_rows_through():
    # self-loops only, W=I, b=0, positive inputs: price rows unchanged before conv
    d, t = 3, 4
    params = _gcn_params(d)
    rng = np.random.default_rng(2)
    news = rng.uniform(0.1, 1.0, size=(1, t, d))
    price = rng.uniform(0.1, 1.0, size=(1, t, d))
    out = shifted_sum(gcn_fuse(Tensor(news), Tensor(price), params, np.eye(2 * t)))
    # delta kernel at the current tap makes the conv an identity too
    np.testing.assert_allclose(out.data, price, atol=1e-12)


def _conv_of_price_rows(h, taps):
    """The causal convolution of positive (1, T, d) rows h: the GCN over the self-loop graph with
    W = I and b = 0 hands h on unchanged, and the conv sums its tap products shifted."""
    news = Tensor(np.zeros_like(h))
    return shifted_sum(gcn_fuse(news, Tensor(h), _gcn_params(h.shape[-1], taps=taps), np.eye(2 * h.shape[-2])))


def test_causal_conv_delta_kernel_is_identity():
    d, t = 2, 6
    taps = [np.eye(d)] + [np.zeros((d, d)) for _ in range(4)]
    h = np.random.default_rng(3).uniform(0.1, 1.0, size=(1, t, d))
    out = _conv_of_price_rows(h, taps)
    np.testing.assert_allclose(out.data, h, atol=1e-15)


def test_causal_conv_shifted_tap_delays_by_k():
    d, t = 2, 6
    for k in range(1, 5):
        taps = [np.zeros((d, d)) for _ in range(5)]
        taps[k] = np.eye(d)
        h = np.random.default_rng(4).uniform(0.1, 1.0, size=(1, t, d))
        out = _conv_of_price_rows(h, taps).data[0]
        np.testing.assert_allclose(out[k:], h[0, :-k], atol=1e-15)
        np.testing.assert_allclose(out[:k], 0.0, atol=1e-15)


def test_gcn_causality_perturbation_sweep():
    # perturbing day t never changes outputs at days < t, bit for bit
    d, t_len = 3, 20
    rng = np.random.default_rng(6)
    params = _gcn_params(d, w=rng.uniform(-1, 1, size=(d, d)), b=rng.uniform(-0.1, 0.1, size=d), rng=rng)
    news = rng.uniform(-1, 1, size=(t_len, d))
    price = rng.uniform(-1, 1, size=(t_len, d))
    adjacency = day_pair_adjacency(t_len)
    base = shifted_sum(gcn_fuse(Tensor(news[None]), Tensor(price[None]), params, adjacency)).data[0]
    for t in range(t_len):
        for target in ("news", "price"):
            bumped_news = news.copy()
            bumped_price = price.copy()
            (bumped_news if target == "news" else bumped_price)[t] += rng.uniform(0.5, 2.0, size=d)
            out = shifted_sum(gcn_fuse(Tensor(bumped_news[None]), Tensor(bumped_price[None]), params,
                                       adjacency)).data[0]
            assert np.array_equal(out[:t], base[:t]), f"leak at day {t} via {target}"
            if t <= t_len - 1:
                assert not np.array_equal(out[t : min(t + 5, t_len)], base[t : min(t + 5, t_len)])


def test_gcn_full_gradient_check():
    d, t_len = 3, 5
    rng = np.random.default_rng(9)
    params = _gcn_params(d, w=rng.uniform(-1, 1, size=(d, d)), b=rng.uniform(-0.1, 0.1, size=d), rng=rng)
    news = Tensor(rng.uniform(0.2, 1.0, size=(1, t_len, d)))
    price = Tensor(rng.uniform(0.2, 1.0, size=(1, t_len, d)))
    adjacency = day_pair_adjacency(t_len)
    coeff = Tensor(rng.uniform(-1, 1, size=(1, t_len, d)))

    def f(p):
        return sum_all(mul(shifted_sum(gcn_fuse(news, price, p, adjacency)), coeff))

    report = finite_diff_check(f, params, step=1e-6, tol=1e-4)
    assert report.passed, report.per_param


@pytest.mark.parametrize("grad", [True, False], ids=["tape", "no-tape"])
@pytest.mark.parametrize("d", [8, 64])
@pytest.mark.parametrize("t_len", [8, 20])
@pytest.mark.parametrize("windows", [1, 3])
def test_gcn_price_rows_match_the_full_layer_bit_for_bit(windows, t_len, d, grad):
    # the full form: the layer over all 2T nodes, then its price rows through each tap
    rng = np.random.default_rng(16)
    params = _gcn_params(d, w=rng.uniform(-1, 1, size=(d, d)), b=rng.uniform(-0.5, 0.5, size=d), rng=rng)
    params.add("news", rng.uniform(-1, 1, size=(windows, t_len, d)))
    params.add("price", rng.uniform(-1, 1, size=(windows, t_len, d)))
    adjacency = day_pair_adjacency(t_len)
    coeff = Tensor(rng.uniform(-1, 1, size=(windows, t_len, d)))
    taps = [params[f"fusion.conv.tap{k}"] for k in range(5)]

    def full(p):
        nodes = block_matmul(adjacency, concat([p["news"], p["price"]], -2))
        hidden = relu(linear(nodes, p["fusion.gcn.w"], p["fusion.gcn.b"]))
        return shifted_sum(matmul(cut(hidden, t_len, 2 * t_len, -2), tap) for tap in taps)

    runs = []
    for form in (full, lambda p: shifted_sum(gcn_fuse(p["news"], p["price"], p, adjacency))):
        with contextlib.nullcontext() if grad else no_grad():
            out = form(params)
        grads = backward(sum_all(mul(out, coeff)), params) if grad else {}
        params.clear_grads()
        runs.append((out.data, grads))
    (ref, ref_grads), (got, got_grads) = runs
    assert np.array_equal(got, ref)
    assert set(got_grads) == set(ref_grads) == (set(params.ids()) if grad else set())
    for pid, g in ref_grads.items():
        assert np.array_equal(got_grads[pid], g), pid


# -- blend -----------------------------------------------------------------


def _terms(rng, t, d, names=BLEND_TERMS):
    return {name: Tensor(rng.uniform(-1, 1, size=(1, t, d))) for name in names}


def test_blend_equal_logits_is_plain_average():
    rng = np.random.default_rng(10)
    terms = _terms(rng, 3, 2)
    params = ParamSet()
    logits = params.add("logits", np.zeros((1, 5)))
    out, weights = blend(terms, logits, list(BLEND_TERMS))
    stacked = np.stack([terms[n].data for n in BLEND_TERMS])
    np.testing.assert_allclose(out.data, stacked.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(weights, np.full(5, 0.2), atol=1e-15)


def test_blend_single_active_term_passthrough():
    rng = np.random.default_rng(11)
    terms = _terms(rng, 3, 2)
    params = ParamSet()
    logits = params.add("logits", rng.normal(size=(1, 5)))
    out, weights = blend(terms, logits, ["price"])
    np.testing.assert_allclose(out.data, terms["price"].data, atol=1e-15)
    np.testing.assert_array_equal(weights, [1.0])


def test_blend_table4_bottom_row_keeps_dense_terms_only():
    rng = np.random.default_rng(12)
    terms = _terms(rng, 4, 3)
    params = ParamSet()
    logits = params.add("logits", rng.normal(size=(1, 5)))
    active = ["news", "price"]  # - P2N - N2P - GCN
    out, weights = blend(terms, logits, active)
    assert len(weights) == 2
    assert abs(weights.sum() - 1.0) <= 1e-12
    manual = weights[0] * terms["news"].data + weights[1] * terms["price"].data
    np.testing.assert_allclose(out.data, manual, atol=1e-14)


def test_blend_weights_renormalize_over_active_subset():
    rng = np.random.default_rng(13)
    terms = _terms(rng, 2, 2)
    params = ParamSet()
    logits = params.add("logits", rng.normal(size=(1, 5)))
    for active in (list(BLEND_TERMS), ["news", "price", "n2p"], ["price"]):
        _, weights = blend(terms, logits, active)
        assert len(weights) == len(active)
        assert abs(weights.sum() - 1.0) <= 1e-12


def test_blend_empty_active_rejected():
    params = ParamSet()
    logits = params.add("logits", np.zeros((1, 5)))
    with pytest.raises(ValueError, match="active"):
        blend({}, logits, [])


def test_blend_gradient_through_logits():
    rng = np.random.default_rng(14)
    terms = _terms(rng, 3, 2)
    params = ParamSet()
    params.add("logits", rng.normal(size=(1, 5)))
    coeff = Tensor(rng.uniform(-1, 1, size=(1, 3, 2)))

    def f(p):
        out, _ = blend(terms, p["logits"], list(BLEND_TERMS))
        return sum_all(mul(out, coeff))

    report = finite_diff_check(f, params, step=1e-6, tol=1e-4)
    assert report.passed, report.per_param


# -- stacks of windows ---------------------------------------------------


@pytest.mark.parametrize("grad", [True, False], ids=["tape", "no-tape"])
@pytest.mark.parametrize("news_windows,price_windows", [(3, 2), (1, 3), (3, 1)])
def test_stacks_with_different_window_counts_are_rejected(news_windows, price_windows, grad):
    rng = np.random.default_rng(15)
    d, t = 3, 5
    proj = _random_proj_params(rng, d)
    news = Tensor(rng.normal(size=(news_windows, t, d)))
    price = Tensor(rng.normal(size=(price_windows, t, d)))
    with contextlib.nullcontext() if grad else no_grad():
        with pytest.raises(DimensionError, match="window count"):
            fuse_directions(news, price, proj, ["p2n", "n2p"])
        with pytest.raises(DimensionError, match="window count"):
            gcn_fuse(news, price, _gcn_params(d, rng=rng), day_pair_adjacency(t))


@pytest.mark.parametrize("d", [8, 64])
@pytest.mark.parametrize("t_len", [1, 8, 20])
def test_shared_rows_gathered_into_windows_match_the_windows_fused_whole(t_len, d):
    # off a tape: the model's fusion of (P, T) pseudo-windows of distinct rows, padded with copies
    # of the last row, gathered into windows, equals its fusion of the windows as they are bit for bit
    rng = np.random.default_rng(t_len * d)
    model = ForecastModel(RunConfig(t_window=t_len, patch_len=1, patch_stride=1, pooling="sap", dim=d), d)
    assert model.active_terms == list(BLEND_TERMS)
    model.params["fusion.blend.logits"].data = rng.normal(size=(1, 5))
    n_rows, windows = 2 * t_len + 3, 5
    closes, news_rows = rng.normal(size=n_rows), rng.normal(size=(n_rows, d))
    index = rng.integers(0, n_rows, size=(windows, t_len))
    take = np.minimum(np.arange(-(-n_rows // t_len) * t_len), n_rows - 1).reshape(-1, t_len)
    with no_grad():
        whole = model._fuse(closes[index], Tensor(news_rows[index]), _windows_as_they_are)
        shared = model._fuse(closes[take], Tensor(news_rows[take]), lambda x: Tensor(x.data.reshape(-1, d)[index]))
    assert np.array_equal(shared.data, whole.data)

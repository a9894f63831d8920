import numpy as np
import pytest

from oracles import (
    pool_ap_oracle,
    pool_cap_oracle,
    pool_pasap_oracle,
    pool_sap_oracle,
    sinusoid_oracle,
    softmax_vec,
)
from snfuse.errors import DataFormatError
from snfuse.optim import ParamSet, finite_diff_check
from snfuse.pooling import pool_day, sinusoidal_table
from snfuse.tensor import Tensor, sum_all


def _param(values):
    params = ParamSet()
    return params, params.add("p", np.asarray(values, dtype=np.float64))


# -- ap ------------------------------------------------------------------


def test_ap_single_row_returns_it():
    _, w = _param([0.3, -0.7])
    res = pool_day("ap", np.array([[5.0, 6.0]]), None, w)
    np.testing.assert_array_equal(res.pooled.data, [[5.0, 6.0]])
    np.testing.assert_array_equal(res.weights, [1.0])


def test_ap_hand_case():
    # logits [2, 0]: softmax weights from scalar evaluation of e^2/(e^2+1)
    _, w = _param([1.0, 0.0])
    res = pool_day("ap", np.array([[2.0, 0.0], [0.0, 2.0]]), None, w)
    np.testing.assert_allclose(res.pooled.data, [[1.761594, 0.238406]], atol=5e-7)


def test_ap_identical_rows_convexity():
    _, w = _param([0.4, 0.9, -0.1])
    row = np.array([1.5, -2.0, 0.25])
    res = pool_day("ap", np.tile(row, (4, 1)), None, w)
    np.testing.assert_allclose(res.pooled.data.reshape(-1), row, atol=1e-15)


def test_ap_zero_news_degenerate():
    _, w = _param([1.0, 1.0])
    res = pool_day("ap", np.zeros((0, 2)), None, w)
    assert res.degenerate
    np.testing.assert_array_equal(res.pooled.data, [[0.0, 0.0]])


# -- cap -----------------------------------------------------------------


def test_cap_identity_map_hand_case():
    _, wc = _param(np.eye(2))
    res = pool_day("cap", np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 0.0]), wc)
    np.testing.assert_allclose(res.pooled.data, [[0.731059, 0.268941]], atol=5e-7)


def test_cap_zero_map_gives_column_mean():
    _, wc = _param(np.zeros((3, 3)))
    rng = np.random.default_rng(0)
    news = rng.normal(size=(5, 3))
    res = pool_day("cap", news, rng.normal(size=3), wc)
    np.testing.assert_allclose(res.pooled.data.reshape(-1), news.mean(axis=0), atol=1e-12)


def test_cap_argmax_invariant_under_positive_scaling():
    # brute force over 100 random draws: scaling e by lambda > 0 keeps the argmax
    rng = np.random.default_rng(42)
    for _ in range(100):
        d, n = int(rng.integers(2, 6)), int(rng.integers(2, 7))
        _, wc = _param(rng.normal(size=(d, d)))
        news = rng.normal(size=(n, d))
        e = rng.normal(size=d)
        lam = float(rng.uniform(0.01, 50.0))
        base = pool_day("cap", news, e, wc).weights
        scaled = pool_day("cap", news, lam * e, wc).weights
        assert np.argmax(base) == np.argmax(scaled)


# -- sap -----------------------------------------------------------------


def test_sap_zero_news_returns_name_embedding():
    params, ws = _param([0.5, -0.5])
    e = np.array([3.0, 4.0])
    res = pool_day("sap", np.zeros((0, 2)), e, ws)
    np.testing.assert_array_equal(res.pooled.data, [[3.0, 4.0]])
    np.testing.assert_array_equal(res.weights, [1.0])
    # w_s still participates in the graph with a (zero) gradient
    from snfuse.optim import backward

    grads = backward(sum_all(res.pooled), params)
    np.testing.assert_array_equal(grads["p"], [0.0, 0.0])


def test_sap_name_equals_news_row():
    _, ws = _param([2.0, -1.0])
    res = pool_day("sap", np.array([[1.0, 0.0]]), np.array([1.0, 0.0]), ws)
    np.testing.assert_allclose(res.pooled.data, [[1.0, 0.0]], atol=1e-15)


def test_sap_matches_scalar_loop_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        d = int(rng.integers(2, 8))
        news = rng.normal(size=(2, d))
        e = rng.normal(size=d)
        _, ws = _param(rng.normal(size=d))
        res = pool_day("sap", news, e, ws)
        expected = pool_sap_oracle(news.tolist(), e.tolist(), ws.data.tolist())
        np.testing.assert_allclose(res.pooled.data.reshape(-1), expected, atol=1e-10)


# -- pasap ---------------------------------------------------------------


def test_sinusoidal_table_matches_oracle():
    table = sinusoidal_table(12, 7)
    for pos in range(12):
        for j in range(7):
            assert table[pos, j] == pytest.approx(sinusoid_oracle(pos, j, 7), abs=1e-15)


def test_pasap_reduces_to_ap_when_positions_and_name_zero():
    rng = np.random.default_rng(3)
    news = rng.normal(size=(4, 3))
    w = rng.normal(size=3)
    _, wp = _param(w)
    _, wa = _param(w)
    zero_table = np.zeros((10, 3))
    res_pasap = pool_day("pasap", news, np.zeros(3), wp, zero_table)
    res_ap = pool_day("ap", news, None, wa)
    # ap sorts rows canonically, pasap does not; values still agree to rounding
    np.testing.assert_allclose(res_pasap.pooled.data, res_ap.pooled.data, atol=1e-12)


def test_pasap_single_row_adds_name_and_position():
    _, wp = _param([1.0, 1.0])
    news = np.array([[0.5, 0.5]])
    e = np.array([1.0, 2.0])
    table = sinusoidal_table(4, 2)
    res = pool_day("pasap", news, e, wp, table)
    np.testing.assert_allclose(res.pooled.data.reshape(-1), news[0] + e + table[0], atol=1e-15)


def test_pasap_is_position_sensitive():
    rng = np.random.default_rng(8)
    news = rng.normal(size=(3, 4))
    e = rng.normal(size=4)
    _, wp = _param(rng.normal(size=4))
    table = sinusoidal_table(8, 4)
    base = pool_day("pasap", news, e, wp, table).pooled.data
    swapped = pool_day("pasap", news[[1, 0, 2]], e, wp, table).pooled.data
    assert not np.allclose(base, swapped)


def test_pasap_zero_news_degenerate_and_length_guard():
    _, wp = _param([1.0, 1.0])
    table = sinusoidal_table(2, 2)
    res = pool_day("pasap", np.zeros((0, 2)), np.ones(2), wp, table)
    assert res.degenerate
    with pytest.raises(ValueError, match="positional table"):
        pool_day("pasap", np.ones((3, 2)), np.ones(2), wp, table)


# -- shared properties -----------------------------------------------------


def _random_instance(rng):
    d = int(rng.integers(2, 9))
    n = int(rng.integers(1, 7))
    return rng.uniform(-2, 2, size=(n, d)), rng.uniform(-2, 2, size=d), d, n


def test_all_variants_match_scalar_loop_oracles_200_instances():
    rng = np.random.default_rng(123)
    for _ in range(200):
        news, e, d, n = _random_instance(rng)
        _, w = _param(rng.uniform(-2, 2, size=d))
        _, wc = _param(rng.uniform(-2, 2, size=(d, d)))
        table = sinusoidal_table(16, d)

        got = pool_day("ap", news, None, w).pooled.data.reshape(-1)
        np.testing.assert_allclose(got, pool_ap_oracle(news.tolist(), w.data.tolist()), atol=1e-10)

        got = pool_day("cap", news, e, wc).pooled.data.reshape(-1)
        np.testing.assert_allclose(got, pool_cap_oracle(news.tolist(), e.tolist(), wc.data.tolist()), atol=1e-10)

        got = pool_day("sap", news, e, w).pooled.data.reshape(-1)
        np.testing.assert_allclose(got, pool_sap_oracle(news.tolist(), e.tolist(), w.data.tolist()), atol=1e-10)

        got = pool_day("pasap", news, e, w, table).pooled.data.reshape(-1)
        np.testing.assert_allclose(got, pool_pasap_oracle(news.tolist(), e.tolist(), w.data.tolist()), atol=1e-10)


def test_permutation_invariance_bitwise_for_set_variants():
    rng = np.random.default_rng(99)
    for _ in range(25):
        news, e, d, n = _random_instance(rng)
        if n < 2:
            continue
        _, w = _param(rng.uniform(-2, 2, size=d))
        _, wc = _param(rng.uniform(-2, 2, size=(d, d)))
        base_ap = pool_day("ap", news, None, w).pooled.data
        base_cap = pool_day("cap", news, e, wc).pooled.data
        base_sap = pool_day("sap", news, e, w).pooled.data
        for _ in range(10):
            perm = rng.permutation(n)
            assert np.array_equal(pool_day("ap", news[perm], None, w).pooled.data, base_ap)
            assert np.array_equal(pool_day("cap", news[perm], e, wc).pooled.data, base_cap)
            assert np.array_equal(pool_day("sap", news[perm], e, w).pooled.data, base_sap)


def test_attention_weights_sum_to_one():
    rng = np.random.default_rng(55)
    for _ in range(30):
        news, e, d, n = _random_instance(rng)
        _, w = _param(rng.uniform(-2, 2, size=d))
        _, wc = _param(rng.uniform(-2, 2, size=(d, d)))
        table = sinusoidal_table(16, d)
        for res in (
            pool_day("ap", news, None, w),
            pool_day("cap", news, e, wc),
            pool_day("sap", news, e, w),
            pool_day("pasap", news, e, w, table),
        ):
            assert abs(res.weights.sum() - 1.0) <= 1e-12


def test_ap_cap_outputs_in_convex_hull_low_dim():
    # barycentric residual: solving weights against rows reproduces the output
    rng = np.random.default_rng(77)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        news = rng.uniform(-2, 2, size=(n, d))
        _, w = _param(rng.uniform(-2, 2, size=d))
        _, wc = _param(rng.uniform(-2, 2, size=(d, d)))
        e = rng.uniform(-2, 2, size=d)
        for res in (pool_day("ap", news, None, w), pool_day("cap", news, e, wc)):
            weights = res.weights
            assert np.all(weights >= 0)
            recon = weights @ news
            assert np.max(np.abs(recon - res.pooled.data.reshape(-1))) <= 1e-9


def test_pooling_gradients_pass_finite_differences():
    rng = np.random.default_rng(31)
    news = rng.uniform(-2, 2, size=(4, 3))
    e = rng.uniform(-2, 2, size=3)
    coeff = Tensor(rng.uniform(-1, 1, size=(1, 3)))
    table = sinusoidal_table(8, 3)

    cases = {
        "ap": (rng.uniform(-1, 1, size=3), lambda p: pool_day("ap", news, None, p["p"]).pooled),
        "cap": (rng.uniform(-1, 1, size=(3, 3)), lambda p: pool_day("cap", news, e, p["p"]).pooled),
        "sap": (rng.uniform(-1, 1, size=3), lambda p: pool_day("sap", news, e, p["p"]).pooled),
        "pasap": (rng.uniform(-1, 1, size=3), lambda p: pool_day("pasap", news, e, p["p"], table).pooled),
    }
    from snfuse.tensor import mul

    for name, (init, fn) in cases.items():
        params = ParamSet()
        params.add("p", init)
        report = finite_diff_check(lambda p: sum_all(mul(fn(p), coeff)), params, step=1e-6, tol=1e-4)
        assert report.passed, f"{name}: {report.per_param}"


# -- the article limit and the name ------------------------------------------


def _variant_args(variant, d, max_news, rng):
    w = Tensor(rng.uniform(-1, 1, size=(d, d) if variant == "cap" else d))
    table = sinusoidal_table(max_news, d) if variant == "pasap" else None
    return w, table


@pytest.mark.parametrize("variant", ["ap", "cap", "sap", "pasap"])
def test_every_variant_accepts_max_articles_and_rejects_one_more(variant):
    rng = np.random.default_rng(5)
    d, limit = 3, 4
    w, table = _variant_args(variant, d, limit, rng)
    name = rng.normal(size=d)
    full, over = rng.normal(size=(limit, d)), rng.normal(size=(limit + 1, d))
    assert pool_day(variant, full, name, w, table, limit).pooled.shape == (1, d)
    with pytest.raises(DataFormatError, match=f"{limit + 1} articles.*max_news_per_day = {limit}"):
        pool_day(variant, over, name, w, table, limit)


@pytest.mark.parametrize("variant", ["cap", "sap", "pasap"])
def test_only_cap_weighs_the_articles_by_name(variant):
    # sap's name row competes with the articles as a whole, and pasap's name adds one
    # constant to every logit, so the articles' weights among themselves ignore the name
    rng = np.random.default_rng(7)
    d, n = 6, 5
    w, table = _variant_args(variant, d, 8, rng)
    news = rng.normal(size=(n, d))
    article_weights = []
    for name in (rng.normal(size=d), rng.normal(size=d)):
        weights = pool_day(variant, news, name, w, table).weights[-n:]
        article_weights.append(weights / weights.sum())
    gap = np.abs(article_weights[0] - article_weights[1]).max()
    if variant == "cap":
        assert gap > 1e-2
    else:
        assert gap <= 1e-12

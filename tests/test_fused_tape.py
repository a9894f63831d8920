"""The fused tape nodes and the stacked training step reproduce the
primitive-op graphs of one window at a time bit for bit.

`pooling.pool_slots`, `tensor.attention`, `tensor.gather_rows`,
`tensor.linear`, `fusion.shifted_sum` and `fusion.blend` each record one
node for what used to be a chain of primitive ops: the pooling chain of
every day slot, the per-head attention of the reprogramming layer and the
frozen backbone (columns sliced even for one head), the unsliced
single-head cross-attention, the per-patch slices of patchify, a matmul and
its bias's add, the padded slices of each conv tap's product and their
sum, and the blend's softmax over per-window copies of the logits and its
weighted sum of the terms. The oracles
below rebuild those chains from the primitive ops on the (L, d) rows of one
window, the 2-D form every op also takes, cut out of the layer's (1, L, d)
stack by `reshape`; the backbone's oracle runs the frozen stack on those
rows too, with the prompt row joined on top. The pooling chain stands in
for `ForecastModel._pool_pairs`, the one kernel call of `_rows`; on a tape
`_rows` makes every day slot its own row, so the chain pools each slot.
They run one window at a time, and the batch's windows stacked through
`batch_loss` must give the same loss and the same gradient for every
trainable parameter, compared with np.array_equal, in every pooling
variant, ablation row and prompt setting.

The widths (d = d_model = 32, T = 8, 16 prototypes) are ones where
OpenBLAS 0.3.31 with its Haswell kernels returns different bits for the
same product of a row-major and a column-major operand, so there a
gradient handed on in the wrong memory layout shows up here.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import snfuse.backbone
import snfuse.fusion
import snfuse.pooling
from oracles import scale, sum_all
import snfuse.model
from snfuse.config import RunConfig
from snfuse.fusion import BLEND_TERMS
from snfuse.model import ForecastModel, mse_loss
from snfuse.optim import backward
from snfuse.tensor import (
    Tensor,
    _toposort,
    add,
    concat,
    cut,
    matmul,
    mul,
    repeat_windows,
    reshape,
    softmax_rows,
    transpose,
)
from snfuse.training import ABLATION_ROWS


def pool_chain(w, rows, name=None):
    """reshape (or name @ w) -> matmul -> softmax_rows -> matmul."""
    d = rows.shape[1]
    query = reshape(w, (1, d)) if name is None else matmul(Tensor(name.reshape(1, d)), w)
    attn = softmax_rows(matmul(query, Tensor(rows.T)))
    return matmul(attn, Tensor(rows)), attn.data


def day_rows(pooling, day, emb):
    """The rows a day is pooled over: its articles in canonical order (sap: the name row
    first), or for pasap in file order with the name and the day's own position codes added."""
    if pooling == "pasap":
        return day + emb.reshape(1, -1) + snfuse.pooling.sinusoidal_table(*day.shape)
    rows = day[snfuse.pooling.canonical_order(day)]
    return np.concatenate([emb.reshape(1, -1), rows]) if pooling == "sap" else rows


def pool_slots_chain(model, pairs, index):
    """ForecastModel._pool_pairs as a chain: every day slot pooled on its own through pool_chain
    (zeros for a day without rows), the slots joined by concat on axis -2."""
    cfg = model.cfg
    w = model.params[snfuse.pooling.PARAM[cfg.pooling]]
    slots = []
    for pair in np.reshape(index, -1):
        day, emb = pairs[pair]
        rows = day_rows(cfg.pooling, day, emb)
        name = emb if cfg.pooling == "cap" else None
        slots.append(pool_chain(w, rows, name)[0] if len(rows) else Tensor(np.zeros((1, cfg.dim))))
    return reshape(concat(slots, -2), (*np.shape(index), cfg.dim))


def rows_of(stack):
    """The (L, d) rows of a (1, L, d) stack of one window, through a reshape node; rows pass as they are."""
    if len(stack.shape) == 2:
        return stack
    assert stack.shape[0] == 1
    return reshape(stack, stack.shape[1:])


def as_stack(rows):
    """(L, d) rows as a (1, L, d) stack of one window, through a reshape node."""
    return reshape(rows, (1, *rows.shape))


def split_heads_chain(q, k, v, n_heads):
    """Per head: cut on axis -1 -> transpose -> matmul -> scale -> softmax_rows -> matmul,
    the heads joined by concat on axis -1."""
    stacked = len(q.shape) == 3  # the reprogramming layer's stacks; the backbone oracle passes rows
    q, k, v = rows_of(q), rows_of(k), rows_of(v)
    head_dim = q.shape[1] // n_heads
    outs = []
    for h in range(n_heads):
        lo, hi = h * head_dim, (h + 1) * head_dim
        qh, kh, vh = (cut(t, lo, hi, -1) for t in (q, k, v))
        logits = scale(matmul(qh, transpose(kh)), 1.0 / math.sqrt(head_dim))
        outs.append(matmul(softmax_rows(logits), vh))
    out = concat(outs, -1) if len(outs) > 1 else outs[0]
    return as_stack(out) if stacked else out


def cross_attention_chain(q, k, v, n_heads, **_):
    """Single head on the whole arrays: matmul(q, transpose(k)) -> scale -> softmax_rows -> matmul."""
    assert n_heads == 1
    q, k, v = rows_of(q), rows_of(k), rows_of(v)
    logits = scale(matmul(q, transpose(k)), 1.0 / math.sqrt(q.shape[1]))
    return as_stack(matmul(softmax_rows(logits), v))


def patchify_chain(features, patch_len, stride):
    """Per patch: cut on axis -2 -> reshape to one row, then concat on axis -2."""
    features = rows_of(features)
    d = features.shape[1]
    n_p = snfuse.backbone.num_patches(features.shape[0], patch_len, stride)
    return as_stack(concat([reshape(cut(features, s, s + patch_len, -2), (1, patch_len * d))
                            for s in range(0, n_p * stride, stride)], -2))


def shifted_sum_chain(products):
    """Per product k: k zero rows joined on top by concat on axis -2, then cut on axis -2 to the
    first T rows; the products summed by add."""
    out = None
    for k, product in enumerate(products):
        rows = rows_of(product)
        if k:
            t_len, d = rows.shape
            rows = cut(concat([Tensor(np.zeros((k, d))), rows], -2), 0, t_len, -2)
        out = rows if out is None else add(out, rows)
    return as_stack(out)


def linear_chain(x, w, b):
    """matmul -> add."""
    return add(matmul(x, w), b)


def blend_chain(terms, logits, active):
    """repeat_windows -> cut on axis -1 and concat of the active logits -> softmax_rows -> cut on
    axis -1 -> mul by each term -> add."""
    rows = repeat_windows(logits, terms[active[0]].shape[0])
    if tuple(active) == BLEND_TERMS:
        picked = rows
    else:
        picked = concat([cut(rows, i, i + 1, -1) for i in map(BLEND_TERMS.index, active)], -1)
    weights = softmax_rows(picked)
    out = None
    for col, name in enumerate(active):
        piece = mul(cut(weights, col, col + 1, -1), terms[name])
        out = piece if out is None else add(out, piece)
    return out, weights.data[0, 0].copy()


def forward_backbone_chain(prompt_token, patch_tokens, params, n_layers, n_heads):
    """The frozen stack on the window's rows, the prompt row led in by concat and cut off
    again by cut, both on axis -2, then the head on one flat row."""
    patch_tokens = rows_of(patch_tokens)
    n_p = patch_tokens.shape[0]
    if prompt_token is None:
        patch_hidden = snfuse.backbone.backbone_forward(patch_tokens, params, n_layers, n_heads)
    else:
        hidden = snfuse.backbone.backbone_forward(concat([rows_of(prompt_token), patch_tokens], -2), params,
                                                  n_layers, n_heads)
        patch_hidden = cut(hidden, 1, 1 + n_p, -2)
    flat = reshape(patch_hidden, (1, n_p * patch_hidden.shape[1]))
    return as_stack(linear_chain(flat, params["reprog.head.w"], params["reprog.head.b"]))


def _cfg(**overrides) -> RunConfig:
    base = dict(t_window=8, patch_len=4, patch_stride=4, d_model=32, n_layers=1, n_heads=2,
                ffn_dim=16, vocab_size=32, num_prototypes=16, dim=32, max_news_per_day=16)
    base.update(overrides)
    return RunConfig(**base)


def _batch(cfg, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(2):
        news = [rng.normal(size=(0 if day == 2 else int(rng.integers(1, 5)), cfg.dim)) for day in range(cfg.t_window)]
        out.append((rng.normal(size=cfg.t_window), news, rng.normal(size=cfg.dim), rng.normal(size=1)))
    return out


def _loss_and_grads(cfg, batch, per_window=False):
    model = ForecastModel(cfg, cfg.dim)
    if per_window:
        preds = concat([model.predict_sample(prices, news, emb) for prices, news, emb, _ in batch], -2)
        loss = mse_loss(preds, np.stack([target for *_, target in batch]))
    else:
        loss = model.batch_loss(batch)
    return loss.data.copy(), backward(loss, model.params)


def _assert_same_as_chains(cfg, monkeypatch):
    batch = _batch(cfg)
    fused_loss, fused = _loss_and_grads(cfg, batch)
    monkeypatch.setattr(ForecastModel, "_pool_pairs", pool_slots_chain)
    monkeypatch.setattr(snfuse.fusion, "attention", cross_attention_chain)
    monkeypatch.setattr(snfuse.backbone, "attention", split_heads_chain)
    monkeypatch.setattr(snfuse.backbone, "patchify", patchify_chain)
    monkeypatch.setattr(snfuse.fusion, "shifted_sum", shifted_sum_chain)
    monkeypatch.setattr(snfuse.fusion, "blend", blend_chain)
    for module in (snfuse.model, snfuse.fusion, snfuse.backbone):
        monkeypatch.setattr(module, "linear", linear_chain)
    monkeypatch.setattr(snfuse.backbone, "forward_backbone", forward_backbone_chain)
    chain_loss, chain = _loss_and_grads(cfg, batch, per_window=True)
    assert np.array_equal(fused_loss, chain_loss)
    assert set(fused) == set(chain)
    differing = [pid for pid in sorted(fused) if not np.array_equal(fused[pid], chain[pid])]
    assert differing == []


@pytest.mark.parametrize("snp", [False, True], ids=["snp-off", "snp-on"])
@pytest.mark.parametrize("pooling", ["none", "ap", "cap", "sap", "pasap"])
@pytest.mark.parametrize("label,flags", ABLATION_ROWS, ids=[label for label, _ in ABLATION_ROWS])
def test_fused_nodes_match_primitive_chains(pooling, label, flags, snp, monkeypatch):
    no_p2n, no_n2p, no_gcn = flags
    _assert_same_as_chains(_cfg(pooling=pooling, snp=snp, no_p2n=no_p2n, no_n2p=no_n2p, no_gcn=no_gcn),
                           monkeypatch)


def test_fused_nodes_match_with_several_reprogram_heads(monkeypatch):
    _assert_same_as_chains(_cfg(reprogram_heads=4, n_heads=4), monkeypatch)


@pytest.mark.parametrize("patch_len,stride", [(3, 1), (5, 2)])
def test_fused_nodes_match_with_overlapping_patches(patch_len, stride, monkeypatch):
    _assert_same_as_chains(_cfg(patch_len=patch_len, patch_stride=stride, snp=True), monkeypatch)


def _windows(cfg, n_windows, seed=0):
    """Overlapping windows of two stocks over one news history, as a dataset resolves them
    (one array per day, one per name), with days that have no articles; window 2 repeats
    window 0, so every one of its (day, stock) pairs is pooled for two slots."""
    rng = np.random.default_rng(seed)
    days = [rng.normal(size=(0 if i % 4 == 2 else int(rng.integers(1, 6)), cfg.dim)) for i in range(cfg.t_window + 3)]
    names = [rng.normal(size=cfg.dim) for _ in range(2)]
    out = []
    for i in range(n_windows):
        start, stock = (i // 2) % 3, i % 2
        out.append((rng.normal(size=cfg.t_window), days[start : start + cfg.t_window], names[stock],
                    rng.normal(size=cfg.horizon)))
    if n_windows > 2:
        out[2] = out[0]
    return out


@pytest.mark.parametrize("windows", [1, 3, 4])
@pytest.mark.parametrize("snp", [False, True], ids=["snp-off", "snp-on"])
@pytest.mark.parametrize("pooling", ["none", "ap", "cap", "sap", "pasap"])
@pytest.mark.parametrize("label,flags", ABLATION_ROWS, ids=[label for label, _ in ABLATION_ROWS])
def test_a_stacked_batch_matches_its_windows_taped_one_by_one(pooling, label, flags, snp, windows):
    no_p2n, no_n2p, no_gcn = flags
    cfg = _cfg(pooling=pooling, snp=snp, no_p2n=no_p2n, no_n2p=no_n2p, no_gcn=no_gcn, horizon=2)
    _assert_stacked_matches_looped(cfg, _windows(cfg, windows))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("pooling", ["none", "ap", "cap", "sap", "pasap"])
def test_eight_stacked_windows_match_their_windows_taped_one_by_one(pooling, seed):
    """From 8 rows on, numpy sums an axis pairwise, not in row order; only the window-order
    fold of the per-window gradient pieces (tensor._fold) keeps the one-by-one tape's bits.
    With numpy's sum in its place, reprog.head.b differs for every pooling at one seed or more."""
    cfg = _cfg(pooling=pooling, horizon=1, snp=True)
    _assert_stacked_matches_looped(cfg, _windows(cfg, 8, seed))


def _assert_stacked_matches_looped(cfg, batch):
    stacked_loss, stacked = _loss_and_grads(cfg, batch)
    looped_loss, looped = _loss_and_grads(cfg, batch, per_window=True)
    assert np.array_equal(stacked_loss, looped_loss)
    assert set(stacked) == set(looped)
    assert [pid for pid in sorted(stacked) if not np.array_equal(stacked[pid], looped[pid])] == []


@pytest.mark.parametrize("pooling", ["ap", "cap", "sap", "pasap"])
def test_pooling_contributions_come_window_major_then_day_ascending(pooling, monkeypatch):
    """The order a tape of one pool_day node per day slot delivers the pooling weight's
    contributions in, read off _toposort, is the order the stacked kernel adds them in:
    its w gradient equals that tape's bit for bit."""
    cfg = _cfg(pooling=pooling)
    model = ForecastModel(cfg, cfg.dim)
    batch = _windows(cfg, 4)
    w = model.params[snfuse.pooling.PARAM[pooling]]
    parts = [[snfuse.pooling.pool_day(pooling, day, emb, w).pooled for day in news]
             for _, news, emb, _ in batch]
    slots = concat([concat(window, -2) for window in parts], -2)
    coeff = Tensor(np.random.default_rng(1).normal(size=slots.shape))
    loss = sum_all(mul(slots, coeff))
    order = {id(node): pos for pos, node in enumerate(_toposort(loss))}
    visited = [order[id(part)] for window in parts for part in window if id(part) in order]
    assert visited == sorted(visited) and len(visited) > cfg.t_window
    loss.backward()
    looped, w.grad = w.grad, None
    handed = []
    real = snfuse.pooling.pool_slots
    monkeypatch.setattr(snfuse.pooling, "pool_slots",
                        lambda v, pairs, *rest: handed.append(len(pairs)) or real(v, pairs, *rest))
    pooled = model._rows(batch)[2]  # on a tape: the (W, T, d) rows of the day slots
    assert len(handed) == 1 and handed[0] < len(batch) * cfg.t_window  # shared (day, stock) pairs pooled once
    sum_all(mul(pooled, Tensor(coeff.data.reshape(pooled.shape)))).backward()
    assert np.array_equal(w.grad, looped)


def test_a_batch_of_four_records_as_many_tape_nodes_as_a_batch_of_one():
    cfg = _cfg(snp=True)
    model = ForecastModel(cfg, cfg.dim)
    batch = _windows(cfg, 4)
    assert len(_toposort(model.batch_loss(batch))) == len(_toposort(model.batch_loss(batch[:1])))


def test_a_training_step_of_four_windows_at_signal_trains_widths_records_63_backward_nodes():
    """d = 8, T = 8, patches of 4, sap: 101 nodes with a backward before linear, the conv's shifted sum
    and the blend each recorded one."""
    cfg = RunConfig(t_window=8, patch_len=4, patch_stride=4, pooling="sap", dim=8)
    model = ForecastModel(cfg, cfg.dim)
    nodes = _toposort(model.batch_loss(_windows(cfg, 4)))
    assert sum(node._backward is not None for node in nodes) == 63

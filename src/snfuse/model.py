"""The composed forecaster: pooling -> fusion -> reprogramming -> frozen stack -> head.

Only parameters the active configuration actually uses are registered, so
every trainable tensor is guaranteed a gradient from any generic batch.
The frozen set (vocabulary plus the surrogate blocks) is seeded once from
named substreams and never updated; a named `vocab_file` replaces the
seeded vocabulary, and the model reads it itself.

Training and inference run one forward: `_rows` pools each distinct (day,
stock) of the windows once, in one call of the stacked pooling kernel,
`_fuse_rows` runs fusion's row-by-row layers once per row and gives each
window its rows, then `bb.patchify` and `_predict` finish a (W, T, d)
stack of W windows. Only `_rows` decides whether rows are shared: on a
tape every day slot is its own row, so a training step's loss and
gradients equal those of its windows taped one at a time bit for bit; off
a tape (`predict_many`) each (stock, day, close) row is computed once. A
day's articles are sorted only the first time the model sees that day
matrix.
"""

from __future__ import annotations

import numpy as np

from . import backbone as bb
from . import fusion as fu
from . import pooling as pl
from .config import RunConfig
from .data import load_news_day
from .errors import DataFormatError
from .optim import ParamSet
from .rng import substream
from .tensor import Tensor, add, grad_enabled, linear, mean_all, mul, no_grad, reshape

PREDICT_ROWS = 640  # rows per fusion chunk of predict_many (T per window), which bounds its memory


def _first_use(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, index) of the distinct rows of equal-length integer columns, in order of first use:
    distinct row j first occurs at first[j], and row i is distinct row index[i]."""
    order = np.lexsort(columns[::-1])  # stable, so each run of equal rows starts at its first use
    keys = np.stack(columns)[:, order]
    starts = np.empty(len(order), dtype=bool)
    starts[0] = True
    starts[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
    first = order[starts]
    by_use = np.argsort(first)
    rank = np.empty_like(by_use)
    rank[by_use] = np.arange(len(by_use))
    index = np.empty_like(order)
    index[order] = rank[np.cumsum(starts) - 1]
    return first[by_use], index


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"prediction shape {pred.shape} != target shape {target.shape}")
    diff = add(pred, Tensor(-target))  # IEEE 754 defines a - b as a + (-b), signed zeros included
    return mean_all(mul(diff, diff))


class ForecastModel:
    def __init__(self, cfg: RunConfig, dim: int):
        cfg.validate()
        if dim < 1:
            raise ValueError(f"embedding dim must be >= 1, got {dim}")
        self.cfg = cfg
        self.dim = dim
        self.n_patches = bb.num_patches(cfg.t_window, cfg.patch_len, cfg.patch_stride)
        self.active_terms = self._active_terms()
        self.directions = [t for t in self.active_terms if t in fu.DIRECTIONS]
        self.params = ParamSet()
        self.adjacency = fu.day_pair_adjacency(cfg.t_window)
        self.orders = pl.OrderMemo()
        self._register()

    def _active_terms(self) -> list[str]:
        cfg = self.cfg
        if cfg.pooling == "none":
            return ["price"]
        dropped = {"p2n": cfg.no_p2n, "n2p": cfg.no_n2p, "gcn": cfg.no_gcn}
        return [t for t in fu.BLEND_TERMS if not dropped.get(t, False)]

    # -- initialization ------------------------------------------------

    def _gen(self, name: str, frozen: bool = False) -> np.random.Generator:
        return substream(self.cfg.seed, f"{'frozen' if frozen else 'init'}/{name}")

    def _add_matrix(self, name: str, fan_in: int, fan_out: int, frozen: bool = False) -> None:
        values = self._gen(name, frozen).normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out))
        self.params.add(name, values, frozen=frozen)

    def _add_bias(self, name: str, size: int, frozen: bool = False) -> None:
        self.params.add(name, np.zeros(size), frozen=frozen)

    def _dense(self, name: str, fan_in: int, fan_out: int) -> None:
        self._add_matrix(f"{name}.w", fan_in, fan_out)
        self._add_bias(f"{name}.b", fan_out)

    def _register(self) -> None:
        cfg, d = self.cfg, self.dim

        if cfg.pooling != "none":
            pid = pl.PARAM[cfg.pooling]
            if cfg.pooling == "cap":  # d x d map, near identity
                values = np.eye(d) + self._gen(pid).normal(0.0, 0.02, size=(d, d))
            else:
                values = self._gen(pid).normal(0.0, 1.0 / np.sqrt(d), size=d)
            self.params.add(pid, values)

        self._dense("fusion.price_lift", 1, d)
        self._dense("fusion.price_dense", d, d)
        if cfg.pooling != "none":
            self._dense("fusion.news_dense", d, d)
        for direction in self.directions:
            for letter in ("q", "k", "v"):
                self._add_matrix(f"fusion.{direction}.w{letter}", d, d)
        if "gcn" in self.active_terms:
            self._dense("fusion.gcn", d, d)
            for k in range(fu.CONV_TAPS):
                std = 1.0 / np.sqrt(d * fu.CONV_TAPS)
                self.params.add(f"fusion.conv.tap{k}", self._gen(f"fusion.conv.tap{k}").normal(0.0, std, size=(d, d)))
        self.params.add("fusion.blend.logits", np.zeros((1, len(fu.BLEND_TERMS))))

        v_rows, d_model = cfg.vocab_size, cfg.d_model
        self.params.add("reprog.vocab_proj.w",
                        self._gen("reprog.vocab_proj.w").normal(0.0, 1.0 / np.sqrt(v_rows), size=(v_rows, cfg.num_prototypes)))
        self._dense("reprog.patch_lift", cfg.patch_len * d, d_model)
        for letter in ("q", "k", "v"):
            self._add_matrix(f"reprog.attn.w{letter}", d_model, d_model)
        if cfg.snp:
            self._dense("reprog.prompt", d, d_model)
        self._dense("reprog.head", self.n_patches * d_model, cfg.horizon)

        if not cfg.vocab_file:
            vocab = self._gen("backbone.vocab", frozen=True).standard_normal((v_rows, d_model))
        else:
            vocab = load_news_day(cfg.vocab_file)[0]
            if vocab.shape != (v_rows, d_model):
                raise DataFormatError(f"{cfg.vocab_file}: vocabulary shape {vocab.shape} != ({v_rows}, {d_model})")
        self.params.add("backbone.vocab", vocab, frozen=True)

        for layer in range(cfg.n_layers):
            p = f"backbone.block{layer}"
            self.params.add(f"{p}.ln1.g", np.ones(d_model), frozen=True)
            self.params.add(f"{p}.ln1.b", np.zeros(d_model), frozen=True)
            for letter in ("q", "k", "v", "o"):
                self._add_matrix(f"{p}.attn.w{letter}", d_model, d_model, frozen=True)
                if letter != "k":
                    self._add_bias(f"{p}.attn.b{letter}", d_model, frozen=True)
            self.params.add(f"{p}.ln2.g", np.ones(d_model), frozen=True)
            self.params.add(f"{p}.ln2.b", np.zeros(d_model), frozen=True)
            self._add_matrix(f"{p}.ffn.w1", d_model, cfg.ffn_dim, frozen=True)
            self._add_bias(f"{p}.ffn.b1", cfg.ffn_dim, frozen=True)
            self._add_matrix(f"{p}.ffn.w2", cfg.ffn_dim, d_model, frozen=True)
            self._add_bias(f"{p}.ffn.b2", d_model, frozen=True)
        self.params.add("backbone.final_ln.g", np.ones(d_model), frozen=True)
        self.params.add("backbone.final_ln.b", np.zeros(d_model), frozen=True)

    # -- forward -------------------------------------------------------

    def _fuse(self, closes: np.ndarray, news_raw: Tensor | None, at) -> Tensor:
        """Blended (W, T, d) features of the windows whose rows at gathers from a (P, T) stack of
        closes and its (P, T, d) pooled news rows (None without pooling).

        Fusion's row-by-row layers run on the stack, the rest on the gathered windows.
        """
        p = self.params
        price_in = Tensor(closes.reshape(len(closes), -1, 1))
        # nested, so off a tape the lifted (P, T, d) rows are freed before the gathers, not held through them
        price_seq = linear(linear(price_in, p["fusion.price_lift.w"], p["fusion.price_lift.b"]),
                           p["fusion.price_dense.w"], p["fusion.price_dense.b"])
        rows = {"price": [price_seq]}
        if news_raw is not None:
            news_seq = linear(news_raw, p["fusion.news_dense.w"], p["fusion.news_dense.b"])
            rows["news"] = [news_seq]
            rows.update(fu.fuse_directions(news_seq, price_seq, p, self.directions))
            if "gcn" in self.active_terms:
                rows["gcn"] = fu.gcn_fuse(news_seq, price_seq, p, self.adjacency)
        return fu.blend(fu.gather_terms(rows, at), p["fusion.blend.logits"], self.active_terms)[0]

    def _predict(self, patches: Tensor, names: np.ndarray, keys: tuple[Tensor, Tensor] | None = None) -> Tensor:
        """(W, 1, H) predictions from the (W, n_p, patch_len * d) patches and (W, d) name embeddings.

        keys are the prototypes' (keys, values); by default they are built for these W windows.
        """
        cfg, p = self.cfg, self.params
        windows = patches.shape[0]
        if keys is None:
            keys = self._prototype_keys(windows)
        tokens = bb.reprogram(patches, keys, p, cfg.reprogram_heads)
        prompt = None
        if cfg.snp:
            prompt = linear(Tensor(names.reshape(windows, 1, -1)), p["reprog.prompt.w"], p["reprog.prompt.b"])
        return bb.forward_backbone(prompt, tokens, p, cfg.n_layers, cfg.n_heads)

    def _prototype_keys(self, windows: int) -> tuple[Tensor, Tensor]:
        p = self.params
        return bb.prototype_keys(bb.make_prototypes(p["backbone.vocab"], p["reprog.vocab_proj.w"], windows), p)

    def _slots(self, samples) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
        """(pairs, index): each distinct (day, stock) of the windows' day slots once, in order of
        first use, and the (W, T) pair of every slot. Days and name embeddings are recognised by identity."""
        days = [day for _, news, *_ in samples for day in news]
        stocks = [emb for _, news, emb, *_ in samples for _ in news]
        first, index = _first_use(*(np.fromiter(map(id, objs), np.int64, len(objs)) for objs in (days, stocks)))
        return [(days[i], stocks[i]) for i in first], index.reshape(len(samples), -1)

    def _pool_pairs(self, pairs, index) -> Tensor:
        """index.shape + (d,) rows of (day, name_emb) pairs, pair index[s] in slot s, from one kernel call."""
        cfg = self.cfg
        return pl.pool_slots(cfg.pooling, pairs, index, self.params[pl.PARAM[cfg.pooling]],
                             cfg.max_news_per_day, self.orders)[0]

    def _rows(self, samples) -> tuple[np.ndarray, np.ndarray, Tensor | None]:
        """(index, closes, news) of (prices, news, name_emb, ...) windows: the row of each (W, T) day
        slot, and each row's close and (d,) pooled news row (None without pooling), every distinct
        (day, stock) pooled by one kernel call.

        The one place that decides whether slots share rows. On a tape every
        slot is its own row: index is arange(W * T), and closes and news come
        laid out as the (W, T) slots, so each slot hands the pooling weight
        its own gradient, window by window, day by day. Off a tape a row is
        its (day, stock) pair and the bits of its close, equal rows are one,
        and closes and news list the rows.
        """
        t_len, pooled = self.cfg.t_window, self.cfg.pooling != "none"
        for prices, news, *_ in samples:
            if prices.shape[0] != t_len:
                raise ValueError(f"price window length {prices.shape[0]} != T={t_len}")
            if pooled and len(news) != t_len:
                raise ValueError(f"need {t_len} news slots, got {len(news)}")
        closes = np.stack([s[0] for s in samples]).astype(np.float64).reshape(len(samples), -1)
        pairs, slot_pair = self._slots(samples) if pooled else (None, None)
        if grad_enabled():
            first = index = np.arange(closes.size).reshape(closes.shape)
        else:
            keys = (closes, slot_pair) if pooled else (closes,)
            first, index = _first_use(*(key.reshape(-1).view(np.int64) for key in keys))
            index = index.reshape(closes.shape)
        news = self._pool_pairs(pairs, slot_pair.reshape(-1)[first]) if pooled else None
        return index, closes.reshape(-1)[first], news

    def _fuse_rows(self, index: np.ndarray, closes: np.ndarray, news: Tensor | None) -> Tensor:
        """Blended (W, T, d) features of the windows whose day slots hold rows index of _rows' rows.

        Rows laid out as the (W, T) slots, as _rows gives them on a tape, are
        the windows: they fuse as one stack and each window takes its own
        rows. Otherwise fusion's row-by-row layers run once on each row these
        windows use, laid out as (P, T) pseudo-windows, the last one padded
        with copies of its last row, so each product takes the path a
        window's takes; then the windows gather their rows.
        """
        if closes.shape == index.shape:
            return self._fuse(closes, news, lambda rows: rows)
        t_len = self.cfg.t_window
        used, local = np.unique(index, return_inverse=True)
        take = used[np.minimum(np.arange(-(-len(used) // t_len) * t_len), len(used) - 1)].reshape(-1, t_len)
        local = local.reshape(index.shape)  # each slot's row of the (P, T) stack, read as P * T rows
        return self._fuse(closes[take], None if news is None else Tensor(news.data[take]),
                          lambda rows: Tensor(np.take(rows.data.reshape(-1, rows.shape[-1]), local, axis=0)))

    def _forward(self, samples, rows=None, keys: tuple[Tensor, Tensor] | None = None, chunk: int = 0) -> Tensor:
        """(W, 1, H) predictions of (prices, news, name_emb, ...) windows, from _rows' (index, closes,
        news) of their day slots (the windows' own by default), fused and patchified chunk windows
        at a time (all at once by default, as a tape needs), against the prototypes' keys."""
        index, closes, news = rows or self._rows(samples)
        chunk = chunk or len(index)
        patches = [bb.patchify(self._fuse_rows(index[at : at + chunk], closes, news), self.cfg.patch_len,
                               self.cfg.patch_stride) for at in range(0, len(index), chunk)]
        if len(patches) > 1:  # off a tape only
            patches = [Tensor(np.concatenate([part.data for part in patches]))]
        return self._predict(patches[0], np.stack([np.reshape(s[2], -1) for s in samples]), keys)

    def fuse_sample(self, prices: np.ndarray, news: list[np.ndarray], name_emb: np.ndarray) -> Tensor:
        """Stock-aware features (1, T, d) for one window."""
        return self._fuse_rows(*self._rows([(prices, news, name_emb)]))

    def predict_sample(self, prices: np.ndarray, news: list[np.ndarray], name_emb: np.ndarray) -> Tensor:
        """(1, H) prediction of normalized closes: batch_loss's forward for one window."""
        return reshape(self._forward([(prices, news, name_emb)]), (1, self.cfg.horizon))

    def predict_many(self, samples) -> np.ndarray:
        """(N, H) predictions for (prices, news, name_emb, ...) tuples, without a tape.

        batch_loss's forward off a tape, so each row equals predict_sample's
        bit for bit: `_rows` pools each distinct (day, stock) of the call
        once, by one kernel call, and fusion runs its row-by-row layers once
        on each distinct (stock, day, close) row of each chunk of
        PREDICT_ROWS // T windows, patchified chunk by chunk. The
        reprogramming, the frozen stack and the head take up to
        PREDICT_ROWS // (n_p + snp) windows at a time, and no more than fit
        their n_p + snp rows of d_model floats each in a fusion chunk's
        PREDICT_ROWS rows of d, against one prototype set built once.
        """
        out = np.empty((len(samples), self.cfg.horizon))
        if not samples:
            return out
        d_model = self.cfg.d_model
        step = max(1, PREDICT_ROWS * min(self.dim, d_model) // (d_model * (self.n_patches + self.cfg.snp)))
        chunk = max(1, PREDICT_ROWS // self.cfg.t_window)
        with no_grad():
            index, closes, news = self._rows(samples)
            keys = self._prototype_keys(1)
            for lo in range(0, len(samples), step):
                out[lo : lo + step] = self._forward(samples[lo : lo + step], (index[lo : lo + step], closes, news),
                                                    keys, chunk).data[:, 0]
        return out

    def batch_loss(self, batch) -> Tensor:
        """MSE of (prices, news, name_emb, target) windows through one stacked forward.

        On a tape the loss and every gradient equal, bit for bit, those of
        the windows' predict_sample rows concatenated and taped one by one.
        """
        preds = self._forward(batch)
        targets = np.stack([np.asarray(t, dtype=np.float64).reshape(1, -1) for *_, t in batch])
        return mse_loss(preds, targets)

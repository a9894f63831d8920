"""The composed forecaster: pooling -> fusion -> reprogramming -> frozen stack -> head.

Only parameters the active configuration actually uses are registered, so
every trainable tensor is guaranteed a gradient from any generic batch.
The frozen set (vocabulary plus the surrogate blocks) is seeded once from
named substreams and never updated; a named `vocab_file` replaces the
seeded vocabulary, and the model reads it itself.

Training and inference run one forward (`_forward`): pool each distinct
(day, stock) of a call once, in one call of the stacked pooling kernel
(`_pool`), then fuse and predict a (W, T, d) stack of W windows (`_fuse`,
`_predict`), which reads W from the shape. A training step (`batch_loss`)
runs its whole batch through it on one tape, and its loss and gradients
equal those of the windows taped one at a time (`predict_sample`, W = 1)
bit for bit. Inference (`predict_many`) runs the same forward without a
tape, PREDICT_CHUNK windows at a time, and pools each (day, stock) of the
whole call once, with at most one kernel call per chunk; each of its rows
equals `predict_sample`'s bit for bit. A day's articles are sorted only the
first time the model sees that day matrix.
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
from .tensor import Tensor, add, linear, mean_all, mul, no_grad, reshape

PREDICT_CHUNK = 32  # windows per stacked forward in predict_many; bounds its memory


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

    def _check_window(self, prices: np.ndarray, news: list[np.ndarray]) -> None:
        t_window = self.cfg.t_window
        if prices.shape[0] != t_window:
            raise ValueError(f"price window length {prices.shape[0]} != T={t_window}")
        if self.cfg.pooling != "none" and len(news) != t_window:
            raise ValueError(f"need {t_window} news slots, got {len(news)}")

    def _fuse(self, prices: np.ndarray, news_raw: Tensor | None) -> Tensor:
        """Blended (W, T, d) features from (W, T) prices and (W, T, d) pooled news rows."""
        p = self.params
        price_in = Tensor(prices.reshape(len(prices), -1, 1))
        price_raw = linear(price_in, p["fusion.price_lift.w"], p["fusion.price_lift.b"])
        price_seq = linear(price_raw, p["fusion.price_dense.w"], p["fusion.price_dense.b"])

        terms: dict[str, Tensor] = {"price": price_seq}
        if news_raw is not None:
            news_seq = linear(news_raw, p["fusion.news_dense.w"], p["fusion.news_dense.b"])
            terms["news"] = news_seq
            if self.directions:
                terms.update(fu.fuse_directions(news_seq, price_seq, p, self.directions))
            if "gcn" in self.active_terms:
                terms["gcn"] = fu.gcn_fuse(news_seq, price_seq, p, self.adjacency)
        fused, _ = fu.blend(terms, p["fusion.blend.logits"], self.active_terms)
        return fused

    def _predict(self, fused: Tensor, names: np.ndarray) -> Tensor:
        """(W, 1, H) predictions from blended (W, T, d) features and (W, d) name embeddings."""
        cfg, p = self.cfg, self.params
        windows = fused.shape[0]
        patches = bb.patchify(fused, cfg.patch_len, cfg.patch_stride)
        prototypes = bb.make_prototypes(p["backbone.vocab"], p["reprog.vocab_proj.w"], windows)
        tokens = bb.reprogram(patches, prototypes, p, cfg.reprogram_heads)
        prompt = None
        if cfg.snp:
            prompt = linear(Tensor(names.reshape(windows, 1, -1)), p["reprog.prompt.w"], p["reprog.prompt.b"])
        return bb.forward_backbone(prompt, tokens, p, cfg.n_layers, cfg.n_heads)

    def _pool(self, samples, memo: dict | None = None) -> Tensor:
        """(W, T, d) pooled rows of the day slots of (prices, news, name_emb, ...) samples.

        Each distinct (day, stock) is pooled once, by one call of the stacked
        kernel; days and name embeddings are recognised by identity. Without
        memo the rows are the kernel's taped node. With one (inference), only
        pairs not yet in memo go to the kernel, and they are added to it.
        """
        cfg = self.cfg
        rows: dict[tuple[int, int], int] = {}  # (day, stock) -> its pair
        pairs, index = [], []
        for _, news, emb, *_ in samples:
            for day in news:
                key = (id(day), id(emb))
                if key not in rows:
                    rows[key] = len(pairs)
                    pairs.append((day, emb))
                index.append(rows[key])
        index = np.asarray(index, dtype=np.intp).reshape(len(samples), -1)
        args = (self.params[pl.PARAM[cfg.pooling]], cfg.max_news_per_day, self.orders)
        if memo is None:
            return pl.pool_slots(cfg.pooling, pairs, index, *args)[0]
        fresh = [key for key in rows if key not in memo]
        if fresh:
            pooled = pl.pool_slots(cfg.pooling, [pairs[rows[key]] for key in fresh], np.arange(len(fresh)), *args)[0]
            memo.update(zip(fresh, pooled.data))
        return Tensor(np.stack([memo[key] for key in rows])[index])

    def _fuse_windows(self, samples, memo: dict | None = None) -> Tensor:
        """Blended features of (prices, news, name_emb, ...) windows, stacked.

        Every day slot's pooled row hands the pooling weight its own
        gradient, window by window, day by day.
        """
        for prices, news, *_ in samples:
            self._check_window(prices, news)
        news_raw = self._pool(samples, memo) if self.cfg.pooling != "none" else None
        return self._fuse(np.stack([s[0] for s in samples]), news_raw)

    def _forward(self, samples, memo: dict | None = None) -> Tensor:
        """(W, 1, H) predictions of (prices, news, name_emb, ...) windows through one stacked forward."""
        names = np.stack([np.reshape(s[2], -1) for s in samples])
        return self._predict(self._fuse_windows(samples, memo), names)

    def fuse_sample(self, prices: np.ndarray, news: list[np.ndarray], name_emb: np.ndarray) -> Tensor:
        """Stock-aware features (1, T, d) for one window."""
        return self._fuse_windows([(prices, news, name_emb)])

    def predict_sample(self, prices: np.ndarray, news: list[np.ndarray], name_emb: np.ndarray) -> Tensor:
        """(1, H) prediction of normalized closes: batch_loss's forward for one window."""
        return reshape(self._forward([(prices, news, name_emb)]), (1, self.cfg.horizon))

    def predict_many(self, samples) -> np.ndarray:
        """(N, H) predictions for (prices, news, name_emb, ...) tuples, without a tape.

        Each row equals predict_sample's bit for bit. Days and name
        embeddings are recognised by identity, so samples resolved from one
        dataset share their pooling, across chunks too.
        """
        out = np.empty((len(samples), self.cfg.horizon))
        memo: dict = {}
        with no_grad():
            for lo in range(0, len(samples), PREDICT_CHUNK):
                chunk = samples[lo : lo + PREDICT_CHUNK]
                out[lo : lo + len(chunk)] = self._forward(chunk, memo).data[:, 0]
        return out

    def batch_loss(self, batch) -> Tensor:
        """MSE of (prices, news, name_emb, target) windows through one stacked forward.

        On a tape the loss and every gradient equal, bit for bit, those of
        the windows' predict_sample rows concatenated and taped one by one.
        """
        preds = self._forward(batch)
        targets = np.stack([np.asarray(t, dtype=np.float64).reshape(1, -1) for *_, t in batch])
        return mse_loss(preds, targets)

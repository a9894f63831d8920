"""The composed forecaster: pooling -> fusion -> reprogramming -> frozen stack -> head.

Only parameters the active configuration actually uses are registered, so
every trainable tensor is guaranteed a gradient from any generic batch.
The frozen set (vocabulary plus the surrogate blocks) is seeded once from
named substreams and never updated.

Pooling runs `pool_day` once for each distinct (day, stock) of a call
(`_pool`); after it, training and inference run one forward (`_fuse`,
`_predict`) over stacked windows. Training runs `predict_sample` on a
tape, one window at a time, through fused nodes that match the primitive
ops bit for bit. Inference runs `predict_many`: no tape, PREDICT_CHUNK
windows per forward, and each (day, stock) of the whole call pooled once.
Both sort a day's articles only the first time the model sees that day
matrix.
"""

from __future__ import annotations

import numpy as np

from . import backbone as bb
from . import fusion as fu
from . import pooling as pl
from .config import RunConfig
from .optim import ParamSet
from .rng import substream
from .tensor import Tensor, concat_rows, gather_rows, linear, mean_all, mul, no_grad, sub

PREDICT_CHUNK = 32  # windows per stacked forward in predict_many; bounds its memory


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"prediction shape {pred.shape} != target shape {target.shape}")
    diff = sub(pred, Tensor(target))
    return mean_all(mul(diff, diff))


class ForecastModel:
    def __init__(self, cfg: RunConfig, dim: int, vocab: np.ndarray | None = None):
        cfg.validate()
        if dim < 1:
            raise ValueError(f"embedding dim must be >= 1, got {dim}")
        self.cfg = cfg
        self.dim = dim
        self.n_patches = bb.num_patches(cfg.t_window, cfg.patch_len, cfg.patch_stride)
        self.active_terms = self._active_terms()
        self.directions = [t for t in self.active_terms if t in fu.DIRECTIONS]
        self.params = ParamSet()
        self.pos_table = pl.sinusoidal_table(cfg.max_news_per_day, dim) if cfg.pooling == "pasap" else None
        self.adjacency = fu.day_pair_adjacency(cfg.t_window)
        self.orders = pl.OrderMemo()
        self._register(vocab)

    def _active_terms(self) -> list[str]:
        cfg = self.cfg
        if cfg.pooling == "none":
            return ["price"]
        dropped = {"p2n": cfg.no_p2n, "n2p": cfg.no_n2p, "gcn": cfg.no_gcn}
        return [t for t in fu.BLEND_TERMS if not dropped.get(t, False)]

    # -- initialization ------------------------------------------------

    def _gen(self, name: str) -> np.random.Generator:
        return substream(self.cfg.seed, f"init/{name}")

    def _add_matrix(self, name: str, fan_in: int, fan_out: int, frozen: bool = False) -> None:
        stream = f"frozen/{name}" if frozen else f"init/{name}"
        values = substream(self.cfg.seed, stream).normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out))
        self.params.add(name, values, frozen=frozen)

    def _add_bias(self, name: str, size: int, frozen: bool = False) -> None:
        self.params.add(name, np.zeros(size), frozen=frozen)

    def _dense(self, name: str, fan_in: int, fan_out: int) -> None:
        self._add_matrix(f"{name}.w", fan_in, fan_out)
        self._add_bias(f"{name}.b", fan_out)

    def _register(self, vocab: np.ndarray | None) -> None:
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

        if vocab is None:
            vocab = substream(cfg.seed, "frozen/backbone.vocab").standard_normal((v_rows, d_model))
        else:
            vocab = np.asarray(vocab, dtype=np.float64)
            if vocab.shape != (v_rows, d_model):
                raise ValueError(f"vocabulary shape {vocab.shape} != ({v_rows}, {d_model})")
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

    def _fuse(self, prices: np.ndarray, news_raw: Tensor | None, windows: int) -> Tensor:
        """Blended features from stacked (windows*T,) prices and pooled news rows."""
        p = self.params
        price_raw = linear(Tensor(prices.reshape(-1, 1)), p["fusion.price_lift.w"], p["fusion.price_lift.b"])
        price_seq = linear(price_raw, p["fusion.price_dense.w"], p["fusion.price_dense.b"])

        terms: dict[str, Tensor] = {"price": price_seq}
        if news_raw is not None:
            news_seq = linear(news_raw, p["fusion.news_dense.w"], p["fusion.news_dense.b"])
            terms["news"] = news_seq
            if self.directions:
                terms.update(fu.fuse_directions(news_seq, price_seq, p, self.directions, windows))
            if "gcn" in self.active_terms:
                terms["gcn"] = fu.gcn_fuse(news_seq, price_seq, p, self.adjacency, windows)
        fused, _ = fu.blend(terms, p["fusion.blend.logits"], self.active_terms)
        return fused

    def _predict(self, fused: Tensor, names: np.ndarray, windows: int) -> Tensor:
        """(windows, H) predictions from blended features and (windows, d) name embeddings."""
        cfg, p = self.cfg, self.params
        patches = bb.patchify(fused, cfg.patch_len, cfg.patch_stride, windows)
        prototypes = bb.make_prototypes(p["backbone.vocab"], p["reprog.vocab_proj.w"])
        tokens = bb.reprogram(patches, prototypes, p, cfg.reprogram_heads)
        prompt = None
        if cfg.snp:
            prompt = linear(Tensor(names), p["reprog.prompt.w"], p["reprog.prompt.b"])
        return bb.forward_backbone(prompt, tokens, p, cfg.n_layers, cfg.n_heads, windows)

    def _pool(self, samples) -> tuple[Tensor, np.ndarray]:
        """Each distinct (day, stock) of (prices, news, name_emb, ...) samples pooled once.

        Returns the (U, d) pooled rows, in order of first use, and the row
        of every day slot. Days and name embeddings are recognised by identity.
        """
        cfg = self.cfg
        w = self.params[pl.PARAM[cfg.pooling]]
        rows: dict[tuple[int, int], int] = {}
        pooled, index = [], []
        for _, news, emb, *_ in samples:
            for day in news:
                key = (id(day), id(emb))
                if key not in rows:
                    rows[key] = len(pooled)
                    pooled.append(pl.pool_day(cfg.pooling, day, emb, w, self.pos_table, cfg.max_news_per_day,
                                              self.orders).pooled)
                index.append(rows[key])
        return concat_rows(pooled), np.asarray(index, dtype=np.intp)

    def fuse_sample(self, prices: np.ndarray, news: list[np.ndarray], name_emb: np.ndarray) -> Tensor:
        """Stock-aware features (T, d) for one window."""
        self._check_window(prices, news)
        news_raw = None
        if self.cfg.pooling != "none":
            pooled, index = self._pool([(prices, news, name_emb)])
            # distinct day arrays need no gather, so the training tape keeps its nodes
            news_raw = pooled if pooled.shape[0] == len(index) else gather_rows(pooled, index)
        return self._fuse(prices, news_raw, 1)

    def predict_sample(self, prices: np.ndarray, news: list[np.ndarray], name_emb: np.ndarray) -> Tensor:
        """(1, H) prediction of normalized closes."""
        fused = self.fuse_sample(prices, news, name_emb)
        return self._predict(fused, name_emb.reshape(1, -1), 1)

    def predict_many(self, samples) -> np.ndarray:
        """(N, H) predictions for (prices, news, name_emb, ...) tuples, without a tape.

        Matches predict_sample row for row up to summation order. Days and
        name embeddings are recognised by identity, so samples resolved
        from one dataset share their pooling.
        """
        out = np.empty((len(samples), self.cfg.horizon))
        if not samples:
            return out
        for prices, news, *_ in samples:
            self._check_window(prices, news)
        with no_grad():
            pooled = None
            if self.cfg.pooling != "none":
                pooled, index = self._pool(samples)
                index = index.reshape(len(samples), -1)
            for lo in range(0, len(samples), PREDICT_CHUNK):
                chunk = samples[lo : lo + PREDICT_CHUNK]
                hi = lo + len(chunk)
                prices = np.concatenate([s[0] for s in chunk])
                news_raw = None if pooled is None else gather_rows(pooled, index[lo:hi].reshape(-1))
                fused = self._fuse(prices, news_raw, len(chunk))
                names = np.stack([np.reshape(s[2], -1) for s in chunk])
                out[lo:hi] = self._predict(fused, names, len(chunk)).data
        return out

    def batch_predictions(self, batch) -> Tensor:
        """(B, H) stacked predictions for (prices, news, name_emb, target) tuples."""
        preds = [self.predict_sample(prices, news, emb) for prices, news, emb, _ in batch]
        return concat_rows(preds)

    def batch_loss(self, batch) -> Tensor:
        preds = self.batch_predictions(batch)
        targets = np.stack([np.asarray(t, dtype=np.float64).reshape(-1) for *_, t in batch])
        return mse_loss(preds, targets)

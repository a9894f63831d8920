"""Patch reprogramming onto a frozen surrogate transformer.

The fused day sequence is cut into flattened patches, lifted, and mapped
into the surrogate's embedding space by attending over learned prototypes
of a frozen vocabulary matrix. The surrogate itself is a small pre-LN
encoder whose weights are seeded once and never trained; only the
reprogramming side and the prediction head carry gradients.

Features, patches and tokens are (W, L, .) stacks of W windows, and each
window is processed on its own, by the same arithmetic on a tape and off
one. The prototypes' op (`repeat_windows`) gives every window its own copy
only on a tape; off one, all windows share one copy, with the same bits.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
    Tensor,
    add,
    attention,
    concat,
    cut,
    gather_rows,
    layer_norm,
    linear,
    matmul,
    relu,
    repeat_windows,
    reshape,
    transpose,
)


def num_patches(t_window: int, patch_len: int, stride: int) -> int:
    """Patches of patch_len <= t_window days every stride >= 1 days; RunConfig.validate refuses other widths."""
    return (t_window - patch_len) // stride + 1


def patchify(features: Tensor, patch_len: int, stride: int) -> Tensor:
    """Cut (W, T, d) features into (W, n_p, patch_len * d) flattened time-major patches of patch_len days."""
    windows, t_window, d = features.shape
    n_p = num_patches(t_window, patch_len, stride)
    index = (np.arange(n_p)[:, None] * stride + np.arange(patch_len)).reshape(-1)
    return reshape(gather_rows(features, index), (windows, n_p, patch_len * d))


def make_prototypes(vocab: Tensor, w_proj: Tensor, windows: int = 1) -> Tensor:
    """Project the V vocabulary rows down to U <= V prototypes along the vocab axis: (windows, U, d_model),
    one set per window, on a tape with a trainable w_proj; otherwise (1, U, d_model), one set for all windows."""
    return matmul(repeat_windows(transpose(w_proj), windows), vocab)


def prototype_keys(prototypes: Tensor, params) -> tuple[Tensor, Tensor]:
    """The keys and values the patches attend to: the prototypes through the reprogramming's wk and wv.

    Attention projections are plain matrices (a key bias is invisible to
    softmax and would be a dead parameter).
    """
    return matmul(prototypes, params["reprog.attn.wk"]), matmul(prototypes, params["reprog.attn.wv"])


def reprogram(patches: Tensor, keys: tuple[Tensor, Tensor], params, n_heads: int = 1) -> Tensor:
    """Lifted patches query the prototypes' (keys, values) from prototype_keys.

    With one prototype set per window, each window's patches attend to
    their own; with one set, each window's patches attend to it on their own.
    """
    lifted = linear(patches, params["reprog.patch_lift.w"], params["reprog.patch_lift.b"])
    return attention(matmul(lifted, params["reprog.attn.wq"]), *keys, n_heads)


def _attention_sublayer(x: Tensor, params, p: str, n_heads: int) -> Tensor:
    normed = layer_norm(x, params[f"{p}.ln1.g"], params[f"{p}.ln1.b"])
    q = linear(normed, params[f"{p}.attn.wq"], params[f"{p}.attn.bq"])
    k = matmul(normed, params[f"{p}.attn.wk"])
    v = linear(normed, params[f"{p}.attn.wv"], params[f"{p}.attn.bv"])
    return add(x, linear(attention(q, k, v, n_heads), params[f"{p}.attn.wo"], params[f"{p}.attn.bo"]))


def _ffn_sublayer(x: Tensor, params, p: str) -> Tensor:
    normed = layer_norm(x, params[f"{p}.ln2.g"], params[f"{p}.ln2.b"])
    hidden = relu(linear(normed, params[f"{p}.ffn.w1"], params[f"{p}.ffn.b1"]))
    return add(x, linear(hidden, params[f"{p}.ffn.w2"], params[f"{p}.ffn.b2"]))


def backbone_forward(tokens: Tensor, params, n_layers: int, n_heads: int) -> Tensor:
    """Frozen pre-LN encoder stack with a final layer norm. Each sublayer is a function of its own, so
    off a tape its intermediates are freed when it returns."""
    x = tokens
    for layer in range(n_layers):
        p = f"backbone.block{layer}"
        x = _ffn_sublayer(_attention_sublayer(x, params, p, n_heads), params, p)
    return layer_norm(x, params["backbone.final_ln.g"], params["backbone.final_ln.b"])


def forward_backbone(prompt_token: Tensor | None, patch_tokens: Tensor, params, n_layers: int, n_heads: int) -> Tensor:
    """Run the frozen stack and read the (W, 1, H) predictions off the (W, n_p, d_model) patch tokens only.

    A (W, 1, d_model) prompt gives every window one prompt row, which leads
    its window's sequence.
    """
    windows, n_p, d_model = patch_tokens.shape
    if prompt_token is None:
        patch_hidden = backbone_forward(patch_tokens, params, n_layers, n_heads)
    else:
        hidden = backbone_forward(concat([prompt_token, patch_tokens], -2), params, n_layers, n_heads)
        patch_hidden = cut(hidden, 1, 1 + n_p, -2)
    flat = reshape(patch_hidden, (windows, 1, n_p * d_model))
    return linear(flat, params["reprog.head.w"], params["reprog.head.b"])

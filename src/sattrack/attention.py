"""Cross-frame attention between search and template feature maps.

Every search-region location attends over all template locations: queries come
from the search features, keys and values from the template, and the attended
template content is added back onto the search features through a learnable
residual gate.  Feature maps are plain float arrays of shape (C, H, W).

The softmax is taken over a template-major (Nt, Ns) score matrix, so its
max, sum and divide reduce along the contiguous leading axis; its
transpose is the row-stochastic (Ns, Nt) attention matrix.

The module also hosts the depthwise sliding-window correlation used to turn a
matched template/search pair into a response map, and the saliency readout
that sums the attention of a rectangle of search cells to show which
template locations that region relied on.  The correlation is one batched
matrix product per template row: the rows of the search map that the
template row meets, times the (C, Ws, ow) banded Toeplitz matrix of that
template row.  The Toeplitz matrices are read-only strided views of one
zero-padded (C, Ht, Ws + ow - 1) copy of the template, so the extra memory
is O(C * Ht * (Ws + ow)) plus the output; no C * oh * ow * Ht * Wt window
copy is ever formed.

On head-sized maps (an 8x29x29 search map, a 5x5 template) the cost of a
call is numpy call overhead more than arithmetic, so each call makes as
few array calls as it can and stays exact:

* The Toeplitz matrices are one read-only ``np.ndarray`` view built
  straight from the padded copy's strides (the last axis runs backwards
  from offset ``ow - 1``), not ``sliding_window_view`` and a reversal,
  whose Python wrappers cost more than one of the ``Ht`` products.
* A feature map is proved finite by ``motion._all_finite``: one dot
  product with a cached ones vector, as PSR does.  A finite total proves
  every cell finite, and only a total that is not (a non-finite cell, or
  finite cells that overflow) pays for the cell-by-cell scan.
  ``np.vdot`` never warns, where a ``sum`` would on an overflowing total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .motion import _all_finite


def _check_feature_map(f: np.ndarray, name: str) -> np.ndarray:
    """``f`` as a float (C, H, W) map, checked finite by
    :func:`~sattrack.motion._all_finite`."""
    f = np.asarray(f, dtype=float)
    if f.ndim != 3 or min(f.shape) < 1:
        raise ValueError(f"{name} must have shape (C, H, W), got {f.shape}")
    if not _all_finite(f):
        raise ValueError(f"{name} must be finite")
    return f


@dataclass(frozen=True)
class ProjectionWeights:
    """Learnable state of one attention block.

    w_q, w_k project channel vectors to a C/r-dimensional embedding space,
    w_v is a full C x C projection, and ``gamma`` gates the residual sum.
    Biases may be None, meaning zero.
    """

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    gamma: float = 0.0
    b_q: np.ndarray | None = None
    b_k: np.ndarray | None = None
    b_v: np.ndarray | None = None

    def __post_init__(self):
        if self.w_v.ndim != 2 or self.w_v.shape[0] != self.w_v.shape[1]:
            raise ValueError(f"w_v must be square (C, C), got {self.w_v.shape}")
        channels = self.w_v.shape[0]
        if self.w_q.shape != self.w_k.shape or self.w_q.ndim != 2:
            raise ValueError("w_q and w_k must share a (C/r, C) shape")
        reduced, full = self.w_q.shape
        if full != channels or reduced < 1 or channels % reduced != 0:
            raise ValueError(
                f"w_q shape {self.w_q.shape} incompatible with {channels} channels"
            )
        if not math.isfinite(self.gamma):
            raise ValueError("gamma must be finite")
        for name, bias, dim in (
            ("b_q", self.b_q, reduced),
            ("b_k", self.b_k, reduced),
            ("b_v", self.b_v, channels),
        ):
            if bias is not None and bias.shape != (dim,):
                raise ValueError(f"{name} must have shape ({dim},), got {bias.shape}")

    @property
    def channels(self) -> int:
        return self.w_v.shape[0]


def init_projection_weights(
    channels: int,
    reduction: int = 4,
    *,
    seed: int = 0,
    gamma: float = 0.0,
) -> ProjectionWeights:
    """Seeded uniform initialization in [-1/sqrt(C), 1/sqrt(C)].

    The residual gate starts at 0 by default, so a freshly initialized block
    is an identity mapping on the search features.
    """
    if channels < 1 or reduction < 1 or channels % reduction != 0:
        raise ValueError(
            f"channels must be a positive multiple of reduction, "
            f"got C={channels}, r={reduction}"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    bound = 1.0 / math.sqrt(channels)
    reduced = channels // reduction

    def draw(*shape):
        return rng.uniform(-bound, bound, size=shape)

    return ProjectionWeights(
        w_q=draw(reduced, channels),
        w_k=draw(reduced, channels),
        w_v=draw(channels, channels),
        gamma=gamma,
    )


def _flatten(f: np.ndarray) -> np.ndarray:
    """(C, H, W) -> (C, H*W), locations in row-major order."""
    return f.reshape(f.shape[0], -1)


def project_qkv(
    search: np.ndarray, template: np.ndarray, weights: ProjectionWeights
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project flattened features: Q (C/r, Ns) from the search map, K (C/r, Nt)
    and V (C, Nt) from the template map."""
    search = _check_feature_map(search, "search")
    template = _check_feature_map(template, "template")
    if search.shape[0] != weights.channels or template.shape[0] != weights.channels:
        raise ValueError(
            f"feature maps must have {weights.channels} channels, "
            f"got {search.shape[0]} and {template.shape[0]}"
        )
    q = weights.w_q @ _flatten(search)
    k = weights.w_k @ _flatten(template)
    v = weights.w_v @ _flatten(template)
    if weights.b_q is not None:
        q += weights.b_q[:, None]
    if weights.b_k is not None:
        k += weights.b_k[:, None]
    if weights.b_v is not None:
        v += weights.b_v[:, None]
    return q, k, v


def _template_softmax(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Column-stochastic (Nt, Ns) matrix: scores k.T @ q, softmax over the
    template axis, computed in place.

    Scores are shifted by their column maximum before exponentiation; the
    shift cancels in the ratio, so overflow is avoided without changing the
    result.
    """
    if q.ndim != 2 or k.ndim != 2 or q.shape[0] != k.shape[0]:
        raise ValueError(
            f"q and k must be (d, Ns) and (d, Nt) with matching d, "
            f"got {q.shape} and {k.shape}"
        )
    probs = k.T @ q
    probs -= probs.max(axis=0)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=0)
    return probs


def _attend(
    search: np.ndarray, template: np.ndarray, weights: ProjectionWeights
) -> tuple[np.ndarray, np.ndarray]:
    """The attention block: the enhanced search features and the
    template-major (Nt, Ns) attention they were mixed with.

    The features are ``search + gamma * (v @ attention)`` in the search
    layout; with gamma == 0 they are a copy of ``search``, bit for bit, as
    adding ``0.0 * mixed`` would turn every -0.0 into +0.0.
    """
    q, k, v = project_qkv(search, template, weights)
    search = np.asarray(search, dtype=float)
    probs = _template_softmax(q, k)
    if weights.gamma == 0.0:
        return search.copy(), probs
    return search + weights.gamma * (v @ probs).reshape(search.shape), probs


def enhance_features(
    search: np.ndarray, template: np.ndarray, weights: ProjectionWeights
) -> np.ndarray:
    """Residually mix attended template content into the search features.

    Returns search + gamma * aggregated, reshaped to the search layout.  With
    gamma == 0 the input is returned unchanged (bit for bit).
    """
    return _attend(search, template, weights)[0]


def _window(window, grid: tuple[int, int]) -> tuple[int, int, int, int]:
    """``window`` as ``(top, left, height, width)`` search cells, the whole
    ``grid`` when None; a window that leaves the grid is a ValueError."""
    top, left, height, width = (0, 0, *grid) if window is None else window
    if not (0 <= top <= top + height <= grid[0] and 0 <= left <= left + width <= grid[1]):
        raise ValueError(f"outside search grid {grid}")
    return top, left, height, width


def template_saliency(attention: np.ndarray, window=None) -> np.ndarray:
    """Total attention each template location receives from a rectangle of
    search cells.

    ``attention`` is the template-major attention over the search grid,
    shape (Nt, H, W), as ``_attend``'s (Nt, Ns) matrix reshapes to.
    ``window`` is read by :func:`_window` against the (H, W) grid.  The
    window's rows are copied to one C-contiguous (n, Nt) block and summed
    along its first axis, which adds the search cells in row-major order
    (a sum over a strided view would round differently).
    """
    if attention.ndim != 3:
        raise ValueError(f"attention must have shape (Nt, H, W), got {attention.shape}")
    top, left, height, width = _window(window, attention.shape[1:])
    block = attention[:, top:top + height, left:left + width]
    return np.moveaxis(block, 0, -1).copy().reshape(-1, len(attention)).sum(axis=0)


def xcorr_depthwise(template: np.ndarray, search: np.ndarray) -> np.ndarray:
    """Per-channel valid-mode cross correlation of a template over a search map.

    Each channel of the template slides over the same channel of the search
    map (no kernel flip); output shape is (C, Hs-Ht+1, Ws-Wt+1).
    """
    template = _check_feature_map(template, "template")
    search = _check_feature_map(search, "search")
    if template.shape[0] != search.shape[0]:
        raise ValueError(
            f"channel mismatch: template {template.shape[0]} vs search {search.shape[0]}"
        )
    if template.shape[1] > search.shape[1] or template.shape[2] > search.shape[2]:
        raise ValueError(
            f"template {template.shape[1:]} larger than search {search.shape[1:]}"
        )
    channels, rows, cols = template.shape
    out_h = search.shape[1] - rows + 1
    out_w = search.shape[2] - cols + 1
    # toeplitz[c, i, s, x] = template[c, i, s - x] for 0 <= s - x < cols, else 0
    padded = np.zeros((channels, rows, search.shape[2] + out_w - 1))
    padded[:, :, out_w - 1:out_w - 1 + cols] = template
    # that is padded[c, i, s + out_w - 1 - x]: one view, its last axis backwards
    s0, s1, s2 = padded.strides
    toeplitz = np.ndarray(
        (channels, rows, search.shape[2], out_w), buffer=padded,
        offset=(out_w - 1) * s2, strides=(s0, s1, s2, -s2),
    )
    toeplitz.flags.writeable = False
    out = search[:, :out_h] @ toeplitz[:, 0]
    for i in range(1, rows):
        out += search[:, i:i + out_h] @ toeplitz[:, i]
    return out

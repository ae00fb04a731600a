"""The model-side training step, pinned bit for bit.

One step is the head path of a training frame: cross-frame attention, the
depthwise correlation of the template over the enhanced search features and
its channel sum (the response), the constrained label maps of the target
box, then the classification and centerness losses on the sigmoid of the
z-scored response and of its first channel, and the regression loss of
grid-point boxes of the target's size against the target.  The digests
below are a blake2b of the response bytes and the losses' ``repr`` on a few
seeded frames; a change that keeps every head kernel's arithmetic keeps
them, and any other change to a kernel's rounding shows here.
"""

import hashlib

import numpy as np
import pytest

from sattrack import (
    AspectRatioParams,
    BoundingBox,
    GridGeometry,
    build_label_maps,
    centerness_loss,
    cls_loss,
    enhance_features,
    init_projection_weights,
    regression_loss,
    xcorr_depthwise,
)

CHANNELS = 8
SEARCH = 29
TEMPLATE = 5
STRIDE = 8
GATE = 0.1
GRID = GridGeometry(stride=STRIDE, height=SEARCH - TEMPLATE + 1, width=SEARCH - TEMPLATE + 1)
ASPECT = AspectRatioParams()

# blake2b (16 bytes) of response.tobytes() + repr((cls, cen, reg)) per seed
PINNED = {
    0: "6ff0d41b07f686fdb15edc86d8fc2bc3",
    1: "704954d5fdb1db0bae6fd97dddcc98ad",
    2: "0b1d60fe53a070a3f3a69c3d97e329ee",
    3: "d030563fe53b3ba4b636d9e140d51443",
    4: "7e5d1ed94bf80b6ca80dabfc7ee64304",
    5: "e3c231245bdfaa8bca5498456c8501c0",
}


def head_frame(seed):
    """A search map, a noisy template cut from it and the target box at the
    cut, as a training frame pairs them."""
    rng = np.random.default_rng(seed)
    out_size = SEARCH - TEMPLATE + 1
    search = rng.standard_normal((CHANNELS, SEARCH, SEARCH))
    i, j = (int(v) for v in rng.integers(4, out_size - 4, 2))
    template = search[:, i:i + TEMPLATE, j:j + TEMPLATE].copy()
    template += rng.normal(0.0, 0.1, template.shape)
    offset_x, offset_y = rng.uniform(-3.0, 3.0, 2)
    width, height = rng.uniform(10.0, 48.0, 2)
    center = STRIDE // 2
    box = BoundingBox(
        float(center + j * STRIDE + offset_x),
        float(center + i * STRIDE + offset_y),
        float(width),
        float(height),
    )
    return search, template, box


def sigmoid_of_zscore(values):
    z = (values - values.mean()) / (values.std() + 1e-12)
    return 1.0 / (1.0 + np.exp(-z))


def head_step(search, template, box, weights):
    """The response map and the three losses of one training frame."""
    enhanced = enhance_features(search, template, weights)
    correlation = xcorr_depthwise(template, enhanced)
    response = correlation.sum(axis=0)
    maps = build_label_maps(box, GRID, ASPECT)
    cls = cls_loss(sigmoid_of_zscore(response), maps.centerness)
    cen = centerness_loss(sigmoid_of_zscore(correlation[0]), maps.centerness)
    point_x, point_y = np.meshgrid(GRID.point_xs(), GRID.point_ys())
    positive = maps.labels.astype(bool)
    count = int(positive.sum())
    predicted = np.column_stack([
        point_x[positive], point_y[positive],
        np.full(count, box.w), np.full(count, box.h),
    ])
    truth = np.tile([box.cx, box.cy, box.w, box.h], (count, 1))
    reg = regression_loss(predicted, truth, maps.centerness[positive])
    return response, (cls, cen, reg)


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_head_step_is_pinned_bit_for_bit(seed):
    weights = init_projection_weights(CHANNELS, 4, seed=seed, gamma=GATE)
    response, losses = head_step(*head_frame(seed), weights)
    assert response.shape == (GRID.height, GRID.width)
    assert all(0.0 < loss < 10.0 for loss in losses)
    digest = hashlib.blake2b(response.tobytes() + repr(losses).encode(), digest_size=16)
    assert digest.hexdigest() == PINNED[seed]

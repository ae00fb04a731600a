"""One-pass-evaluation metric tests against a frame-by-frame reference scorer."""

import contextlib
import math
import re
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sattrack import BoundingBox, aggregate_results
from sattrack import metrics
from sattrack.boxes import box_rows, overlap_areas
from sattrack.metrics import (
    NORM_PRECISION_THRESHOLDS,
    PRECISION_THRESHOLDS,
    SUCCESS_THRESHOLDS,
    center_errors,
    evaluate_rows,
    normalized_center_errors,
    overlap_ratios,
)

def cle(pred: BoundingBox, gt: BoundingBox) -> float:
    """Center location error of one box pair: the row kernel on one row."""
    return float(center_errors(box_rows([pred]), box_rows([gt]))[0])


def normalized_cle(pred: BoundingBox, gt: BoundingBox) -> float:
    """Size-normalized center error of one box pair, on one row."""
    return float(normalized_center_errors(box_rows([pred]), box_rows([gt]))[0])


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of one box pair, on one row."""
    return float(overlap_ratios(box_rows([a]), box_rows([b]))[0])


# Boxes whose sides stay far above the float spacing at their coordinates.
boxes = st.builds(
    BoundingBox,
    st.floats(-1e4, 1e4),
    st.floats(-1e4, 1e4),
    st.floats(1e-2, 1e3),
    st.floats(1e-2, 1e3),
)
# The same boxes with no subnormal centre.
normal_boxes = st.builds(
    BoundingBox,
    st.floats(-1e4, 1e4, allow_subnormal=False),
    st.floats(-1e4, 1e4, allow_subnormal=False),
    st.floats(1e-2, 1e3),
    st.floats(1e-2, 1e3),
)


def brute_force_errors(pred, gt):
    """Per-frame center errors, normalized center errors and IoUs, computed
    with scalar arithmetic (areas as w * h)."""
    distances, normalized, overlaps = [], [], []
    for p, g in zip(pred, gt):
        dx, dy = p.cx - g.cx, p.cy - g.cy
        distances.append(math.hypot(dx, dy))
        normalized.append(math.hypot(dx / g.w, dy / g.h))
        ax0, ay0 = p.cx - p.w / 2, p.cy - p.h / 2
        bx0, by0 = g.cx - g.w / 2, g.cy - g.h / 2
        overlap_w = max(0.0, min(ax0 + p.w, bx0 + g.w) - max(ax0, bx0))
        overlap_h = max(0.0, min(ay0 + p.h, by0 + g.h) - max(ay0, by0))
        inter = overlap_w * overlap_h
        union = p.w * p.h + g.w * g.h - inter
        overlaps.append(inter / union)
    return distances, normalized, overlaps


def brute_force_evaluate(pred, gt):
    """Frame-by-frame OPE scorer written with plain loops.

    Independent of the library path: computes distances and overlaps per
    frame with scalar arithmetic, then counts frames per threshold.
    """
    n = len(pred)
    distances, normalized, overlaps = brute_force_errors(pred, gt)
    precision = [sum(d <= tau for d in distances) / n for tau in range(51)]
    norm_precision = [
        sum(d <= tau / 100 for d in normalized) / n for tau in range(51)
    ]
    success = [sum(o > tau / 20 for o in overlaps) / n for tau in range(21)]
    return precision, norm_precision, success


def comparison_curves(cles, norm_cles, ious):
    """The three curves as the mean of each threshold-by-frame comparison:
    the oracle for evaluate_rows' counts over sorted errors."""
    return (
        (cles[None, :] <= PRECISION_THRESHOLDS[:, None]).mean(axis=1),
        (norm_cles[None, :] <= NORM_PRECISION_THRESHOLDS[:, None]).mean(axis=1),
        (ious[None, :] > SUCCESS_THRESHOLDS[:, None]).mean(axis=1),
    )


def assert_curves_are_the_oracle(result, errors):
    """result's curves and scalars are those of comparison_curves(*errors), bitwise."""
    precision, norm_precision, success = comparison_curves(*errors)
    assert result.precision.tobytes() == precision.tobytes()
    assert result.norm_precision.tobytes() == norm_precision.tobytes()
    assert result.success.tobytes() == success.tobytes()
    scalars = (result.p5, result.p20, result.np05, result.success_auc)
    assert scalars == (precision[5], precision[20], norm_precision[50], success.mean())


# Every threshold and its neighbours one ulp either side, signed zeros,
# subnormals, the smallest normal and infinity, then any other float.
_EDGES = sorted({
    value
    for tau in {*PRECISION_THRESHOLDS, *NORM_PRECISION_THRESHOLDS, *SUCCESS_THRESHOLDS}
    for value in (np.nextafter(tau, -np.inf), tau, np.nextafter(tau, np.inf))
} | {-0.0, 0.0, 5e-324, 1e-310, 2.2250738585072014e-308, np.inf})
error_values = st.one_of(st.sampled_from(_EDGES), st.floats(allow_nan=False))
# Fields of finite rows at the extremes: overflowing sums and spans,
# subnormal sizes that vanish beside their centre.
extreme_fields = st.one_of(
    st.sampled_from([1.7e308, -1.7e308, 1.7976931348623157e308, -1.7976931348623157e308,
                     0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.0, -1.0, 8.98846567431158e307]),
    st.floats(allow_nan=False, allow_infinity=False),
)
extreme_sizes = st.one_of(
    st.sampled_from([1.7e308, 1.7976931348623157e308, 5e-324, 1e-310, 1.0]),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
extreme_rows = st.lists(
    st.tuples(extreme_fields, extreme_fields, extreme_sizes, extreme_sizes),
    min_size=1, max_size=12,
)


def random_trajectories(rng, frames):
    gt, pred = [], []
    for _ in range(frames):
        cx, cy = rng.uniform(20, 200, size=2)
        w, h = rng.uniform(4, 40, size=2)
        gt.append(BoundingBox(cx, cy, w, h))
        pred.append(
            BoundingBox(
                cx + rng.normal(scale=8.0),
                cy + rng.normal(scale=8.0),
                max(1.0, w + rng.normal(scale=3.0)),
                max(1.0, h + rng.normal(scale=3.0)),
            )
        )
    return pred, gt


class TestPointMetrics:
    def test_cle_identical(self):
        box = BoundingBox(10.0, 10.0, 4.0, 4.0)
        assert cle(box, box) == 0.0

    def test_cle_three_four_five(self):
        a = BoundingBox(13.0, 14.0, 4.0, 4.0)
        b = BoundingBox(10.0, 10.0, 4.0, 4.0)
        assert cle(a, b) == 5.0

    def test_normalized_cle(self):
        gt = BoundingBox(50.0, 50.0, 20.0, 10.0)
        assert normalized_cle(gt, gt) == 0.0
        assert normalized_cle(BoundingBox(60.0, 50.0, 20.0, 10.0), gt) == pytest.approx(0.5)
        off = BoundingBox(70.0, 60.0, 20.0, 10.0)
        assert normalized_cle(off, gt) == pytest.approx(math.sqrt(2))

    def test_iou_identical_and_disjoint(self):
        a = BoundingBox(10.0, 10.0, 8.0, 8.0)
        assert iou(a, a) == 1.0
        assert iou(a, BoundingBox(100.0, 100.0, 8.0, 8.0)) == 0.0

    def test_iou_half_offset(self):
        a = BoundingBox(10.0, 10.0, 10.0, 10.0)
        b = BoundingBox(15.0, 10.0, 10.0, 10.0)
        assert iou(a, b) == pytest.approx(1 / 3)

    def test_iou_symmetric(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            a = BoundingBox(*rng.uniform(10, 50, 2), *rng.uniform(2, 30, 2))
            b = BoundingBox(*rng.uniform(10, 50, 2), *rng.uniform(2, 30, 2))
            assert iou(a, b) == pytest.approx(iou(b, a), abs=1e-15)
            assert 0.0 <= iou(a, b) <= 1.0


class TestKernelProperties:
    @settings(max_examples=300, deadline=None)
    @given(box=boxes)
    def test_self_iou_is_exactly_one(self, box):
        assert iou(box, box) == 1.0

    @settings(max_examples=300, deadline=None)
    @given(a=boxes, b=boxes)
    def test_iou_bounded_and_symmetric(self, a, b):
        assert 0.0 <= iou(a, b) <= 1.0
        assert iou(a, b) == iou(b, a)

    @settings(max_examples=100, deadline=None)
    @given(gt=st.lists(boxes, min_size=1, max_size=20))
    def test_perfect_trajectory_scores_twenty_of_twenty_one(self, gt):
        result = evaluate_rows(box_rows(gt), box_rows(gt))
        assert result.success[20] == 0.0
        assert np.array_equal(result.success[:20], np.ones(20))
        assert result.success_auc == 20 / 21

    @settings(max_examples=100, deadline=None)
    @given(pairs=st.lists(st.tuples(boxes, boxes), min_size=1, max_size=20))
    def test_array_kernels_match_brute_force(self, pairs):
        pred, gt = [p for p, _ in pairs], [g for _, g in pairs]
        pred_rows, gt_rows = box_rows(pred), box_rows(gt)
        distances, normalized, overlaps = brute_force_errors(pred, gt)
        np.testing.assert_allclose(center_errors(pred_rows, gt_rows), distances, rtol=1e-12)
        np.testing.assert_allclose(
            normalized_center_errors(pred_rows, gt_rows), normalized, rtol=1e-12
        )
        np.testing.assert_allclose(
            overlap_ratios(pred_rows, gt_rows), overlaps, rtol=1e-9, atol=1e-12
        )
        for k, (p, g) in enumerate(pairs):
            assert cle(p, g) == center_errors(pred_rows, gt_rows)[k]
            assert iou(p, g) == overlap_ratios(pred_rows, gt_rows)[k]

    def test_unrepresentable_width_scores_zero(self):
        # at 1e17 the float spacing is 16, so both corners round to the center
        box = BoundingBox(1e17, 0.0, 1.0, 1.0)
        assert iou(box, box) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(pred=extreme_rows, gt=extreme_rows)
    def test_finite_union_gives_the_plain_quotient(self, pred, gt):
        n = min(len(pred), len(gt))
        pred, gt = np.array(pred[:n]), np.array(gt[:n])
        intersection, union = overlap_areas(pred, gt)
        ratios = overlap_ratios(pred, gt)
        for k in np.flatnonzero(np.isfinite(union)).tolist():
            expected = intersection[k] / union[k] if union[k] > 0 else 0.0
            assert ratios[k].tobytes() == np.float64(expected).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(a=normal_boxes, b=normal_boxes, data=st.data())
    def test_overflowing_union_scales_back_bit_for_bit(self, a, b, data):
        # a pair scaled by 2**k until its union overflows scores what the
        # pair itself scores; no field is subnormal before or after
        pred, gt = box_rows([a]), box_rows([b])
        union = overlap_areas(pred, gt)[1][0]
        largest = max(np.abs(pred).max(), np.abs(gt).max())
        low = math.ceil((1024 - math.log2(union)) / 2) + 1
        k = data.draw(st.integers(low, 1020 - math.ceil(math.log2(largest))))
        big_pred, big_gt = np.ldexp(pred, k), np.ldexp(gt, k)
        assert np.isfinite(big_pred).all() and np.isfinite(big_gt).all()
        assert not np.isfinite(overlap_areas(big_pred, big_gt)[1][0])
        scaled = overlap_ratios(big_pred, big_gt)
        assert scaled.tobytes() == overlap_ratios(pred, gt).tobytes()

    def test_exact_box_beyond_float_range_scores_one(self):
        # the areas overflow to inf, and so the unions to nan
        rows = np.array([[0.0, 0.0, 1e200, 1e200], [1e308, -1e308, 1.7e308, 1.7e308]])
        assert np.isnan(overlap_areas(rows, rows)[1]).all()
        assert overlap_ratios(rows, rows).tolist() == [1.0, 1.0]
        shifted = rows + [[0.25e200, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]
        assert overlap_ratios(rows[:1], shifted[:1])[0] == pytest.approx(0.6, rel=1e-15)


def numpy_min(x: float, y: float) -> float:
    """``np.minimum`` on two floats: nan if either is, else ``y`` on a tie,
    so ``numpy_min(0.0, -0.0)`` is ``-0.0``."""
    return x if x != x or x < y else y


def numpy_max(x: float, y: float) -> float:
    """``np.maximum`` on two floats: nan if either is, else ``y`` on a tie."""
    return x if x != x or x > y else y


def overlap_areas_oracle(a, b) -> tuple[list[float], list[float]]:
    """overlap_areas one row at a time in Python floats, every operation in
    the kernel's order: corners as centre -+ half size, the overlap clipped
    at 0 as ``np.clip`` does, the union from corner differences."""
    intersections, unions = [], []
    for (acx, acy, aw, ah), (bcx, bcy, bw, bh) in zip(a.tolist(), b.tolist()):
        a_lo, a_hi = (acx - aw / 2.0, acy - ah / 2.0), (acx + aw / 2.0, acy + ah / 2.0)
        b_lo, b_hi = (bcx - bw / 2.0, bcy - bh / 2.0), (bcx + bw / 2.0, bcy + bh / 2.0)
        overlap = [numpy_max(numpy_min(a_hi[k], b_hi[k]) - numpy_max(a_lo[k], b_lo[k]), 0.0)
                   for k in range(2)]
        intersection = overlap[0] * overlap[1]
        a_sides = [a_hi[k] - a_lo[k] for k in range(2)]
        b_sides = [b_hi[k] - b_lo[k] for k in range(2)]
        intersections.append(intersection)
        unions.append(a_sides[0] * a_sides[1] + b_sides[0] * b_sides[1] - intersection)
    return intersections, unions


def assert_oracle_bits(got: np.ndarray, expected: list[float]):
    """``got`` is ``expected`` bit for bit, signed zeros included; a nan
    need only be nan, since IEEE 754 fixes no sign or payload for it."""
    assert got.dtype == np.float64 and got.shape == (len(expected),)
    for value, want in zip(got.tolist(), expected):
        if math.isnan(want):
            assert math.isnan(value)
        else:
            assert struct.pack("<d", value) == struct.pack("<d", want)


def assert_overlap_matches_oracle(a: np.ndarray, b: np.ndarray):
    intersection, union = overlap_areas(a, b)
    oracle = overlap_areas_oracle(a, b)
    assert_oracle_bits(intersection, oracle[0])
    assert_oracle_bits(union, oracle[1])
    assert intersection.flags.writeable and union.flags.writeable  # overlap_ratios writes


# Any field: every float, with the edges a box kernel meets drawn often.
overlap_fields = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.5, 1e200, -1e200, 5e-324, 1.7976931348623157e308,
                     math.inf, -math.inf, math.nan]),
)
overlap_rows = st.tuples(*[overlap_fields] * 4)


class TestOverlapAreas:
    """overlap_areas against a per-row Python-float oracle, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(st.tuples(overlap_rows, overlap_rows), max_size=14),
           same=st.booleans())
    def test_any_rows_match_the_oracle(self, pairs, same):
        a = np.array([p for p, _ in pairs], dtype=float).reshape(-1, 4)
        b = a.copy() if same else np.array([q for _, q in pairs], dtype=float).reshape(-1, 4)
        assert_overlap_matches_oracle(a, b)
        # a strided view reads as its values
        assert_overlap_matches_oracle(a[::-1], b[::-1])

    @pytest.mark.parametrize("a, b", [
        pytest.param(np.empty((0, 4)), np.empty((0, 4)), id="no-rows"),
        pytest.param([[10.0, 20.0, 4.0, 6.0]], [[10.0, 20.0, 4.0, 6.0]], id="equal"),
        # touching on one edge, then on a corner: a zero overlap, of either sign
        pytest.param([[0.0, 0.0, 2.0, 2.0]], [[2.0, 0.0, 2.0, 2.0]], id="touching-edge"),
        pytest.param([[0.0, 0.0, 2.0, 2.0]], [[2.0, 2.0, 2.0, 2.0]], id="touching-corner"),
        pytest.param([[-0.0, -0.0, -0.0, -0.0]], [[0.0, 0.0, 0.0, 0.0]], id="signed-zeros"),
        # an overlap of -0.0 before the clip, which the clip makes +0.0
        pytest.param([[-0.0, 0.0, -0.0, 2.0]], [[0.0, 0.0, 2.0, 2.0]], id="clipped-negative-zero"),
        pytest.param([[0.0, 0.0, 1e200, 1e200]], [[0.0, 0.0, 1e200, 1e200]], id="areas-overflow"),
        pytest.param([[0.0, 0.0, 1e200, 1e200]], [[1e199, 0.0, 1e200, 1e-200]], id="huge-and-tiny"),
        pytest.param([[0.0, 0.0, math.inf, 2.0]], [[0.0, 0.0, 2.0, 2.0]], id="inf-size"),
        pytest.param([[math.inf, 0.0, 2.0, 2.0]], [[-math.inf, 0.0, 2.0, 2.0]], id="inf-centres"),
        pytest.param([[math.nan, 0.0, 2.0, 2.0]], [[0.0, 0.0, 2.0, 2.0]], id="nan-centre"),
        pytest.param([[0.0, 0.0, 2.0, math.nan]], [[0.0, 0.0, 2.0, 2.0]], id="nan-size"),
    ])
    def test_edge_rows_match_the_oracle(self, a, b):
        assert_overlap_matches_oracle(np.array(a, dtype=float), np.array(b, dtype=float))

    @pytest.mark.parametrize("n", [0, 1, 12, 1000])
    def test_sequences_match_the_oracle(self, n):
        # 12 rows as in a training step, 1000 as in an evaluated sequence
        rng = np.random.default_rng(60 + n)
        a = np.column_stack([rng.uniform(0, 100, (n, 2)), rng.uniform(1, 30, (n, 2))])
        b = a + rng.normal(0, 5, (n, 4))
        b[::3] = a[::3]  # equal boxes
        b[1::5, 0] = a[1::5, 0] + (a[1::5, 2] + b[1::5, 2]) / 2.0  # about touching
        assert_overlap_matches_oracle(a, b)


class TestEvaluate:
    def test_perfect_prediction(self):
        gt = [BoundingBox(10.0 + k, 20.0, 6.0, 6.0) for k in range(8)]
        result = evaluate_rows(box_rows(gt), box_rows(gt))
        assert result.p5 == 1.0
        assert result.p20 == 1.0
        assert result.np05 == 1.0
        assert np.array_equal(result.success[:-1], np.ones(20))  # all tau < 1
        assert result.frame_count == 8

    def test_hopeless_prediction(self):
        gt = [BoundingBox(10.0, 10.0, 4.0, 4.0)] * 6
        pred = [BoundingBox(500.0, 500.0, 4.0, 4.0)] * 6
        result = evaluate_rows(box_rows(pred), box_rows(gt))
        assert result.p5 == 0.0
        assert result.p20 == 0.0
        assert result.np05 == 0.0
        assert result.success_auc == 0.0

    def test_counting_fixture(self):
        # 4 frames at cle 3, 6 frames at cle 12
        gt = [BoundingBox(0.0, 0.0, 30.0, 30.0)] * 10
        pred = [BoundingBox(3.0, 0.0, 30.0, 30.0)] * 4 + [
            BoundingBox(12.0, 0.0, 30.0, 30.0)
        ] * 6
        result = evaluate_rows(box_rows(pred), box_rows(gt))
        assert result.p5 == pytest.approx(0.4)
        assert result.p20 == pytest.approx(1.0)

    def test_threshold_boundary_inclusive(self):
        gt = [BoundingBox(0.0, 0.0, 40.0, 40.0)]
        pred = [BoundingBox(5.0, 0.0, 40.0, 40.0)]
        assert evaluate_rows(box_rows(pred), box_rows(gt)).p5 == 1.0

    def test_success_strictly_greater(self):
        # identical boxes have IoU exactly 1.0 > 0.95 but not > 1.0
        gt = [BoundingBox(0.0, 0.0, 10.0, 10.0)]
        result = evaluate_rows(box_rows(gt), box_rows(gt))
        assert result.success[20] == 0.0
        assert result.success_auc == pytest.approx(20 / 21)

    def test_curve_monotonicity(self):
        rng = np.random.default_rng(42)
        pred, gt = random_trajectories(rng, 40)
        result = evaluate_rows(box_rows(pred), box_rows(gt))
        assert (np.diff(result.precision) >= 0).all()
        assert (np.diff(result.norm_precision) >= 0).all()
        assert (np.diff(result.success) <= 0).all()
        for curve in (result.precision, result.norm_precision, result.success):
            assert (curve >= 0).all() and (curve <= 1).all()

    def test_matches_brute_force_scorer(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            pred, gt = random_trajectories(rng, int(rng.integers(1, 30)))
            result = evaluate_rows(box_rows(pred), box_rows(gt))
            precision, norm_precision, success = brute_force_evaluate(pred, gt)
            assert np.abs(result.precision - precision).max() < 1e-12
            assert np.abs(result.norm_precision - norm_precision).max() < 1e-12
            assert np.abs(result.success - success).max() < 1e-12
            assert abs(result.success_auc - sum(success) / 21) < 1e-12

    def test_scale_covariance(self):
        rng = np.random.default_rng(44)
        pred, gt = random_trajectories(rng, 10)
        scale = 3.0
        for p, g in zip(pred, gt):
            scaled_p = BoundingBox(p.cx * scale, p.cy * scale, p.w * scale, p.h * scale)
            scaled_g = BoundingBox(g.cx * scale, g.cy * scale, g.w * scale, g.h * scale)
            assert cle(scaled_p, scaled_g) == pytest.approx(scale * cle(p, g), abs=1e-9)
            assert normalized_cle(scaled_p, scaled_g) == pytest.approx(
                normalized_cle(p, g), abs=1e-9
            )
            assert iou(scaled_p, scaled_g) == pytest.approx(iou(p, g), abs=1e-9)

    def test_length_mismatch_rejected(self):
        gt = [BoundingBox(0.0, 0.0, 4.0, 4.0)] * 3
        with pytest.raises(ValueError, match="length"):
            evaluate_rows(box_rows(gt[:2]), box_rows(gt))
        with pytest.raises(ValueError, match="length"):
            evaluate_rows(box_rows([]), box_rows([]))

    @settings(max_examples=200, deadline=None)
    @given(errors=st.integers(1, 30).flatmap(
        lambda n: st.tuples(*[st.lists(error_values, min_size=n, max_size=n)] * 3)
    ))
    def test_sorted_counts_are_the_comparison_mean(self, errors):
        errors = [np.array(values, dtype=float) for values in errors]
        kernels = ("center_errors", "normalized_center_errors", "overlap_ratios")
        with contextlib.ExitStack() as patches:
            for name, values in zip(kernels, errors):
                patches.enter_context(
                    mock.patch.object(metrics, name, lambda p, g, values=values: values.copy())
                )
            rows = np.zeros((len(errors[0]), 4))
            result = evaluate_rows(rows, rows)
        assert result.frame_count == len(errors[0])
        assert_curves_are_the_oracle(result, errors)

    @settings(max_examples=150, deadline=None)
    @given(pred=extreme_rows, gt=extreme_rows)
    def test_extreme_finite_rows_give_no_nan_error(self, pred, gt):
        n = min(len(pred), len(gt))
        pred, gt = np.array(pred[:n]), np.array(gt[:n])
        with np.errstate(all="ignore"):  # spans and areas overflow on purpose
            errors = [kernel(pred, gt) for kernel in
                      (center_errors, normalized_center_errors, overlap_ratios)]
            result = evaluate_rows(pred, gt)
        for values in errors:
            assert not np.isnan(values).any()
        assert_curves_are_the_oracle(result, errors)

    def test_length_error_names_both_lengths(self):
        rows = np.tile([0.0, 0.0, 4.0, 4.0], (3, 1))
        message = r"^trajectories must have equal nonzero length, got 2 and 3$"
        with pytest.raises(ValueError, match=message):
            evaluate_rows(rows[:2], rows)
        with pytest.raises(ValueError, match="got 0 and 0"):
            evaluate_rows(np.empty((0, 4)), np.empty((0, 4)))

    @pytest.mark.parametrize(
        "pred_shape, gt_shape", [((3,), (3,)), ((3, 3), (3, 3)), ((3, 4), (3, 5)), ((3, 4, 1), (3, 4, 1))]
    )
    def test_rows_must_be_n_by_4(self, pred_shape, gt_shape):
        message = f"trajectories must be (N, 4) rows, got shapes {pred_shape} and {gt_shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate_rows(np.ones(pred_shape), np.ones(gt_shape))


class TestAggregate:
    def build(self, seed, frames=12):
        pred, gt = random_trajectories(np.random.default_rng(seed), frames)
        return evaluate_rows(box_rows(pred), box_rows(gt))

    def test_single_sequence_group(self):
        result = self.build(1)
        grouped = aggregate_results({"car-01": result}, {"all": ["car-01"]})
        assert grouped["all"].p5 == result.p5
        assert np.array_equal(grouped["all"].precision, result.precision)
        assert grouped["all"].frame_count == result.frame_count

    def test_two_sequence_mean(self):
        # synthetic results with known p5 values 0.2 and 0.8
        gt = [BoundingBox(0.0, 0.0, 30.0, 30.0)] * 10
        pred_a = [BoundingBox(3.0, 0.0, 30.0, 30.0)] * 2 + [
            BoundingBox(40.0, 0.0, 30.0, 30.0)
        ] * 8
        pred_b = [BoundingBox(3.0, 0.0, 30.0, 30.0)] * 8 + [
            BoundingBox(40.0, 0.0, 30.0, 30.0)
        ] * 2
        results = {"a": evaluate_rows(box_rows(pred_a), box_rows(gt)), "b": evaluate_rows(box_rows(pred_b), box_rows(gt))}
        assert results["a"].p5 == pytest.approx(0.2)
        assert results["b"].p5 == pytest.approx(0.8)
        grouped = aggregate_results(results, {"both": ["a", "b"]})
        assert grouped["both"].p5 == pytest.approx(0.5)

    def test_group_of_all_equals_overall_mean(self):
        results = {f"seq-{k}": self.build(k) for k in range(4)}
        grouped = aggregate_results(results, {"overall": list(results)})
        expected = np.mean([r.success_auc for r in results.values()])
        assert grouped["overall"].success_auc == pytest.approx(expected, abs=1e-12)
        expected_curve = np.mean([r.precision for r in results.values()], axis=0)
        assert np.allclose(grouped["overall"].precision, expected_curve, atol=1e-12)

    def test_frame_counts_summed(self):
        results = {"a": self.build(1, frames=5), "b": self.build(2, frames=7)}
        grouped = aggregate_results(results, {"g": ["a", "b"]})
        assert grouped["g"].frame_count == 12

    def test_unknown_sequence_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            aggregate_results({"a": self.build(1)}, {"g": ["a", "missing"]})

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            aggregate_results({"a": self.build(1)}, {"g": []})

"""Label-assignment and loss tests against hand-derived and brute-force oracles."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sattrack import (
    AspectRatioParams,
    BoundingBox,
    GridGeometry,
    build_label_maps,
    centerness_loss,
    cls_loss,
    regression_loss,
)
from sattrack.cli import main
from sattrack.geometry import _exponents


def reference_constrained(l, r, t, b, gamma):
    """Independent scalar evaluation of the aspect-ratio-constrained score.

    Deliberately written from the definition, not via the library, so map
    construction has a second route to compare against.
    """
    rho = (l + r) / (t + b)
    exp_h = min(1.0, (1.0 / rho) ** gamma)
    exp_v = min(1.0, rho**gamma)
    ratio_h = min(l, r) / max(l, r)
    ratio_v = min(t, b) / max(t, b)
    return math.sqrt(ratio_h**exp_h * ratio_v**exp_v)


class TestCenterness:
    def test_modulation_factor_saturates(self):
        # a tall box (rho = 1/6) keeps the classic horizontal exponent
        assert _exponents(1 / 6, AspectRatioParams(gamma=0.5))[0] == 1.0

    def test_modulation_factor_below_one(self):
        # (1/6)^0.5
        assert _exponents(1 / 6, AspectRatioParams(gamma=0.5))[1] == pytest.approx(
            0.40825, abs=1e-4
        )

    def test_modulation_factor_domain(self):
        # 1e-310 is finite and > 0, but its reciprocal is inf
        for rho in (0.0, -1.0, math.inf, math.nan, 1e-310):
            with pytest.raises(ValueError, match="^aspect ratio w/h must be finite"):
                _exponents(rho, AspectRatioParams())
            assert _exponents(rho, None) == (1.0, 1.0)

    @pytest.mark.parametrize("rho", [6.0, 1 / 6, 1e300])
    def test_huge_gamma_saturates_without_overflow(self, rho):
        # the exponent whose base is >= 1 saturates at 1 (its power, rho**1e300
        # for rho > 1, would overflow a float); the other underflows to 0
        saturated = 0 if rho < 1 else 1
        exponents = _exponents(rho, AspectRatioParams(gamma=1e300))
        assert exponents[saturated] == 1.0 and exponents[1 - saturated] == 0.0

    def test_exponent_monotone_in_gamma(self):
        # for rho > 1 the long-axis exponent shrinks as gamma grows
        gammas = [0.25, 0.5, 0.75, 1.0]
        for rho in (1.5, 3.0, 6.0):
            exponents = [_exponents(rho, AspectRatioParams(gamma=g))[0] for g in gammas]
            assert all(a >= b for a, b in zip(exponents, exponents[1:]))


class TestLabelMaps:
    @pytest.mark.parametrize(
        "box, gamma, expected, tolerance",
        [
            # l = r = t = b = 5: the center scores 1 with or without the constraint
            (BoundingBox(100.0, 100.0, 10.0, 10.0), None, 1.0, 0.0),
            (BoundingBox(100.0, 100.0, 10.0, 10.0), 0.5, 1.0, 0.0),
            # l, r = 3, 12 and t = b: sqrt(3/12) = 0.5
            (BoundingBox(104.5, 100.0, 15.0, 10.0), None, 0.5, 0.0),
            # rho = 6, l, r = 18, 72 and t = b: 0.25 ** ((1/6)**0.5 / 2) = 0.7535
            (BoundingBox(127.0, 100.0, 90.0, 15.0), 0.5, 0.7535, 1e-3),
            # rho = 6, l = r and t, b = 3, 12: the short axis keeps the classic
            # decay, sqrt(3/12) = 0.5
            (BoundingBox(100.0, 104.5, 90.0, 15.0), 0.5, 0.5, 0.0),
        ],
    )
    def test_hand_derived_cell_values(self, box, gamma, expected, tolerance):
        # cell (12, 12) of the default grid sits at pixel (100, 100)
        params = None if gamma is None else AspectRatioParams(gamma)
        value = build_label_maps(box, params=params).centerness[12, 12]
        assert abs(value - expected) <= tolerance

    @pytest.mark.parametrize("w, h", [(0.0, 10.0), (10.0, 0.0), (-1.0, 10.0)])
    def test_degenerate_box_rejected(self, w, h):
        # a box without area never reaches the map
        with pytest.raises(ValueError, match="box size must be positive"):
            build_label_maps(BoundingBox(100.0, 100.0, w, h))

    def test_one_cell_box_has_one_positive(self):
        grid = GridGeometry()
        maps = build_label_maps(BoundingBox(100.0, 100.0, 7.0, 7.0), grid)
        assert maps.positive_count == 1
        assert maps.centerness.shape == (25, 25)

    def test_square_box_matches_classic_exactly(self):
        box = BoundingBox(124.0, 124.0, 60.0, 60.0)
        constrained = build_label_maps(box, params=AspectRatioParams(0.5))
        classic = build_label_maps(box, params=None)
        assert np.array_equal(constrained.centerness, classic.centerness)

    def test_wide_box_gains_mass_over_classic(self):
        box = BoundingBox(124.0, 124.0, 192.0, 32.0)
        constrained = build_label_maps(box, params=AspectRatioParams(0.5))
        classic = build_label_maps(box, params=None)
        assert constrained.centerness.sum() > classic.centerness.sum()

    def test_outside_box_is_all_negative_without_a_warning(self):
        # the empty box is reported by its count alone
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            maps = build_label_maps(BoundingBox(1000.0, 1000.0, 10.0, 10.0))
        assert maps.positive_count == 0
        assert not maps.centerness.any()

    def test_grid_points_are_built_once_and_read_only(self):
        grid = GridGeometry(stride=6, height=3, width=4)
        assert grid.point_xs().tolist() == [3.0, 9.0, 15.0, 21.0]
        assert grid.point_ys().tolist() == [3.0, 9.0, 15.0]
        assert grid.point_xs() is grid.point_xs() and grid.point_ys() is grid.point_ys()
        with pytest.raises(ValueError, match="read-only"):
            grid.point_xs()[0] = 0.0
        # the cache is no field: equal grids stay equal and hash alike
        assert grid == GridGeometry(stride=6, height=3, width=4)
        assert hash(grid) == hash(GridGeometry(stride=6, height=3, width=4))

    def test_grid_points_on_the_box_edge_are_negative(self):
        # grid points sit at 4, 12, 20, ...; this box's edges are x = 4, 20
        # and y = 12, 36, so only the points strictly between them count
        maps = build_label_maps(BoundingBox(12.0, 24.0, 16.0, 24.0), params=None)
        assert np.argwhere(maps.labels).tolist() == [[2, 1], [3, 1]]
        assert (maps.centerness[maps.labels == 0] == 0).all()

    @pytest.mark.parametrize("w, h, rho", [(1e308, 1e-10, "inf"), (1e-300, 1e300, "0.0")])
    def test_unrepresentable_aspect_ratio_rejected(self, tmp_path, capsys, w, h, rho):
        # w/h overflows to inf or underflows to 0, so one exponent is undefined
        message = f"aspect ratio w/h must be finite and > 0 with a finite reciprocal, got {rho}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_label_maps(BoundingBox(100.0, 100.0, w, h))
        # the classic map uses no aspect ratio and still builds
        classic = build_label_maps(BoundingBox(100.0, 100.0, w, h), params=None)
        assert classic.centerness.shape == (25, 25)
        argv = ["centerness-map", "--box", f"100,100,{w!r},{h!r}", "--output", str(tmp_path)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: --box: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_brute_force_oracle(self):
        """Vectorized maps must match a per-point loop over the definition."""
        rng = np.random.default_rng(23)
        grid = GridGeometry()
        for _ in range(20):
            w = rng.uniform(8, 200)
            h = rng.uniform(8, 200)
            cx = rng.uniform(20, 235)
            cy = rng.uniform(20, 235)
            gamma = rng.uniform(0.25, 1.0)
            box = BoundingBox(cx, cy, w, h)
            # a draw far to the right may cover no grid point at all;
            # the all-negative result is still checked below
            maps = build_label_maps(box, grid, AspectRatioParams(gamma))
            x0, y0, x1, y1 = box.corners
            for i in range(grid.height):
                for j in range(grid.width):
                    px = grid.stride // 2 + j * grid.stride
                    py = grid.stride // 2 + i * grid.stride
                    l, r = px - x0, x1 - px
                    t, b = py - y0, y1 - py
                    if min(l, r, t, b) > 0:
                        expected = reference_constrained(l, r, t, b, gamma)
                        assert maps.labels[i, j] == 1
                    else:
                        expected = 0.0
                        assert maps.labels[i, j] == 0
                    # the oracle exponentiates with Python's float ``**``, which differs
                    # from numpy's array ``**`` in the last bits
                    assert abs(maps.centerness[i, j] - expected) < 1e-12


def meshgrid_label_maps(box, grid, params):
    """Label maps evaluated cell by cell on a full coordinate meshgrid."""
    x_grid, y_grid = np.meshgrid(grid.point_xs(), grid.point_ys())
    x0, y0, x1, y1 = box.corners
    left, right = x_grid - x0, x1 - x_grid
    top, bottom = y_grid - y0, y1 - y_grid
    positive = (left > 0) & (right > 0) & (top > 0) & (bottom > 0)
    centerness = np.zeros((grid.height, grid.width))
    if positive.any():
        if params is None:
            exp_h = exp_v = 1.0
        else:
            rho = box.w / box.h
            exp_h = min(1.0, (1.0 / rho) ** params.gamma)
            exp_v = min(1.0, rho**params.gamma)
        ratio_h = np.minimum(left, right)[positive] / np.maximum(left, right)[positive]
        ratio_v = np.minimum(top, bottom)[positive] / np.maximum(top, bottom)[positive]
        centerness[positive] = np.sqrt(ratio_h**exp_h * ratio_v**exp_v)
    return centerness, positive.astype(np.uint8)


class TestLabelMapProperties:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 16),
        st.integers(1, 40),
        st.integers(1, 40),
        # whole-number centres and even sizes put box edges on grid points
        st.floats(-50.0, 700.0) | st.integers(-50, 700).map(float),
        st.floats(-50.0, 700.0) | st.integers(-50, 700).map(float),
        st.floats(0.01, 800.0) | st.integers(1, 400).map(lambda n: 2.0 * n),
        st.floats(0.01, 800.0) | st.integers(1, 400).map(lambda n: 2.0 * n),
        st.none() | st.floats(0.01, 4.0),
    )
    def test_equals_meshgrid_oracle(self, stride, height, width, cx, cy, w, h, gamma):
        grid = GridGeometry(stride=stride, height=height, width=width)
        box = BoundingBox(cx, cy, w, h)
        params = None if gamma is None else AspectRatioParams(gamma)
        expected_centerness, expected_labels = meshgrid_label_maps(box, grid, params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty box is no warning either
            maps = build_label_maps(box, grid, params)
        assert np.array_equal(maps.centerness, expected_centerness)
        assert np.array_equal(maps.labels, expected_labels)
        assert maps.labels.dtype == np.uint8
        assert maps.centerness.shape == (height, width)
        assert (maps.positive_count == 0) == (not expected_labels.any())
        assert maps.centerness.min() >= 0.0 and maps.centerness.max() <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 16),
        st.integers(1, 40),
        st.integers(1, 40),
        # quarter-pixel boxes keep every corner and distance exact, so the
        # mirrored distances are the same floats
        st.integers(-100, 1400).map(lambda n: n / 2.0),
        st.integers(-100, 1400).map(lambda n: n / 2.0),
        st.integers(1, 1600).map(lambda n: n / 2.0),
        st.integers(1, 1600).map(lambda n: n / 2.0),
        st.none() | st.floats(0.01, 4.0),
    )
    def test_mirrored_box_mirrors_the_maps(self, stride, height, width, cx, cy, w, h, gamma):
        # mirroring about the grid centre swaps l with r and t with b, which
        # leaves every side ratio, and so every score, unchanged
        grid = GridGeometry(stride=stride, height=height, width=width)
        params = None if gamma is None else AspectRatioParams(gamma)
        xs, ys = grid.point_xs(), grid.point_ys()
        mirrored = BoundingBox(xs[0] + xs[-1] - cx, ys[0] + ys[-1] - cy, w, h)
        maps = build_label_maps(BoundingBox(cx, cy, w, h), grid, params)
        flipped = build_label_maps(mirrored, grid, params)
        assert np.array_equal(flipped.centerness, maps.centerness[::-1, ::-1])
        assert np.array_equal(flipped.labels, maps.labels[::-1, ::-1])

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 16),
        st.integers(1, 40),
        st.integers(1, 40),
        st.floats(-50.0, 700.0),
        st.floats(-50.0, 700.0),
        st.floats(0.01, 800.0),
        st.floats(0.01, 800.0),
        st.none() | st.floats(0.01, 4.0),
    )
    def test_transposed_box_transposes_the_maps(self, stride, height, width, cx, cy, w, h, gamma):
        # swapping the axes turns rho into 1/rho, which swaps the exponents
        grid = GridGeometry(stride=stride, height=height, width=width)
        swapped_grid = GridGeometry(stride=stride, height=width, width=height)
        params = None if gamma is None else AspectRatioParams(gamma)
        maps = build_label_maps(BoundingBox(cx, cy, w, h), grid, params)
        swapped = build_label_maps(BoundingBox(cy, cx, h, w), swapped_grid, params)
        assert np.array_equal(swapped.labels, maps.labels.T)
        if params is None:
            assert np.array_equal(swapped.centerness, maps.centerness.T)
        else:
            # 1/(h/w) and w/h may differ in the last bit
            np.testing.assert_allclose(swapped.centerness, maps.centerness.T, rtol=1e-12, atol=0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-50.0, 300.0),
        st.floats(-50.0, 300.0),
        st.floats(0.01, 400.0),
        st.floats(0.01, 400.0),
        st.floats(0.01, 4.0),
    )
    def test_constraint_never_lowers_a_score(self, cx, cy, w, h, gamma):
        # exponents are at most 1 and side ratios lie in [0, 1], so the
        # constrained score is at least the classic one, on the same cells
        box = BoundingBox(cx, cy, w, h)
        constrained = build_label_maps(box, params=AspectRatioParams(gamma))
        classic = build_label_maps(box, params=None)
        assert np.array_equal(constrained.labels, classic.labels)
        # allow for the last bits of the power, which need not round exactly
        assert (constrained.centerness >= classic.centerness * (1.0 - 1e-12)).all()
        assert constrained.centerness.max() <= 1.0


def loss_outcome(arrays) -> tuple[str, str]:
    """``regression_loss`` of the three arrays, as the hex of its loss or
    its error message."""
    try:
        return "loss", regression_loss(*arrays).hex()
    except ValueError as error:
        return "error", str(error)


class TestLosses:
    def test_cls_loss_log2(self):
        assert cls_loss([0.5], [0.5]) == pytest.approx(math.log(2))

    def test_cls_loss_perfect_confident_positive(self):
        assert cls_loss([1.0], [1.0]) == pytest.approx(0.0, abs=1e-6)

    def test_cls_loss_minimized_at_target(self):
        # BCE over yhat is minimized at yhat = p
        p = 0.37
        best = cls_loss([p], [p])
        for yhat in (0.1, 0.3, 0.5, 0.9):
            assert cls_loss([yhat], [p]) >= best

    def test_cls_loss_empty_and_domain(self):
        with pytest.raises(ValueError):
            cls_loss([], [])
        with pytest.raises(ValueError):
            cls_loss([0.5], [1.5])
        with pytest.raises(ValueError):
            cls_loss([-0.1], [0.5])

    @pytest.mark.parametrize("loss", [cls_loss, centerness_loss])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.5, -0.5])
    @pytest.mark.parametrize("side", ["predictions", "targets"])
    def test_bce_rejects_out_of_range_and_non_finite(self, loss, bad, side):
        values = np.full(50, 0.5)
        values[17] = bad
        args = (values, np.full(50, 0.5)) if side == "predictions" else (np.full(50, 0.5), values)
        with pytest.raises(ValueError, match=f"{side} must lie in \\[0, 1\\]"):
            loss(*args)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_regression_loss_rejects_non_finite(self, bad, which):
        arrays = [np.array([[10.0, 10.0, 4.0, 6.0]]), np.array([[11.0, 10.0, 4.0, 6.0]]), np.ones(1)]
        arrays[which].flat[0] = bad
        with pytest.raises(ValueError, match="finite"):
            regression_loss(*arrays)

    def test_centerness_loss_values(self):
        assert centerness_loss([0.5], [0.5]) == pytest.approx(math.log(2))
        assert centerness_loss([0.5], [1.0]) == pytest.approx(math.log(2))
        assert centerness_loss([1.0], [1.0]) == pytest.approx(0.0, abs=1e-6)

    def test_gradient_check(self):
        """Central differences of the loss match -p/y + (1-p)/(1-y)."""
        rng = np.random.default_rng(17)
        h = 1e-6
        for _ in range(100):
            yhat = rng.uniform(0.05, 0.95)
            p = rng.uniform(0.0, 1.0)
            analytic = -p / yhat + (1 - p) / (1 - yhat)
            numeric = (cls_loss([yhat + h], [p]) - cls_loss([yhat - h], [p])) / (2 * h)
            assert numeric == pytest.approx(analytic, rel=1e-5)

    def test_regression_loss_zero_for_exact(self):
        boxes = np.array([[10.0, 10.0, 4.0, 6.0], [50.0, 40.0, 8.0, 8.0]])
        assert regression_loss(boxes, boxes, [1.0, 0.5]) == 0.0

    def test_regression_loss_disjoint(self):
        pred = np.array([[5.0, 5.0, 10.0, 10.0]])
        gt = np.array([[50.0, 50.0, 10.0, 10.0]])
        assert regression_loss(pred, gt, [1.0]) == pytest.approx(-math.log(1 / 201))

    def test_regression_loss_ignores_zero_weight(self):
        pred = np.array([[10.0, 10.0, 4.0, 4.0], [5.0, 5.0, 10.0, 10.0]])
        gt = np.array([[10.0, 10.0, 4.0, 4.0], [50.0, 50.0, 10.0, 10.0]])
        assert regression_loss(pred, gt, [1.0, 0.0]) == 0.0

    def test_regression_loss_zero_iff_exact(self):
        rng = np.random.default_rng(29)
        base = np.column_stack(
            [
                rng.uniform(20, 200, 5),
                rng.uniform(20, 200, 5),
                rng.uniform(2, 40, 5),
                rng.uniform(2, 40, 5),
            ]
        )
        weights = rng.uniform(0.1, 1.0, 5)
        assert regression_loss(base, base, weights) == 0.0
        for column in range(4):
            nudged = base.copy()
            nudged[2, column] += 0.5
            assert regression_loss(nudged, base, weights) > 0.0

    def test_regression_loss_needs_weight_mass(self):
        boxes = np.array([[10.0, 10.0, 4.0, 4.0]])
        with pytest.raises(ValueError, match="not all be zero"):
            regression_loss(boxes, boxes, [0.0])

    @pytest.mark.parametrize("weight", [1e308, 1.7e308])
    def test_regression_loss_rejects_an_overflowing_weight_sum(self, weight):
        # the sum is inf: the loss would read 0 or nan
        pred = np.array([[10.0, 10.0, 4.0, 6.0], [50.0, 40.0, 8.0, 8.0]])
        gt = pred + [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]
        with pytest.raises(ValueError, match="^centerness weights must have a finite sum$"):
            regression_loss(pred, gt, [weight, weight])

    @settings(max_examples=200, deadline=None)
    @given(
        count=st.integers(1, 5),
        huge=st.booleans(),
        data=st.data(),
        which=st.integers(0, 2),
        cell=st.integers(0, 19),
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    def test_regression_loss_finiteness_is_proved_cell_by_cell(
        self, count, huge, data, which, cell, bad
    ):
        # fields near the float maximum make a total overflow while every
        # cell is finite: those inputs get the outcome of a plain per-cell
        # scan (the loss's bits, or the same error), with no warning
        big = st.floats(0.95e308, 1.7e308) if huge else st.floats(1.0, 1e3)
        centre = st.one_of(st.floats(-100.0, 100.0), big, big.map(lambda v: -v))
        size = st.one_of(st.floats(0.5, 100.0), big)
        box = st.tuples(centre, centre, size, size)
        boxes = st.lists(box, min_size=count, max_size=count)
        weights = st.lists(st.one_of(st.floats(0.0, 1.0), big), min_size=count, max_size=count)
        arrays = [np.array(data.draw(strategy)) for strategy in (boxes, boxes, weights)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = loss_outcome(arrays)
        def scan(array, what):  # the plain per-cell scan the proof stands for
            if not np.isfinite(array).all():
                raise ValueError(f"{what} must be finite")

        with mock.patch("sattrack.geometry._finite_total", scan):
            assert got == loss_outcome(arrays)
        # one NaN or infinity anywhere fails the finiteness check first
        arrays[which].flat[cell % arrays[which].size] = bad
        with pytest.raises(ValueError, match="^loss inputs must be finite$"):
            regression_loss(*arrays)

    @pytest.mark.parametrize("pred, gt, weights", [
        # the weight sum is finite, but 1e308 times the disjoint term -log(1/201) is not
        ([[5.0, 5.0, 10.0, 10.0]], [[50.0, 50.0, 10.0, 10.0]], [1e308]),
        # a 1e200 x 1e200 box's area overflows, so even an exact pair has no loss
        ([[0.0, 0.0, 1e200, 1e200]], [[0.0, 0.0, 1e200, 1e200]], [1.0]),
    ])
    def test_regression_loss_rejects_a_loss_beyond_float_range(self, pred, gt, weights):
        with pytest.raises(ValueError, match="^regression loss is not finite"):
            regression_loss(np.array(pred), np.array(gt), weights)


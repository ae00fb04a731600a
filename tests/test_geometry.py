"""Label-assignment and loss tests against hand-derived and brute-force oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sattrack import (
    AspectRatioParams,
    BoundingBox,
    GridGeometry,
    RegressionTarget,
    build_label_maps,
    centerness_loss,
    classic_centerness,
    cls_loss,
    constrained_centerness,
    regression_loss,
    soft_cls_target,
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
    def test_center_point_scores_one(self):
        assert classic_centerness(RegressionTarget(5, 5, 5, 5)) == 1.0

    def test_classic_known_value(self):
        # ratios 3/12 and 5/5: sqrt(0.25) = 0.5
        assert classic_centerness(RegressionTarget(3, 12, 5, 5)) == pytest.approx(0.5)

    def test_boundary_point_scores_zero(self):
        assert classic_centerness(RegressionTarget(0, 10, 5, 5)) == 0.0

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            classic_centerness(RegressionTarget(0, 0, 5, 5))
        with pytest.raises(ValueError, match="degenerate"):
            constrained_centerness(RegressionTarget(3, 3, 0, 0), AspectRatioParams())

    def test_negative_side_rejected(self):
        with pytest.raises(ValueError):
            RegressionTarget(-1, 3, 2, 2)

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

    def test_constrained_flattens_principal_axis(self):
        # rho = 6 wide box, t = b, horizontal ratio 0.25:
        # 0.25 ** ((1/6)**0.5 / 2) = 0.7535
        target = RegressionTarget(l=18, r=72, t=7.5, b=7.5)
        value = constrained_centerness(target, AspectRatioParams(gamma=0.5))
        assert value == pytest.approx(0.7535, abs=1e-3)
        assert value == pytest.approx(reference_constrained(18, 72, 7.5, 7.5, 0.5))

    def test_constrained_keeps_short_axis_classic(self):
        # rho = 6, l = r, vertical ratio 0.25: alpha(6) = 1, sqrt(0.25) = 0.5
        target = RegressionTarget(l=45, r=45, t=3, b=12)
        assert constrained_centerness(target, AspectRatioParams(gamma=0.5)) == pytest.approx(0.5)

    def test_square_box_equals_classic(self):
        rng = np.random.default_rng(11)
        params = AspectRatioParams(gamma=0.5)
        for _ in range(200):
            l, t = rng.uniform(0.1, 40, size=2)
            r = 40 - l
            b = 40 - t  # l + r == t + b, rho = 1
            target = RegressionTarget(l, r, t, b)
            assert constrained_centerness(target, params) == classic_centerness(target)

    def test_range_and_symmetry_property(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            l, r, t, b = rng.uniform(0.01, 100, size=4)
            gamma = rng.uniform(0.1, 2.0)
            params = AspectRatioParams(gamma=gamma)
            value = constrained_centerness(RegressionTarget(l, r, t, b), params)
            assert 0.0 <= value <= 1.0
            assert 0.0 <= classic_centerness(RegressionTarget(l, r, t, b)) <= 1.0
            swapped = constrained_centerness(RegressionTarget(r, l, b, t), params)
            assert value == swapped

    def test_constrained_needs_params(self):
        with pytest.raises(TypeError, match="AspectRatioParams"):
            constrained_centerness(RegressionTarget(3, 3, 2, 2), None)

    def test_exponent_monotone_in_gamma(self):
        # for rho > 1 the long-axis exponent shrinks as gamma grows
        gammas = [0.25, 0.5, 0.75, 1.0]
        for rho in (1.5, 3.0, 6.0):
            exponents = [_exponents(rho, AspectRatioParams(gamma=g))[0] for g in gammas]
            assert all(a >= b for a, b in zip(exponents, exponents[1:]))


class TestLabelMaps:
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

    def test_outside_box_warns_and_is_all_negative(self):
        with pytest.warns(UserWarning, match="no grid point"):
            maps = build_label_maps(BoundingBox(1000.0, 1000.0, 10.0, 10.0))
        assert maps.positive_count == 0
        assert not maps.centerness.any()

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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            with pytest.raises(ValueError, match=f"^{message}$"):
                build_label_maps(BoundingBox(100.0, 100.0, w, h))
            # the classic map uses no aspect ratio and still builds
            classic = build_label_maps(BoundingBox(100.0, 100.0, w, h), params=None)
            assert classic.centerness.shape == (25, 25)
            argv = ["centerness-map", "--box", f"100,100,{w!r},{h!r}", "--output", str(tmp_path)]
            assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
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
            with warnings.catch_warnings():
                # a draw far to the right may cover no grid point at all;
                # the all-negative result is still checked below
                warnings.simplefilter("ignore", UserWarning)
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


UNIT_ROUNDOFF = 2.0**-53


def rho_gap_bound(target, box, gamma):
    """Bound on the relative gap between constrained_centerness(target) and
    its map cell, which take rho as (l+r)/(t+b) and as w/h.

    The corners x0 = cx - w/2 and x1 = cx + w/2 are rounded, by at most
    u|x0| and u|x1|; l = px - x0 and r = x1 - px are rounded again, by u*l
    and u*r, and so is their sum.  So l+r is w up to
    E_h = u(|x0| + |x1| + 2(l+r)), and t+b is h up to E_v likewise: a
    cancellation error of about ulp(coordinate) / side.  With the two
    divisions and the reciprocal 1/rho, the two rhos differ relatively by
    d = E_h/(l+r) + E_v/(t+b) + 3u.  Each exponent e = min(1, rho**(+-gamma))
    then moves by at most gamma*e*d (min is 1-Lipschitz), each side ratio's
    power ratio**e = exp(e ln ratio) by |ln ratio| times that, and sqrt
    halves the sum.  The bound doubles that first-order term for the
    higher-order ones and adds 8u for the pow, product and sqrt roundings.
    """
    u = UNIT_ROUNDOFF
    x0, y0, x1, y1 = box.corners
    width, height = target.l + target.r, target.t + target.b
    d = (
        u * (abs(x0) + abs(x1) + 2.0 * width) / width
        + u * (abs(y0) + abs(y1) + 2.0 * height) / height
        + 3.0 * u
    )
    rho = box.w / box.h
    exp_h, exp_v = min(1.0, (1.0 / rho) ** gamma), min(1.0, rho**gamma)
    ratio_h = min(target.l, target.r) / max(target.l, target.r)
    ratio_v = min(target.t, target.b) / max(target.t, target.b)
    spread = exp_h * abs(math.log(ratio_h)) + exp_v * abs(math.log(ratio_v))
    return 2.0 * 0.5 * gamma * d * spread + 8.0 * u


class TestLabelMapProperties:
    @settings(max_examples=300, deadline=None)
    # the scalar rho of a 0.01-high box at y = 94 is off w/h by about
    # ulp(94)/0.01, and the cell values differ by 1.56e-14 relatively
    @example(stride=7, height=14, width=1, cx=0.0, cy=94.0, w=8.0, h=0.01, gamma=0.5)
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
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            maps = build_label_maps(box, grid, params)
        assert np.array_equal(maps.centerness, expected_centerness)
        assert np.array_equal(maps.labels, expected_labels)
        assert maps.labels.dtype == np.uint8
        assert maps.centerness.shape == (height, width)
        assert bool(caught) == (not expected_labels.any())

        # the scalar scores are the map rule at one cell; they take rho as
        # (l+r)/(t+b) where the map takes w/h, so they are bitwise equal to
        # the map wherever those ratios are
        cells = np.argwhere(expected_labels)
        if not cells.size:
            return
        classic_map = build_label_maps(box, grid, None).centerness
        x0, y0, x1, y1 = box.corners
        for i, j in cells[:: math.ceil(len(cells) / 24)]:
            px, py = grid.point_xs()[j], grid.point_ys()[i]
            target = RegressionTarget(px - x0, x1 - px, py - y0, y1 - py)
            assert classic_centerness(target) == classic_map[i, j]
            if params is None:
                continue
            value, cell = constrained_centerness(target, params), maps.centerness[i, j]
            if (target.l + target.r) / (target.t + target.b) == box.w / box.h:
                assert value == cell
            else:
                assert abs(value - cell) <= rho_gap_bound(target, box, gamma) * cell


class TestSoftClsTarget:
    def test_equal_centerness_scores_one(self):
        assert soft_cls_target(0.8, 0.8, 1) == 1.0

    def test_ratio(self):
        assert soft_cls_target(0.9, 0.3, 1) == pytest.approx(1 / 3)

    def test_negative_sample_is_zero(self):
        assert soft_cls_target(0.9, 0.3, 0) == 0.0

    def test_double_zero_defined_as_one(self):
        assert soft_cls_target(0.0, 0.0, 1) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b = rng.uniform(0.001, 1.0, size=2)
            assert soft_cls_target(a, b, 1) == pytest.approx(soft_cls_target(b, a, 1))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            soft_cls_target(1.2, 0.5, 1)
        with pytest.raises(ValueError):
            soft_cls_target(0.5, 0.5, 2)


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


"""Confidence scoring and online refinement tests."""

import copy
import math
import pickle
import struct
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sattrack import (
    BoundingBox,
    MotionParams,
    TrackerState,
    psr,
    refine_step,
)
from sattrack import motion
from sattrack.motion import (
    BLOCK_FRAMES,
    HIGH_CONFIDENCE,
    LOW_CONFIDENCE,
    WARMUP,
    _branch_row,
    _branch_weights,
    _finite_total,
    _normalize,
    _normalized,
    _ones,
    _psr_maps,
    track_rows,
)


def normalized_psr(response, state: TrackerState) -> float:
    """PSR over the running per-sequence maximum, which is raised first: the
    online step's one normalisation, ``motion._normalize``, of ``psr``.  The
    result lies in [0, 1], and is 0 while the maximum is still 0."""
    state.psr_max, npsr = _normalize(psr(response), state.psr_max)
    return npsr


def history_rows(state: TrackerState) -> np.ndarray:
    """The tracker's stored rows, oldest first: the last ``capacity`` rows
    of its row buffer before ``_end``."""
    return state._rows[max(state._end - state.capacity, 0) : state._end]


def brute_psr(grid):
    """Scalar reimplementation of the confidence score for cross-checking.

    Walks the cells one by one instead of using array reductions.
    """
    rows, cols = grid.shape
    best = (0, 0)
    for i in range(rows):
        for j in range(cols):
            if grid[i, j] > grid[best]:
                best = (i, j)
    pi, pj = best
    sidelobe = [
        float(grid[i, j])
        for i in range(rows)
        for j in range(cols)
        if abs(i - pi) > 1 or abs(j - pj) > 1
    ]
    mean = sum(sidelobe) / len(sidelobe)
    var = sum((cell - mean) ** 2 for cell in sidelobe) / len(sidelobe)
    return (float(grid[pi, pj]) - mean) / (math.sqrt(var) + 1e-6)


def reference_map(peak_value):
    """11x11 map whose sidelobe is exactly half 0.0 and half 0.2.

    The 112 sidelobe cells have mean 0.1 and population std 0.1, so the
    score is (peak - 0.1) / (0.1 + 1e-6): picking the peak sets the score.
    """
    grid = np.zeros((11, 11))
    sidelobe = [
        (i, j)
        for i in range(11)
        for j in range(11)
        if not (4 <= i <= 6 and 4 <= j <= 6)
    ]
    for index, (i, j) in enumerate(sidelobe):
        grid[i, j] = 0.2 if index % 2 else 0.0
    grid[4:7, 4:7] = 0.15
    grid[5, 5] = peak_value
    return grid


def map_with_score(target):
    return reference_map(0.1 + target * (0.1 + 1e-6))


class TestPsr:
    def test_constant_map_scores_zero(self):
        assert psr(np.full((5, 5), 0.3)) == 0.0

    def test_reference_fixture(self):
        grid = reference_map(1.0)
        value = psr(grid)
        assert value == pytest.approx(0.9 / (0.1 + 1e-6), abs=1e-4)
        assert value == pytest.approx(9.0, abs=1e-4)
        assert value == pytest.approx(brute_psr(grid), abs=1e-12)

    def test_matches_brute_force_on_random_maps(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            grid = rng.uniform(0.0, 1.0, size=(rng.integers(3, 12), rng.integers(3, 12)))
            assert psr(grid) == pytest.approx(brute_psr(grid), abs=1e-10)

    def test_shift_invariance(self):
        rng = np.random.default_rng(32)
        grid = rng.uniform(0.0, 1.0, size=(9, 9))
        assert abs(psr(grid) - psr(grid + 5.0)) < 1e-9

    def test_edge_peak_clips_exclusion(self):
        grid = np.zeros((5, 5))
        grid[0, 0] = 1.0
        # exclusion block is the 2x2 corner; 21 sidelobe cells, all zero
        assert psr(grid) == pytest.approx(1.0 / 1e-6, rel=1e-9)
        assert psr(grid) == pytest.approx(brute_psr(grid))

    def test_tie_broken_row_major(self):
        grid = np.zeros((7, 7))
        grid[2, 3] = 1.0
        grid[5, 1] = 1.0
        # the earlier row-major peak wins, so (5,1) stays in the sidelobe
        sidelobe = [
            grid[i, j]
            for i in range(7)
            for j in range(7)
            if abs(i - 2) > 1 or abs(j - 3) > 1
        ]
        mean = np.mean(sidelobe)
        std = np.std(sidelobe)
        assert psr(grid) == pytest.approx((1.0 - mean) / (std + 1e-6))

    def test_too_small_map_rejected(self):
        with pytest.raises(ValueError, match="3"):
            psr(np.zeros((2, 5)))

    def test_non_finite_rejected(self):
        grid = np.zeros((5, 5))
        grid[1, 1] = np.nan
        with pytest.raises(ValueError):
            psr(grid)


def dyadic_maps(min_side=3, max_side=30, bound=2**20):
    """Maps of multiples of 2**-10: every sum the kernel and the oracle take
    of them is exact, so both see the same sidelobe mean."""
    shapes = st.tuples(st.integers(min_side, max_side), st.integers(min_side, max_side))
    return shapes.flatmap(
        lambda shape: hnp.arrays(np.int64, shape, elements=st.integers(-bound, bound))
    ).map(lambda cells: cells / 1024.0)


def assert_matches_oracle(grid):
    try:
        expected = brute_psr(grid)
    except ZeroDivisionError:  # the oracle found no sidelobe
        with pytest.raises(ValueError, match="no sidelobe"):
            psr(grid)
        return
    assert math.isclose(psr(grid), expected, rel_tol=1e-12, abs_tol=0.0)


PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


class TestPsrProperties:
    """The array kernel against the scalar oracle ``brute_psr``."""

    @PROPERTY_SETTINGS
    @given(dyadic_maps())
    def test_dyadic_maps(self, grid):
        assert_matches_oracle(grid)

    @PROPERTY_SETTINGS
    @given(
        st.integers(0, 2**32 - 1),
        st.tuples(st.integers(3, 30), st.integers(3, 30)),
        st.floats(1.0, 1e3),
    )
    def test_random_maps(self, seed, shape, peak_gain):
        # a tall peak over a low sidelobe makes whole-map-minus-block sums
        # of squares cancel; the kernel must not lose the sidelobe spread
        rng = np.random.default_rng(seed)
        grid = rng.uniform(0.0, 1.0, size=shape)
        grid.flat[rng.integers(grid.size)] *= peak_gain
        assert_matches_oracle(grid)

    @PROPERTY_SETTINGS
    @given(dyadic_maps(bound=4))
    def test_tied_plateaus_first_peak_wins(self, grid):
        # cells take 9 values, so the maximum is nearly always tied
        assert_matches_oracle(grid)

    @PROPERTY_SETTINGS
    @given(dyadic_maps(bound=1023), st.data())
    def test_border_and_corner_peaks(self, grid, data):
        rows, cols = grid.shape
        i = data.draw(st.sampled_from([0, rows - 1]) | st.integers(0, rows - 1))
        on_edge_row = i in (0, rows - 1)
        j = data.draw(st.integers(0, cols - 1) if on_edge_row else st.sampled_from([0, cols - 1]))
        grid[i, j] = 2.0  # above every other cell, on the border
        assert_matches_oracle(grid)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @PROPERTY_SETTINGS
    @given(
        st.tuples(st.integers(3, 30), st.integers(3, 30)),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_constant_maps_score_zero(self, shape, value):
        assert psr(np.full(shape, value)) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cells_rejected(self, bad):
        grid = np.zeros((6, 7))
        grid[4, 2] = bad
        with pytest.raises(ValueError, match="response map must be finite"):
            psr(grid)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_sum_is_not_non_finite(self):
        # every cell is finite, only the sum overflows: the map is accepted,
        # and the refined box's own validation rejects the score it yields
        grid = overflowing_map()
        psr(grid)
        params = MotionParams(n1=5, n2=2)
        boxes = [BoundingBox(float(k), 0.0, 4.0, 4.0) for k in range(params.n1)]
        state = warmed_state(params, boxes, map_with_score(8.0))
        with pytest.raises(ValueError, match="box field"):
            refine_step(state, BoundingBox(5.0, 0.0, 4.0, 4.0), grid, params)

    def test_three_by_three_center_peak_has_no_sidelobe(self):
        grid = np.zeros((3, 3))
        grid[1, 1] = 1.0
        with pytest.raises(ValueError, match="no sidelobe"):
            psr(grid)


class TestPsrKernelPasses:
    """The fewer-pass kernel: the whole-map total is one dot product with a
    cached ones vector, and the flat-map ``min`` runs only when the peak is
    cell 0 (constant maps: ``TestPsrProperties``)."""

    @PROPERTY_SETTINGS
    @given(dyadic_maps(), st.booleans())
    def test_peak_at_cell_zero_matches_oracle(self, grid, tie_later):
        # the lazy flat check must not confuse a first-cell peak with a flat map
        grid.flat[0] = grid.max()
        if tie_later:
            grid.flat[-1] = grid.flat[0]
        assert int(grid.argmax()) == 0
        assert_matches_oracle(grid)

    @staticmethod
    def proofs_of(grid) -> tuple[list, float]:
        """``(array, what, total)`` of each :func:`_finite_total` call ``psr``
        makes on ``grid``, and its score."""
        calls = []

        def recording(array, what):
            total = _finite_total(array, what)
            calls.append((array, what, total))
            return total

        with mock.patch.object(motion, "_finite_total", recording):
            return calls, psr(grid)

    @PROPERTY_SETTINGS
    @given(dyadic_maps())
    def test_total_is_the_exact_cell_sum(self, grid):
        # psr proves the map itself finite, once; dyadic cells sum exactly
        [(checked, what, total)], _ = self.proofs_of(grid)
        assert checked is grid and what == "response map"
        assert type(total) is float
        assert total == sum(grid.ravel().tolist())

    @pytest.mark.parametrize("cells", [(np.nan,), (np.inf,), (-np.inf,), (np.inf, -np.inf)])
    @pytest.mark.parametrize("where", [0, 17, 40])
    def test_non_finite_total_triggers_the_scan(self, cells, where):
        grid = np.zeros((6, 7))
        for offset, bad in enumerate(cells):
            grid.flat[where + offset] = bad
        with pytest.raises(ValueError, match="^response map must be finite$"):
            psr(grid)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_total_is_accepted(self):
        # finite cells whose total overflows: the scan clears the map, flat
        # or not, and psr scores it
        for grid, score in ((np.full((5, 5), 1e308), 0.0), (overflowing_map(), math.nan)):
            [(_, _, total)], value = self.proofs_of(grid)
            assert total == math.inf and np.isfinite(grid).all()
            assert value == score or math.isnan(value) and math.isnan(score)

    @pytest.mark.parametrize("grid, line", [
        (np.float64(1.0), "response map must be 2-D, got shape ()"),
        (np.zeros(9), "response map must be 2-D, got shape (9,)"),
        (np.zeros((3, 3, 1)), "response map must be 2-D, got shape (3, 3, 1)"),
        ([[0.0, 1.0], [2.0, 3.0]], "response map must be at least 3x3, got (2, 2)"),
        (np.zeros((2, 5)), "response map must be at least 3x3, got (2, 5)"),
        (np.zeros((5, 2)), "response map must be at least 3x3, got (5, 2)"),
        (np.zeros((0, 4)), "response map must be at least 3x3, got (0, 4)"),
        # the rules in order: shape before finiteness before the sidelobe
        (np.full((2, 2), np.nan), "response map must be at least 3x3, got (2, 2)"),
        (np.array([[0.0, 0, 0], [0, 1, 0], [0, 0, np.inf]]), "response map must be finite"),
        (np.array([[0.0, 0, 0], [0, 1, 0], [0, 0, 0]]),
         "map (3, 3) has no sidelobe outside the peak block"),
    ])
    def test_rejected_maps_and_their_messages(self, grid, line):
        with pytest.raises(ValueError) as caught:
            psr(grid)
        assert str(caught.value) == line

    @settings(max_examples=300, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=3, max_side=8),
            elements=st.floats(-1.7e308, 1.7e308)
            | st.sampled_from([1.7e308, -1.7e308, 0.9e308])
            | st.sampled_from([math.nan, math.inf, -math.inf]),
        ),
        st.booleans(),
    )
    def test_the_finiteness_proof(self, array, transposed):
        # raises exactly when a cell is not finite, else returns the ddot
        # total with a ones vector bit for bit (inf or nan where finite cells
        # overflow), and never warns
        if transposed:
            array = array.T
        expected = float(np.vdot(array, np.ones(array.size)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not np.isfinite(array).all():
                with pytest.raises(ValueError, match="^cells must be finite$"):
                    _finite_total(array, "cells")
                return
            total = _finite_total(array, "cells")
        assert type(total) is float
        assert struct.pack("<d", total) == struct.pack("<d", expected)

    def test_ones_vector_is_read_only_and_shared(self):
        ones = _ones(625)
        assert np.shares_memory(_ones(625), ones) and np.shares_memory(_ones(4), ones)
        assert ones.shape == (625,) and (ones == 1.0).all()
        with pytest.raises(ValueError, match="read-only"):
            ones[0] = 2.0

    def test_ones_buffer_serves_every_smaller_size(self):
        # a regression loss asks for 4N and N, a 25x25 map for 625: one
        # buffer serves them all, so no size evicts another's vector
        largest = _ones(4 * 30 + 625)
        for size in [625] + [4 * n for n in range(6, 31)] + list(range(6, 31)):
            ones = _ones(size)
            assert ones.shape == (size,) and np.shares_memory(ones, largest)
            assert not ones.flags.writeable and (ones == 1.0).all()

    def test_refine_step_scores_through_the_module_psr(self, monkeypatch):
        # per-layer tracing wraps ``motion.psr``; the step must call it by name
        calls = []
        real = motion.psr
        monkeypatch.setattr(motion, "psr", lambda response: calls.append(1) or real(response))
        refine_step(TrackerState(5), BoundingBox(0.0, 0.0, 2.0, 2.0), map_with_score(4.0),
                    MotionParams(n1=5, n2=2))
        assert calls == [1]


class TestNormalizedPsr:
    def test_first_frame_is_one(self):
        state = TrackerState(50)
        assert normalized_psr(map_with_score(4.0), state) == 1.0

    def test_running_max_sequence(self):
        state = TrackerState(50)
        values = [normalized_psr(map_with_score(s), state) for s in (4.0, 8.0, 2.0)]
        assert values[0] == pytest.approx(1.0)
        assert values[1] == pytest.approx(1.0)
        assert values[2] == pytest.approx(0.25, abs=1e-9)

    def test_repeated_map_stays_one(self):
        state = TrackerState(50)
        grid = map_with_score(5.0)
        for _ in range(5):
            assert normalized_psr(grid, state) == 1.0

    def test_degenerate_run_returns_zero(self):
        state = TrackerState(50)
        assert normalized_psr(np.full((5, 5), 0.2), state) == 0.0
        assert state.psr_max == 0.0

    def test_max_monotone_and_range(self):
        rng = np.random.default_rng(33)
        state = TrackerState(50)
        previous_max = 0.0
        for _ in range(200):
            grid = rng.uniform(0.0, 1.0, size=(7, 7))
            value = normalized_psr(grid, state)
            assert 0.0 < value <= 1.0
            assert state.psr_max >= previous_max
            previous_max = state.psr_max


def linear_fit(series) -> tuple[np.ndarray, np.ndarray]:
    """Ordinary least-squares line through a (K, d) series sampled at
    0, 1, ..., K-1.  Returns (slope, intercept), each shape (d,).  The low
    branch's weights are pinned to this form."""
    series = np.asarray(series, dtype=float)
    if series.ndim == 1:
        series = series[:, None]
    count = series.shape[0]
    if count < 2:
        raise ValueError(f"linear fit needs at least 2 samples, got {count}")
    mid = 0.5 * (count - 1)
    centered = np.arange(count, dtype=float) - mid
    slope = (centered @ series) / (centered @ centered)
    intercept = series.sum(axis=0) / count - slope * mid
    return slope, intercept


def fit_value(slope: np.ndarray, intercept: np.ndarray, index: float) -> np.ndarray:
    """Evaluate a fitted line at the given sample index."""
    return intercept + slope * index


def instantaneous_velocity(centers, n2: int) -> np.ndarray:
    """Mean per-frame velocity over the last 2*n2 center positions: the n2
    displacements between the older and newer halves of the window, each
    spanning n2 frames, hence 1/n2**2.  The high branch's weights are
    pinned to this form."""
    centers = np.asarray(centers, dtype=float)
    if n2 < 1:
        raise ValueError(f"n2 must be >= 1, got {n2}")
    if centers.ndim != 2 or centers.shape[0] < 2 * n2:
        raise ValueError(f"need at least {2 * n2} centers, got shape {centers.shape}")
    newer = centers[-n2:].sum(axis=0)
    older = centers[-2 * n2 : -n2].sum(axis=0)
    return (newer - older) / float(n2 * n2)


def history(state: TrackerState) -> tuple[BoundingBox, ...]:
    """The boxes stored in the tracker's history, oldest first."""
    return tuple(BoundingBox(*row) for row in history_rows(state).tolist())


class TestLinearFit:
    def test_exact_line(self):
        series = np.array([[2.0 * k, 3.0 * k] for k in range(50)])
        slope, intercept = linear_fit(series)
        assert np.allclose(slope, [2.0, 3.0], atol=1e-9)
        assert np.allclose(intercept, [0.0, 0.0], atol=1e-9)
        assert np.allclose(fit_value(slope, intercept, 50), [100.0, 150.0], atol=1e-9)

    def test_constant_series(self):
        series = np.full((12, 2), 7.5)
        slope, intercept = linear_fit(series)
        assert np.allclose(slope, 0.0, atol=1e-12)
        assert np.allclose(intercept, 7.5, atol=1e-12)

    def test_alternating_noise_slope(self):
        noise = [0.5 if k % 2 == 0 else -0.5 for k in range(10)]
        series = np.array([[k + noise[k]] for k in range(10)])
        slope, intercept = linear_fit(series)
        assert abs(slope[0] - 1.0) <= 0.12
        # closed-form check computed from scratch
        xs = [k - 4.5 for k in range(10)]
        expected = sum(x * (k + noise[k]) for k, x in enumerate(xs)) / sum(x * x for x in xs)
        assert slope[0] == pytest.approx(expected, abs=1e-12)
        assert intercept[0] == pytest.approx(
            sum(k + noise[k] for k in range(10)) / 10 - expected * 4.5, abs=1e-12
        )

    def test_matches_lstsq_oracle(self):
        rng = np.random.default_rng(34)
        series = rng.normal(size=(23, 2))
        slope, intercept = linear_fit(series)
        design = np.column_stack([np.arange(23.0), np.ones(23)])
        coeffs, *_ = np.linalg.lstsq(design, series, rcond=None)
        assert np.allclose(slope, coeffs[0], atol=1e-10)
        assert np.allclose(intercept, coeffs[1], atol=1e-10)

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError, match="2"):
            linear_fit(np.zeros((1, 2)))



class TestInstantaneousVelocity:
    def test_constant_velocity_exact(self):
        centers = np.array([[1.5 * k, -0.5 * k] for k in range(20)])
        assert np.allclose(instantaneous_velocity(centers, 10), [1.5, -0.5], atol=1e-12)

    def test_stationary(self):
        centers = np.full((8, 2), 3.0)
        assert np.array_equal(instantaneous_velocity(centers, 4), [0.0, 0.0])

    def test_hand_evaluated_step_pattern(self):
        # centers (max(0, k-2), 0) for k=0..3 with n2=2:
        # ((C2-C0) + (C3-C1)) / 4 = ((0,0) + (1,0)) / 4
        centers = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        assert np.allclose(instantaneous_velocity(centers, 2), [0.25, 0.0])

    def test_uses_most_recent_window(self):
        # old garbage followed by a clean constant-velocity tail
        head = np.full((5, 2), 99.0)
        tail = np.array([[2.0 * k, 0.0] for k in range(8)])
        centers = np.vstack([head, tail])
        assert np.allclose(instantaneous_velocity(centers, 4), [2.0, 0.0])

    def test_insufficient_history_rejected(self):
        with pytest.raises(ValueError, match="2"):
            instantaneous_velocity(np.zeros((7, 2)), 4)


WINDOW_PARAMS = [(5, 2), (21, 10), (50, 10), (50, 24), (64, 1)]


def windows(n1, bound=1e4):
    return hnp.arrays(
        np.float64, (n1, 4), elements=st.floats(-bound, bound, allow_nan=False)
    )


class TestBranchWeights:
    """Each branch is one dot product with a cached weight vector, pinned to
    the fit and velocity forms above."""

    @PROPERTY_SETTINGS
    @given(st.sampled_from(WINDOW_PARAMS).flatmap(lambda p: st.tuples(st.just(p), windows(p[0]))))
    def test_low_weights_evaluate_the_fit_at_n1(self, case):
        (n1, n2), window = case
        low, _ = _branch_weights(n1, n2)
        expected = fit_value(*linear_fit(window), n1)
        scale = 1.0 + np.abs(window).max()
        assert np.allclose(low @ window, expected, rtol=0.0, atol=1e-12 * scale)

    @PROPERTY_SETTINGS
    @given(st.sampled_from(WINDOW_PARAMS).flatmap(lambda p: st.tuples(st.just(p), windows(p[0]))))
    def test_high_weights_give_the_instantaneous_velocity(self, case):
        (n1, n2), window = case
        _, high = _branch_weights(n1, n2)
        expected = instantaneous_velocity(window[:, :2], n2)
        scale = 1.0 + np.abs(window).max()
        assert np.allclose((high @ window)[:2], expected, rtol=0.0, atol=1e-12 * scale)

    def test_weights_are_read_only_and_shared(self):
        low, high = _branch_weights(50, 10)
        again = _branch_weights(50, 10)
        assert again[0] is low and again[1] is high
        for vector in (low, high):
            with pytest.raises(ValueError, match="read-only"):
                vector[0] = 1.0


class TestParams:
    def test_defaults(self):
        params = MotionParams()
        assert (params.n1, params.n2, params.theta, params.lambda_ema) == (50, 10, 0.5, 0.7)

    def test_window_constraint(self):
        with pytest.raises(ValueError, match="n1"):
            MotionParams(n1=20, n2=10)
        MotionParams(n1=21, n2=10)  # smallest legal margin

    def test_threshold_range(self):
        with pytest.raises(ValueError):
            MotionParams(theta=0.0)
        with pytest.raises(ValueError):
            MotionParams(theta=1.0)

    def test_ema_range(self):
        with pytest.raises(ValueError):
            MotionParams(lambda_ema=1.5)
        MotionParams(lambda_ema=0.0)
        MotionParams(lambda_ema=1.0)


def warmed_state(params, boxes, grid):
    """Run the warm-up phase on a fixed response map, asserting pass-through."""
    state = TrackerState(params.n1)
    for box in boxes:
        out = refine_step(state, box, grid, params)
        assert out == box
        assert state.last_branch == WARMUP
    return state


def numbered_box(k):
    return BoundingBox(float(k), -2.0 * k, 1.0 + k, 2.0 + 0.5 * k)


class TestTrackerState:
    @settings(deadline=None)
    @given(st.integers(1, 6) | st.just(50), st.data())
    def test_history_is_last_capacity_boxes(self, capacity, data):
        # up to five buffer lengths of pushes, so the newest rows are copied
        # to the front several times; checked after every push
        pushes = data.draw(st.integers(0, 5 * 2 * capacity))
        state = TrackerState(capacity)
        boxes = [numbered_box(k) for k in range(pushes)]
        for k, box in enumerate(boxes, start=1):
            state._push((box.cx, box.cy, box.w, box.h))
            assert history(state) == tuple(boxes[max(k - capacity, 0) : k])
            assert history_rows(state).flags.c_contiguous
        assert state.capacity == capacity

    def test_history_cannot_be_mutated(self):
        # a push copies the row: changing the pushed list afterwards changes
        # nothing the tracker holds
        state = TrackerState(3)
        for k in range(4):
            box = numbered_box(k)
            row = [box.cx, box.cy, box.w, box.h]
            state._push(row)
            row[0] = 99.0
        assert history(state) == (numbered_box(1), numbered_box(2), numbered_box(3))

    @pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))])
    @pytest.mark.parametrize("frames, end", [(6, 6), (11, 5)])  # 11: right after a shift
    def test_a_copied_state_runs_on_alone(self, duplicate, frames, end):
        # the copy has its own rows: both go on to the same boxes, past the
        # next shift, and pushing into one leaves the other as it was
        params = MotionParams(n1=5, n2=2)
        state = warmed_state(params, [numbered_box(k) for k in range(5)], map_with_score(8.0))
        for k in range(5, frames):
            refine_step(state, numbered_box(k), map_with_score(6.0), params)
        assert state._end == end
        twin = duplicate(state)
        for k in range(frames, frames + 8):
            box, grid = numbered_box(k + 2), map_with_score(3.0 + k % 4)
            assert refine_step(twin, box, grid, params) == refine_step(state, box, grid, params)
        twin._push((0.0, 0.0, 1.0, 1.0))
        assert history(state)[-1] != history(twin)[-1] == BoundingBox(0.0, 0.0, 1.0, 1.0)

    def test_capacity_below_one_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            TrackerState(0)

    def test_past_warmup_with_short_history_rejected(self):
        params = MotionParams(n1=10, n2=4)
        state = TrackerState(params.n1)
        state.frame_index = params.n1
        before = state_fields(state)
        with pytest.raises(ValueError, match="past warm-up but history holds 0 boxes"):
            refine_step(state, BoundingBox(0.0, 0.0, 2.0, 2.0), map_with_score(5.0), params)
        assert state_fields(state) == before


def state_fields(state: TrackerState) -> dict:
    """Every field of ``state``, its row buffer as bytes."""
    return {
        name: value.tobytes() if isinstance(value, np.ndarray) else value
        for name, value in vars(state).items()
    }


def overflowing_map():
    """Finite cells whose total overflows: ``psr`` accepts the map and scores
    it nan, so the high branch blends the refined centre to nan."""
    grid = np.full((5, 5), 1e308)
    grid[2, 2] = 1.5e308
    return grid


# a frame refine_step rejects on a warmed state, as (map, params)
REJECTED_FRAMES = {
    "non-finite row": lambda params: (overflowing_map(), params),
    "map psr rejects": lambda params: (np.full((5, 5), np.nan), params),
    "capacity mismatch": lambda params: (
        map_with_score(8.0), MotionParams(n1=params.n1 + 1, n2=params.n2)
    ),
}


class TestRefineStep:
    def test_warmup_is_identity_and_appends(self):
        params = MotionParams(n1=10, n2=4)
        boxes = [BoundingBox(float(k), 2.0 * k, 5.0, 5.0) for k in range(10)]
        state = warmed_state(params, boxes, map_with_score(8.0))
        assert state.frame_index == 10
        assert len(history(state)) == 10
        assert list(history(state)) == boxes

    def test_high_confidence_stationary_equals_model(self):
        params = MotionParams()
        grid = map_with_score(8.0)
        boxes = [BoundingBox(10.0, 10.0, 5.0, 5.0)] * params.n1
        state = warmed_state(params, boxes, grid)
        refined = refine_step(state, BoundingBox(10.0, 10.0, 7.0, 9.0), grid, params)
        assert state.last_branch == HIGH_CONFIDENCE
        assert abs(refined.cx - 10.0) < 1e-9
        assert abs(refined.cy - 10.0) < 1e-9
        assert refined.w == pytest.approx(0.7 * 7.0 + 0.3 * 5.0)
        assert refined.h == pytest.approx(0.7 * 9.0 + 0.3 * 5.0)

    def test_new_psr_max_tracks_model_center_exactly(self):
        # at a fresh running maximum the blend weight is exactly 1, so the
        # refined center must land on the model center even mid-motion
        params = MotionParams()
        boxes = [BoundingBox(2.0 * k, 3.0 * k, 6.0, 6.0) for k in range(params.n1)]
        state = warmed_state(params, boxes, map_with_score(5.0))
        refined = refine_step(state, BoundingBox(30.0, 40.0, 6.0, 6.0), map_with_score(9.0), params)
        assert state.last_branch == HIGH_CONFIDENCE
        assert abs(refined.cx - 30.0) < 1e-9
        assert abs(refined.cy - 40.0) < 1e-9

    def test_mid_confidence_blends_velocity(self):
        params = MotionParams()
        boxes = [BoundingBox(2.0 * k, 3.0 * k, 6.0, 6.0) for k in range(params.n1)]
        state = warmed_state(params, boxes, map_with_score(8.0))
        low_grid = map_with_score(6.0)
        expected_npsr = brute_psr(low_grid) / brute_psr(map_with_score(8.0))
        model = BoundingBox(110.0, 160.0, 6.0, 6.0)
        refined = refine_step(state, model, low_grid, params)
        assert state.last_branch == HIGH_CONFIDENCE
        alpha = expected_npsr**2
        # instantaneous velocity over the exact line is (2, 3) per frame
        expected_cx = 98.0 + alpha * (110.0 - 98.0) + (1 - alpha) * 2.0
        expected_cy = 147.0 + alpha * (160.0 - 147.0) + (1 - alpha) * 3.0
        assert refined.cx == pytest.approx(expected_cx, abs=1e-6)
        assert refined.cy == pytest.approx(expected_cy, abs=1e-6)

    def test_low_confidence_extrapolates_line(self):
        params = MotionParams()
        boxes = [BoundingBox(2.0 * k, 3.0 * k, 20.0, 14.0) for k in range(params.n1)]
        state = warmed_state(params, boxes, map_with_score(8.0))
        model = BoundingBox(500.0, 500.0, 9.0, 9.0)  # must be discarded
        refined = refine_step(state, model, map_with_score(2.0), params)
        assert state.last_branch == LOW_CONFIDENCE
        assert abs(refined.cx - 2.0 * params.n1) < 1e-9
        assert abs(refined.cy - 3.0 * params.n1) < 1e-9
        assert refined.w == pytest.approx(20.0, abs=1e-9)
        assert refined.h == pytest.approx(14.0, abs=1e-9)

    def test_refined_box_joins_history(self):
        params = MotionParams(n1=10, n2=4)
        grid = map_with_score(8.0)
        boxes = [BoundingBox(1.0 * k, 1.0 * k, 5.0, 5.0) for k in range(10)]
        state = warmed_state(params, boxes, grid)
        refined = refine_step(state, BoundingBox(11.0, 11.0, 5.0, 5.0), grid, params)
        assert history(state)[-1] == refined
        assert len(history(state)) == 10  # capacity bound: oldest evicted
        assert history(state)[0] == boxes[1]
        assert state.frame_index == 11

    def test_size_floor(self):
        params = MotionParams(n1=10, n2=4)
        grid = map_with_score(8.0)
        boxes = [BoundingBox(5.0, 5.0, 1.2, 1.2)] * 10
        state = warmed_state(params, boxes, grid)
        refined = refine_step(state, BoundingBox(5.0, 5.0, 0.01, 0.01), grid, params)
        assert refined.w >= 1.0 and refined.h >= 1.0

    def test_capacity_mismatch_rejected(self):
        state = TrackerState(20)
        with pytest.raises(ValueError, match="capacity"):
            refine_step(
                state,
                BoundingBox(0.0, 0.0, 2.0, 2.0),
                map_with_score(5.0),
                MotionParams(n1=50),
            )

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_refined_centre_rejected(self):
        # n2 = 1 weighs the last two centres by -1 and +1, so a history
        # ending -1.7e308, +1.7e308 gives vx = inf; the blend toward a model
        # centre of -1.7e308 adds -inf, and the refined cx is inf - inf = nan
        params = MotionParams(n1=3, n2=1)
        state = TrackerState(params.n1)
        for cx in (0.0, -1.7e308, 1.7e308):
            refine_step(state, BoundingBox(cx, 0.0, 2.0, 2.0), map_with_score(8.0), params)
        model = BoundingBox(-1.7e308, 0.0, 2.0, 2.0)
        before = state_fields(state)
        with pytest.raises(ValueError, match="^box field cx must be finite$"):
            refine_step(state, model, map_with_score(60.0), params)
        assert state_fields(state) == before  # no frame counted, no new maximum

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([(3, 1), (5, 2), (9, 4)]),
        st.integers(9, 40),
        st.sampled_from(sorted(REJECTED_FRAMES)),
        st.integers(0, 2**32 - 1),
    )
    def test_a_rejected_frame_changes_nothing(self, windows, frames, rejection, seed):
        # the frame after a rejected one goes on as if it had never been given
        n1, n2 = windows
        params = MotionParams(n1=n1, n2=n2)
        raw, maps = random_sequence(seed, frames + 2, (5, 5))
        boxes = [BoundingBox(*row) for row in raw.tolist()]
        state = TrackerState(n1)
        for box, grid in zip(boxes[:frames], maps):
            refine_step(state, box, grid, params)
        twin, before = copy.deepcopy(state), state_fields(state)
        grid, step_params = REJECTED_FRAMES[rejection](params)
        with np.errstate(all="ignore"), pytest.raises(ValueError):
            refine_step(state, boxes[frames], grid, step_params)
        assert state_fields(state) == before
        box, grid = boxes[frames + 1], maps[frames + 1]
        assert refine_step(state, box, grid, params) == refine_step(twin, box, grid, params)
        assert state_fields(state) == state_fields(twin)

    def test_nan_branch_output_rejected_with_the_box_message(self, monkeypatch):
        params = MotionParams(n1=3, n2=1)
        state = TrackerState(params.n1)
        for k in range(3):
            refine_step(state, BoundingBox(float(k), 0.0, 2.0, 2.0), map_with_score(8.0), params)
        monkeypatch.setattr(motion, "_branch_weights", lambda n1, n2: (np.full(n1, np.nan),) * 2)
        with pytest.raises(ValueError, match="^box field cx must be finite$"):
            refine_step(state, BoundingBox(3.0, 0.0, 2.0, 2.0), map_with_score(2.0), params)

    def test_overflowing_but_finite_refined_row_is_accepted(self):
        # cx + cy overflows, yet every field is finite: the row is a valid box
        params = MotionParams(n1=3, n2=1)
        state = TrackerState(params.n1)
        big = BoundingBox(1.5e308, 1.5e308, 2.0, 2.0)
        for _ in range(3):
            refine_step(state, big, map_with_score(8.0), params)
        assert refine_step(state, big, map_with_score(8.0), params) == big
        assert state.last_branch == HIGH_CONFIDENCE

    def test_trace_fields_populated(self):
        params = MotionParams(n1=5, n2=2)
        state = TrackerState(5)
        grid = map_with_score(4.0)
        refine_step(state, BoundingBox(0.0, 0.0, 2.0, 2.0), grid, params)
        assert state.last_psr == pytest.approx(4.0, abs=1e-6)
        assert state.last_npsr == 1.0
        assert state.last_branch == WARMUP



# ---------------------------------------------------------------------------
# whole-sequence scoring: the batched kernel against psr, map by map


def assert_maps_score_as_psr(maps):
    """``_psr_maps`` gives ``psr`` of every map bit for bit, on the stack and
    on a list of its maps."""
    expected = np.array([psr(grid) for grid in maps])
    for given_maps in (maps, list(maps)):
        assert np.array(_psr_maps(given_maps)).tobytes() == expected.tobytes()


def psr_outcome(score, maps):
    """``score(maps)``'s values as bytes, or the message of the
    ``ValueError`` it raises."""
    try:
        return np.array(score(maps)).tobytes()
    except ValueError as exc:
        return str(exc)


def assert_same_error(maps):
    """``_psr_maps`` raises the error ``psr`` raises on the first map it
    rejects, word for word."""
    for grid in maps:
        try:
            psr(grid)
        except ValueError as exc:
            expected = str(exc)
            break
    else:
        raise AssertionError("psr accepts every map")
    for given_maps in (maps, list(maps)):
        with pytest.raises(ValueError) as caught:
            _psr_maps(given_maps)
        assert str(caught.value) == expected


# stacks of 1-150 maps, so that block edges are crossed, of one shape from
# 3x4 to 30x30 (odd and even cell counts; never 3x3, which can have no sidelobe)
STACK_SIZES = st.integers(1, 150)
STACK_SHAPES = st.tuples(st.integers(3, 30), st.integers(3, 30)).filter(lambda s: s != (3, 3))
# shapes psr may reject: under 3x3, and 3x3 (often), where a centre peak has no sidelobe
SMALL_SHAPES = st.one_of(st.just((3, 3)), st.tuples(st.integers(0, 5), st.integers(0, 5)))
SEEDS = st.integers(0, 2**32 - 1)
BATCH_SETTINGS = settings(max_examples=60, deadline=None)


def stack(seed, count, shape, low=-(2**20), high=2**20):
    """``count`` maps of dyadic cells (multiples of 2**-10) in ``[low, high)``
    units."""
    rng = np.random.default_rng(seed)
    return rng.integers(low, high, size=(count, *shape)) / 1024.0, rng


class TestPsrMaps:
    def test_stacks_cross_block_edges(self):
        assert 1 < BLOCK_FRAMES < 150

    @BATCH_SETTINGS
    @given(SEEDS, STACK_SIZES, STACK_SHAPES)
    def test_dyadic_stacks(self, seed, count, shape):
        maps, _ = stack(seed, count, shape)
        assert_maps_score_as_psr(maps)

    @BATCH_SETTINGS
    @given(SEEDS, STACK_SIZES, STACK_SHAPES, st.floats(1.0, 1e3))
    def test_random_stacks_with_tall_peaks(self, seed, count, shape, peak_gain):
        rng = np.random.default_rng(seed)
        maps = rng.uniform(0.0, 1.0, size=(count, *shape))
        cells = maps.reshape(count, -1)
        cells[np.arange(count), rng.integers(cells.shape[1], size=count)] *= peak_gain
        assert_maps_score_as_psr(maps)

    @BATCH_SETTINGS
    @given(SEEDS, STACK_SIZES, STACK_SHAPES)
    def test_tied_plateaus_first_peak_wins(self, seed, count, shape):
        maps, _ = stack(seed, count, shape, -4, 5)  # 9 values: the maximum is tied
        assert_maps_score_as_psr(maps)

    @BATCH_SETTINGS
    @given(SEEDS, STACK_SIZES, STACK_SHAPES)
    def test_border_and_corner_peaks(self, seed, count, shape):
        maps, rng = stack(seed, count, shape, -1023, 1024)
        rows, cols = shape
        corners = [(0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1)]
        border = corners + [(0, j) for j in range(cols)] + [(i, 0) for i in range(rows)]
        border += [(rows - 1, j) for j in range(cols)] + [(i, cols - 1) for i in range(rows)]
        for grid, pick in zip(maps, rng.integers(len(border), size=count)):
            grid[border[pick]] = 2.0  # above every other cell, on the border
        assert_maps_score_as_psr(maps)

    @BATCH_SETTINGS
    @given(SEEDS, STACK_SIZES, STACK_SHAPES)
    def test_peak_blocks_are_summed_in_psrs_order(self, seed, count, shape):
        # cells of mixed magnitudes and signed zeros: a block's sum depends on
        # the order of its additions, which must be psr's
        rng = np.random.default_rng(seed)
        maps = rng.uniform(0.0, 1.0, size=(count, *shape))
        maps *= 10.0 ** rng.integers(-18, 18, size=maps.shape)
        maps[rng.random(maps.shape) < 0.2] = -0.0
        assert_maps_score_as_psr(maps)

    @BATCH_SETTINGS
    @given(SEEDS, STACK_SIZES, STACK_SHAPES)
    def test_peak_at_cell_zero_and_constant_maps(self, seed, count, shape):
        # the flat check runs on the maps that peak at cell 0, constant or not
        maps, rng = stack(seed, count, shape)
        cells = maps.reshape(count, -1)
        cells[:, 0] = cells.max(axis=1)
        constant = rng.random(count) < 0.5
        cells[constant] = rng.uniform(-1e300, 1e300, size=(int(constant.sum()), 1))
        assert_maps_score_as_psr(maps)

    def test_three_by_three_maps(self):
        maps = np.zeros((5, 3, 3))
        maps[1, 0, 0] = maps[2, 2, 1] = 1.0  # corner and edge peaks; two flat maps
        assert_maps_score_as_psr(maps[:4])
        maps[3, 1, 1] = 1.0  # a centre peak leaves no sidelobe
        assert_same_error(maps[:4])
        maps[4, 0, 0] = np.nan  # a nan after it: the centre peak's error still
        assert_same_error(maps[3:])

    @BATCH_SETTINGS
    @given(SEEDS, STACK_SIZES, SMALL_SHAPES, st.data())
    def test_chunks_psr_rejects_or_scores_alone(self, seed, count, shape, data):
        # maps under 3x3, 3x3 maps flat or not, nan cells: each chunk gives
        # psr's values, or the error psr raises on its first rejected map
        maps, rng = stack(seed, count, shape, -2, 3)  # five values: ties, centre peaks
        maps[rng.random(count) < 0.3] = 1.0  # flat maps
        if maps.size and data.draw(st.booleans()):
            maps.flat[rng.integers(maps.size)] = np.nan
        expected = psr_outcome(lambda chunk: [psr(grid) for grid in chunk], maps)
        for given_maps in (maps, list(maps)):
            assert psr_outcome(_psr_maps, given_maps) == expected

    def test_block_sum_is_left_to_right(self):
        # one block row sums to 0.0 left to right and to 1.0 compensated
        # (math.fsum, as Python 3.12's sum does here): psr takes the first,
        # on the one map and in a batched pass
        grid = np.zeros((5, 5))
        grid[2, 1:4] = [1.0, 1e16, -1e16]  # the peak 1e16 at (2, 2)
        block = grid[1:4, 1:4].tolist()
        plain = 0.0
        for row in block:
            row_sum = 0.0
            for cell in row:
                row_sum += cell
            plain += row_sum
        assert plain == 0.0 and math.fsum(grid[2, 1:4]) == 1.0

        def psr_with_block_sum(block_sum):
            mean = (float(np.vdot(grid, np.ones(25))) - block_sum) / 16
            centered = grid - mean
            centered[1:4, 1:4] = 0.0
            return (1e16 - mean) / (math.sqrt(np.vdot(centered, centered) / 16) + 1e-6)

        assert psr(grid) == psr_with_block_sum(plain) != psr_with_block_sum(1.0)
        assert_maps_score_as_psr(np.stack([grid, grid.T, grid]))

    def test_maps_of_mixed_shapes_are_scored_one_by_one(self):
        rng = np.random.default_rng(7)
        maps = [rng.uniform(size=shape) for shape in [(5, 5), (7, 4), (5, 5), (30, 3)] * 20]
        assert np.array(_psr_maps(maps)).tobytes() == np.array([psr(m) for m in maps]).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("frame", [0, 63, 64, 99])
    def test_non_finite_cells_rejected(self, bad, frame):
        maps, _ = stack(11, 100, (6, 7))
        maps[frame, 4, 2] = bad
        assert_same_error(maps)

    @pytest.mark.parametrize("shape", [(2, 5), (5, 2), (0, 4)])
    def test_maps_under_three_by_three_rejected(self, shape):
        assert_same_error(np.zeros((3, *shape)))

    @pytest.mark.parametrize("maps", [np.zeros((4, 25)), np.zeros((4, 1, 5, 5)), [np.zeros(9)] * 3])
    def test_maps_that_are_not_two_d_rejected(self, maps):
        assert_same_error(maps)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_total_of_finite_cells_is_accepted(self):
        # every cell is finite, only the totals overflow: psr's value (nan) is kept
        maps = np.full((70, 5, 5), 1e308)
        maps[:, 2, 2] = 1.5e308
        maps[1::2] *= -1.0
        assert_maps_score_as_psr(maps)

    def test_no_warning_where_psr_gives_none(self, recwarn):
        maps = np.full((3, 5, 5), 1e308)
        maps[:, 2, 2] = 1.5e308
        expected = [psr(grid) for grid in maps]
        recwarn.clear()
        assert np.array(_psr_maps(maps)).tobytes() == np.array(expected).tobytes()
        assert len(recwarn) == 0


def random_sequence(seed, frames, shape):
    """Raw rows of a wandering box and its response maps."""
    rng = np.random.default_rng(seed)
    raw = np.column_stack([
        np.cumsum(rng.normal(0.0, 2.0, frames)), np.cumsum(rng.normal(0.0, 2.0, frames)),
        rng.uniform(4.0, 12.0, frames), rng.uniform(4.0, 12.0, frames),
    ])
    maps = rng.uniform(0.0, 1.0, size=(frames, *shape))
    maps[:, shape[0] // 2, shape[1] // 2] += rng.uniform(0.0, 20.0, frames)
    return raw, maps


class TestTrackRowsScoring:
    """``track_rows`` on the maps' PSR column gives the floats of a
    ``refine_step`` loop on the maps."""

    @settings(max_examples=30, deadline=None)
    @given(SEEDS, st.integers(2, 150), STACK_SHAPES, st.booleans(), st.booleans())
    def test_matches_a_refine_step_loop(self, seed, frames, shape, refine, as_list):
        raw, maps = random_sequence(seed, frames, shape)
        params = MotionParams(n1=12, n2=4)
        given_maps = list(maps) if as_list else maps
        rows, psrs, npsrs, branches = track_rows(raw, _psr_maps(given_maps), params, refine)
        state = TrackerState(params.n1)
        hand, trace = [], []
        for row, grid in zip(raw.tolist(), maps):
            if refine:
                box = refine_step(state, BoundingBox(*row), grid, params)
                hand.append((box.cx, box.cy, box.w, box.h))
                trace.append((state.last_psr, state.last_npsr, state.last_branch))
            else:
                hand.append(tuple(row))
                trace.append((psr(grid), normalized_psr(grid, state), "raw"))
        assert rows.tobytes() == np.array(hand).tobytes()
        assert np.array([psrs, npsrs]).tobytes() == np.array([t[:2] for t in trace]).T.tobytes()
        assert branches == [t[2] for t in trace]

    @pytest.mark.parametrize("n1, n2", [(3, 1), (5, 2)])
    def test_a_refine_step_loop_over_four_shifts(self, n1, n2):
        # the history's rows are copied to the front once every n1 + 1
        # pushes after the first 2 * n1: 60 frames hold at least four copies
        raw, maps = random_sequence(7, 60, (9, 9))
        params = MotionParams(n1=n1, n2=n2)
        rows, psrs, npsrs, branches = track_rows(raw, _psr_maps(maps), params, True)
        state, hand, trace, shifts = TrackerState(n1), [], [], 0
        for row, grid in zip(raw.tolist(), maps):
            end = state._end
            box = refine_step(state, BoundingBox(*row), grid, params)
            shifts += state._end < end
            hand.append((box.cx, box.cy, box.w, box.h))
            trace.append((state.last_psr, state.last_npsr, state.last_branch))
        assert shifts >= 4 and {LOW_CONFIDENCE, HIGH_CONFIDENCE} <= set(branches)
        assert rows.tobytes() == np.array(hand).tobytes()
        assert np.array([psrs, npsrs]).tobytes() == np.array([t[:2] for t in trace]).T.tobytes()
        assert branches == [t[2] for t in trace]

    @pytest.mark.parametrize("as_list", [False, True])
    @pytest.mark.parametrize("refine", [True, False])
    def test_memory_stays_within_a_few_blocks(self, as_list, refine):
        # 2,000 25x25 maps are 10 MB; the scoring works a block at a time,
        # so no temporary the size of the sequence (a stacked copy, a
        # (T, H*W) product) may appear
        raw, maps = random_sequence(3, 2000, (25, 25))
        given_maps = list(maps) if as_list else maps
        params = MotionParams()
        # caches built outside the trace
        track_rows(raw[:100], _psr_maps(given_maps[:100]), params, refine)
        tracemalloc.start()
        try:
            track_rows(raw, _psr_maps(given_maps), params, refine)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * BLOCK_FRAMES * maps[0].nbytes


# a (T, H, W) stack of C-contiguous maps in other memory layouts; each is
# scored as its C-contiguous copy, whose dot products run in one order
LAYOUTS = {
    "strided": lambda maps: maps[:, :, ::2],
    "transposed": lambda maps: maps.transpose(0, 2, 1),
    "fortran": np.asfortranarray,
    "reversed": lambda maps: maps[:, ::-1, ::-1],
}


class TestMapLayout:
    """A map's memory layout does not change its PSR: ``psr``, ``_psr_maps``
    (so ``track_rows`` on its column) and a ``refine_step`` loop all score
    the C-contiguous copy."""

    @pytest.fixture(scope="class")
    def sequence(self):
        raw, _ = random_sequence(7, 200, (3, 4))
        maps = np.random.default_rng(7).uniform(size=(200, 25, 50))
        return raw, maps

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_psr_scores_the_contiguous_copy(self, layout, sequence):
        views = LAYOUTS[layout](sequence[1])
        copies = np.ascontiguousarray(views)
        expected = np.array([psr(grid) for grid in copies])
        assert np.array([psr(grid) for grid in views]).tobytes() == expected.tobytes()
        assert np.array([psr(np.asfortranarray(grid)) for grid in copies]).tobytes() == (
            expected.tobytes()
        )
        for given_maps in (views, list(views)):
            assert np.array(_psr_maps(given_maps)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_tracking_scores_the_contiguous_copy(self, layout, sequence):
        raw, maps = sequence
        views = LAYOUTS[layout](maps)
        params = MotionParams(n1=12, n2=4)
        expected = track_rows(raw, _psr_maps(np.ascontiguousarray(views)), params, True)
        for given_maps in (views, list(views)):
            columns = track_rows(raw, _psr_maps(given_maps), params, True)
            assert [np.asarray(c).tobytes() for c in columns[:3]] == [
                np.asarray(c).tobytes() for c in expected[:3]
            ]
            assert columns[3] == expected[3]
        state = TrackerState(params.n1)
        loop = [
            (refine_step(state, BoundingBox(*row), grid, params), state.last_psr, state.last_npsr)
            for row, grid in zip(raw.tolist(), views)
        ]
        boxes = np.array([(b.cx, b.cy, b.w, b.h) for b, _, _ in loop])
        assert boxes.tobytes() == expected[0].tobytes()
        assert np.array([r[1:] for r in loop]).T.tobytes() == np.array(expected[1:3]).tobytes()


# cells of one (n1, 4) history window: magnitudes from 1e-300 to 1e300 of
# either sign, signed zeros and subnormals
WINDOW_CELLS = st.one_of(
    st.floats(-1e300, 1e300),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310]),
)


class TestBlasIdentities:
    """``weights.dot(window)``, which the branch kernel takes in place of
    ``weights @ window``, gives the same bits.  If a numpy release routes
    one of the two calls to another kernel, this test names it."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(WINDOW_PARAMS), st.data())
    def test_branch_dot_is_matmul(self, case, data):
        n1, n2 = case
        window = data.draw(hnp.arrays(np.float64, (n1, 4), elements=WINDOW_CELLS))
        with np.errstate(all="ignore"):  # products past the float range overflow alike
            for weights in _branch_weights(n1, n2):
                assert weights.dot(window).tobytes() == (weights @ window).tobytes()


def psr_columns(allow_infinity=True):
    """Non-negative PSR columns: an all-zero prefix (``0.0`` and ``-0.0``),
    then runs of equal values, zeros (and infinity) among them."""
    zero = st.sampled_from([0.0, -0.0])
    value = st.one_of(
        zero, st.floats(min_value=0.0, allow_infinity=allow_infinity), st.sampled_from([1.0, 7.5])
    )
    runs = st.lists(st.tuples(value, st.integers(1, 40)), max_size=12)
    return st.tuples(st.lists(zero, max_size=30), runs).map(
        lambda parts: parts[0] + [v for v, count in parts[1] for _ in range(count)]
    )


def loop_normalized(values) -> np.ndarray:
    psr_max, npsrs = 0.0, []
    for value in values:
        psr_max, npsr = _normalize(value, psr_max)
        npsrs.append(npsr)
    return np.array(npsrs, dtype=float)


class TestArrayDecisions:
    """nPSR, warm-up and branch decided as arrays give the loop's floats and
    labels: only the history recurrence is looped."""

    @settings(max_examples=300, deadline=None)
    @given(psr_columns())
    def test_array_npsr_is_a_normalize_loop_bit_for_bit(self, values):
        column = np.array(values, dtype=float)
        assert _normalized(column).tobytes() == loop_normalized(values).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(), max_size=60))
    def test_any_float_column_too(self, values):
        # a PSR can round below zero, and an overflowing map scores nan
        column = np.array(values, dtype=float)
        assert _normalized(column).tobytes() == loop_normalized(values).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        SEEDS,
        st.integers(2, 90),
        psr_columns(allow_infinity=False),
        st.floats(0.05, 0.95),
        st.sampled_from([(9, 4), (12, 4), (30, 2)]),
    )
    def test_rows_and_labels_are_a_refine_step_loop(self, seed, frames, column, theta, windows):
        n1, n2 = windows
        params = MotionParams(n1=n1, n2=n2, theta=theta)
        raw, _ = random_sequence(seed, frames, (3, 4))
        values = np.resize(np.array(column or [0.0]), frames)
        state, records = TrackerState(n1), []
        # each frame's "map" is its PSR value, which psr passes through
        with mock.patch.object(motion, "psr", lambda value: value):
            for row, value in zip(raw.tolist(), values.tolist()):
                box = refine_step(state, BoundingBox(*row), value, params)
                records.append(((box.cx, box.cy, box.w, box.h), state.last_npsr, state.last_branch))
        rows, psrs, npsrs, branches = track_rows(raw, values, params, True)
        assert rows.tobytes() == np.array([r[0] for r in records], dtype=float).tobytes()
        assert npsrs.tobytes() == np.array([r[1] for r in records]).tobytes()
        assert psrs is values and branches == [r[2] for r in records]
        assert branches[:n1] == [WARMUP] * min(n1, frames)
        assert set(branches[n1:]) <= {LOW_CONFIDENCE, HIGH_CONFIDENCE}

    def test_refinement_off_copies_the_raw_rows(self):
        raw, _ = random_sequence(5, 40, (3, 4))
        values = np.linspace(0.0, 9.0, 40)
        rows, psrs, npsrs, branches = track_rows(raw, values, MotionParams(), False)
        assert rows.tobytes() == raw.tobytes() and rows is not raw
        assert npsrs.tobytes() == loop_normalized(values.tolist()).tobytes()
        assert branches == ["raw"] * 40


# PSR values a caller may hand over: any float, NaN and both infinities,
# signed zeros and negatives among scores of a map's size, which keep nPSR
# near 1 often enough to reach the high branch
ANY_PSR = st.one_of(
    st.floats(1.0, 10.0),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0]),
)


def scalar_track(raw, column, params, refine):
    """``track_rows`` as a scalar loop: the ``normalized_psr`` oracle on each
    frame's PSR, then the raw row or ``_branch_row`` on the rows so far."""
    n1, state, rows, npsrs, branches = params.n1, TrackerState(params.n1), [], [], []
    with mock.patch.dict(globals(), psr=float):  # each frame's "map" is its PSR
        for k, (row, value) in enumerate(zip(raw, column)):
            npsr = normalized_psr(value, state)
            if not refine or k < n1:
                branch = WARMUP if refine else "raw"
            else:
                low = npsr < params.theta
                row = _branch_row(np.array(rows[k - n1 : k]), rows[-1], row, npsr, low, params)
                branch = LOW_CONFIDENCE if low else HIGH_CONFIDENCE
            rows.append(list(row))
            npsrs.append(npsr)
            branches.append(branch)
    return np.array(rows), np.array(column, dtype=float), np.array(npsrs), branches


def outcome(run):
    """The record columns' bytes and labels of ``run()``, or its error."""
    try:
        rows, psrs, npsrs, branches = run()
    except ValueError as error:
        return str(error)
    return rows.tobytes(), psrs.tobytes(), npsrs.tobytes(), branches


class TestPsrColumn:
    """``track_rows`` takes the maps' ``(T,)`` PSR column, never the maps:
    any other shape is one error, and any float column refines as a scalar
    loop does."""

    @pytest.mark.parametrize("shape", [(30, 5, 5), (29,), (31,), (30, 1), (1, 30), ()])
    def test_maps_or_a_misshapen_column_are_rejected(self, shape):
        raw, _ = random_sequence(3, 30, (3, 4))
        for column in (np.ones(shape), np.ones(shape).tolist()):
            with pytest.raises(ValueError, match=r"^psrs must be the \(30,\) PSR column"):
                track_rows(raw, column, MotionParams(n1=9, n2=4), True)

    @settings(max_examples=150, deadline=None)
    @given(
        SEEDS,
        st.lists(ANY_PSR, min_size=2, max_size=60),
        st.sampled_from([(3, 1), (9, 4)]),
        st.floats(0.05, 0.95),
        st.booleans(),
    )
    def test_any_column_is_a_scalar_loop_bit_for_bit(self, seed, column, windows, theta, refine):
        params = MotionParams(n1=windows[0], n2=windows[1], theta=theta)
        raw, _ = random_sequence(seed, len(column), (3, 4))
        assert outcome(lambda: track_rows(raw, column, params, refine)) == outcome(
            lambda: scalar_track(raw.tolist(), column, params, refine)
        )

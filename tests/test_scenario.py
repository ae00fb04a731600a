"""Simulator behavior: determinism, occlusion dynamics, response-map shape."""

import math
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from sattrack import (
    BoundingBox,
    MotionParams,
    ScenarioConfig,
    TrackerState,
    generate_scenario,
    generate_scenario_rows,
    normalized_psr,
    psr,
    refine_step,
    run_tracking,
    track_rows,
)
from sattrack.boxes import box_rows
from sattrack.formats import ConfigError
from sattrack.metrics import center_errors
from sattrack.scenario import (
    BLOCK_FRAMES,
    CLUTTER_AMP,
    CLUTTER_CLEARANCE,
    CLUTTER_NOISE_SIGMA,
    PLACEMENT_TRIES,
    TRACK_JITTER_SIGMA,
    WALK_SIGMA,
    FrameObservation,
    _add_peaks,
    _profiles,
    _streams,
    _synthesize,
    _walk,
)


def clean_config(frames=120, seed=0, **overrides):
    base = dict(
        frame_count=frames,
        waypoints=((1, 30.0, 40.0), (frames, 150.0, 120.0)),
        target_size=(12.0, 8.0),
        occlusions=(),
        distractor_count=0,
        noise_sigma=0.0,
        seed=seed,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def synthesize_response_map(
    center_cell, sharpness=1.0, distractors=0, noise_sigma=0.0, map_size=(25, 25), seed=0
):
    """One standalone response map: the scenario synthesis of one frame whose
    target is in view at ``center_cell``, from the cell, amplitude and noise
    streams of ``seed``."""
    maps, _ = _synthesize(
        _streams(seed)[1:],
        _profiles(map_size, sharpness),
        np.array([center_cell], dtype=np.intp),
        np.ones(1, dtype=bool),
        np.zeros(1, dtype=bool),
        distractors,
        noise_sigma,
    )
    return maps[0]


class TestConfigValidation:
    def test_waypoints_must_start_at_one(self):
        with pytest.raises(ValueError, match="frame 1"):
            clean_config(waypoints=((2, 0.0, 0.0), (120, 9.0, 9.0)))

    def test_waypoints_must_end_at_frame_count(self):
        with pytest.raises(ValueError, match="end"):
            clean_config(waypoints=((1, 0.0, 0.0), (80, 9.0, 9.0)))

    def test_waypoints_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            clean_config(
                waypoints=((1, 0.0, 0.0), (60, 5.0, 5.0), (60, 6.0, 6.0), (120, 9.0, 9.0))
            )

    def test_occlusion_bounds_checked(self):
        with pytest.raises(ValueError, match="outside"):
            clean_config(occlusions=((100, 130),))

    def test_occlusions_must_be_disjoint(self):
        with pytest.raises(ValueError, match="disjoint"):
            clean_config(occlusions=((10, 30), (25, 40)))

    def test_sharpness_positive(self):
        with pytest.raises(ValueError, match="sharpness"):
            clean_config(peak_sharpness=0.0)

    @pytest.mark.parametrize("sharpness", [1e-162, 1e-300, 5e-324])
    def test_sharpness_whose_square_underflows_rejected(self, sharpness):
        # 2 * s * s is 0.0: the profiles would divide 0 by 0
        with pytest.raises(ValueError, match=r"^peak_sharpness must be > 0 with 2 \* s \* s > 0, got "):
            clean_config(peak_sharpness=sharpness)

    def test_tiny_sharpness_is_a_one_cell_peak_without_warning(self):
        # 2 * s * s is subnormal: every offset's exponent overflows to -inf,
        # and exp gives the exact 0.0 off the peak cell
        config = clean_config(frames=3, peak_sharpness=1e-160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, maps, _, _ = generate_scenario_rows(config)
        assert np.count_nonzero(maps[0]) == 1 and maps[0].max() == 1.0

    def test_map_size_minimum(self):
        with pytest.raises(ValueError, match="3x3"):
            clean_config(map_size=(2, 25))

    def test_three_by_three_map_rejected(self):
        # PSR leaves out the 3x3 block around the peak: a centre peak has no sidelobe
        with pytest.raises(ValueError, match="map_size must be larger than 3x3"):
            clean_config(map_size=(3, 3))
        assert clean_config(map_size=(3, 4)).map_size == (3, 4)

    def test_target_size_positive(self):
        with pytest.raises(ValueError, match="target_size"):
            clean_config(target_size=(0.0, 5.0))

    @pytest.mark.parametrize("size", [(math.inf, 4.0), (4.0, math.nan), (-math.inf, 4.0)])
    def test_target_size_finite(self, size):
        with pytest.raises(ValueError, match=r"^target_size must be finite and positive, got \("):
            clean_config(target_size=size)

    @pytest.mark.parametrize("x, y", [(math.inf, 0.0), (0.0, math.nan), (-math.inf, 1.0)])
    def test_waypoint_coordinates_finite(self, x, y):
        waypoints = ((1, 0.0, 0.0), (60, x, y), (120, 9.0, 9.0))
        with pytest.raises(ValueError, match=r"^waypoint coordinates must be finite, got \(60, "):
            clean_config(waypoints=waypoints)


class TestSynthesizeResponseMap:
    def test_peak_at_center(self):
        grid = synthesize_response_map((7, 11))
        assert grid.shape == (25, 25)
        assert np.unravel_index(grid.argmax(), grid.shape) == (7, 11)
        assert grid[7, 11] == pytest.approx(1.0)

    def test_nonnegative(self):
        grid = synthesize_response_map((5, 5), distractors=4, noise_sigma=0.1, seed=3)
        assert (grid >= 0).all()

    def test_distractors_lower_psr(self):
        clean = synthesize_response_map((12, 12), seed=7)
        cluttered = synthesize_response_map((12, 12), distractors=5, seed=7)
        assert psr(clean) > psr(cluttered)

    def test_distractors_lower_psr_in_expectation(self):
        wins = 0
        for seed in range(30):
            clean = synthesize_response_map((12, 12), seed=seed)
            cluttered = synthesize_response_map((12, 12), distractors=5, seed=seed)
            wins += psr(clean) > psr(cluttered)
        assert scipy.stats.binomtest(wins, 30, alternative="greater").pvalue < 0.01

    def test_near_delta_at_tiny_sharpness(self):
        grid = synthesize_response_map((12, 12), sharpness=0.1)
        assert grid[12, 12] == pytest.approx(1.0)
        sidelobe = grid.copy()
        sidelobe[11:14, 11:14] = 0.0
        assert sidelobe.mean() < 1e-8

    def test_deterministic(self):
        a = synthesize_response_map((4, 20), distractors=3, noise_sigma=0.05, seed=11)
        b = synthesize_response_map((4, 20), distractors=3, noise_sigma=0.05, seed=11)
        assert np.array_equal(a, b)

    def test_out_of_bounds_center_rejected(self):
        # an offset a map or more away, or one too far to round to an
        # integer, puts the target outside the window; its cell is unused
        gt_x = np.array([0.0, 1e300, np.inf, 0.0, 200.0, 0.0])
        gt_y = np.array([0.0, 0.0, 0.0, np.nan, 0.0, -96.0])
        steps = np.zeros((6, 2))
        _, cells, inside = _walk(gt_x, gt_y, np.zeros(6, dtype=bool), steps, (25, 25), 8.0)
        assert inside.tolist() == [True, False, False, False, False, True]
        assert cells[0].tolist() == [12, 12] and cells[5].tolist() == [0, 12]
        _, cells, inside = _walk(gt_x[:2], gt_y[:2], np.zeros(2, dtype=bool),
                                 steps[:2], (3, 3), 1e-310)
        assert inside.tolist() == [True, False]


def reference_walk(gt_x, gt_y, occluded, steps, shape, cell_scale):
    """The raw-box walk one frame at a time on Python floats: the oracle of
    ``_walk``, which decides runs of locked frames as arrays."""
    rows, cols = shape
    raw_x, raw_y = float(gt_x[0]), float(gt_y[0])
    path, cells, inside = [], [], []
    for gx, gy, hidden, (dx, dy) in zip(
        gt_x.tolist(), gt_y.tolist(), occluded.tolist(), steps.tolist()
    ):
        di, dj = (gy - raw_y) / cell_scale, (gx - raw_x) / cell_scale
        ci = cj = 0
        in_window = abs(di) < rows and abs(dj) < cols
        if in_window:
            ci, cj = rows // 2 + round(di), cols // 2 + round(dj)
            in_window = 0 <= ci < rows and 0 <= cj < cols
        if in_window and not hidden:
            raw_x, raw_y = gx + dx, gy + dy
        else:
            raw_x, raw_y = raw_x + dx, raw_y + dy
        path.append((raw_x, raw_y))
        cells.append((ci, cj))
        inside.append(in_window)
    return (
        np.array(path, dtype=float).reshape(-1, 2),
        np.array(cells, dtype=np.intp).reshape(-1, 2),
        np.array(inside, dtype=bool),
    )


class TestWalk:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        frames=st.integers(1, 200),
        shape=st.tuples(st.integers(3, 9), st.integers(3, 9)),
        cell_scale=st.sampled_from([0.5, 1.0, 2.0, 8.0]),
        step_sigma=st.sampled_from([0.0, 0.5, 3.0, 20.0]),
        occluded_share=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    )
    def test_matches_a_frame_by_frame_walk(
        self, seed, frames, shape, cell_scale, step_sigma, occluded_share
    ):
        # the target drifts, is hidden at random and is lost and found again
        rng = np.random.default_rng(seed)
        gt_x = np.cumsum(rng.normal(0.0, 4.0, frames))
        gt_y = np.cumsum(rng.normal(0.0, 4.0, frames))
        occluded = rng.random(frames) < occluded_share
        steps = rng.normal(0.0, step_sigma, (frames, 2))
        got = _walk(gt_x, gt_y, occluded, steps, shape, cell_scale)
        expected = reference_walk(gt_x, gt_y, occluded, steps, shape, cell_scale)
        for column, reference in zip(got, expected):
            assert column.shape == reference.shape and column.dtype == reference.dtype
            assert column.tobytes() == reference.tobytes()

    def test_non_finite_offsets_match_a_frame_by_frame_walk(self):
        gt_x = np.array([0.0, 1e300, np.inf, 0.0, 200.0, 0.0, 3.0, -1e308, 5.0])
        gt_y = np.array([0.0, 0.0, 0.0, np.nan, 0.0, -96.0, 1.0, 1e308, 2.0])
        occluded = np.array([False, False, True, False, False, False, True, False, False])
        steps = np.full((9, 2), 0.25)
        for shape, cell_scale in (((25, 25), 8.0), ((3, 3), 1e-310), ((5, 4), 1.0)):
            got = _walk(gt_x, gt_y, occluded, steps, shape, cell_scale)
            expected = reference_walk(gt_x, gt_y, occluded, steps, shape, cell_scale)
            for column, reference in zip(got, expected):
                assert column.tobytes() == reference.tobytes()


def brute_peaks(shape, cells, amps, sharpness):
    """2-D oracle: every peak evaluated on the full meshgrid."""
    rows, cols = np.meshgrid(
        np.arange(shape[0], dtype=float), np.arange(shape[1], dtype=float), indexing="ij"
    )
    response = np.zeros(shape)
    for (ci, cj), amp in zip(cells, amps):
        response += amp * np.exp(
            -((rows - ci) ** 2 + (cols - cj) ** 2) / (2.0 * sharpness * sharpness)
        )
    return response


def map_shapes():
    side = st.integers(3, 40)
    return st.one_of(
        st.tuples(side, side), st.tuples(st.just(3), side), st.tuples(side, st.just(3))
    )


def scenario_shapes():
    """The map shapes a :class:`ScenarioConfig` accepts: 3x3 leaves no PSR
    sidelobe around a centre peak."""
    return map_shapes().filter(lambda shape: shape != (3, 3))


class TestSeparablePeaks:
    @settings(max_examples=300, deadline=None)
    @given(map_shapes(), st.floats(0.1, 5.0), st.integers(1, 3), st.integers(0, 6), st.data())
    def test_added_peaks_match_meshgrid_oracle(self, shape, sharpness, count, peaks, data):
        cells = np.array(
            data.draw(
                st.lists(
                    st.tuples(st.integers(0, shape[0] - 1), st.integers(0, shape[1] - 1)),
                    min_size=count * peaks,
                    max_size=count * peaks,
                )
            ),
            dtype=np.intp,
        ).reshape(count, peaks, 2)
        amps = np.array(
            data.draw(st.lists(st.floats(0.0, 1.0), min_size=count * peaks, max_size=count * peaks))
        ).reshape(count, peaks)
        composed = _add_peaks(np.zeros((count, *shape)), _profiles(shape, sharpness), cells, amps)
        assert composed.shape == (count, *shape)
        for t in range(count):
            expected = brute_peaks(shape, cells[t].tolist(), amps[t].tolist(), sharpness)
            assert np.abs(composed[t] - expected).max() <= 1e-15 * (1.0 + amps[t].sum())

    def test_added_peaks_of_a_whole_block(self):
        count = BLOCK_FRAMES  # the block _synthesize passes
        rng = np.random.default_rng(71)
        cells = rng.integers(0, (9, 13), size=(count, 3, 2))
        amps = rng.uniform(0.0, 1.0, size=(count, 3))
        composed = _add_peaks(np.zeros((count, 9, 13)), _profiles((9, 13), 1.3), cells, amps)
        for t in range(count):
            expected = brute_peaks((9, 13), cells[t].tolist(), amps[t].tolist(), 1.3)
            assert np.abs(composed[t] - expected).max() <= 1e-15 * (1.0 + amps[t].sum())

    def test_profile_rows_are_centred_and_read_only(self):
        rows, cols = _profiles((7, 4), 1.5)
        assert rows.shape == (7, 7) and cols.shape == (4, 4)
        for table in (rows, cols):
            for c in range(len(table)):
                assert table[c].argmax() == c
                assert table[c, c] == 1.0
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 2.0

    def test_long_thin_map_frame_builds(self):
        config = clean_config(frames=2, map_size=(3, 20000))
        (first, _) = generate_scenario(config)
        assert first.response.shape == (3, 20000)
        assert np.unravel_index(first.response.argmax(), (3, 20000)) == (1, 10000)
        assert first.response[1, 10000] == 1.0
        expected = brute_peaks((3, 20000), [(1, 10000)], [1.0], config.peak_sharpness)
        assert np.abs(first.response - expected).max() <= 2e-15


class TestGenerateScenario:
    def test_single_frame_scenario(self):
        config = ScenarioConfig(
            frame_count=1,
            waypoints=((1, 50.0, 50.0),),
            target_size=(10.0, 10.0),
        )
        scenario = generate_scenario(config)
        assert len(scenario) == 1
        assert scenario[0].frame == 1
        assert not scenario[0].occluded

    def test_ground_truth_follows_waypoints(self):
        config = clean_config(frames=101, waypoints=((1, 0.0, 0.0), (101, 100.0, 50.0)))
        scenario = generate_scenario(config)
        assert (scenario[0].gt_box.cx, scenario[0].gt_box.cy) == (0.0, 0.0)
        assert (scenario[-1].gt_box.cx, scenario[-1].gt_box.cy) == (100.0, 50.0)
        mid = scenario[50].gt_box
        assert mid.cx == pytest.approx(50.0)
        assert mid.cy == pytest.approx(25.0)
        assert (mid.w, mid.h) == (12.0, 8.0)

    def test_clean_raw_track_stays_tight(self):
        scenario = generate_scenario(clean_config())
        for obs in scenario:
            error = np.hypot(
                obs.raw_model_box.cx - obs.gt_box.cx, obs.raw_model_box.cy - obs.gt_box.cy
            )
            assert error < 2.0

    def test_occluded_flag_matches_intervals(self):
        config = clean_config(frames=60, occlusions=((10, 20), (41, 45)))
        scenario = generate_scenario(config)
        for obs in scenario:
            expected = 10 <= obs.frame <= 20 or 41 <= obs.frame <= 45
            assert obs.occluded == expected

    def test_occluded_peak_is_dimmed(self):
        config = clean_config(frames=60, occlusions=((20, 40),))
        scenario = generate_scenario(config)
        clean_peaks = [obs.response.max() for obs in scenario if not obs.occluded]
        occluded_peaks = [obs.response.max() for obs in scenario if obs.occluded]
        assert min(clean_peaks) > 0.9
        assert max(occluded_peaks) < 0.7

    def test_occlusion_sends_raw_box_walking(self):
        config = clean_config(frames=100, occlusions=((30, 70),), seed=5)
        scenario = generate_scenario(config)
        drift = center_errors(
            box_rows(obs.raw_model_box for obs in scenario),
            box_rows(obs.gt_box for obs in scenario),
        )
        assert drift[:29].max() < 2.0
        assert drift[69] > 5.0  # random walk has wandered off by occlusion end

    def test_deterministic(self):
        config = clean_config(frames=40, distractor_count=3, noise_sigma=0.02, seed=9)
        first = generate_scenario(config)
        second = generate_scenario(config)
        for a, b in zip(first, second):
            assert a.gt_box == b.gt_box
            assert a.raw_model_box == b.raw_model_box
            assert a.occluded == b.occluded
            assert np.array_equal(a.response, b.response)

    def test_response_shape_and_range(self):
        config = clean_config(frames=10, map_size=(15, 19), distractor_count=2, noise_sigma=0.05)
        for obs in generate_scenario(config):
            assert obs.response.shape == (15, 19)
            assert (obs.response >= 0).all()


class TestScenarioRows:
    def test_columns_are_the_observations(self):
        config = clean_config(frames=50, occlusions=((20, 30),), distractor_count=2, seed=3)
        gt, raw, maps, occluded, psrs = generate_scenario_rows(config)
        scenario = generate_scenario(config)
        assert gt.shape == raw.shape == (50, 4) and maps.shape == (50, 25, 25)
        assert gt.tobytes() == box_rows(obs.gt_box for obs in scenario).tobytes()
        assert raw.tobytes() == box_rows(obs.raw_model_box for obs in scenario).tobytes()
        assert occluded.tolist() == [obs.occluded for obs in scenario]
        assert [obs.frame for obs in scenario] == list(range(1, 51))
        assert np.array_equal(maps, scenario[0].response.base)
        assert not maps.flags.writeable
        # each block is scored as it is made: psr of every map, bit for bit
        assert psrs.tobytes() == np.array([psr(m) for m in maps]).tobytes()

    @pytest.mark.parametrize(
        "target_size, message",
        [((4.0, 4.0), "box field cx must be finite"),
         ((1e308, 5e-324), "box field cx must be finite")],
    )
    def test_first_invalid_row_raises_the_box_error(self, target_size, message):
        # finite waypoints whose gap overflows interpolate to non-finite
        # ground truth from frame 2 on; its gt row is the first bad row,
        # whatever the (valid) target size
        waypoints = ((1, 1.7e308, 0.0), (5, -1.7e308, 0.0))
        config = clean_config(frames=5, waypoints=waypoints, target_size=target_size)
        for generate in (generate_scenario_rows, generate_scenario):
            with pytest.raises(ValueError, match=f"^{message}$"):
                generate(config)


class TestRunTracking:
    def test_raw_mode_returns_raw_boxes(self):
        scenario = generate_scenario(clean_config(frames=30))
        trajectory = run_tracking(scenario, MotionParams(n1=9, n2=4), ommr_enabled=False)
        assert trajectory == [obs.raw_model_box for obs in scenario]

    def test_warmup_only_run_equals_raw(self):
        params = MotionParams()
        scenario = generate_scenario(clean_config(frames=params.n1))
        refined = run_tracking(scenario, params, ommr_enabled=True)
        raw = run_tracking(scenario, params, ommr_enabled=False)
        assert refined == raw

    def test_clean_scenario_both_modes_tight(self):
        scenario = generate_scenario(clean_config(frames=120))
        gt = box_rows(obs.gt_box for obs in scenario)
        for enabled in (False, True):
            trajectory = run_tracking(scenario, MotionParams(), ommr_enabled=enabled)
            assert center_errors(box_rows(trajectory), gt).max() < 2.0

    def test_occlusion_refinement_beats_raw(self):
        config = clean_config(
            frames=200,
            distractor_count=3,
            noise_sigma=0.02,
            occlusions=((100, 140),),
            seed=2,
        )
        scenario = generate_scenario(config)
        gt = box_rows(obs.gt_box for obs in scenario)
        refined = center_errors(box_rows(run_tracking(scenario, MotionParams(), True)), gt)
        raw = center_errors(box_rows(run_tracking(scenario, MotionParams(), False)), gt)
        assert refined[99:140].mean() < raw[99:140].mean()
        assert refined[140:160].mean() < raw[140:160].mean()

    def test_trace_rows_cover_every_frame(self):
        _, raw, maps, _, _ = generate_scenario_rows(clean_config(frames=60))
        _, psrs, npsrs, branches = track_rows(raw, maps, MotionParams(n1=20, n2=8), True)
        assert len(psrs) == len(npsrs) == len(branches) == 60
        assert set(branches) <= {"warmup", "low", "high"}
        assert ((0.0 <= npsrs) & (npsrs <= 1.0)).all()

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**16), refine=st.booleans())
    def test_trace_rows_match_tracker_state(self, seed, refine):
        config = clean_config(frames=40, seed=seed, occlusions=((15, 24),), distractor_count=2)
        scenario = generate_scenario(config)
        params = MotionParams(n1=12, n2=4)
        trajectory = run_tracking(scenario, params, refine)
        _, raw, maps, _, _ = generate_scenario_rows(config)
        _, psrs, npsrs, branches = track_rows(raw, maps, params, refine)
        trace = list(zip(psrs.tolist(), npsrs.tolist(), branches))
        assert len(trace) == len(trajectory) == len(scenario)
        state = TrackerState(capacity=params.n1)
        for obs, row, box in zip(scenario, trace, trajectory):
            if refine:
                assert refine_step(state, obs.raw_model_box, obs.response, params) == box
                expected = (state.last_psr, state.last_npsr, state.last_branch)
            else:
                assert box == obs.raw_model_box
                expected = (psr(obs.response), normalized_psr(obs.response, state), "raw")
            assert row == expected

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        frames=st.integers(2, 60),
        shape=scenario_shapes(),
        distractors=st.integers(0, 3),
        noise=st.sampled_from([0.0, 0.02, 0.1]),
        cell_scale=st.sampled_from([1.0, 2.0, 8.0]),
        n2=st.integers(1, 4),
        extra=st.integers(1, 8),
        theta=st.sampled_from([0.2, 0.5, 0.8]),
        refine=st.booleans(),
    )
    def test_row_loop_run_tracking_and_refine_step_agree(
        self, seed, frames, shape, distractors, noise, cell_scale, n2, extra, theta, refine
    ):
        occlusions = ((frames // 3 + 1, frames // 2 + 1),) if frames >= 4 else ()
        config = ScenarioConfig(
            frame_count=frames,
            waypoints=((1, 0.0, 0.0), (frames, 2.5 * frames, -1.5 * frames)),
            target_size=(10.0, 6.0),
            occlusions=occlusions,
            distractor_count=distractors,
            noise_sigma=noise,
            map_size=shape,
            cell_scale=cell_scale,
            seed=seed,
        )
        params = MotionParams(n1=2 * n2 + extra, n2=n2, theta=theta)
        _, raw, maps, _, _ = generate_scenario_rows(config)
        rows, psrs, npsrs, branches = track_rows(raw, maps, params, refine)

        scenario = generate_scenario(config)
        boxes = run_tracking(scenario, params, refine)
        state = TrackerState(params.n1)
        hand, expected_trace = [], []
        for obs in scenario:
            if refine:
                hand.append(refine_step(state, obs.raw_model_box, obs.response, params))
                expected_trace.append((state.last_psr, state.last_npsr, state.last_branch))
            else:
                hand.append(obs.raw_model_box)
                value = psr(obs.response)
                expected_trace.append((value, normalized_psr(obs.response, state), "raw"))

        assert rows.shape == (frames, 4) and rows.dtype == float
        assert rows.tobytes() == box_rows(boxes).tobytes() == box_rows(hand).tobytes()
        assert list(zip(psrs.tolist(), npsrs.tolist(), branches)) == expected_trace
        assert psrs.dtype == npsrs.dtype == float

    def test_row_loop_rejects_bad_inputs(self):
        _, raw, maps, _, _ = generate_scenario_rows(clean_config(frames=30))
        params = MotionParams(n1=9, n2=4)
        with pytest.raises(ValueError, match=r"must be \(T, 4\)"):
            track_rows(raw[:, :3], maps, params, True)
        with pytest.raises(ValueError, match="30 raw rows but 29 response maps"):
            track_rows(raw, maps[1:], params, True)
        bad = raw.copy()
        bad[7, 1] = np.nan
        with pytest.raises(ValueError, match="^box field cy must be finite$"):
            track_rows(bad, maps, params, False)

    def test_raw_mode_rows_are_a_copy(self):
        _, raw, maps, _, _ = generate_scenario_rows(clean_config(frames=30))
        rows, _, _, branches = track_rows(raw, maps, MotionParams(n1=9, n2=4), False)
        assert rows.tobytes() == raw.tobytes() and not np.shares_memory(rows, raw)
        assert branches == ["raw"] * 30

    def test_too_short_scenario_rejected(self):
        scenario = generate_scenario(
            ScenarioConfig(frame_count=1, waypoints=((1, 5.0, 5.0),), target_size=(4.0, 4.0))
        )
        with pytest.raises(ValueError, match="2 frames"):
            run_tracking(scenario, MotionParams(), True)

    def test_deterministic_trajectories(self):
        config = clean_config(frames=80, occlusions=((30, 50),), distractor_count=3, seed=13)
        a = run_tracking(generate_scenario(config), MotionParams(), True)
        b = run_tracking(generate_scenario(config), MotionParams(), True)
        assert a == b


def reference_maps(streams, shape, sharpness, targets, inside, occluded, distractors, noise_sigma):
    """Scalar reference of the batched synthesis: the same array draws from
    the cell, amplitude and noise streams, then the clearance checks, the
    meshgrid Gaussians and the noise scaling one frame at a time."""
    cell_rng, amp_rng, noise_rng = streams
    count = len(targets)
    slots = [[None] * distractors for _ in range(count)]
    for slot in range(distractors):
        pending = list(range(count))
        for _ in range(PLACEMENT_TRIES):
            draws = cell_rng.integers(0, shape, size=(len(pending), 2)).tolist()
            clashing = []
            for t, (di, dj) in zip(pending, draws):
                slots[t][slot] = (di, dj)
                taken = ([targets[t]] if inside[t] else []) + slots[t][:slot]
                if any(max(abs(di - ti), abs(dj - tj)) < CLUTTER_CLEARANCE for ti, tj in taken):
                    clashing.append(t)
            pending = clashing
            if not pending:
                break
    amps = amp_rng.uniform(*CLUTTER_AMP, size=(count, 1 + distractors))
    noise = noise_rng.standard_normal((count, *shape))
    maps, heights = [], []
    for t in range(count):
        seen = inside[t] and not occluded[t]
        cells, amp = list(slots[t]), [float(a) for a in amps[t, 1:]]
        if inside[t]:
            cells.insert(0, targets[t])
            amp.insert(0, 1.0 if seen else float(amps[t, 0]))
        sigma = noise_sigma if seen else max(noise_sigma, CLUTTER_NOISE_SIGMA)
        peaks = brute_peaks(shape, cells, amp, sharpness)
        maps.append(np.maximum(peaks + noise[t] * sigma, 0.0))
        heights.append(sum(amp))
    return maps, heights


def reference_scenario(config):
    """Scalar per-frame reference of generate_scenario: four streams spawned
    from SeedSequence(seed) in the documented order (walk, cells,
    amplitudes, noise), the raw-box walk, then :func:`reference_maps`.
    Returns the observations and each frame's amplitude sum."""
    walk, *streams = (
        np.random.Generator(np.random.PCG64(child))
        for child in np.random.SeedSequence(config.seed).spawn(4)
    )
    count = config.frame_count
    rows, cols = config.map_size
    frames = np.arange(1, count + 1, dtype=float)
    gt_x = np.interp(frames, [f for f, _, _ in config.waypoints], [x for _, x, _ in config.waypoints])
    gt_y = np.interp(frames, [f for f, _, _ in config.waypoints], [y for _, _, y in config.waypoints])
    occluded = [any(a <= k <= b for a, b in config.occlusions) for k in range(1, count + 1)]
    steps = walk.standard_normal((count, 2))
    raw_x, raw_y = float(gt_x[0]), float(gt_y[0])
    path, targets, inside = [], [], []
    for k in range(count):
        gx, gy = float(gt_x[k]), float(gt_y[k])
        sigma = WALK_SIGMA if occluded[k] else TRACK_JITTER_SIGMA
        dx, dy = float(steps[k, 0] * sigma), float(steps[k, 1] * sigma)
        ci = rows // 2 + round((gy - raw_y) / config.cell_scale)
        cj = cols // 2 + round((gx - raw_x) / config.cell_scale)
        in_window = 0 <= ci < rows and 0 <= cj < cols
        if occluded[k] or not in_window:
            raw_x, raw_y = raw_x + dx, raw_y + dy
        else:
            raw_x, raw_y = gx + dx, gy + dy
        path.append((gx, gy, raw_x, raw_y))
        targets.append((ci, cj))
        inside.append(in_window)
    maps, heights = reference_maps(
        streams, (rows, cols), config.peak_sharpness, targets, inside, occluded,
        config.distractor_count, config.noise_sigma,
    )
    width, height = config.target_size
    observations = [
        FrameObservation(
            frame=k + 1,
            gt_box=BoundingBox(gx, gy, width, height),
            raw_model_box=BoundingBox(rx, ry, width, height),
            response=maps[k],
            occluded=occluded[k],
        )
        for k, (gx, gy, rx, ry) in enumerate(path)
    ]
    return observations, heights


# Configurations whose every frame is recorded in PIN_FILE.  "walkout"
# occludes a fast target on a fine grid, so the raw box walks out of its
# window and stays lost with four distractors drawn per frame; "wide" uses a
# non-square map; "crowded" is the smallest map a config accepts (3x4), where
# a distractor clears the target only from the opposite end column, so most
# slots spend all their placement draws.  Recorded from the
# batched synthesis and checked against the scalar reference above: exact
# gt/raw boxes, the occluded flag and the argmax cell of each response.
PIN_CONFIGS = {
    "walkout": dict(
        frame_count=160,
        waypoints=((1, 40.0, 30.0), (90, 150.0, 90.0), (160, 120.0, 200.0)),
        target_size=(10.0, 6.0),
        occlusions=((40, 75),),
        distractor_count=4,
        noise_sigma=0.02,
        cell_scale=2.0,
        seed=21,
    ),
    "wide": dict(
        frame_count=80,
        waypoints=((1, 10.0, 20.0), (80, 90.0, 60.0)),
        target_size=(8.0, 8.0),
        occlusions=((30, 45),),
        distractor_count=2,
        noise_sigma=0.05,
        map_size=(15, 19),
        seed=4,
    ),
    "crowded": dict(
        frame_count=70,
        waypoints=((1, 10.0, 20.0), (70, 40.0, 25.0)),
        target_size=(6.0, 9.0),
        occlusions=((20, 30),),
        distractor_count=2,
        noise_sigma=0.01,
        map_size=(3, 4),
        seed=8,
    ),
}
PIN_FILE = Path(__file__).parent / "data" / "scenario_pin.csv"
PIN_HEADER = "config,frame,gt_cx,gt_cy,gt_w,gt_h,raw_cx,raw_cy,raw_w,raw_h,occluded,peak_row,peak_col"


def pin_rows(name, scenario):
    """One exact text row per frame: float reprs round-trip bit for bit."""
    rows = []
    for obs in scenario:
        peak = np.unravel_index(int(np.argmax(obs.response)), obs.response.shape)
        values = [
            getattr(box, attr)
            for box in (obs.gt_box, obs.raw_model_box)
            for attr in ("cx", "cy", "w", "h")
        ]
        rows.append(
            ",".join(
                [name, str(obs.frame), *(repr(float(v)) for v in values), str(int(obs.occluded)),
                 str(int(peak[0])), str(int(peak[1]))]
            )
        )
    return rows


def pin_config(name):
    return ScenarioConfig(**PIN_CONFIGS[name])


def write_pin_file():
    """Re-record PIN_FILE from the current generate_scenario, for a change
    that means to change the scenarios:
    ``PYTHONPATH=src:tests python -c "import test_scenario as t; t.write_pin_file()"``."""
    rows = [PIN_HEADER]
    for name in sorted(PIN_CONFIGS):
        rows += pin_rows(name, generate_scenario(ScenarioConfig(**PIN_CONFIGS[name])))
    PIN_FILE.write_text("\n".join(rows) + "\n")


class TestDrawOrderPin:
    @pytest.fixture(scope="class")
    def recorded(self):
        lines = PIN_FILE.read_text().splitlines()
        assert lines[0] == PIN_HEADER
        return lines[1:]

    @pytest.mark.parametrize("name", sorted(PIN_CONFIGS))
    def test_frames_match_recording(self, name, recorded):
        scenario = generate_scenario(ScenarioConfig(**PIN_CONFIGS[name]))
        expected = [row for row in recorded if row.startswith(name + ",")]
        assert len(expected) == PIN_CONFIGS[name]["frame_count"]
        assert pin_rows(name, scenario) == expected

    @pytest.mark.parametrize("name", sorted(PIN_CONFIGS))
    def test_recording_matches_scalar_reference(self, name, recorded):
        reference, _ = reference_scenario(ScenarioConfig(**PIN_CONFIGS[name]))
        expected = [row for row in recorded if row.startswith(name + ",")]
        assert pin_rows(name, reference) == expected

    def test_walkout_config_loses_the_window(self):
        config = ScenarioConfig(**PIN_CONFIGS["walkout"])
        scenario = generate_scenario(config)
        rows, cols = config.map_size
        raw = scenario[0].gt_box
        outside = 0
        for obs in scenario:
            ci = rows // 2 + round((obs.gt_box.cy - raw.cy) / config.cell_scale)
            cj = cols // 2 + round((obs.gt_box.cx - raw.cx) / config.cell_scale)
            outside += not (0 <= ci < rows and 0 <= cj < cols)
            raw = obs.raw_model_box
        assert outside > 50


# The tracker's records on the PIN_CONFIGS scenarios and on "long", which
# takes both branches after warm-up, under the default MotionParams: every
# frame's refined row, PSR, nPSR and branch, recorded in REFINE_PIN_FILE as
# each float's repr.  Frame numbers and branches must match exactly, the
# floats within REFINE_PIN_RTOL: PSR's sums and the branch products run in
# BLAS, whose kernel, and so its summation order, is chosen by CPU.  Summing
# PSR's products in reverse order moves the pinned floats by at most about
# 1e-14 relative and flips no branch.
REFINE_PIN_CONFIGS = {
    **PIN_CONFIGS,
    "long": dict(
        frame_count=400,
        waypoints=((1, 100.0, 120.0), (200, 260.0, 180.0), (400, 210.0, 330.0)),
        target_size=(12.0, 7.0),
        occlusions=((120, 170), (260, 290)),
        distractor_count=3,
        seed=13,
    ),
}
REFINE_PIN_FILE = Path(__file__).parent / "data" / "refine_pin.csv"
REFINE_PIN_HEADER = "config,frame,cx,cy,w,h,psr,npsr,branch"
REFINE_PIN_RTOL = 1e-12


def refine_pin_rows(name, rows, psrs, npsrs, branches):
    """One exact text row per frame of a sequence's record columns."""
    return [
        ",".join([name, str(frame), *map(repr, row), repr(value), repr(npsr), branch])
        for frame, (row, value, npsr, branch) in enumerate(zip(rows, psrs, npsrs, branches), 1)
    ]


def split_refine_pin_rows(rows):
    """The ``(config, frame, branch)`` text labels of pin rows, and their
    six float columns as one array."""
    fields = [row.split(",") for row in rows]
    labels = [(f[0], f[1], f[-1]) for f in fields]
    return labels, np.array([f[2:-1] for f in fields], dtype=float)


def refine_loop_columns(config):
    """A ``refine_step`` loop over ``generate_scenario``'s frames, as the
    record columns of ``track_rows``, in Python floats."""
    params = MotionParams()
    state = TrackerState(params.n1)
    columns = [], [], [], []
    for obs in generate_scenario(config):
        box = refine_step(state, obs.raw_model_box, obs.response, params)
        record = (box.cx, box.cy, box.w, box.h), state.last_psr, state.last_npsr, state.last_branch
        for column, value in zip(columns, record):
            column.append(value)
    return columns


def track_rows_columns(config):
    """``track_rows`` on ``generate_scenario_rows``' rows and maps, in Python floats."""
    _, raw, maps, _, _ = generate_scenario_rows(config)
    rows, psrs, npsrs, branches = track_rows(raw, maps, MotionParams(), True)
    return rows.tolist(), psrs.tolist(), npsrs.tolist(), branches


def write_refine_pin_file():
    """Re-record REFINE_PIN_FILE from the current ``refine_step``, for a
    change that means to change the tracker's floats:
    ``PYTHONPATH=src:tests python -c "import test_scenario as t; t.write_refine_pin_file()"``."""
    rows = [REFINE_PIN_HEADER]
    for name in sorted(REFINE_PIN_CONFIGS):
        config = ScenarioConfig(**REFINE_PIN_CONFIGS[name])
        rows += refine_pin_rows(name, *refine_loop_columns(config))
    REFINE_PIN_FILE.write_text("\n".join(rows) + "\n")


class TestRefinePin:
    @pytest.fixture(scope="class")
    def recorded(self):
        lines = REFINE_PIN_FILE.read_text().splitlines()
        assert lines[0] == REFINE_PIN_HEADER
        return lines[1:]

    @pytest.mark.parametrize("columns", [refine_loop_columns, track_rows_columns])
    @pytest.mark.parametrize("name", sorted(REFINE_PIN_CONFIGS))
    def test_records_match_recording(self, name, columns, recorded):
        config = ScenarioConfig(**REFINE_PIN_CONFIGS[name])
        expected = [row for row in recorded if row.startswith(name + ",")]
        assert len(expected) == config.frame_count
        labels, floats = split_refine_pin_rows(refine_pin_rows(name, *columns(config)))
        expected_labels, expected_floats = split_refine_pin_rows(expected)
        assert labels == expected_labels
        np.testing.assert_allclose(floats, expected_floats, rtol=REFINE_PIN_RTOL, atol=0.0)

    def test_long_config_takes_both_branches(self, recorded):
        branches = [row.rsplit(",", 1)[1] for row in recorded if row.startswith("long,")]
        assert {"low", "high"} <= set(branches[MotionParams().n1 :])


def pinned_against_reference(config):
    """Assert generate_scenario equals the scalar reference: boxes, flags and
    peak cells exactly, maps within 1e-15 of each frame's amplitude sum."""
    scenario = generate_scenario(config)
    reference, heights = reference_scenario(config)
    assert pin_rows("c", scenario) == pin_rows("c", reference)
    for obs, ref, total in zip(scenario, reference, heights):
        assert np.abs(obs.response - ref.response).max() <= 1e-15 * (1.0 + total)


class TestBatchedSynthesis:
    @pytest.mark.parametrize("name", sorted(PIN_CONFIGS))
    def test_pin_configs_match_scalar_reference(self, name):
        pinned_against_reference(ScenarioConfig(**PIN_CONFIGS[name]))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        frames=st.integers(1, 150),
        shape=scenario_shapes(),
        distractors=st.integers(0, 4),
        noise=st.sampled_from([0.0, 0.02, 0.1]),
        sharpness=st.floats(0.3, 3.0),
        cell_scale=st.sampled_from([1.0, 2.0, 8.0]),
    )
    def test_generate_matches_scalar_reference(
        self, seed, frames, shape, distractors, noise, sharpness, cell_scale
    ):
        occlusions = ((frames // 3 + 1, frames // 2 + 1),) if frames >= 4 else ()
        pinned_against_reference(
            ScenarioConfig(
                frame_count=frames,
                waypoints=((1, 0.0, 0.0), (frames, 3.0 * frames, -2.0 * frames))
                if frames > 1
                else ((1, 0.0, 0.0),),
                target_size=(10.0, 6.0),
                occlusions=occlusions,
                peak_sharpness=sharpness,
                distractor_count=distractors,
                noise_sigma=noise,
                map_size=shape,
                cell_scale=cell_scale,
                seed=seed,
            )
        )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=scenario_shapes(),
        distractors=st.integers(0, 5),
        noise=st.sampled_from([0.0, 0.05]),
        data=st.data(),
    )
    def test_standalone_map_is_one_reference_frame(self, seed, shape, distractors, noise, data):
        cell = (data.draw(st.integers(0, shape[0] - 1)), data.draw(st.integers(0, shape[1] - 1)))
        grid = synthesize_response_map(cell, 1.2, distractors, noise, shape, seed)
        streams = [
            np.random.Generator(np.random.PCG64(child))
            for child in np.random.SeedSequence(seed).spawn(4)
        ][1:]
        (expected,), (total,) = reference_maps(
            streams, shape, 1.2, [cell], [True], [False], distractors, noise
        )
        assert np.abs(grid - expected).max() <= 1e-15 * (1.0 + total)

    def test_responses_are_views_of_one_read_only_array(self):
        scenario = generate_scenario(pin_config("wide"))
        stack = scenario[0].response.base
        assert stack.shape == (80, 15, 19) and not stack.flags.writeable
        for k, obs in enumerate(scenario):
            assert obs.response.base is stack
            assert np.shares_memory(obs.response, stack[k])
            assert not obs.response.flags.writeable
        with pytest.raises(ValueError):
            scenario[3].response[0, 0] = 1.0

    def test_equal_configs_give_equal_arrays(self):
        config = pin_config("walkout")
        first, second = generate_scenario(config), generate_scenario(config)
        assert np.array_equal(first[0].response.base, second[0].response.base)
        assert pin_rows("c", first) == pin_rows("c", second)

    def test_temporaries_stay_within_a_few_blocks(self):
        config = clean_config(frames=2000, distractor_count=4, noise_sigma=0.02, seed=3)
        generate_scenario(config)  # warm the imports and caches
        tracemalloc.start()
        try:
            scenario = generate_scenario(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        result = scenario[0].response.base.nbytes
        rows, cols = config.map_size
        # the maps plus 2000 observations, with room for a few blocks of
        # temporaries but not for a second full-size array
        assert peak - result < 8 * BLOCK_FRAMES * rows * cols * 8 + 2_000_000
        assert peak < 1.5 * result


class TestNoiseBlocks:
    """The noise is drawn one block at a time from the one stream, on the
    calling thread: the bytes do not depend on the block size, and an error
    in any step propagates with no thread started."""

    @pytest.mark.parametrize("name", sorted(PIN_CONFIGS))
    def test_pins_do_not_depend_on_the_block_size(self, name, monkeypatch):
        columns = {}
        for frames in (1, 7, BLOCK_FRAMES):
            monkeypatch.setattr("sattrack.scenario.BLOCK_FRAMES", frames)
            columns[frames] = [a.tobytes() for a in generate_scenario_rows(pin_config(name))]
        assert columns[1] == columns[7] == columns[BLOCK_FRAMES]

    def test_overflowing_noise_is_an_error_naming_noise_sigma(self):
        # noise_sigma is finite, sigma times a draw is not: the scoring finds
        # the inf cell, and the error names the key, with no warning
        config = clean_config(frames=3 * BLOCK_FRAMES, noise_sigma=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=r"^noise_sigma 1e\+308 overflows the response maps$"):
                generate_scenario_rows(config)

    def test_a_peak_error_propagates_and_starts_no_thread(self, monkeypatch):
        started, calls = [], []

        class Recorded(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        def add_peaks(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("peaks failed")
            return _add_peaks(*args)

        monkeypatch.setattr(threading, "Thread", Recorded)
        monkeypatch.setattr("sattrack.scenario._add_peaks", add_peaks)
        before = threading.active_count()
        config = clean_config(frames=40 * BLOCK_FRAMES, distractor_count=3, noise_sigma=0.02)
        with pytest.raises(RuntimeError, match="^peaks failed$"):
            generate_scenario_rows(config)
        assert len(calls) == 2 and threading.active_count() == before and not started

    def test_a_noise_error_stops_at_its_block(self, monkeypatch):
        class FailingNoise:
            def __init__(self, rng):
                self.rng, self.calls = rng, 0

            def standard_normal(self, out):
                self.calls += 1
                if self.calls == 3:
                    raise RuntimeError("noise failed")
                return self.rng.standard_normal(out=out)

        made = []

        def add_peaks(*args):
            made.append(args)
            return _add_peaks(*args)

        monkeypatch.setattr(
            "sattrack.scenario._streams",
            lambda seed: [*_streams(seed)[:3], FailingNoise(_streams(seed)[3])],
        )
        monkeypatch.setattr("sattrack.scenario._add_peaks", add_peaks)
        before = threading.active_count()
        config = clean_config(frames=5 * BLOCK_FRAMES, noise_sigma=0.02)
        with pytest.raises(RuntimeError, match="^noise failed$"):
            generate_scenario_rows(config)
        # the two blocks drawn before it were made, no later one
        assert len(made) == 2 and threading.active_count() == before

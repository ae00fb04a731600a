"""Top-level acceptance checks, one test per criterion.

Each test prints a single summary line with its measured margins, so a
plain run with -s (or the -v pass/fail listing) gives one line per
criterion.  Stated runtime budgets are asserted, not just hoped for.
"""

import math
import time

import numpy as np
import pytest
import scipy.stats

from sattrack import (
    AspectRatioParams,
    BoundingBox,
    MotionParams,
    ScenarioConfig,
    TrackerState,
    build_label_maps,
    centerness_loss,
    cls_loss,
    enhance_features,
    generate_scenario,
    generate_scenario_rows,
    init_projection_weights,
    project_qkv,
    psr,
    refine_step,
    regression_loss,
    run_tracking,
    track_rows,
)
from sattrack.attention import _template_softmax
from sattrack.boxes import box_rows
from sattrack.cli import main
from sattrack.geometry import GridGeometry
from sattrack.metrics import center_errors, evaluate_rows
from test_attention import with_biases
from test_formats import read_grid
from test_motion import normalized_psr


def report(number, label, detail):
    print(f"criterion {number} PASS: {label} ({detail})")


# ---------------------------------------------------------------------------
# 1. label-assignment fidelity


def pointwise_constrained(l, r, t, b, gamma):
    rho = (l + r) / (t + b)
    exp_h = min(1.0, (1.0 / rho) ** gamma)
    exp_v = min(1.0, rho**gamma)
    return math.sqrt(
        (min(l, r) / max(l, r)) ** exp_h * (min(t, b) / max(t, b)) ** exp_v
    )


def test_criterion_1_label_assignment_fidelity():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    grid = GridGeometry()
    worst = 0.0
    for _ in range(100):
        cx, cy = rng.uniform(20, 180, size=2)
        w, h = rng.uniform(10, 150, size=2)
        gamma = rng.uniform(0.2, 1.2)
        maps = build_label_maps(BoundingBox(cx, cy, w, h), grid, AspectRatioParams(gamma))
        x0, y0 = cx - w / 2, cy - h / 2
        x1, y1 = cx + w / 2, cy + h / 2
        for i in range(grid.height):
            py = 4.0 + 8.0 * i
            for j in range(grid.width):
                px = 4.0 + 8.0 * j
                l, r, t, b = px - x0, x1 - px, py - y0, y1 - py
                expected = (
                    pointwise_constrained(l, r, t, b, gamma)
                    if min(l, r, t, b) > 0
                    else 0.0
                )
                worst = max(worst, abs(maps.centerness[i, j] - expected))
    assert worst < 1e-12

    for _ in range(20):
        cx, cy = rng.uniform(30, 170, size=2)
        side = rng.uniform(12, 120)
        box = BoundingBox(cx, cy, side, side)
        constrained = build_label_maps(box, grid, AspectRatioParams(0.5))
        classic = build_label_maps(box, grid, None)
        assert np.array_equal(constrained.centerness, classic.centerness)

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(1, "label maps match per-point oracle", f"max |delta| {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. wide-box centerness flattening, via emitted CLI maps


def test_criterion_2_wide_box_profiles(tmp_path, monkeypatch):
    start = time.perf_counter()
    monkeypatch.delenv("SATTRACK_GAMMA", raising=False)
    monkeypatch.delenv("SATTRACK_OUTPUT", raising=False)
    gammas = ("0.25", "0.5", "0.75", "1.0")
    profiles = {}
    classic_row = None
    classic_col = None
    for gamma in gammas:
        out = tmp_path / f"gamma-{gamma}"
        code = main(
            ["centerness-map", "--box", "124,124,192,32", "--gamma", gamma, "--output", str(out)]
        )
        assert code == 0
        constrained = read_grid(out / "constrained.csv")
        profiles[gamma] = constrained
        if gamma == "0.5":
            classic = read_grid(out / "classic.csv")
            classic_row = classic[15]
            classic_col = classic[:, 15]

    # principal axis: grid row through the box center (y = 124)
    for lo, hi in zip(gammas, gammas[1:]):
        assert (profiles[hi][15] >= profiles[lo][15]).all()

    half = profiles["0.5"]
    positives = half[15] > 0
    center_j = 15
    for j in np.nonzero(positives)[0]:
        if j == center_j:
            assert half[15, j] == classic_row[j] == 1.0
        else:
            assert half[15, j] > classic_row[j]

    # orthogonal midline: grid column through the center (x = 124)
    column_delta = np.abs(half[:, 15] - classic_col).max()
    assert column_delta < 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, "constrained map flattens the long axis only", f"midline |delta| {column_delta:.1e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. loss gradients


def test_criterion_3_loss_gradients():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    h = 1e-6
    worst = 0.0
    for loss in (cls_loss, centerness_loss):
        for _ in range(100):
            yhat = rng.uniform(0.05, 0.95)
            p = rng.uniform(0.0, 1.0)
            analytic = -p / yhat + (1 - p) / (1 - yhat)
            numeric = (loss([yhat + h], [p]) - loss([yhat - h], [p])) / (2 * h)
            rel = abs(numeric - analytic) / max(abs(analytic), 1e-12)
            worst = max(worst, rel)
    assert worst < 1e-5

    base = np.column_stack(
        [
            rng.uniform(30, 200, 6),
            rng.uniform(30, 200, 6),
            rng.uniform(4, 40, 6),
            rng.uniform(4, 40, 6),
        ]
    )
    weights = np.array([0.9, 0.7, 0.5, 0.3, 0.1, 0.0])
    assert regression_loss(base, base, weights) == 0.0
    for sample in range(5):  # every positively weighted sample
        for column in range(4):
            nudged = base.copy()
            nudged[sample, column] += 0.25
            assert regression_loss(nudged, base, weights) > 0.0
    slack = base.copy()
    slack[5, 0] += 30.0  # zero-weight sample may be arbitrarily wrong
    assert regression_loss(slack, base, weights) == 0.0

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(3, "loss derivatives and zero-iff-exact regression", f"max rel err {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4. attention invariants


def naive_forward(search, template, weights):
    c, hs, ws = search.shape
    _, ht, wt = template.shape
    n_s, n_t = hs * ws, ht * wt
    flat_s = search.reshape(c, n_s)
    flat_t = template.reshape(c, n_t)

    def project(matrix, bias, flat, count):
        rows = matrix.shape[0]
        out = np.zeros((rows, count))
        for pos in range(count):
            for row in range(rows):
                acc = 0.0
                for col in range(c):
                    acc += matrix[row, col] * flat[col, pos]
                out[row, pos] = acc + (bias[row] if bias is not None else 0.0)
        return out

    q = project(weights.w_q, weights.b_q, flat_s, n_s)
    k = project(weights.w_k, weights.b_k, flat_t, n_t)
    v = project(weights.w_v, weights.b_v, flat_t, n_t)
    mixed = np.zeros((c, n_s))
    for i in range(n_s):
        logits = [sum(q[d, i] * k[d, j] for d in range(q.shape[0])) for j in range(n_t)]
        exps = [math.exp(value) for value in logits]
        total = sum(exps)
        for d in range(c):
            mixed[d, i] = sum(exps[j] / total * v[d, j] for j in range(n_t))
    return search + weights.gamma * mixed.reshape(c, hs, ws)


def test_criterion_4_attention_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    worst_row = worst_perm = worst_oracle = 0.0
    for trial in range(100):
        search = rng.normal(size=(8, 5, 5))
        template = rng.normal(size=(8, 3, 3))
        weights = init_projection_weights(8, seed=trial, gamma=0.7)
        if trial % 2:
            weights = with_biases(weights, seed=trial)

        q, k, _ = project_qkv(search, template, weights)
        attn = _template_softmax(q, k).T
        worst_row = max(worst_row, np.abs(attn.sum(axis=1) - 1.0).max())
        assert (attn >= 0).all()

        frozen = init_projection_weights(8, seed=trial, gamma=0.0)
        assert np.array_equal(enhance_features(search, template, frozen), search)

        base = enhance_features(search, template, weights)
        flat = template.reshape(8, 9)[:, rng.permutation(9)]
        permuted = enhance_features(search, flat.reshape(8, 3, 3), weights)
        worst_perm = max(worst_perm, np.abs(base - permuted).max())

        worst_oracle = max(
            worst_oracle, np.abs(base - naive_forward(search, template, weights)).max()
        )
    assert worst_row < 1e-6
    assert worst_perm < 1e-12
    assert worst_oracle < 1e-10

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(
        4,
        "attention rows stochastic, residual/permutation identities, oracle match",
        f"row {worst_row:.1e}, perm {worst_perm:.1e}, oracle {worst_oracle:.1e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 5. confidence score contract


def test_criterion_5_confidence_contract():
    start = time.perf_counter()
    grid = np.zeros((11, 11))
    sidelobe = [
        (i, j) for i in range(11) for j in range(11) if not (4 <= i <= 6 and 4 <= j <= 6)
    ]
    for index, (i, j) in enumerate(sidelobe):
        grid[i, j] = 0.2 if index % 2 else 0.0
    grid[4:7, 4:7] = 0.15
    grid[5, 5] = 1.0
    fixture_err = abs(psr(grid) - 9.0)
    assert fixture_err < 1e-4

    rng = np.random.default_rng(105)
    state = TrackerState(50)
    previous_max = 0.0
    for _ in range(1000):
        rows = int(rng.integers(4, 26))
        cols = int(rng.integers(4, 26))
        value = normalized_psr(rng.uniform(0.0, 1.0, size=(rows, cols)), state)
        assert 0.0 < value <= 1.0
        assert state.psr_max >= previous_max
        previous_max = state.psr_max

    wins = 0
    for seed in range(50):
        config = ScenarioConfig(
            frame_count=150,
            waypoints=((1, 40.0, 50.0), (150, 190.0, 125.0)),
            target_size=(12.0, 8.0),
            occlusions=((60, 100),),
            seed=seed,
        )
        _, raw, _, occluded, column = generate_scenario_rows(config)
        _, _, npsrs, _ = track_rows(raw, column, MotionParams(), False)
        wins += npsrs[occluded].mean() < npsrs[~occluded].mean()
    pvalue = scipy.stats.binomtest(wins, 50, alternative="greater").pvalue
    assert pvalue < 0.01

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(
        5,
        "PSR fixture, normalized range/monotonicity, occlusion separation",
        f"fixture err {fixture_err:.1e}, {wins}/50 scenarios, p {pvalue:.1e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 6. refinement branch exactness


def acceptance_map(score):
    grid = np.zeros((11, 11))
    sidelobe = [
        (i, j) for i in range(11) for j in range(11) if not (4 <= i <= 6 and 4 <= j <= 6)
    ]
    for index, (i, j) in enumerate(sidelobe):
        grid[i, j] = 0.2 if index % 2 else 0.0
    grid[4:7, 4:7] = 0.15
    grid[5, 5] = 0.1 + score * (0.1 + 1e-6)
    return grid


def test_criterion_6_refinement_exactness():
    start = time.perf_counter()
    params = MotionParams()

    # warm-up pass-through
    state = TrackerState(params.n1)
    strong = acceptance_map(8.0)
    boxes = [BoundingBox(2.0 * k, 3.0 * k, 20.0, 14.0) for k in range(params.n1)]
    for box in boxes:
        assert refine_step(state, box, strong, params) == box

    # low confidence: exact-line extrapolation
    refined = refine_step(state, BoundingBox(999.0, 999.0, 5.0, 5.0), acceptance_map(2.0), params)
    line_err = math.hypot(refined.cx - 2.0 * params.n1, refined.cy - 3.0 * params.n1)
    assert line_err < 1e-9

    # high confidence at a fresh PSR maximum with stationary history
    state = TrackerState(params.n1)
    grid = acceptance_map(6.0)
    for _ in range(params.n1):
        refine_step(state, BoundingBox(40.0, 30.0, 8.0, 6.0), grid, params)
    model = BoundingBox(40.0, 30.0, 10.0, 10.0)
    refined = refine_step(state, model, grid, params)
    high_err = math.hypot(refined.cx - 40.0, refined.cy - 30.0)
    assert high_err < 1e-9
    assert refined.w == pytest.approx(0.7 * 10.0 + 0.3 * 8.0)
    assert refined.h == pytest.approx(0.7 * 10.0 + 0.3 * 6.0)

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(
        6,
        "warm-up identity, line extrapolation, confident pass-through",
        f"line err {line_err:.1e}, high err {high_err:.1e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 7. occlusion recovery


def test_criterion_7_occlusion_recovery():
    start = time.perf_counter()
    ommr_ok = 0
    raw_worse = 0
    margins = []
    for seed in range(10):
        config = ScenarioConfig(
            frame_count=400,
            waypoints=((1, 40.0, 50.0), (400, 1636.0, 848.0)),
            target_size=(12.0, 8.0),
            occlusions=((240, 275),),
            seed=seed,
        )
        observations = generate_scenario(config)
        gt = box_rows(obs.gt_box for obs in observations)
        refined = center_errors(box_rows(run_tracking(observations, MotionParams(), True)), gt)
        raw = center_errors(box_rows(run_tracking(observations, MotionParams(), False)), gt)

        ommr_mean = refined[275:300].mean()
        raw_mean = raw[275:300].mean()
        reacquired = refined[275:290].min() < 5.0
        if ommr_mean < 10.0 and reacquired:
            ommr_ok += 1
        if raw_mean > ommr_mean:
            raw_worse += 1
        margins.append(ommr_mean)
    assert ommr_ok >= 8, f"recovery on {ommr_ok}/10 seeds"
    assert raw_worse >= 9, f"raw beat refinement on {10 - raw_worse}/10 seeds"

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        7,
        "post-occlusion recovery with refinement, divergence without",
        f"recovery {ommr_ok}/10, raw worse {raw_worse}/10, "
        f"worst refined CLE {max(margins):.2f}px, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 8. evaluation oracle


def brute_ope(pred, gt):
    n = len(pred)
    distances, normalized, overlaps = [], [], []
    for p, g in zip(pred, gt):
        dx, dy = p.cx - g.cx, p.cy - g.cy
        distances.append(math.hypot(dx, dy))
        normalized.append(math.hypot(dx / g.w, dy / g.h))
        ax0, ay0, bx0, by0 = p.cx - p.w / 2, p.cy - p.h / 2, g.cx - g.w / 2, g.cy - g.h / 2
        iw = max(0.0, min(ax0 + p.w, bx0 + g.w) - max(ax0, bx0))
        ih = max(0.0, min(ay0 + p.h, by0 + g.h) - max(ay0, by0))
        inter = iw * ih
        overlaps.append(inter / (p.w * p.h + g.w * g.h - inter))
    p5 = sum(d <= 5 for d in distances) / n
    p20 = sum(d <= 20 for d in distances) / n
    np05 = sum(d <= 0.5 for d in normalized) / n
    auc = sum(sum(o > tau / 20 for o in overlaps) / n for tau in range(21)) / 21
    return p5, p20, np05, auc


def test_criterion_8_evaluation_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(50):
        frames = int(rng.integers(1, 40))
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
        result = evaluate_rows(box_rows(pred), box_rows(gt))
        for ours, expected in zip(
            (result.p5, result.p20, result.np05, result.success_auc), brute_ope(pred, gt)
        ):
            worst = max(worst, abs(ours - expected))
    assert worst < 1e-12

    gt = [BoundingBox(10.0 + k, 20.0, 6.0, 6.0) for k in range(8)]
    perfect = evaluate_rows(box_rows(gt), box_rows(gt))
    assert perfect.p5 == perfect.p20 == perfect.np05 == 1.0

    gt = [BoundingBox(0.0, 0.0, 30.0, 30.0)] * 10
    pred = [BoundingBox(3.0, 0.0, 30.0, 30.0)] * 4 + [BoundingBox(12.0, 0.0, 30.0, 30.0)] * 6
    fixture = evaluate_rows(box_rows(pred), box_rows(gt))
    assert fixture.p5 == pytest.approx(0.4)
    assert fixture.p20 == pytest.approx(1.0)

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(8, "scorer matches brute force and counting fixtures", f"max |delta| {worst:.1e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 9. hot-path throughput


def multi_peak_map():
    grid = np.zeros((25, 25))
    cells = np.indices((25, 25)).reshape(2, -1).T
    for (ci, cj), amp in (((6, 6), 1.0), ((18, 8), 0.95), ((10, 19), 0.9)):
        dist2 = ((cells[:, 0] - ci) ** 2 + (cells[:, 1] - cj) ** 2).reshape(25, 25)
        grid += amp * np.exp(-0.5 * dist2)
    return grid + 0.05


def single_peak_map():
    cells = np.indices((25, 25)).reshape(2, -1).T
    dist2 = ((cells[:, 0] - 12) ** 2 + (cells[:, 1] - 12) ** 2).reshape(25, 25)
    return np.exp(-0.5 * dist2)


def bench(grid, params, label):
    """Mean seconds per frame of scoring plus one refinement step."""
    state = TrackerState(params.n1)
    warm = single_peak_map()
    box = BoundingBox(100.0, 100.0, 10.0, 10.0)
    for k in range(params.n1):
        refine_step(state, BoundingBox(100.0 + k, 100.0 + k, 10.0, 10.0), warm, params)
    scoring_state = TrackerState(params.n1)
    rounds = 3000
    begin = time.perf_counter()
    for _ in range(rounds):
        psr(grid)
        normalized_psr(grid, scoring_state)
        refine_step(state, box, grid, params)
    per_step = (time.perf_counter() - begin) / rounds
    assert per_step < 1e-4, f"{label} path took {per_step * 1e6:.1f}us per step"
    return per_step


def test_criterion_9_hot_path_throughput():
    start = time.perf_counter()
    params = MotionParams()
    high = bench(single_peak_map(), params, "high-confidence")
    low = bench(multi_peak_map(), params, "low-confidence")

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(
        9,
        "per-frame scoring and refinement under 0.1 ms",
        f"high {high * 1e6:.1f}us, low {low * 1e6:.1f}us, "
        f"{1.0 / max(high, low):,.0f} steps/s, {elapsed:.2f}s",
    )
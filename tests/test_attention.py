"""Cross-frame attention tests, including a naive per-location reference forward."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sattrack import (
    ProjectionWeights,
    attention_weights,
    enhance_features,
    init_projection_weights,
    project_qkv,
    template_saliency,
    xcorr_depthwise,
)
from sattrack.attention import _attend


def identity_weights(channels, gamma=0.0):
    eye = np.eye(channels)
    return ProjectionWeights(w_q=eye, w_k=eye, w_v=eye, gamma=gamma)


def with_biases(weights, seed):
    """``weights`` with seeded biases drawn from the initialization's range,
    as a weights file may carry them."""
    rng = np.random.default_rng(seed)
    bound = 1.0 / math.sqrt(weights.channels)
    b_q, b_k = rng.uniform(-bound, bound, size=(2, weights.w_q.shape[0]))
    b_v = rng.uniform(-bound, bound, size=weights.channels)
    return replace(weights, b_q=b_q, b_k=b_k, b_v=b_v)


def reference_forward(search, template, weights):
    """Per-location loop implementation of the enhancement, kept deliberately naive.

    Computes every projection, logit, softmax row, and aggregation with scalar
    loops so the vectorized path has something independent to disagree with.
    """
    c, hs, ws = search.shape
    _, ht, wt = template.shape
    n_s, n_t = hs * ws, ht * wt
    flat_s = search.reshape(c, n_s)
    flat_t = template.reshape(c, n_t)
    cr = weights.w_q.shape[0]

    def project(matrix, bias, flat, count):
        out = np.zeros((matrix.shape[0], count))
        for pos in range(count):
            for row in range(matrix.shape[0]):
                acc = 0.0
                for col in range(c):
                    acc += matrix[row, col] * flat[col, pos]
                if bias is not None:
                    acc += bias[row]
                out[row, pos] = acc
        return out

    q = project(weights.w_q, weights.b_q, flat_s, n_s)
    k = project(weights.w_k, weights.b_k, flat_t, n_t)
    v = project(weights.w_v, weights.b_v, flat_t, n_t)

    mixed = np.zeros((c, n_s))
    for i in range(n_s):
        logits = [sum(q[d, i] * k[d, j] for d in range(cr)) for j in range(n_t)]
        exps = [math.exp(value) for value in logits]
        total = sum(exps)
        row = [value / total for value in exps]
        for d in range(c):
            mixed[d, i] = sum(row[j] * v[d, j] for j in range(n_t))
    return search + weights.gamma * mixed.reshape(c, hs, ws)


class TestProjection:
    def test_identity_projection_returns_flattened_input(self):
        rng = np.random.default_rng(0)
        search = rng.normal(size=(3, 4, 5))
        template = rng.normal(size=(3, 2, 2))
        q, k, v = project_qkv(search, template, identity_weights(3))
        assert np.array_equal(q, search.reshape(3, 20))
        assert np.array_equal(k, template.reshape(3, 4))
        assert np.array_equal(v, template.reshape(3, 4))

    def test_row_of_ones_sums_channels(self):
        search = np.arange(16, dtype=float).reshape(4, 2, 2)
        template = np.ones((4, 1, 1))
        ones_row = np.ones((1, 4))
        weights = ProjectionWeights(w_q=ones_row, w_k=ones_row, w_v=np.eye(4))
        q, k, _ = project_qkv(search, template, weights)
        # channel values at location 0 are 0, 4, 8, 12 and so on
        assert q.shape == (1, 4)
        assert np.array_equal(q[0], [24.0, 28.0, 32.0, 36.0])
        assert np.array_equal(k[0], [4.0])

    def test_zero_weights_give_zero_projections(self):
        rng = np.random.default_rng(1)
        search = rng.normal(size=(4, 3, 3))
        template = rng.normal(size=(4, 2, 2))
        zeros = ProjectionWeights(
            w_q=np.zeros((1, 4)), w_k=np.zeros((1, 4)), w_v=np.zeros((4, 4))
        )
        q, k, v = project_qkv(search, template, zeros)
        assert not q.any() and not k.any() and not v.any()

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="channel"):
            project_qkv(np.zeros((3, 2, 2)), np.zeros((4, 2, 2)), identity_weights(3))

    def test_indivisible_reduction_rejected(self):
        with pytest.raises(ValueError, match="incompatible"):
            ProjectionWeights(
                w_q=np.zeros((3, 5)), w_k=np.zeros((3, 5)), w_v=np.zeros((5, 5))
            )
        with pytest.raises(ValueError, match="multiple"):
            init_projection_weights(5, reduction=3)

    def test_bias_applied(self):
        search = np.zeros((2, 1, 1))
        template = np.zeros((2, 1, 1))
        weights = ProjectionWeights(
            w_q=np.eye(2),
            w_k=np.eye(2),
            w_v=np.eye(2),
            b_q=np.array([1.0, 2.0]),
            b_k=np.array([3.0, 4.0]),
            b_v=np.array([5.0, 6.0]),
        )
        q, k, v = project_qkv(search, template, weights)
        assert np.array_equal(q[:, 0], [1.0, 2.0])
        assert np.array_equal(k[:, 0], [3.0, 4.0])
        assert np.array_equal(v[:, 0], [5.0, 6.0])


class TestAttentionWeights:
    def test_zero_queries_give_uniform_rows(self):
        q = np.zeros((2, 5))
        k = np.random.default_rng(2).normal(size=(2, 4))
        attn = attention_weights(q, k)
        assert np.allclose(attn, 0.25)

    def test_single_template_point_gives_ones(self):
        rng = np.random.default_rng(3)
        attn = attention_weights(rng.normal(size=(3, 6)), rng.normal(size=(3, 1)))
        assert np.array_equal(attn, np.ones((6, 1)))

    def test_two_key_softmax_value(self):
        q = np.array([[10.0], [0.0]])
        k = np.array([[1.0, 0.0], [0.0, 1.0]])
        attn = attention_weights(q, k)
        assert attn[0, 0] == pytest.approx(1 / (1 + math.exp(-10)))
        assert attn[0, 0] == pytest.approx(0.9999546, abs=1e-7)
        assert attn[0, 1] == pytest.approx(4.54e-5, abs=1e-7)

    def test_rows_stochastic_over_random_trials(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            q = rng.normal(size=(3, 7))
            k = rng.normal(size=(3, 5))
            attn = attention_weights(q, k)
            assert (attn >= 0).all()
            assert np.abs(attn.sum(axis=1) - 1.0).max() < 1e-6

    def test_shift_invariance(self):
        # q = [2], keys k_j: logits 2*k_j; offsetting every key by 3.5 shifts
        # the whole row's logits by 7, which softmax must cancel exactly
        kk = np.random.default_rng(5).normal(size=(1, 3))
        a = attention_weights(np.array([[2.0]]), kk)
        b = attention_weights(np.array([[2.0]]), kk + 3.5)
        assert np.abs(a - b).max() < 1e-12

    def test_large_logits_do_not_overflow(self):
        attn = attention_weights(np.array([[500.0]]), np.array([[2.0, 1.0]]))
        assert np.isfinite(attn).all()
        assert attn[0, 0] == pytest.approx(1.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            attention_weights(np.zeros((2, 3)), np.zeros((3, 3)))


class TestAggregation:
    """The value mixing of the block, read through the enhanced features:
    ``enhanced - search`` at a search location is gamma times the
    attention-weighted sum of the value vectors."""

    def test_uniform_attention_constant_values(self):
        # zero queries score every template location 0: uniform attention
        eye = np.eye(3)
        weights = ProjectionWeights(w_q=np.zeros((3, 3)), w_k=eye, w_v=eye, gamma=1.0)
        template = np.tile(np.array([1.0, 2.0, 3.0])[:, None, None], (1, 2, 2))
        search = np.zeros((3, 5, 1))
        out = enhance_features(search, template, weights)
        assert out.shape == (3, 5, 1)
        assert np.allclose(out[:, :, 0], np.array([[1.0], [2.0], [3.0]]))

    def test_one_hot_rows_select_columns(self):
        # one-hot search and template columns scaled by 40 score 1600 on one
        # template location and 0 elsewhere, and exp(-1600) is exactly 0
        rng = np.random.default_rng(6)
        w_v = rng.normal(size=(4, 4))
        order = [2, 0, 3, 1]
        weights = ProjectionWeights(w_q=40.0 * np.eye(4), w_k=40.0 * np.eye(4), w_v=w_v, gamma=1.0)
        template = np.eye(4).reshape(4, 2, 2)
        search = np.eye(4)[:, order].reshape(4, 2, 2)
        out, attention = _attend(search, template, weights)
        assert np.array_equal(attention.T, np.eye(4)[order])
        flat_search, flat_out = search.reshape(4, 4), out.reshape(4, 4)
        for row, col in enumerate(order):
            assert np.array_equal(flat_out[:, row], flat_search[:, row] + w_v[:, col])

    def test_matches_matmul_oracle(self):
        rng = np.random.default_rng(7)
        search, template = rng.normal(size=(4, 1, 2)), rng.normal(size=(4, 2, 1))
        weights = init_projection_weights(4, seed=7, gamma=0.5)
        q, k, v = project_qkv(search, template, weights)
        attn = attention_weights(q, k)
        out = enhance_features(search, template, weights).reshape(4, 2)
        oracle = np.empty((4, 2))
        for c in range(4):
            for i in range(2):
                mixed = sum(v[c, j] * attn[i, j] for j in range(2))
                oracle[c, i] = search.reshape(4, 2)[c, i] + 0.5 * mixed
        assert np.abs(out - oracle).max() < 1e-12


class TestEnhancement:
    def test_gamma_zero_is_identity(self):
        rng = np.random.default_rng(8)
        search = rng.normal(size=(4, 5, 5))
        template = rng.normal(size=(4, 3, 3))
        weights = init_projection_weights(4, seed=9)
        out = enhance_features(search, template, weights)
        assert np.array_equal(out, search)

    def test_gamma_zero_keeps_negative_zeros(self):
        search = np.full((4, 3, 3), -0.0)
        template = np.random.default_rng(11).normal(size=(4, 2, 2))
        weights = init_projection_weights(4, seed=9)
        # flipping the template flips the sign of the attended values, so
        # one of the two runs adds +0.0 to every channel with a -0.0
        for sign in (1.0, -1.0):
            out = enhance_features(search, sign * template, weights)
            assert out is not search
            assert out.tobytes() == search.tobytes()

    def test_single_template_point_broadcast(self):
        rng = np.random.default_rng(10)
        search = rng.normal(size=(3, 4, 4))
        vec = np.array([1.5, -2.0, 0.25])
        template = vec.reshape(3, 1, 1)
        weights = ProjectionWeights(
            w_q=np.zeros((3, 3)), w_k=np.zeros((3, 3)), w_v=np.eye(3), gamma=1.0
        )
        out = enhance_features(search, template, weights)
        assert np.allclose(out, search + vec[:, None, None])

    def test_template_permutation_invariance(self):
        rng = np.random.default_rng(11)
        search = rng.normal(size=(4, 5, 5))
        template = rng.normal(size=(4, 3, 3))
        weights = init_projection_weights(4, seed=12, gamma=0.7)
        base = enhance_features(search, template, weights)
        flat = template.reshape(4, 9)[:, rng.permutation(9)]
        permuted = enhance_features(search, flat.reshape(4, 3, 3), weights)
        assert np.abs(base - permuted).max() < 1e-12

    def test_shape_contract(self):
        rng = np.random.default_rng(13)
        search = rng.normal(size=(8, 6, 7))
        template = rng.normal(size=(8, 2, 3))
        weights = init_projection_weights(8, seed=1, gamma=0.3)
        assert enhance_features(search, template, weights).shape == (8, 6, 7)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(14)
        search = rng.normal(size=(8, 5, 5))
        template = rng.normal(size=(8, 3, 3))
        weights = with_biases(init_projection_weights(8, seed=15, gamma=0.9), seed=15)
        fast = enhance_features(search, template, weights)
        slow = reference_forward(search, template, weights)
        assert np.abs(fast - slow).max() < 1e-10


class TestInitialization:
    def test_deterministic_for_seed(self):
        a = init_projection_weights(8, seed=42)
        b = init_projection_weights(8, seed=42)
        assert np.array_equal(a.w_q, b.w_q)
        assert np.array_equal(a.w_k, b.w_k)
        assert np.array_equal(a.w_v, b.w_v)
        assert a.gamma == 0.0

    def test_seed_changes_weights(self):
        a = init_projection_weights(8, seed=1)
        b = init_projection_weights(8, seed=2)
        assert not np.array_equal(a.w_q, b.w_q)

    def test_bounded_by_inverse_sqrt_channels(self):
        weights = init_projection_weights(16, seed=3)
        bound = 1 / math.sqrt(16)
        for matrix in (weights.w_q, weights.w_k, weights.w_v):
            assert np.abs(matrix).max() <= bound

    def test_shapes_and_bias(self):
        weights = init_projection_weights(8, reduction=4, seed=5)
        assert weights.w_q.shape == (2, 8)
        assert weights.w_k.shape == (2, 8)
        assert weights.w_v.shape == (8, 8)
        assert weights.b_q is None and weights.b_k is None and weights.b_v is None
        assert weights.channels == 8
        biased = with_biases(weights, seed=5)  # as read from a weights file
        assert biased.b_q.shape == biased.b_k.shape == (2,)
        assert biased.b_v.shape == (8,)


class TestSaliency:
    def test_full_mask_uniform_attention(self):
        attn = np.full((6, 3), 1 / 3)
        saliency = template_saliency(attn, range(6))
        assert np.allclose(saliency, 2.0)  # N_s / N_t

    def test_single_index_mask_returns_row(self):
        rng = np.random.default_rng(16)
        raw = rng.uniform(0.1, 1.0, size=(4, 3))
        attn = raw / raw.sum(axis=1, keepdims=True)
        saliency = template_saliency(attn, {2})
        assert np.allclose(saliency, attn[2])
        assert saliency.sum() == pytest.approx(1.0)

    def test_two_index_mask_sums_rows(self):
        attn = np.array([[0.5, 0.5], [0.9, 0.1], [0.2, 0.8]])
        saliency = template_saliency(attn, {0, 2})
        assert np.allclose(saliency, [0.7, 1.3])

    def test_total_equals_mask_size(self):
        rng = np.random.default_rng(17)
        raw = rng.uniform(0.1, 1.0, size=(10, 4))
        attn = raw / raw.sum(axis=1, keepdims=True)
        saliency = template_saliency(attn, {1, 4, 7})
        assert abs(saliency.sum() - 3.0) < 1e-6

    def test_empty_mask_warns_and_zeroes(self):
        attn = np.full((4, 2), 0.5)
        with pytest.warns(UserWarning, match="empty"):
            saliency = template_saliency(attn, set())
        assert np.array_equal(saliency, np.zeros(2))

    def test_out_of_range_mask_rejected(self):
        attn = np.full((4, 2), 0.5)
        with pytest.raises(ValueError):
            template_saliency(attn, {4})
        with pytest.raises(ValueError):
            template_saliency(attn, {-1})


class TestCrossCorrelation:
    def test_unit_template_is_identity(self):
        rng = np.random.default_rng(18)
        search = rng.normal(size=(3, 5, 6))
        template = np.ones((3, 1, 1))
        assert np.array_equal(xcorr_depthwise(template, search), search)

    def test_subwindow_peak_location(self):
        rng = np.random.default_rng(19)
        # faint background with one bright patch, so the aligned inner
        # product dominates every other window regardless of its energy
        search = rng.uniform(0.0, 0.1, size=(1, 8, 8))
        search[:, 3:6, 2:5] += 1.0
        template = search[:, 3:6, 2:5].copy()
        response = xcorr_depthwise(template, search)[0]
        oracle = np.empty_like(response)
        for i in range(response.shape[0]):
            for j in range(response.shape[1]):
                window = search[0, i : i + 3, j : j + 3]
                oracle[i, j] = float((window * template[0]).sum())
        assert np.abs(response - oracle).max() < 1e-12
        assert np.unravel_index(response.argmax(), response.shape) == (3, 2)

    def test_zero_template_zero_output(self):
        search = np.random.default_rng(20).normal(size=(2, 4, 4))
        out = xcorr_depthwise(np.zeros((2, 2, 2)), search)
        assert out.shape == (2, 3, 3)
        assert not out.any()

    def test_oversized_template_rejected(self):
        with pytest.raises(ValueError, match="larger"):
            xcorr_depthwise(np.zeros((1, 5, 5)), np.zeros((1, 4, 6)))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="channel"):
            xcorr_depthwise(np.zeros((2, 2, 2)), np.zeros((3, 4, 4)))


PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


def xcorr_loop(template, search):
    """The correlation by definition: one windowed sum of products per
    channel and offset."""
    channels, rows, cols = template.shape
    out = np.empty((channels, search.shape[1] - rows + 1, search.shape[2] - cols + 1))
    for c in range(channels):
        for y in range(out.shape[1]):
            for x in range(out.shape[2]):
                out[c, y, x] = np.sum(search[c, y : y + rows, x : x + cols] * template[c])
    return out


def assert_xcorr_matches_loop(template, search):
    got = xcorr_depthwise(template, search)
    # relative to the sum of |products|, the scale rounding errors live on
    scale = xcorr_loop(np.abs(template), np.abs(search))
    assert got.shape == scale.shape
    assert (np.abs(got - xcorr_loop(template, search)) <= 1e-12 * scale).all()


@st.composite
def xcorr_pairs(draw):
    """(template, search) with 1..4 channels, search axes 1..20 and any
    template no larger than the search map on either axis."""
    channels = draw(st.integers(1, 4))
    rows, cols = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    t_rows, t_cols = draw(st.integers(1, rows)), draw(st.integers(1, cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    return (
        scale * rng.normal(size=(channels, t_rows, t_cols)),
        rng.normal(size=(channels, rows, cols)),
    )


class TestCrossCorrelationProperties:
    @PROPERTY_SETTINGS
    @given(xcorr_pairs())
    def test_matches_loop_oracle(self, pair):
        assert_xcorr_matches_loop(*pair)

    @pytest.mark.parametrize(
        "template_shape, search_shape",
        [
            ((3, 7, 5), (3, 7, 5)),  # equal sizes: a single output cell
            ((2, 1, 1), (2, 6, 9)),
            ((4, 1, 1), (4, 1, 1)),
            ((1, 1, 6), (1, 4, 6)),
            ((2, 64, 64), (2, 128, 128)),
        ],
    )
    def test_edge_shapes_match_loop_oracle(self, template_shape, search_shape):
        rng = np.random.default_rng(24)
        assert_xcorr_matches_loop(
            rng.normal(size=template_shape), rng.normal(size=search_shape)
        )

    def test_inputs_are_not_modified(self):
        rng = np.random.default_rng(25)
        template, search = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 8, 9))
        before = template.copy(), search.copy()
        xcorr_depthwise(template, search)
        assert np.array_equal(template, before[0]) and np.array_equal(search, before[1])


def softmax_rows(q, k):
    """Scalar per-row softmax of the dot-product scores (Ns, Nt)."""
    out = np.empty((q.shape[1], k.shape[1]))
    for i in range(q.shape[1]):
        logits = [float(np.dot(q[:, i], k[:, j])) for j in range(k.shape[1])]
        top = max(logits)
        exps = [math.exp(value - top) for value in logits]
        total = math.fsum(exps)
        out[i] = [value / total for value in exps]
    return out


class TestAttentionWeightsProperties:
    @PROPERTY_SETTINGS
    @given(
        st.integers(1, 8),
        st.integers(1, 40),
        st.integers(1, 40),
        st.floats(0.01, 3.0),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_per_row_softmax(self, dim, n_search, n_template, scale, seed):
        rng = np.random.default_rng(seed)
        q = scale * rng.normal(size=(dim, n_search))
        k = scale * rng.normal(size=(dim, n_template))
        attn = attention_weights(q, k)
        assert attn.shape == (n_search, n_template)
        assert np.abs(attn - softmax_rows(q, k)).max() <= 1e-12
        assert (attn >= 0).all()
        assert np.abs(attn.sum(axis=1) - 1.0).max() <= 1e-12

    def test_enhancement_uses_the_same_attention(self):
        rng = np.random.default_rng(26)
        search, template = rng.normal(size=(8, 6, 7)), rng.normal(size=(8, 3, 2))
        weights = with_biases(init_projection_weights(8, seed=4, gamma=0.3), seed=4)
        q, k, v = project_qkv(search, template, weights)
        attention = attention_weights(q, k)
        mixed = (v @ attention.T).reshape(search.shape)
        assert np.array_equal(
            enhance_features(search, template, weights), search + 0.3 * mixed
        )
        enhanced, template_major = _attend(search, template, weights)
        assert np.array_equal(enhanced, search + 0.3 * mixed)
        assert np.array_equal(template_major.T, attention)

"""Unit tests for the mean-shift kernel (Section 3.1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import TBONError
from repro.cluster import meanshift
from repro.cluster.datagen import ClusterSpec, full_dataset, leaf_dataset, make_clusters
from repro.cluster.meanshift import (
    KERNELS,
    assign_labels,
    collapse_points,
    density_starts,
    mean_shift,
    mean_shift_search,
    merge_peaks,
)


@pytest.fixture
def two_blobs(rng):
    centers = np.array([[100.0, 100.0], [400.0, 400.0]])
    return make_clusters(centers, std=20.0, points_per_cluster=300, rng=rng)


class TestKernels:
    def test_all_kernels_unit_at_zero(self):
        z = np.array([0.0])
        for name, k in KERNELS.items():
            assert k(z)[0] == pytest.approx(1.0), name

    def test_compact_kernels_vanish_outside_window(self):
        u = np.array([1.5])
        for name in ("uniform", "triangular", "quadratic"):
            assert KERNELS[name](u)[0] == 0.0, name

    def test_gaussian_decays(self):
        g = KERNELS["gaussian"](np.array([0.0, 1.0, 2.0]))
        assert g[0] > g[1] > g[2] > 0


class TestSearch:
    def test_converges_to_blob_center(self, two_blobs):
        mode, iters = mean_shift_search(
            two_blobs[:300], start=np.array([120.0, 90.0]), bandwidth=50.0
        )
        assert np.linalg.norm(mode - [100, 100]) < 10
        assert 1 <= iters <= 100

    def test_kernel_choice_still_converges(self, two_blobs):
        for kernel in KERNELS:
            mode, _ = mean_shift_search(
                two_blobs, np.array([110.0, 95.0]), bandwidth=50.0, kernel=kernel
            )
            assert np.linalg.norm(mode - [100, 100]) < 15, kernel

    def test_empty_window_stops(self):
        pts = np.array([[0.0, 0.0]])
        mode, iters = mean_shift_search(
            pts, np.array([1e6, 1e6]), bandwidth=1.0, kernel="uniform"
        )
        assert iters == 1  # empty window: no density info, stop where we are

    def test_unknown_kernel_rejected(self, two_blobs):
        with pytest.raises(TBONError):
            mean_shift_search(two_blobs, np.zeros(2), kernel="wat")

    def test_bad_start_shape_rejected(self, two_blobs):
        with pytest.raises(TBONError):
            mean_shift_search(two_blobs, np.zeros(3))

    def test_weighted_equals_duplicated(self, rng):
        """Weight w at a point == w copies of that point."""
        pts = rng.normal(size=(50, 2)) * 10
        dup = np.concatenate([pts, pts[:10]])
        w = np.ones(50)
        w[:10] = 2.0
        start = np.array([1.0, 1.0])
        m_dup, _ = mean_shift_search(dup, start, bandwidth=30.0)
        m_w, _ = mean_shift_search(pts, start, bandwidth=30.0, weights=w)
        assert np.allclose(m_dup, m_w)


class TestDensityStarts:
    def test_finds_dense_regions(self, two_blobs):
        starts = density_starts(two_blobs, bandwidth=50.0, density_threshold=5)
        assert len(starts) >= 2
        # At least one start near each blob.
        d0 = np.linalg.norm(starts - [100, 100], axis=1).min()
        d1 = np.linalg.norm(starts - [400, 400], axis=1).min()
        assert d0 < 50 and d1 < 50

    def test_threshold_filters_sparse_cells(self):
        pts = np.array([[0.0, 0.0], [1000.0, 1000.0]])
        assert len(density_starts(pts, 50.0, density_threshold=2)) == 0

    def test_empty_input(self):
        assert len(density_starts(np.empty((0, 2)), 50.0)) == 0

    def test_invalid_bandwidth(self, two_blobs):
        with pytest.raises(TBONError):
            density_starts(two_blobs, bandwidth=0.0)

    def test_weights_count_toward_density(self):
        pts = np.array([[10.0, 10.0]])
        assert len(density_starts(pts, 50.0, density_threshold=5)) == 0
        starts = density_starts(
            pts, 50.0, density_threshold=5, weights=np.array([6.0])
        )
        assert len(starts) == 1


class TestCollapse:
    def test_weight_conservation(self, two_blobs):
        reps, w = collapse_points(two_blobs, cell=12.5)
        assert w.sum() == pytest.approx(len(two_blobs))
        assert len(reps) < len(two_blobs)

    def test_idempotent_on_collapsed(self, two_blobs):
        reps, w = collapse_points(two_blobs, cell=12.5)
        reps2, w2 = collapse_points(reps, w, cell=12.5)
        # Representatives land at cell centers of mass; re-collapsing at
        # the same resolution preserves total weight and count scale.
        assert w2.sum() == pytest.approx(w.sum())
        assert len(reps2) <= len(reps)

    def test_single_point(self):
        reps, w = collapse_points(np.array([[3.0, 4.0]]), cell=10.0)
        assert np.allclose(reps, [[3.0, 4.0]])
        assert w.tolist() == [1.0]

    def test_invalid_cell(self, two_blobs):
        with pytest.raises(TBONError):
            collapse_points(two_blobs, cell=0.0)


class TestMergePeaks:
    def test_dedupes_nearby(self):
        peaks = np.array([[0.0, 0.0], [1.0, 1.0], [100.0, 100.0]])
        merged = merge_peaks(peaks, radius=10.0)
        assert len(merged) == 2

    def test_keeps_distant(self):
        peaks = np.array([[0.0, 0.0], [100.0, 100.0]])
        assert len(merge_peaks(peaks, radius=10.0)) == 2

    def test_empty(self):
        assert len(merge_peaks(np.empty((0, 2)), 10.0)) == 0


class TestFullPipeline:
    def test_finds_the_right_modes(self, two_blobs):
        res = mean_shift(two_blobs, bandwidth=50.0, density_threshold=5)
        assert len(res.peaks) == 2
        dists = np.linalg.norm(
            res.peaks[:, None, :] - np.array([[100, 100], [400, 400]])[None], axis=2
        )
        assert dists.min(axis=1).max() < 10

    def test_explicit_starts_skip_scan(self, two_blobs):
        res = mean_shift(two_blobs, starts=np.array([[110.0, 110.0]]))
        assert res.points_scanned == 0
        assert len(res.peaks) == 1

    def test_work_counters_populated(self, two_blobs):
        res = mean_shift(two_blobs)
        assert res.iterations > 0
        assert res.point_iter_products == res.iterations * len(two_blobs)
        assert res.points_scanned == len(two_blobs)

    def test_paper_default_bandwidth_on_synthetic_workload(self):
        """The paper's bandwidth-50 default finds the 4 generated modes."""
        data = full_dataset(2, ClusterSpec(), seed=7)
        res = mean_shift(data)  # bandwidth defaults to 50
        assert len(res.peaks) == 4

    def test_non_2d_rejected(self):
        with pytest.raises(TBONError):
            mean_shift(np.zeros((5, 3)))


# -- per-start loop oracles ---------------------------------------------------
def _oracle_search(pts, start, bandwidth, kernel, max_iter, tol, pw):
    """One window shifted alone, one NumPy pass per iteration."""
    kfn = KERNELS[kernel]
    centroid = np.asarray(start, dtype=np.float64).copy()
    iters = 0
    for _ in range(max_iter):
        iters += 1
        d = np.linalg.norm(pts - centroid, axis=1)
        w = kfn(d / bandwidth) * pw
        total = w.sum()
        if total <= 0:
            break
        new_centroid = (pts * w[:, None]).sum(axis=0) / total
        shift = np.linalg.norm(new_centroid - centroid)
        centroid = new_centroid
        if shift < tol:
            break
    return centroid, iters


def _oracle_cells(pts, w, cell):
    cells = [tuple(c) for c in np.floor(pts / cell).astype(np.int64)]
    for key in sorted(set(cells)):
        idx = [i for i, c in enumerate(cells) if c == key]
        yield pts[idx], w[idx]


def _oracle_collapse(pts, w, cell):
    reps, rep_w = [], []
    for cp, cw in _oracle_cells(pts, w, cell):
        total = cw.sum()
        rep_w.append(total)
        reps.append((cp * cw[:, None]).sum(axis=0) / total if total > 0 else cp.mean(axis=0))
    return np.asarray(reps), np.asarray(rep_w)


def _oracle_density_starts(pts, w, cell, threshold):
    return np.asarray(
        [
            (cp * cw[:, None]).sum(axis=0) / cw.sum()
            for cp, cw in _oracle_cells(pts, w, cell)
            if cw.sum() >= threshold
        ]
    ).reshape(-1, 2)


def _batched_modes(monkeypatch, pts, starts, **kw):
    """``mean_shift`` over ``starts``, with the per-start modes it merges."""
    seen = []

    def capture(peaks, radius):
        seen.append(np.array(peaks))
        return merge_peaks(peaks, radius)

    monkeypatch.setattr(meanshift, "merge_peaks", capture)
    res = mean_shift(pts, starts=starts, **kw)
    return seen[0], res


_SPEC = ClusterSpec(points_per_cluster=150)
_FAR = np.array([[1e6, 1e6]])  # every kernel's window is empty out here


def _equivalence_cases():
    leaf = leaf_dataset(2, _SPEC, seed=3)
    full = full_dataset(2, _SPEC, seed=4)
    reps, rep_w = collapse_points(full, cell=25.0)
    rng = np.random.default_rng(9)
    return {
        "leaf": (leaf, None),
        "leaf-random-weights": (leaf, rng.uniform(0.0, 3.0, len(leaf))),
        "full": (full, None),
        "full-collapsed": (reps, rep_w),
    }


class TestBatchedEquivalence:
    """The batched pass against the per-start loop it replaced."""

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("case", sorted(_equivalence_cases()))
    def test_matches_per_start_loop(self, monkeypatch, kernel, case):
        pts, w = _equivalence_cases()[case]
        pw = np.ones(len(pts)) if w is None else w
        starts = np.concatenate(
            [density_starts(pts, 50.0, weights=w), _FAR]
        )
        modes, res = _batched_modes(
            monkeypatch, pts, starts, kernel=kernel, weights=w
        )
        expect = [
            _oracle_search(pts, s, 50.0, kernel, 100, 1e-3, pw) for s in starts
        ]
        assert len(starts) > 10
        assert np.abs(modes - np.array([m for m, _ in expect])).max() < 1e-9
        assert res.iterations == sum(i for _, i in expect)
        assert res.point_iter_products == res.iterations * len(pts)
        assert np.array_equal(modes[-1], _FAR[0])  # empty window: stays put

    def test_blocks_span_the_starts(self, monkeypatch):
        pts, w = _equivalence_cases()["full-collapsed"]
        starts = np.concatenate([_FAR, density_starts(pts, 50.0, weights=w)])
        unblocked, whole = _batched_modes(monkeypatch, pts, starts, weights=w)
        monkeypatch.setattr(meanshift, "BLOCK_ELEMENTS", 3 * len(pts))
        blocked, split = _batched_modes(monkeypatch, pts, starts, weights=w)
        assert len(starts) > 3 * 3  # at least four blocks of three windows
        expect = [_oracle_search(pts, s, 50.0, "gaussian", 100, 1e-3, w) for s in starts]
        assert np.abs(blocked - np.array([m for m, _ in expect])).max() < 1e-9
        assert split.iterations == whole.iterations == sum(i for _, i in expect)
        assert np.abs(blocked - unblocked).max() < 1e-9

    def test_search_is_one_row_of_the_pass(self):
        pts, w = _equivalence_cases()["leaf-random-weights"]
        for s in density_starts(pts, 50.0, weights=w)[:5]:
            mode, iters = mean_shift_search(pts, s, weights=w)
            want, want_iters = _oracle_search(pts, s, 50.0, "gaussian", 100, 1e-3, w)
            assert np.abs(mode - want).max() < 1e-9
            assert iters == want_iters

    def test_starts_are_not_mutated(self):
        pts = leaf_dataset(0, _SPEC, seed=1)
        starts = density_starts(pts, 50.0)
        before = starts.copy()
        res = mean_shift(pts, starts=starts)
        assert np.array_equal(starts, before)
        assert np.array_equal(res.starts, before)

    @pytest.mark.parametrize("case", sorted(_equivalence_cases()))
    def test_collapse_matches_cell_loop(self, case):
        pts, w = _equivalence_cases()[case]
        pw = np.ones(len(pts)) if w is None else w
        for cell in (12.5, 25.0, 60.0):
            reps, rep_w = collapse_points(pts, w, cell=cell)
            want, want_w = _oracle_collapse(pts, pw, cell)
            assert np.abs(reps - want).max() < 1e-9
            assert np.abs(rep_w - want_w).max() < 1e-9

    def test_collapse_weightless_cell_uses_plain_mean(self):
        pts = np.array([[1.0, 1.0], [3.0, 5.0], [100.0, 100.0], [102.0, 104.0]])
        w = np.array([0.0, 0.0, 1.0, 3.0])
        reps, rep_w = collapse_points(pts, w, cell=50.0)
        want, want_w = _oracle_collapse(pts, w, 50.0)
        assert np.abs(reps - want).max() < 1e-9
        assert np.allclose(reps[0], [2.0, 3.0])
        assert rep_w.tolist() == want_w.tolist() == [0.0, 4.0]

    @pytest.mark.parametrize("case", sorted(_equivalence_cases()))
    def test_density_starts_match_cell_loop(self, case):
        pts, w = _equivalence_cases()[case]
        pw = np.ones(len(pts)) if w is None else w
        for threshold in (1.0, 3.0, 8.0):
            got = density_starts(pts, 50.0, threshold, weights=w)
            want = _oracle_density_starts(pts, pw, 10.0, threshold)
            assert got.shape == want.shape
            assert np.abs(got - want).max(initial=0.0) < 1e-9


class TestAssignLabels:
    def test_nearest_peak(self):
        pts = np.array([[0.0, 0.0], [99.0, 99.0]])
        peaks = np.array([[1.0, 1.0], [100.0, 100.0]])
        assert assign_labels(pts, peaks).tolist() == [0, 1]

    def test_no_peaks(self):
        assert assign_labels(np.zeros((3, 2)), np.empty((0, 2))).tolist() == [-1] * 3


class TestDatagen:
    def test_leaf_determinism(self):
        a = leaf_dataset(3, seed=11)
        b = leaf_dataset(3, seed=11)
        assert np.array_equal(a, b)

    def test_leaves_differ(self):
        assert not np.array_equal(leaf_dataset(0, seed=11), leaf_dataset(1, seed=11))

    def test_full_is_union_of_leaves(self):
        spec = ClusterSpec(points_per_cluster=50)
        full = full_dataset(3, spec, seed=5)
        parts = [leaf_dataset(i, spec, seed=5) for i in range(3)]
        assert np.array_equal(full, np.concatenate(parts))

    def test_spec_validation(self):
        with pytest.raises(TBONError):
            ClusterSpec(points_per_cluster=0)
        with pytest.raises(TBONError):
            ClusterSpec(noise_fraction=1.5)
        with pytest.raises(TBONError):
            ClusterSpec(centers=np.zeros((3, 5)))


# -- property tests ----------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=200),
    st.floats(min_value=5.0, max_value=100.0),
)
def test_property_collapse_conserves_weight(n, cell):
    rng = np.random.default_rng(n)
    pts = rng.uniform(0, 500, size=(n, 2))
    w = rng.uniform(0.1, 3.0, size=n)
    reps, rw = collapse_points(pts, w, cell=cell)
    assert rw.sum() == pytest.approx(w.sum())
    assert len(reps) <= n
    # Representatives lie inside the data bounding box.
    assert reps[:, 0].min() >= pts[:, 0].min() - 1e-9
    assert reps[:, 0].max() <= pts[:, 0].max() + 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_search_stays_in_hull(seed):
    """A mean-shift centroid is a convex combination of data points."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(40, 2)) * 50
    start = pts.mean(axis=0)
    mode, _ = mean_shift_search(pts, start, bandwidth=60.0)
    assert pts[:, 0].min() - 1e-6 <= mode[0] <= pts[:, 0].max() + 1e-6
    assert pts[:, 1].min() - 1e-6 <= mode[1] <= pts[:, 1].max() + 1e-6

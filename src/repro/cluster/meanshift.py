"""The mean-shift mode-seeking algorithm (Fukunaga & Hostetler [12]).

Mean-shift is "an iterative procedure that shifts the center of a search
window in the direction of greatest increase in the density of the data
set being explored ... until the window is centered on a region of
maximum density"; it is non-parametric — no a-priori cluster count.

This is the paper's single-node implementation for two-dimensional data
(Section 3.1), vectorized with NumPy:

* a *kernel* (shape function) weights the window — Gaussian by default
  ("gives greater weight to points nearer the center; this effectively
  smooths the data"), with uniform, triangular and quadratic options as
  the paper lists;
* a *density threshold* selects starting points: "we scan across the
  data and calculate the density of the data using a fixed window; the
  regions where the density is above our chosen threshold are used as
  the starting points";
* a *bandwidth* parameter sets the window scale — "we choose a fixed
  bandwidth of 50 which seems to work well with our data";
* each search runs "until it converges on a local maximum that we keep
  as a peak" (or a maximum-iteration threshold is hit).

All searches of a run advance together in one batched pass: each
iteration computes the distances of every still-moving window to every
point as one (active × n) array and the new centroids as one ``w @ pts``
product, so the per-iteration cost is a handful of NumPy calls whatever
the number of starts.  Starts are processed in blocks of at most
:data:`BLOCK_ELEMENTS` // n windows, which bounds those arrays to a few
MB even on a single node holding tens of thousands of points.  The grid
scans (:func:`density_starts`, :func:`collapse_points`) form their cell
groups with one ``lexsort`` and sum them with ``np.add.reduceat``.

:class:`MeanShiftResult` carries the work counters (points scanned,
point×iteration products) that calibrate the discrete-event performance
model in :mod:`repro.simulate.calibrate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.errors import TBONError

__all__ = [
    "KERNELS",
    "gaussian_kernel",
    "uniform_kernel",
    "triangular_kernel",
    "quadratic_kernel",
    "density_starts",
    "collapse_points",
    "mean_shift_search",
    "merge_peaks",
    "mean_shift",
    "MeanShiftResult",
    "assign_labels",
]

DEFAULT_BANDWIDTH = 50.0
DEFAULT_MAX_ITER = 100
DEFAULT_TOL = 1e-3

#: Cap on active windows × points in one block of the batched search:
#: each (active × n) float64 array of a block stays within 2 MB.
BLOCK_ELEMENTS = 1 << 18


def gaussian_kernel(u: np.ndarray) -> np.ndarray:
    """Gaussian shape function: weight = exp(-u²/2), u = distance/bandwidth."""
    return np.exp(-0.5 * u * u)


def uniform_kernel(u: np.ndarray) -> np.ndarray:
    """Uniform (flat) shape function: weight 1 inside the window, 0 outside."""
    return (u <= 1.0).astype(np.float64)


def triangular_kernel(u: np.ndarray) -> np.ndarray:
    """Triangular shape function: weight falls linearly to 0 at the edge."""
    return np.clip(1.0 - u, 0.0, None)


def quadratic_kernel(u: np.ndarray) -> np.ndarray:
    """Quadratic (Epanechnikov) shape function: 1 - u² inside the window."""
    return np.clip(1.0 - u * u, 0.0, None)


KERNELS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "gaussian": gaussian_kernel,
    "uniform": uniform_kernel,
    "triangular": triangular_kernel,
    "quadratic": quadratic_kernel,
}


@dataclass
class MeanShiftResult:
    """Outcome of a mean-shift run plus work counters for calibration.

    Attributes:
        peaks: (k, 2) array of density modes found.
        starts: (m, 2) array of starting points used.
        iterations: total mean-shift iterations across all searches.
        point_iter_products: Σ over iterations of the dataset size — the
            dominant cost term (each iteration weighs every point).
        points_scanned: points touched by the density scan.
    """

    peaks: np.ndarray
    starts: np.ndarray
    iterations: int = 0
    point_iter_products: int = 0
    points_scanned: int = 0


def _as_points(data: np.ndarray) -> np.ndarray:
    pts = np.asarray(data, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise TBONError(f"mean-shift expects (n, 2) data, got shape {pts.shape}")
    return pts


def _as_weights(weights: np.ndarray | None, n: int) -> np.ndarray:
    if weights is None:
        return np.ones(n)
    w = np.asarray(weights, dtype=np.float64).ravel()
    if len(w) != n:
        raise TBONError(f"weights length {len(w)} != point count {n}")
    if np.any(w < 0):
        raise TBONError("weights must be non-negative")
    return w


def _cell_groups(
    pts: np.ndarray, w: np.ndarray, cell: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group points by grid cell with one lexicographic sort.

    Returns the points and weights in cell order plus the offset where
    each cell's run begins (the ``np.add.reduceat`` indices).
    """
    cells = np.floor(pts / cell).astype(np.int64)
    order = np.lexsort((cells[:, 1], cells[:, 0]))
    boundaries = np.any(np.diff(cells[order], axis=0) != 0, axis=1)
    groups = np.concatenate(([0], np.nonzero(boundaries)[0] + 1))
    return pts[order], w[order], groups


def density_starts(
    data: np.ndarray,
    bandwidth: float = DEFAULT_BANDWIDTH,
    density_threshold: float = 3.0,
    weights: np.ndarray | None = None,
    cell: float | None = None,
) -> np.ndarray:
    """Scan the data for high-density start regions.

    This is the paper's "we scan across the data and calculate the
    density of the data using a fixed window; the regions where the
    density is above our chosen threshold are used as the starting
    points for the mean shift search".  The scan bins points into cells
    of size ``cell`` (default ``bandwidth / 5`` — a fine scan, so every
    dense region seeds its own search and the subsequent searches
    dominate the run time, as in the paper's measurements); cells
    holding at least ``density_threshold`` total weight yield their
    weighted centroid as a start point.  Weights default to 1 per
    point; collapsed data (see :func:`collapse_points`) carries its
    multiplicity here.
    """
    pts = _as_points(data)
    if len(pts) == 0:
        return np.empty((0, 2))
    if bandwidth <= 0:
        raise TBONError(f"bandwidth must be positive, got {bandwidth}")
    cell_size = bandwidth / 5 if cell is None else float(cell)
    if cell_size <= 0:
        raise TBONError(f"scan cell must be positive, got {cell_size}")
    w = _as_weights(weights, len(pts))
    sp, sw, groups = _cell_groups(pts, w, cell_size)
    total = np.add.reduceat(sw, groups)
    dense = total >= density_threshold
    if not dense.any():
        return np.empty((0, 2))
    sums = np.add.reduceat(sp * sw[:, None], groups, axis=0)
    return sums[dense] / total[dense, None]


def collapse_points(
    data: np.ndarray,
    weights: np.ndarray | None = None,
    cell: float = DEFAULT_BANDWIDTH / 4,
) -> tuple[np.ndarray, np.ndarray]:
    """Reduce a point set to weighted grid representatives.

    Mean-shift is a *data reduction* in the paper's sense — its output
    must be "lesser in size than its total inputs".  After the shift,
    data concentrates near modes, so a grid dedupe at sub-bandwidth
    resolution loses almost no density information: every occupied cell
    becomes one representative at the cell's weighted center of mass
    carrying the cell's total weight.  This is what keeps upstream
    packets small and deep-tree node work bounded by fan-out (Section
    3.2's observed behaviour).
    """
    pts = _as_points(data)
    if len(pts) == 0:
        return np.empty((0, 2)), np.empty(0)
    if cell <= 0:
        raise TBONError(f"cell must be positive, got {cell}")
    w = _as_weights(weights, len(pts))
    sp, sw, groups = _cell_groups(pts, w, cell)
    rep_w = np.add.reduceat(sw, groups)
    reps = np.add.reduceat(sp * sw[:, None], groups, axis=0)
    heavy = rep_w > 0
    reps[heavy] /= rep_w[heavy, None]
    if not heavy.all():  # weightless cells fall back to the plain mean
        counts = np.diff(groups, append=len(sp))
        reps[~heavy] = np.add.reduceat(sp, groups, axis=0)[~heavy] / counts[~heavy, None]
    return reps, rep_w


def _kernel(name: str) -> Callable[[np.ndarray], np.ndarray]:
    if name not in KERNELS:
        raise TBONError(f"unknown kernel {name!r}; options: {sorted(KERNELS)}")
    return KERNELS[name]


def _shift_all(
    pts: np.ndarray,
    pw: np.ndarray,
    centroids: np.ndarray,
    bandwidth: float,
    kfn: Callable[[np.ndarray], np.ndarray],
    max_iter: int,
    tol: float,
) -> np.ndarray:
    """Shift every row of ``centroids`` (in place) to its density mode.

    The searches advance together, a block of at most
    :data:`BLOCK_ELEMENTS` // n windows at a time.  Each iteration
    weighs every point for every active window as one (active × n)
    array and moves the windows to their weighted means with one
    ``w @ pts``.  A window leaves the active set when its shift drops
    below ``tol`` or its window is empty (total weight ≤ 0, where it
    stays put), so each search stops at the iteration a lone search
    would.  Returns the per-search iteration counts.
    """
    iters = np.zeros(len(centroids), dtype=np.int64)
    px = np.ascontiguousarray(pts[:, 0])
    py = np.ascontiguousarray(pts[:, 1])
    rows = max(1, BLOCK_ELEMENTS // max(1, len(pts)))
    for lo in range(0, len(centroids), rows):
        active = np.arange(lo, min(lo + rows, len(centroids)))
        for _ in range(max_iter):
            if not len(active):
                break
            iters[active] += 1
            c = centroids[active]
            dx = px - c[:, :1]
            dy = py - c[:, 1:]
            dx *= dx
            dy *= dy
            dx += dy
            np.sqrt(dx, out=dx)
            dx /= bandwidth
            w = kfn(dx)
            w *= pw
            total = w.sum(axis=1)
            moving = ~(total <= 0)  # an empty window has no density information
            new = (w @ pts)[moving] / total[moving, None]
            active = active[moving]
            step = new - centroids[active]
            shift = np.sqrt((step * step).sum(axis=1))
            centroids[active] = new
            active = active[~(shift < tol)]
    return iters


def mean_shift_search(
    data: np.ndarray,
    start: np.ndarray,
    bandwidth: float = DEFAULT_BANDWIDTH,
    kernel: str = "gaussian",
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Shift one window from ``start`` to its density mode.

    Implements Figure 3 of the paper: per iteration, compute each
    point's distance to the current centroid, weight with the shape
    function, and move the centroid to the weighted mean ("the mean-
    shift density estimator calculates a vector that will move the
    current centroid toward higher density areas").  Stops when the
    shift magnitude drops below ``tol`` ("successive iterations do not
    yield a new centroid"), when the window holds no weight, or after
    ``max_iter`` iterations.  This is a one-window run of the batched
    pass :func:`mean_shift` uses for all its starts at once.

    Returns the converged centroid and the iteration count.
    """
    pts = _as_points(data)
    kfn = _kernel(kernel)
    pw = _as_weights(weights, len(pts))
    centroid = np.asarray(start, dtype=np.float64).copy()
    if centroid.shape != (2,):
        raise TBONError(f"start must be a 2-vector, got shape {centroid.shape}")
    iters = _shift_all(pts, pw, centroid.reshape(1, 2), bandwidth, kfn, max_iter, tol)
    return centroid, int(iters[0])


def merge_peaks(peaks: np.ndarray, radius: float) -> np.ndarray:
    """Deduplicate peaks closer than ``radius``, keeping cluster means.

    Multiple starts converging to the same mode land within numerical
    wobble of each other; greedy agglomeration in discovery order is
    deterministic and O(k²) in the (small) peak count.
    """
    if len(peaks) == 0:
        return np.empty((0, 2))
    merged: list[np.ndarray] = []
    counts: list[int] = []
    for p in np.asarray(peaks, dtype=np.float64):
        for i, m in enumerate(merged):
            if np.linalg.norm(p - m) < radius:
                counts[i] += 1
                merged[i] = m + (p - m) / counts[i]
                break
        else:
            merged.append(p.copy())
            counts.append(1)
    return np.asarray(merged)


def mean_shift(
    data: np.ndarray,
    bandwidth: float = DEFAULT_BANDWIDTH,
    kernel: str = "gaussian",
    density_threshold: float = 3.0,
    starts: np.ndarray | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    weights: np.ndarray | None = None,
) -> MeanShiftResult:
    """Full single-node mean-shift: density scan, searches, peak merge.

    Every start's search runs in one batched pass (see
    :func:`mean_shift_search` for one search's steps): the windows
    advance together, in blocks capped at :data:`BLOCK_ELEMENTS`
    window×point products, and each stops at its own convergence.

    Args:
        data: (n, 2) points.
        bandwidth: window scale (the paper's fixed 50 by default).
        kernel: shape-function name from :data:`KERNELS`.
        density_threshold: minimum points per grid cell to seed a search
            ("low density areas are poor candidates for modes").
        starts: optional explicit start points — the distributed
            algorithm seeds parents with the peaks of their children.
        max_iter: per-search iteration cap.
        tol: convergence tolerance on the shift magnitude.
        weights: optional per-point multiplicities (collapsed data).
    """
    pts = _as_points(data)
    scanned = 0
    if starts is None:
        start_arr = density_starts(pts, bandwidth, density_threshold, weights=weights)
        scanned = len(pts)
    else:
        start_arr = np.asarray(starts, dtype=np.float64).reshape(-1, 2)
    modes = start_arr.copy()
    iters = _shift_all(
        pts,
        _as_weights(weights, len(pts)),
        modes,
        bandwidth,
        _kernel(kernel),
        max_iter,
        tol,
    )
    total_iters = int(iters.sum())
    return MeanShiftResult(
        peaks=merge_peaks(modes, radius=bandwidth / 2),
        starts=start_arr,
        iterations=total_iters,
        point_iter_products=total_iters * len(pts),
        points_scanned=scanned,
    )


def assign_labels(data: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """Label each point with its nearest peak (image-segmentation use).

    Returns an int array of peak indices; -1 when there are no peaks.
    """
    pts = _as_points(data)
    if len(peaks) == 0:
        return np.full(len(pts), -1, dtype=np.int64)
    pk = np.asarray(peaks, dtype=np.float64).reshape(-1, 2)
    d = np.linalg.norm(pts[:, None, :] - pk[None, :, :], axis=2)
    return d.argmin(axis=1)

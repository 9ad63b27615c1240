"""Calibration of the performance model from the real mean-shift kernel.

The paper measured wall-clock times on a Pentium-4/GigE cluster we do
not have; DESIGN.md's substitution rule says the simulator's constants
must instead be *measured from the real implementation on this machine*,
so that simulated series are honest rescalings of real compute, not
invented numbers.

:func:`calibrate_mean_shift` times the actual NumPy kernels
(:func:`repro.cluster.meanshift.mean_shift`,
:func:`~repro.cluster.meanshift.density_starts`,
:func:`~repro.cluster.meanshift.collapse_points`) and a real leaf and
merge step on probe data, yielding a :class:`MeanShiftCostModel` whose
predictions drive :class:`repro.simulate.simnet.SimTBON`.

:data:`REFERENCE_MODEL` is a frozen calibration (recorded from a
development machine) used by unit tests so they stay timing-independent;
benchmarks always re-calibrate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from ..cluster.datagen import ClusterSpec, leaf_dataset
from ..cluster.meanshift import (
    collapse_points,
    density_starts,
    mean_shift,
)
from ..cluster.meanshift_filter import leaf_mean_shift

__all__ = ["MeanShiftCostModel", "calibrate_mean_shift", "REFERENCE_MODEL"]

#: Wire bytes per (x, y, weight) data point plus framing amortization.
BYTES_PER_POINT = 24.0
BYTES_PER_PEAK = 16.0


@dataclass(frozen=True)
class MeanShiftCostModel:
    """Measured cost constants for the distributed mean-shift.

    Attributes:
        per_point_iter: seconds per point×iteration of a window search.
        per_scan_point: seconds per point of the density scan.
        per_collapse_point: seconds per point of the grid collapse.
        seeded_iters: mean iterations a peak-seeded search needs.
        leaf_time: measured seconds for one full leaf step at
            ``points_per_leaf``.
        points_per_leaf: leaf dataset size the model was calibrated at.
        leaf_out_points: representatives a leaf forwards upstream.
        leaf_out_peaks: peaks a leaf forwards upstream.
        collapse_cap: asymptotic collapsed-set size (occupied cells of
            the feature space at the collapse resolution).
        n_modes: true cluster count of the workload.
    """

    per_point_iter: float
    per_scan_point: float
    per_collapse_point: float
    seeded_iters: float
    leaf_time: float
    points_per_leaf: int
    leaf_out_points: int
    leaf_out_peaks: int
    collapse_cap: int
    n_modes: int

    # -- predictions used by the simulator -------------------------------
    def merge_cpu(self, n_in_points: int, n_seeds: int) -> float:
        """Predicted seconds for a parent merge: seeded searches + collapse."""
        search = self.per_point_iter * n_in_points * n_seeds * self.seeded_iters
        return search + self.per_collapse_point * n_in_points

    def collapsed_size(self, n_in_points: int) -> int:
        """Collapsed representative count: saturates at the cell budget."""
        return int(min(n_in_points, self.collapse_cap))

    def payload_bytes(self, n_points: int, n_peaks: int) -> float:
        return BYTES_PER_POINT * n_points + BYTES_PER_PEAK * n_peaks + 64

    def single_node_time(self, n_leaves: int) -> float:
        """Predicted single-node time on the union of ``n_leaves`` datasets.

        The density scan and every window search sweep the full data
        set, and the number of dense start cells is scale-invariant
        (same feature-space area), so cost is linear in the data size —
        the paper's observed single-node behaviour.
        """
        n = n_leaves * self.points_per_leaf
        scan = self.per_scan_point * n
        # Each of the workload's dense regions seeds a search; searches
        # iterate ~seeded_iters times over all n points.
        searches = (
            self.per_point_iter * n * self.leaf_out_peaks * self.seeded_iters
        )
        # The leaf_time anchor captures constants the terms above miss
        # (peak merging, array bookkeeping) — rescale to this n.
        anchor = self.leaf_time * n / self.points_per_leaf
        return max(scan + searches, anchor)


#: Frozen dev-machine calibration for timing-independent tests
#: (recorded from a `calibrate_mean_shift()` run; benchmarks always
#: re-calibrate live).  It stays frozen when the kernel gets faster, so
#: `tests/test_simnet.py::TestPinnedNumbers` do not move, and its costs
#: are those of the per-start search loop that preceded the batched
#: pass.  On a 2-vCPU Xeon VM, live calibration of the batched pass
#: reads `per_point_iter` ≈ 1.1e-8 s and `leaf_time` ≈ 0.07 s, against
#: 7.1e-8 s and 0.32–0.38 s for the per-start loop on the same host.
REFERENCE_MODEL = MeanShiftCostModel(
    per_point_iter=7.1e-8,
    per_scan_point=5.0e-7,
    per_collapse_point=7.1e-7,
    seeded_iters=8.75,
    leaf_time=0.30,
    points_per_leaf=2040,
    leaf_out_points=205,
    leaf_out_peaks=4,
    collapse_cap=869,
    n_modes=4,
)


def _time_best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def calibrate_mean_shift(
    spec: ClusterSpec | None = None,
    bandwidth: float = 50.0,
    seed: int = 42,
    probe_children: int = 4,
    repeats: int = 3,
) -> MeanShiftCostModel:
    """Measure a :class:`MeanShiftCostModel` on this machine.

    Runs real leaf steps on ``probe_children`` leaf datasets and one
    real parent merge over their outputs; every constant is extracted
    from those runs (no magic numbers).
    """
    spec = spec or ClusterSpec()
    leaf_data = [leaf_dataset(i, spec, seed) for i in range(probe_children)]
    n_leaf = len(leaf_data[0])

    # Leaf step: full pipeline time plus output sizes.
    leaf_outs = []
    t_leaf = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        leaf_outs = [leaf_mean_shift(d, bandwidth=bandwidth) for d in leaf_data]
        t_leaf = min(t_leaf, (time.perf_counter() - t0) / probe_children)
    out_points = int(np.mean([len(o[0]) for o in leaf_outs]))
    out_peaks = int(np.mean([len(o[2]) for o in leaf_outs]))

    # Density scan cost per point.
    probe_all = np.concatenate(leaf_data)
    t_scan = _time_best_of(lambda: density_starts(probe_all, bandwidth), repeats)
    per_scan_point = t_scan / len(probe_all)

    # Collapse cost per point.
    t_collapse = _time_best_of(
        lambda: collapse_points(probe_all, cell=bandwidth / 4), repeats
    )
    per_collapse_point = t_collapse / len(probe_all)

    # Parent merge: real seeded mean-shift over the children's outputs.
    merged = np.concatenate([o[0] for o in leaf_outs])
    merged_w = np.concatenate([o[1] for o in leaf_outs])
    seeds = np.concatenate([o[2] for o in leaf_outs])
    res_holder = {}

    def run_merge():
        res_holder["res"] = mean_shift(
            merged, bandwidth=bandwidth, starts=seeds, weights=merged_w
        )

    t_merge = _time_best_of(run_merge, repeats)
    res = res_holder["res"]
    per_point_iter = t_merge / max(1, res.point_iter_products)
    seeded_iters = res.iterations / max(1, len(seeds))

    # Collapse cap: occupied cells when all probe data is collapsed.
    cap_reps, _ = collapse_points(probe_all, cell=bandwidth / 4)
    n_modes = len(res.peaks)

    return MeanShiftCostModel(
        per_point_iter=per_point_iter,
        per_scan_point=per_scan_point,
        per_collapse_point=per_collapse_point,
        seeded_iters=max(1.0, seeded_iters),
        leaf_time=t_leaf,
        points_per_leaf=n_leaf,
        leaf_out_points=out_points,
        leaf_out_peaks=max(1, out_peaks),
        collapse_cap=max(len(cap_reps), out_points),
        n_modes=max(1, n_modes),
    )


def scaled_model(model: MeanShiftCostModel, cpu_scale: float) -> MeanShiftCostModel:
    """A model on a machine ``cpu_scale``× slower (e.g. the paper's P4s)."""
    return replace(
        model,
        per_point_iter=model.per_point_iter * cpu_scale,
        per_scan_point=model.per_scan_point * cpu_scale,
        per_collapse_point=model.per_collapse_point * cpu_scale,
        leaf_time=model.leaf_time * cpu_scale,
    )

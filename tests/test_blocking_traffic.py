"""Traffic-accounting integration tests: measured κ vs the analytic formulas."""

import numpy as np
import pytest

from repro.core import (
    Blocking35D,
    TrafficStats,
    kappa_35d,
    run_2_5d,
    run_3_5d,
    run_3d,
    run_4d,
    run_naive,
)
from repro.runtime import ParallelBlocking35D
from repro.stencils import Field3D, SevenPointStencil, interior_points


def ideal_round_bytes(field: Field3D, radius: int) -> int:
    """Compulsory traffic for one blocked round: read grid once, write interior."""
    nz, ny, nx = field.shape
    esize = field.element_size()
    return nz * ny * nx * esize + interior_points(field.shape, radius) * esize


@pytest.fixture(scope="module")
def seven():
    return SevenPointStencil()


class TestNaiveTraffic:
    def test_per_sweep_traffic(self, seven):
        f = Field3D.random((10, 12, 14), seed=0)
        t = TrafficStats()
        run_naive(seven, f, 3, traffic=t)
        esize = f.element_size()
        assert t.bytes_read == 3 * 10 * 12 * 14 * esize
        assert t.bytes_written == 3 * interior_points(f.shape, 1) * esize
        assert t.updates == 3 * interior_points(f.shape, 1)
        assert t.ops == t.updates * 16


class Test35DTraffic:
    def test_single_tile_has_no_ghost_traffic(self, seven):
        """A tile covering the whole plane loads each plane exactly once."""
        f = Field3D.random((16, 12, 12), seed=1)
        t = TrafficStats()
        run_3_5d(seven, f, 2, 2, 64, 64, traffic=t)
        esize = f.element_size()
        assert t.bytes_read == 16 * 12 * 12 * esize
        assert t.bytes_written == interior_points(f.shape, 1) * esize

    def test_bandwidth_reduction_vs_naive(self, seven):
        """dim_T steps per round cut traffic by ~dim_T/κ vs naive (Sec. V-E)."""
        f = Field3D.random((24, 40, 40), seed=2)
        naive_t = TrafficStats()
        run_naive(seven, f, 4, traffic=naive_t)
        blocked_t = TrafficStats()
        run_3_5d(seven, f, 4, 4, 40, 40, traffic=blocked_t)
        ratio = naive_t.total_bytes / blocked_t.total_bytes
        assert ratio > 3.5  # ~4X for dim_T=4 with a single (ghost-free) tile

    def test_measured_kappa_matches_analytic(self, seven):
        """With interior tiles, measured traffic inflation approaches Eq. 2."""
        f = Field3D.random((20, 130, 130), seed=3)
        dim_t, tile = 2, 32
        t = TrafficStats()
        run_3_5d(seven, f, dim_t, dim_t, tile, tile, traffic=t)
        measured = t.kappa_measured(ideal_round_bytes(f, 1))
        analytic = kappa_35d(1, dim_t, tile)
        # Edge tiles need less halo, z-shell reloads add a little; stay close.
        assert measured == pytest.approx(analytic, rel=0.15)

    def test_compute_overestimation_measured(self, seven):
        """Redundant ghost recomputation shows up in the update counter."""
        f = Field3D.random((16, 66, 66), seed=4)
        t = TrafficStats()
        run_3_5d(seven, f, 3, 3, 22, 22, traffic=t)
        ideal_updates = 3 * interior_points(f.shape, 1)
        assert t.updates > ideal_updates
        assert t.updates / ideal_updates < kappa_35d(1, 3, 22) * 1.1

    def test_notes_record_tiling(self, seven):
        f = Field3D.random((12, 40, 40), seed=5)
        t = TrafficStats()
        run_3_5d(seven, f, 2, 2, 20, 20, traffic=t)
        assert t.notes["tiles_per_round"] >= 4
        assert t.notes["dim_t"] == 2

    def test_buffer_bytes_equation1(self, seven):
        ex = Blocking35D(seven, dim_t=2, tile_y=360, tile_x=360)
        # E(2R+2) dim_T dim_X dim_Y = 4*4*2*360*360 ~ 4 MB (Section VI-A)
        assert ex.buffer_bytes(np.float32) == 4 * 4 * 2 * 360 * 360
        assert ex.buffer_bytes(np.float32) <= 4 << 20


class TestSchemeTrafficOrdering:
    """2.5D < 3D ghost traffic; 3.5D << per-step traffic of spatial-only."""

    def test_25d_loads_less_than_3d(self, seven):
        f = Field3D.random((24, 48, 48), seed=6)
        t3, t25 = TrafficStats(), TrafficStats()
        run_3d(seven, f, 1, 12, 12, 12, traffic=t3)
        run_2_5d(seven, f, 1, 12, 12, traffic=t25)
        assert t25.bytes_read < t3.bytes_read

    def test_4d_recomputes_more_than_35d(self, seven):
        f = Field3D.random((24, 48, 48), seed=7)
        t4, t35 = TrafficStats(), TrafficStats()
        run_4d(seven, f, 2, 2, 16, 16, 16, traffic=t4)
        run_3_5d(seven, f, 2, 2, 16, 16, traffic=t35)
        assert t4.updates > t35.updates
        assert t4.bytes_read > t35.bytes_read

    def test_25d_traffic_equals_35d_at_dim_t_1(self, seven):
        f = Field3D.random((16, 30, 30), seed=8)
        t25, t35 = TrafficStats(), TrafficStats()
        run_2_5d(seven, f, 2, 15, 15, traffic=t25)
        run_3_5d(seven, f, 2, 1, 15, 15, concurrent=False, traffic=t35)
        assert t25.updates == t35.updates
        assert t25.bytes_written == t35.bytes_written


class TestPinnedCounters:
    """Exact counters of every blocking family on one 24x48^2 7pt grid.

    2.5D and 3D run as 3.5D and 4D at dim_T=1, and the threaded executor
    shares the serial round and tile loop; these literals were recorded
    from the separate per-scheme loops those replaced, so any drift in
    ghost loads, shell reloads or per-thread accounting shows here.
    """

    FIELD = Field3D.random((24, 48, 48), dtype=np.float32, seed=7)
    # (bytes_read, bytes_written, updates, ops, plane_loads, plane_stores)
    CASES = {
        "2.5d": (lambda k, f, t: run_2_5d(k, f, 4, 16, 16, traffic=t),
                 (1119744, 744832, 186208, 2979328, 1536, 1408)),
        "3d": (lambda k, f, t: run_3d(k, f, 4, 12, 16, 16, traffic=t),
               (1306368, 744832, 186208, 2979328, 1792, 1408)),
        "4d": (lambda k, f, t: run_4d(k, f, 4, 2, 12, 16, 16, traffic=t),
               (921600, 372416, 233712, 3739392, 1024, 704)),
        "3.5d": (lambda k, f, t: Blocking35D(k, 2, 16, 16).run(f, 4, t),
                 (691200, 372416, 212080, 3393280, 768, 704)),
        # row-split ring loads count bytes but no whole planes, and every
        # thread stores its slice of each plane
        "3.5d-2threads": (
            lambda k, f, t: ParallelBlocking35D(k, 2, 16, 16, 2).run(f, 4, t),
            (691200, 372416, 212080, 3393280, 64, 1408)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_counters(self, seven, case):
        run, want = self.CASES[case]
        t = TrafficStats()
        out = run(seven, self.FIELD, t)
        assert (t.bytes_read, t.bytes_written, t.updates, t.ops,
                t.plane_loads, t.plane_stores) == want
        assert np.array_equal(out.data, run_naive(seven, self.FIELD, 4).data)

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from streetsim.torus import (
    TorusPoint,
    boundary_crossing_points,
    min_image_delta,
    min_image_deltas,
    torus_distance,
    wrap,
    wrap_points,
)


def brute_force_distance(p, q, L):
    """Minimum Euclidean distance over the 9 periodic images of q."""
    best = math.inf
    for i in (-1, 0, 1):
        for j in (-1, 0, 1):
            d = math.hypot(p.x - q.x + 2 * L * i, p.y - q.y + 2 * L * j)
            best = min(best, d)
    return best


class TestWrap:
    def test_identity(self):
        assert wrap((0.0, 0.0), 500.0) == TorusPoint(0.0, 0.0)

    def test_modular_shift(self):
        assert wrap((700.0, -1200.0), 500.0) == TorusPoint(-300.0, -200.0)

    def test_full_period(self):
        assert wrap((1000.0, 1000.0), 500.0) == TorusPoint(0.0, 0.0)

    def test_plus_L_normalizes_to_minus_L(self):
        assert wrap((500.0, 0.0), 500.0) == TorusPoint(-500.0, 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            wrap((math.nan, 0.0), 500.0)
        with pytest.raises(ValueError):
            wrap((math.inf, 1.0), 500.0)

    def test_bad_L_rejected(self):
        with pytest.raises(ValueError):
            wrap((1.0, 1.0), 0.0)

    def test_idempotent_and_canonical(self, rng):
        L = 500.0
        pts = rng.uniform(-5000, 5000, size=(10_000, 2))
        for x, y in pts:
            w = wrap((x, y), L)
            assert -L <= w.x < L and -L <= w.y < L
            assert wrap(w, L) == w

    def test_periodicity_exact_on_dyadic_grid(self, rng):
        # exact 2Lk-periodicity needs x + 2Lk representable; snap random
        # points to a 2^-10 grid so the shifted sums stay exact
        L = 500.0
        pts = np.round(rng.uniform(-L, L, size=(10_000, 2)) * 1024) / 1024
        shifts = rng.integers(-3, 4, size=(10_000, 2))
        for (x, y), (kx, ky) in zip(pts, shifts):
            assert wrap((x + 2 * L * kx, y + 2 * L * ky), L) == wrap((x, y), L)

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_idempotence_property(self, x, y):
        w = wrap((x, y), 500.0)
        assert wrap(w, 500.0) == w


class TestTorusDistance:
    def test_wraparound_adjacency(self):
        assert torus_distance(TorusPoint(-499.0, 0.0), TorusPoint(499.0, 0.0), 500.0) == 2.0

    def test_zero_iff_equal(self, rng):
        p = TorusPoint(12.5, -401.0)
        assert torus_distance(p, p, 500.0) == 0.0
        q = TorusPoint(12.5, -400.0)
        assert torus_distance(p, q, 500.0) > 0.0

    def test_known_value(self):
        assert torus_distance(TorusPoint(0.0, 0.0), TorusPoint(300.0, 400.0), 500.0) == 500.0

    def test_matches_brute_force_exactly(self, rng):
        L = 500.0
        pts = rng.uniform(-L, L, size=(10_000, 4))
        for x1, y1, x2, y2 in pts:
            p, q = TorusPoint(x1, y1), TorusPoint(x2, y2)
            assert torus_distance(p, q, L) == brute_force_distance(p, q, L)

    def test_symmetric_and_bounded(self, rng):
        L = 500.0
        for x1, y1, x2, y2 in rng.uniform(-L, L, size=(1000, 4)):
            p, q = TorusPoint(x1, y1), TorusPoint(x2, y2)
            assert torus_distance(p, q, L) == torus_distance(q, p, L)
            assert torus_distance(p, q, L) <= math.sqrt(2.0) * L + 1e-12

    def test_triangle_inequality(self, rng):
        L = 500.0
        for row in rng.uniform(-L, L, size=(10_000, 6)):
            p, q, s = TorusPoint(*row[:2]), TorusPoint(*row[2:4]), TorusPoint(*row[4:])
            lhs = torus_distance(p, s, L)
            rhs = torus_distance(p, q, L) + torus_distance(q, s, L)
            assert lhs <= rhs * (1 + 1e-9) + 1e-12


class TestMinImageDelta:
    def test_components_canonical(self, rng):
        L = 500.0
        for x1, y1, x2, y2 in rng.uniform(-L, L, size=(1000, 4)):
            dx, dy = min_image_delta((x1, y1), (x2, y2), L)
            assert -L <= dx < L and -L <= dy < L
            assert math.hypot(dx, dy) == torus_distance(TorusPoint(x1, y1), TorusPoint(x2, y2), L)


class TestArrayForms:
    def test_wrap_points_and_min_image_deltas_match_scalars(self, rng):
        # far values, period multiples and the values just below a period,
        # where float modulo lands on +L
        L = 500.0
        special = [-L, L, -3 * L, 3 * L, np.nextafter(-L, -np.inf), np.nextafter(L, np.inf),
                   -1e-300, 7 * L + 1e-9, -1e17, 1e17, -0.0]
        xs = np.concatenate([rng.uniform(-40 * L, 40 * L, 2000), special])
        pts = np.column_stack((xs, xs[::-1]))
        got = wrap_points(pts, L)
        for (x, y), (gx, gy) in zip(pts.tolist(), got.tolist()):
            ref = wrap((x, y), L)
            assert (gx.hex(), gy.hex()) == (ref.x.hex(), ref.y.hex())
        canon = got[:, None, :]
        d = (got[None, :40, :] - canon[:40]).reshape(-1, 2)
        far = pts[:40] - pts[40:80]  # differences of non-canonical points
        for diffs, q, p in ((d, np.tile(got[:40], (40, 1)), np.repeat(got[:40], 40, axis=0)),
                            (far, pts[:40], pts[40:80])):
            for (dx, dy), (qx, qy), (px, py) in zip(min_image_deltas(diffs, L).tolist(),
                                                    q.tolist(), p.tolist()):
                rx, ry = min_image_delta((px, py), (qx, qy), L)
                assert (dx.hex(), dy.hex()) == (rx.hex(), ry.hex())
        with pytest.raises(ValueError):
            wrap_points(np.array([[0.0, np.nan]]), L)


class TestBoundaryCrossing:
    def test_symmetric_horizontal_crossing(self):
        out = boundary_crossing_points(TorusPoint(-499.0, 0.0), TorusPoint(499.0, 0.0), 500.0)
        assert out is not None
        exit_pt, reentry = out
        assert exit_pt == (-500.0, 0.0)
        assert reentry == (500.0, 0.0)

    def test_interior_segment(self):
        assert boundary_crossing_points(TorusPoint(0.0, 0.0), TorusPoint(100.0, 100.0), 500.0) is None

    def test_intercept_point_from_similar_triangles(self):
        out = boundary_crossing_points(TorusPoint(-480.0, -10.0), TorusPoint(470.0, 10.0), 500.0)
        assert out is not None
        (ex, ey), (rx, ry) = out
        # minimal image of the target is (-530, 10): crossing x=-500 at t=0.4
        assert ex == -500.0
        assert ey == pytest.approx(-2.0, abs=1e-12)
        assert rx == 500.0
        assert ry == pytest.approx(-2.0, abs=1e-12)

    def test_exit_and_reentry_are_mirror_images(self, rng):
        L = 500.0
        n_crossing = 0
        for x1, y1, x2, y2 in rng.uniform(-L, L, size=(2000, 4)):
            out = boundary_crossing_points(TorusPoint(x1, y1), TorusPoint(x2, y2), L)
            if out is None:
                continue
            n_crossing += 1
            (ex, ey), (rx, ry) = out
            assert max(abs(ex), abs(ey)) == L
            # wrapped exit equals wrapped reentry
            assert wrap((ex, ey), L) == wrap((rx, ry), L)
        assert n_crossing > 100

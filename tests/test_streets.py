import math

import numpy as np
import pytest

from streetsim.streets import (
    DegenerateTessellation,
    StreetGraph,
    VoronoiCell,
    _nearest_seed_cells,
    build_cell_index,
    build_from_seeds,
    calibrate_seed_intensity,
    generate_pvt,
    project_to_streets,
    total_street_length,
)
from streetsim.torus import TorusPoint, min_image_delta, torus_distance, wrap

from conftest import make_graph


class TestCalibration:
    def test_formula_20(self):
        assert calibrate_seed_intensity(20.0) == 100.0

    def test_formula_2(self):
        assert calibrate_seed_intensity(2.0) == 1.0

    def test_formula_small(self):
        assert calibrate_seed_intensity(0.2) == pytest.approx(0.01)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            calibrate_seed_intensity(0.0)


class TestGeneratePVT:
    def test_too_few_seeds_rejected(self, rng):
        with pytest.raises(ValueError):
            generate_pvt(1000.0, rng, seed_count=1)
        with pytest.raises(ValueError):
            generate_pvt(1000.0, rng, seed_count=2)

    def test_poisson_count_below_three_resampled(self):
        # a 150 m torus at 20 km/km^2 expects 2.25 seeds: a draw below 3 is a
        # rejected tessellation, never a ValueError
        lam = calibrate_seed_intensity(20.0) * 1e-6 * 150.0 ** 2
        resampled = 0
        for seed in range(40):
            try:
                g = generate_pvt(75.0, np.random.default_rng(seed), street_intensity=20.0)
            except DegenerateTessellation:
                continue
            assert len(g.cells) >= 3
            resampled += np.random.default_rng(seed).poisson(lam) < 3
        assert resampled > 0
        with pytest.raises(DegenerateTessellation, match="after 20 attempts"):
            generate_pvt(350.0, np.random.default_rng(0), street_intensity=1e-6)

    def test_structure_100_seeds(self, rng):
        g = generate_pvt(1000.0, rng, seed_count=100)
        # torus Euler characteristic with degree-3 crossings: V=2n, E=3n
        assert len(g.vertices) == 200
        assert len(g.edges) == 300
        assert len(g.cells) == 100
        # lengths recomputed independently from endpoint geometry
        for e in g.edges.values():
            u = g.vertices[e.u]
            v = g.vertices[e.v]
            d = min_image_delta(u, v, g.L)
            assert math.hypot(*d) == pytest.approx(e.length, abs=1e-9)
        # wrapped edges: endpoint image under wrap lies on the graph
        n_wrapped = 0
        for e in g.edges.values():
            if e.wrap_info is None:
                continue
            n_wrapped += 1
            u = g.vertices[e.u]
            img = (u.x + e.delta[0], u.y + e.delta[1])
            w = wrap(img, g.L)
            v = g.vertices[e.v]
            assert math.hypot(w.x - v.x, w.y - v.y) < 1e-6
        assert n_wrapped > 0

    def test_degree_three(self, rng):
        for _ in range(5):
            g = generate_pvt(600.0, rng, seed_count=30)
            degree = {v: 0 for v in g.vertices}
            for e in g.edges.values():
                degree[e.u] += 1
                degree[e.v] += 1
            assert set(degree.values()) == {3}

    def test_total_length_is_sum(self, rng):
        g = generate_pvt(1000.0, rng, seed_count=50)
        assert total_street_length(g) == pytest.approx(sum(e.length for e in g.edges.values()))

    def test_translation_invariance(self, rng):
        L = 800.0
        seeds = rng.uniform(-L, L, size=(40, 2))
        g1 = build_from_seeds(seeds, L)
        for _ in range(10):
            shift = rng.uniform(-L, L, size=2)
            shifted = np.array([tuple(wrap(s + shift, L)) for s in seeds])
            g2 = build_from_seeds(shifted, L)
            assert len(g2.vertices) == len(g1.vertices)
            assert len(g2.edges) == len(g1.edges)
            # every shifted vertex appears in the regenerated graph
            targets = np.array([[p.x, p.y] for p in g2.vertices.values()])
            for p in g1.vertices.values():
                w = wrap((p.x + shift[0], p.y + shift[1]), L)
                dist = np.min([torus_distance(w, TorusPoint(*t), L) for t in targets])
                assert dist < 1e-6
            # edge length multisets agree
            l1 = sorted(e.length for e in g1.edges.values())
            l2 = sorted(e.length for e in g2.edges.values())
            assert np.allclose(l1, l2, atol=1e-6)

    def test_voronoi_equidistance_small(self, rng):
        # boundary points of a cell are nearest-seed ties between its seeds
        for n in (5, 8, 10):
            g = generate_pvt(700.0, rng, seed_count=n)
            seeds = {cid: c.seed for cid, c in g.cells.items()}
            for cid, cell in g.cells.items():
                for eid in cell.edge_ids:
                    e = g.edges[eid]
                    for vid in (e.u, e.v):
                        vpos = g.vertices[vid]
                        d_own = torus_distance(vpos, seeds[cid], g.L)
                        d_min = min(torus_distance(vpos, s, g.L) for s in seeds.values())
                        assert d_own == pytest.approx(d_min, abs=1e-6)

    def test_intensity_mode_plausible(self, rng):
        g = generate_pvt(1000.0, rng, street_intensity=20.0)
        # 4 km^2 at 100 seeds/km^2
        assert 300 < len(g.cells) < 520
        # ~80 km of street
        assert 60_000 < total_street_length(g) < 100_000


class TestCellIndex:
    def test_single_cell_listed_everywhere(self):
        g = make_graph(500.0, {0: (-100.0, 0.0), 1: (100.0, 0.0)}, [(0, 1)])
        g.cells = {0: VoronoiCell(0, TorusPoint(0.0, 0.0), [0])}
        idx = build_cell_index(g, cell_size=100.0)
        for bucket in idx.grid:
            assert bucket == [0]

    def test_true_cell_among_candidates(self, rng):
        g = generate_pvt(700.0, rng, seed_count=40)
        idx = build_cell_index(g)
        pts = rng.uniform(-g.L, g.L, size=(10_000, 2))
        seeds = sorted(g.cells.items())
        for x, y in pts:
            p = TorusPoint(x, y)
            best = min((torus_distance(p, c.seed, g.L), cid) for cid, c in seeds)[1]
            assert best in idx.lookup(p)

    def test_grid_line_point_in_both_unions(self, rng):
        g = generate_pvt(600.0, rng, seed_count=25)
        idx = build_cell_index(g)
        # a point exactly on an interior grid line: true cell must be in the
        # union of both adjacent squares' candidates
        x_line = -g.L + idx.size
        p = TorusPoint(x_line, 10.0)
        best = min((torus_distance(p, c.seed, g.L), cid) for cid, c in g.cells.items())[1]
        left = idx.lookup((x_line - idx.size / 2, 10.0))
        right = idx.lookup((x_line + idx.size / 2, 10.0))
        assert best in set(left) | set(right)


def brute_force_projection(p, g):
    """Closest point over ALL streets and all 9 images of p."""
    side = 2.0 * g.L
    best = None
    for eid in sorted(g.edges):
        e = g.edges[eid]
        ux, uy = g.vertices[e.u]
        dx, dy = e.delta
        for oi in (-side, 0.0, side):
            for oj in (-side, 0.0, side):
                qx, qy = p.x + oi - ux, p.y + oj - uy
                t = min(max((qx * dx + qy * dy) / (e.length ** 2), 0.0), 1.0)
                d = math.hypot(qx - t * dx, qy - t * dy)
                if best is None or (d, eid) < (best[0], best[1]):
                    best = (d, eid, t)
    return best


class TestProjection:
    def test_point_on_street_maps_to_itself(self, rng):
        g = generate_pvt(700.0, rng, seed_count=30)
        idx = build_cell_index(g)
        e = g.edges[min(g.edges)]
        u = g.vertices[e.u]
        t = 0.37
        pt = wrap((u.x + t * e.delta[0], u.y + t * e.delta[1]), g.L)
        [pos] = project_to_streets([pt], g, idx)
        assert pos.street == e.id
        assert pos.p == pytest.approx(t, abs=1e-9)

    def test_matches_brute_force(self, rng):
        g = generate_pvt(700.0, rng, seed_count=30)
        idx = build_cell_index(g)
        points = [TorusPoint(x, y) for x, y in rng.uniform(-g.L, g.L, size=(1000, 2))]
        for p, pos in zip(points, project_to_streets(points, g, idx)):
            d_brute, eid_brute, t_brute = brute_force_projection(p, g)
            assert pos.street == eid_brute
            assert pos.p == pytest.approx(t_brute, abs=1e-9)

    def test_equidistant_tie_breaks_to_smaller_street_id(self):
        # two parallel streets equidistant from the midpoint line
        g = make_graph(
            500.0,
            {0: (-50.0, 20.0), 1: (50.0, 20.0), 2: (-50.0, -20.0), 3: (50.0, -20.0)},
            [(0, 1), (2, 3)],
        )
        g.cells = {0: VoronoiCell(0, TorusPoint(0.0, 0.0), [0, 1])}
        idx = build_cell_index(g, cell_size=250.0)
        [pos] = project_to_streets([TorusPoint(0.0, 0.0)], g, idx)
        assert pos.street == 0
        # a batch of points on the midline, each equidistant from both streets
        points = [TorusPoint(x, 0.0) for x in np.linspace(-60.0, 60.0, 25)]
        for p, pos in zip(points, project_to_streets(points, g, idx)):
            d_brute, eid_brute, t_brute = brute_force_projection(p, g)
            assert pos.street == eid_brute == 0
            assert pos.p == t_brute


def walk_nearest_cell(p, g, idx):
    """The nearest seed among the candidate cells, ties to the smaller id, one by one."""
    return min((torus_distance(p, g.cells[cid].seed, g.L), cid) for cid in idx.lookup(p))[1]


class TestNearestSeedCells:
    def test_matches_walk_over_candidates(self, rng):
        g = generate_pvt(700.0, rng, seed_count=30)
        idx = build_cell_index(g)
        seeds = np.array([tuple(g.cells[c].seed) for c in sorted(g.cells)])
        # random points, street points and seed midpoints: the last two lie
        # (up to rounding) at equal distance from two seeds
        streets = [wrap((g.vertices[e.u].x + t * e.delta[0],
                         g.vertices[e.u].y + t * e.delta[1]), g.L)
                   for e in g.edges.values() for t in (0.0, 0.5)]
        mids = [wrap((a + b) / 2.0, g.L) for a, b in zip(seeds, seeds[1:])]
        pts = np.vstack([rng.uniform(-g.L, g.L, size=(500, 2)),
                         np.array([tuple(p) for p in streets + mids])])
        expected = [walk_nearest_cell(p, g, idx) for p in pts.tolist()]
        assert _nearest_seed_cells(pts, g, idx) == expected

    @pytest.mark.parametrize("first_seed, right", [((10.0, 0.0), 0), ((-10.0, 0.0), 1)])
    def test_exact_tie_goes_to_smaller_cell_id(self, monkeypatch, first_seed, right):
        # (0, 5) is as far from both seeds, (3, 1) nearer the right one
        import streetsim.streets as streets

        g = make_graph(500.0, {0: (0.0, 50.0), 1: (0.0, -50.0)}, [(0, 1)])
        g.cells = {0: VoronoiCell(0, TorusPoint(*first_seed), [0]),
                   1: VoronoiCell(1, TorusPoint(-first_seed[0], 0.0), [0])}
        idx = build_cell_index(g, cell_size=250.0)
        measured = []
        monkeypatch.setattr(streets, "torus_distance",
                            lambda p, q, L: measured.append(q) or torus_distance(p, q, L))
        assert _nearest_seed_cells(np.array([[0.0, 5.0], [3.0, 1.0]]), g, idx) == [0, right]
        assert len(measured) == 2  # only the tied point is measured again


class TestTotalLength:
    def test_empty(self):
        g = StreetGraph(500.0, {}, {}, {})
        assert total_street_length(g) == 0.0

    def test_two_streets(self):
        g = make_graph(500.0, {0: (0, 0), 1: (30, 0), 2: (0, 100), 3: (70, 100)}, [(0, 1), (2, 3)])
        assert total_street_length(g) == pytest.approx(100.0)


class TestJsonRoundTrip:
    def test_round_trip(self, rng, tmp_path):
        g = generate_pvt(700.0, rng, seed_count=25)
        path = tmp_path / "graph.json"
        g.to_json(path)
        g2 = StreetGraph.from_json(path)
        assert g2.L == g.L
        assert set(g2.vertices) == set(g.vertices)
        assert set(g2.edges) == set(g.edges)
        for eid, e in g.edges.items():
            e2 = g2.edges[eid]
            assert (e2.u, e2.v) == (e.u, e.v)
            assert e2.length == e.length
            assert set(e2.cells) == set(e.cells)
            assert (e2.wrap_info is None) == (e.wrap_info is None)
        for cid, c in g.cells.items():
            assert g2.cells[cid].edge_ids == sorted(c.edge_ids)

    def test_deterministic_bytes(self, rng, tmp_path):
        g = generate_pvt(600.0, rng, seed_count=12)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        g.to_json(p1)
        g.to_json(p2)
        assert p1.read_bytes() == p2.read_bytes()

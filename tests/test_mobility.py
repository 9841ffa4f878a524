import math
import pathlib
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra
from hypothesis import assume, given, settings, strategies as st

from streetsim.config import build_geometry, load_config, rng_streams
from streetsim.engine import _route_table, initialize
from streetsim.mobility import (
    Device,
    DiracVelocity,
    Path,
    PositiveNormalVelocity,
    RuntimeInvariantError,
    TwoPointVelocity,
    _BOX_PAD,
    _disc_candidates,
    _disc_intervals,
    _street_squares,
    assign_commute,
    position_at,
    sample_destination_kappa_doubleprime,
    sample_destination_kappa_prime,
    sample_devices,
    sample_velocity,
    shortest_path,
    street_coords,
)
from streetsim.streets import (
    DegenerateTessellation,
    Street,
    StreetGraph,
    StreetPosition,
    build_cell_index,
    generate_pvt,
)
from streetsim.torus import TorusPoint, torus_distance, wrap

from conftest import coords, make_graph, total_street_length
from test_streets import brute_force_projection


class FakeRng:
    """Deterministic uniform stream for kernel edge cases."""

    def __init__(self, values):
        self.values = list(values)

    def uniform(self, low=0.0, high=1.0, size=None):
        if size is None:
            v = self.values.pop(0)
        else:
            n = int(np.prod(size))
            v = np.array(self.values[:n]).reshape(size)
            del self.values[:n]
        return low + (high - low) * v


class TestSampleDevices:
    def test_zero_intensity(self, rng):
        g = generate_pvt(600.0, rng, seed_count=10)
        assert sample_devices(g, 0.0, rng) == []

    def test_poisson_mean_on_single_street(self, rng):
        g = make_graph(500.0, {0: (0.0, 0.0), 1: (150.0, 0.0)}, [(0, 1)])
        counts = []
        for _ in range(4000):
            counts.append(len(sample_devices(g, 0.02, rng)))
        mean = np.mean(counts)
        # Poisson(0.02 * 150) = Poisson(3)
        assert abs(mean - 3.0) < 3.0 * math.sqrt(3.0 / 4000)

    def test_total_count_statistics(self, rng):
        g = generate_pvt(500.0, rng, seed_count=15)
        lam = 0.01
        expected = lam * total_street_length(g)
        totals = []
        for _ in range(200):
            totals.append(len(sample_devices(g, lam, rng)))
        assert abs(np.mean(totals) - expected) < 3.0 * math.sqrt(expected / 200)

    @pytest.mark.parametrize("lam", [0.0, 0.003, 0.05, 0.4])
    def test_batched_draws_match_scalar_loop(self, lam):
        # the oracle draws one count per street, then one scalar fraction
        # per device, the stream's order before the draws were batched
        for seed in range(4):
            g = generate_pvt(600.0, np.random.default_rng(seed), seed_count=12)
            rng, ref = np.random.default_rng(100 + seed), np.random.default_rng(100 + seed)
            want = []
            for eid in sorted(g.edges):
                count = int(ref.poisson(lam * g.edges[eid].length)) if lam > 0 else 0
                want += [(eid, float(ref.uniform()).hex()) for _ in range(count)]
            devices = sample_devices(g, lam, rng)
            assert [d.id for d in devices] == list(range(len(want)))
            assert [(d.pos.street, d.pos.p.hex()) for d in devices] == want
            assert rng.uniform() == ref.uniform()

    def test_registration_matches_positions(self, rng):
        g = generate_pvt(600.0, rng, seed_count=12)
        devices = sample_devices(g, 0.05, rng)
        occupancy = initialize(g, devices, r=10.0, rho=1.0, T=60.0).occupancy
        assert set(occupancy) == set(g.edges)
        for d in devices:
            assert d.id in occupancy[d.pos.street]
        counted = sum(len(ids) for ids in occupancy.values())
        assert counted == len(devices)


class TestKappaPrime:
    def test_degenerate_radius_draw_returns_home_street_point(self, rng):
        g = generate_pvt(600.0, rng, seed_count=20)
        idx = build_cell_index(g)
        e = g.edges[min(g.edges)]
        home = StreetPosition(e.id, e.u, e.v, 0.5)
        [dest] = sample_destination_kappa_prime([home], 100.0, g, idx, FakeRng([0.0, 0.37]))
        assert dest.street == home.street
        assert dest.p == pytest.approx(0.5, abs=1e-9)

    def test_radial_cdf(self, rng):
        from scipy import stats

        R = 120.0
        u1 = rng.uniform(size=10_000)
        radii = np.sqrt(u1) * R
        # law of sqrt(U)*R: CDF (d/R)^2
        res = stats.kstest(radii, lambda d: (d / R) ** 2)
        assert res.pvalue > 0.01

    def test_destination_canonical_and_within_2R(self, rng):
        g = generate_pvt(500.0, rng, seed_count=25)
        idx = build_cell_index(g)
        e = g.edges[min(g.edges)]
        home = StreetPosition(e.id, e.u, e.v, 0.1)
        hc = coords(home, g)
        R = 150.0
        for dest in sample_destination_kappa_prime([home] * 500, R, g, idx, rng):
            dc = coords(dest, g)
            assert -g.L <= dc.x < g.L and -g.L <= dc.y < g.L
            # projection cannot move a point further than its distance to the street
            assert torus_distance(hc, dc, g.L) <= 2.0 * R + 1e-9

    def test_rejects_bad_radius(self, rng):
        g = generate_pvt(500.0, rng, seed_count=10)
        idx = build_cell_index(g)
        home = StreetPosition(0, g.edges[0].u, g.edges[0].v, 0.5)
        with pytest.raises(ValueError):
            sample_destination_kappa_prime([home], g.L, g, idx, rng)

    def test_traced_peak_on_benchmark_geometry(self):
        # the accept1_kp benchmark's program seed 1: 3,734 homes on 2,754
        # streets; the projection ranks them in chunks, so its temporaries
        # stay small whatever the number of homes
        root = pathlib.Path(__file__).resolve().parent.parent
        cfg = load_config(root / "perfbench" / "workloads" / "accept1_kp.json")
        g = build_geometry(cfg, 1)
        idx = build_cell_index(g)
        streams = rng_streams(1)
        homes = [d.home for d in sample_devices(g, cfg.lambda_per_km / 1000.0,
                                                streams["placement"])]
        tracemalloc.start()
        try:
            sample_destination_kappa_prime(homes, cfg.kernel.radius_m, g, idx,
                                           streams["waypoints"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(homes) > 3500
        assert peak <= 4 * 2**20


class TestKappaDoublePrime:
    def test_uniform_on_single_covered_street(self, rng):
        g = make_graph(500.0, {0: (-40.0, 0.0), 1: (40.0, 0.0)}, [(0, 1)])
        home = StreetPosition(0, 0, 1, 0.5)
        fracs = [d.p for d in sample_destination_kappa_doubleprime([home] * 10_000, 200.0, g, rng)]
        assert abs(np.mean(fracs) - 0.5) < 3.0 * (1.0 / math.sqrt(12.0)) / math.sqrt(10_000)

    def test_length_weighted_street_choice(self, rng):
        # two streets of lengths 10 and 30 fully inside the disc
        g = make_graph(
            500.0,
            {0: (0.0, 10.0), 1: (10.0, 10.0), 2: (0.0, -10.0), 3: (30.0, -10.0)},
            [(0, 1), (2, 3)],
        )
        home = StreetPosition(0, 0, 1, 0.0)
        picks = [d.street for d in sample_destination_kappa_doubleprime([home] * 10_000, 490.0, g, rng)]
        frac_small = np.mean([p == 0 for p in picks])
        assert abs(frac_small - 0.25) < 3.0 * math.sqrt(0.25 * 0.75 / 10_000)

    def test_degenerate_radius_returns_home(self, rng):
        g = make_graph(500.0, {0: (0.0, 0.0), 1: (50.0, 0.0)}, [(0, 1)])
        home = StreetPosition(0, 0, 1, 0.3)
        assert sample_destination_kappa_doubleprime([home], 0.0, g, rng) == [home]

    def test_all_samples_within_disc(self, rng):
        g = generate_pvt(500.0, rng, seed_count=20)
        e = g.edges[min(g.edges)]
        home = StreetPosition(e.id, e.u, e.v, 0.4)
        hc = coords(home, g)
        for dest in sample_destination_kappa_doubleprime([home] * 300, 120.0, g, rng):
            assert torus_distance(hc, coords(dest, g), g.L) <= 120.0 + 1e-6

    @pytest.mark.parametrize("L_k", [math.nan, math.inf, -math.inf])
    def test_non_finite_radius_raises(self, rng, L_k):
        g = make_graph(500.0, {0: (0.0, 0.0), 1: (50.0, 0.0)}, [(0, 1)])
        with pytest.raises(ValueError, match="disc radius must be finite and non-negative"):
            sample_destination_kappa_doubleprime([StreetPosition(0, 0, 1, 0.3)], L_k, g, rng)

    def test_traced_peak_on_benchmark_geometry(self):
        # the kpp_1500 benchmark's program seed 1: about 970 homes on 702
        # streets; the kernel tests its pairs in chunks, so its temporaries
        # stay small whatever the number of homes
        root = pathlib.Path(__file__).resolve().parent.parent
        cfg = load_config(root / "perfbench" / "workloads" / "kpp_1500.json")
        g = build_geometry(cfg, 1)
        streams = rng_streams(1)
        homes = [d.home for d in sample_devices(g, cfg.lambda_per_km / 1000.0,
                                                streams["placement"])]
        tracemalloc.start()
        try:
            sample_destination_kappa_doubleprime(homes, cfg.kernel.radius_m, g,
                                                 streams["waypoints"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(homes) > 900
        assert peak <= 4 * 2**20


def brute_force_disc_street_intervals(g, center, radius):
    """Oracle: solve the disc quadratic for every street in all nine images."""
    side = 2.0 * g.L
    out = []
    total = 0.0
    for eid in sorted(g.edges):
        e = g.edges[eid]
        ux, uy = g.vertices[e.u]
        dx, dy = e.delta
        len2 = e.length * e.length
        raw = []
        for oi in (-side, 0.0, side):
            cx = center.x + oi
            for oj in (-side, 0.0, side):
                cy = center.y + oj
                fx = ux - cx
                fy = uy - cy
                b = 2.0 * (fx * dx + fy * dy)
                c0 = fx * fx + fy * fy - radius * radius
                disc = b * b - 4.0 * len2 * c0
                if disc < 0.0:
                    continue
                sq = math.sqrt(disc)
                t0 = (-b - sq) / (2.0 * len2)
                t1 = (-b + sq) / (2.0 * len2)
                lo, hi = max(t0, 0.0), min(t1, 1.0)
                if hi > lo:
                    raw.append((lo, hi))
        if not raw:
            continue
        raw.sort()
        merged = [raw[0]]
        for lo, hi in raw[1:]:
            if lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        for lo, hi in merged:
            measure = (hi - lo) * e.length
            out.append((eid, lo, hi, measure))
            total += measure
    return out, total


def brute_force_kappa_doubleprime(homes, L_k, g, rng):
    """Oracle: one draw per home from the walk over every street and image."""
    out = []
    for home in homes:
        if L_k == 0:
            out.append(home)
            continue
        center = coords(home, g)
        radius = L_k
        while True:
            intervals, total = brute_force_disc_street_intervals(g, center, radius)
            if total > 0.0:
                break
            radius *= 2.0
        pick = rng.uniform(0.0, total)
        acc = 0.0
        for k, (eid, lo, hi, measure) in enumerate(intervals):
            if pick <= acc + measure or k == len(intervals) - 1:
                e = g.edges[eid]
                t = lo + (pick - acc) / e.length
                out.append(StreetPosition(eid, e.u, e.v, min(max(t, lo), hi)))
                break
            acc += measure
    return out


def batched_disc_intervals(g, centers, radius):
    """The batched kernel's intervals for discs around ``centers``: the street
    images joined to the centres' squares and tested chunk by chunk, as
    (intervals, total) per centre in the oracle's form."""
    arr = g.street_arrays()
    side = 2.0 * g.L
    xs = np.array([c.x for c in centers])
    ys = np.array([c.y for c in centers])
    squares = _street_squares(arr, radius + _BOX_PAD * side, g.L)
    out = [([], 0.0) for _ in centers]
    for a, b, c, image in _disc_candidates(squares, xs, ys, g.L):
        owner, r, lo, hi = _disc_intervals(arr, c, image, xs[a:b], ys[a:b], radius, side)
        for k, row, lo_k, hi_k in zip(owner.tolist(), r.tolist(), lo.tolist(), hi.tolist()):
            eid = int(arr.ids[row])
            measure = (hi_k - lo_k) * g.edges[eid].length
            intervals, total = out[a + k]
            intervals.append((eid, lo_k, hi_k, measure))
            out[a + k] = (intervals, total + measure)
    return out


def squares_per_side(g, radius):
    """Squares per side of the grid on which the kernel joins discs of ``radius``."""
    return _street_squares(g.street_arrays(), radius + _BOX_PAD * 2.0 * g.L, g.L)[0]


def leaving_graph():
    """u + delta of street 0 lies beyond x = L; its wrapped part sits near x = -L."""
    return make_graph(500.0, {0: (470.0, 10.0), 1: (-480.0, -25.0), 2: (0.0, 0.0),
                              3: (30.0, 40.0)}, [(0, 1), (2, 3)])


class TestDiscStreetIntervals:
    """The batched disc kernel returns exactly what the brute-force walk does."""

    RADII = (1.0, 10.0, 60.0, 150.0, 299.0, 300.0, 450.0, 650.0)  # L = 300: up to > 2L

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_matches_brute_force_on_pvt(self, seed):
        rng = np.random.default_rng(seed)
        g = generate_pvt(300.0, rng, street_intensity=20.0)
        centers = [TorusPoint(*rng.uniform(-g.L, g.L, 2)) for _ in range(25)]
        centers += [TorusPoint(-g.L, -g.L), TorusPoint(-g.L, 0.0)]
        centers += [coords(StreetPosition(e.id, e.u, e.v, 0.5), g) for e in g.edges.values()][:20]
        for radius in self.RADII:
            # discs up to L across are joined on more than 2 squares per side
            assert squares_per_side(g, radius) > 2 or radius > g.L, radius
            expected = [brute_force_disc_street_intervals(g, c, radius) for c in centers]
            # each disc on its own box, as a lone home is, and all discs at once
            assert [batched_disc_intervals(g, [c], radius)[0] for c in centers] == expected, radius
            assert batched_disc_intervals(g, centers, radius) == expected, radius

    def test_street_leaving_the_fundamental_square(self):
        g = leaving_graph()
        assert g.vertices[0].x + g.edges[0].delta[0] > g.L
        for c in (TorusPoint(-495.0, -20.0), TorusPoint(495.0, 0.0), TorusPoint(-499.0, 499.0)):
            for radius in (1.0, 8.0, 20.0, 40.0, 600.0, 1100.0):
                [got] = batched_disc_intervals(g, [c], radius)
                assert got == brute_force_disc_street_intervals(g, c, radius), (c, radius)
        assert batched_disc_intervals(g, [TorusPoint(-495.0, -20.0)], 20.0)[0][1] > 0.0

    @pytest.mark.parametrize("n_seeds", [None, 4])
    def test_tiny_graphs(self, rng, n_seeds):
        if n_seeds is None:  # two hand-built streets and no cells: a 1x1 grid
            g = make_graph(200.0, {0: (-40.0, 0.0), 1: (40.0, 0.0), 2: (-190.0, 150.0),
                                   3: (170.0, 160.0)}, [(0, 1), (2, 3)])
        else:
            g = generate_pvt(200.0, rng, seed_count=n_seeds)
        centers = [TorusPoint(*rng.uniform(-g.L, g.L, 2)) for _ in range(30)]
        for radius in (1.0, 25.0, 120.0, 450.0):
            expected = [brute_force_disc_street_intervals(g, c, radius) for c in centers]
            assert [batched_disc_intervals(g, [c], radius)[0] for c in centers] == expected
            assert batched_disc_intervals(g, centers, radius) == expected

    def test_centres_on_square_lines(self):
        # centres on, and one ulp either side of, the lines between the squares
        # the discs are joined on
        g = generate_pvt(300.0, np.random.default_rng(7), street_intensity=20.0)
        for radius in (1.0, 40.0, 150.0):
            dim = squares_per_side(g, radius)
            assert dim > 2
            lines = [-g.L + k * (2.0 * g.L / dim) for k in range(dim)]
            ticks = sorted({t for x in lines for t in (np.nextafter(x, -np.inf), x,
                                                       np.nextafter(x, np.inf))
                            if -g.L <= t < g.L})
            centers = [TorusPoint(x, y) for x in ticks for y in ticks[::5]]
            expected = [brute_force_disc_street_intervals(g, c, radius) for c in centers]
            assert batched_disc_intervals(g, centers, radius) == expected, radius

    def test_draw_sequence_unchanged(self):
        # the batched sampler's draws, and the stream after them, are those
        # of one brute-force draw per home
        g = generate_pvt(300.0, np.random.default_rng(5), street_intensity=20.0)
        homes = [StreetPosition(e.id, e.u, e.v, 0.25) for e in g.edges.values()][::7]
        for L_k in (0.5, 100.0, 300.0, 700.0):
            rng, ref = np.random.default_rng(99), np.random.default_rng(99)
            assert (sample_destination_kappa_doubleprime(homes, L_k, g, rng)
                    == brute_force_kappa_doubleprime(homes, L_k, g, ref)), L_k
            assert rng.uniform() == ref.uniform()


def random_homes(g, data, n_max=25):
    eids = sorted(g.edges)
    picks = data.draw(st.lists(st.tuples(st.sampled_from(eids), st.floats(0.0, 1.0)),
                               min_size=1, max_size=n_max))
    return [StreetPosition(eid, g.edges[eid].u, g.edges[eid].v, p) for eid, p in picks]


class TestBatchedKappaDoublePrimeOracle:
    """Hypothesis: the batched κ″ equals the per-home brute-force sampler."""

    @settings(max_examples=40, deadline=None)
    @given(graph_seed=st.integers(0, 2**32 - 1), draw_seed=st.integers(0, 2**32 - 1),
           L_k=st.sampled_from([5.0, 40.0, 120.0, 310.0, 420.0, 650.0]), data=st.data())
    def test_pvt_graphs_and_multi_image_radii(self, graph_seed, draw_seed, L_k, data):
        # L = 300, so radii above 300 meet some streets in several disc images
        g = generate_pvt(300.0, np.random.default_rng(graph_seed), seed_count=12)
        homes = random_homes(g, data)
        rng, ref = np.random.default_rng(draw_seed), np.random.default_rng(draw_seed)
        assert (sample_destination_kappa_doubleprime(homes, L_k, g, rng)
                == brute_force_kappa_doubleprime(homes, L_k, g, ref))
        assert rng.uniform() == ref.uniform()

    @settings(max_examples=25, deadline=None)
    @given(draw_seed=st.integers(0, 2**32 - 1), data=st.data(),
           L_k=st.sampled_from([1e-13, 1e-12, 5e-12]))
    def test_retries_after_an_empty_first_disc(self, draw_seed, L_k, data):
        # a disc far below the rounding of the home's coordinates holds no
        # street, so the radius doubles until it does
        g = leaving_graph()
        homes = random_homes(g, data, n_max=8)
        rng, ref = np.random.default_rng(draw_seed), np.random.default_rng(draw_seed)
        assert (sample_destination_kappa_doubleprime(homes, L_k, g, rng)
                == brute_force_kappa_doubleprime(homes, L_k, g, ref))
        assert rng.uniform() == ref.uniform()

    def test_retry_case_has_an_empty_first_disc(self):
        g = leaving_graph()
        home = StreetPosition(0, 0, 1, 0.3)
        assert brute_force_disc_street_intervals(g, coords(home, g), 1e-13)[1] == 0.0

    @settings(max_examples=25, deadline=None)
    @given(draw_seed=st.integers(0, 2**32 - 1), data=st.data(),
           L_k=st.sampled_from([1.0, 8.0, 20.0, 40.0, 600.0, 1100.0]))
    def test_streets_leaving_the_fundamental_square(self, draw_seed, L_k, data):
        g = leaving_graph()
        homes = random_homes(g, data)
        rng, ref = np.random.default_rng(draw_seed), np.random.default_rng(draw_seed)
        assert (sample_destination_kappa_doubleprime(homes, L_k, g, rng)
                == brute_force_kappa_doubleprime(homes, L_k, g, ref))

    def test_benchmark_scale_torus(self):
        # a 1.5 km torus with L_k = 300 m, as in the kpp_1500 benchmark: 20
        # homes anywhere and 20 within 300 m of the torus edge, 8 of them in
        # a corner, where discs reach into other images of the torus
        g = generate_pvt(750.0, np.random.default_rng(21), street_intensity=20.0)
        pick = np.random.default_rng(22)
        eids = sorted(g.edges)
        pool = [StreetPosition(eid, g.edges[eid].u, g.edges[eid].v, float(pick.uniform()))
                for eid in pick.choice(eids, size=400)]
        near = np.abs(street_coords(pool, g)) > g.L - 300.0
        corner = [h for h, m in zip(pool, near) if m.all()][:8]
        edge = [h for h, m in zip(pool, near) if m.any() and not m.all()][:12]
        assert len(corner) == 8 and len(edge) == 12
        homes = pool[:20] + corner + edge
        rng, ref = np.random.default_rng(23), np.random.default_rng(23)
        assert (sample_destination_kappa_doubleprime(homes, 300.0, g, rng)
                == brute_force_kappa_doubleprime(homes, 300.0, g, ref))
        assert rng.uniform() == ref.uniform()

    def test_gives_up_after_64_doublings(self):
        g = leaving_graph()
        homes = [StreetPosition(1, 2, 3, 0.5), StreetPosition(0, 0, 1, 0.3)]
        with pytest.raises(RuntimeInvariantError, match=r"device 0: .* radius 9\.2"):
            sample_destination_kappa_doubleprime(homes, 1e-200, g, np.random.default_rng(1))


class TestBatchedKappaPrimeOracle:
    @settings(max_examples=30, deadline=None)
    @given(graph_seed=st.integers(0, 2**32 - 1), draw_seed=st.integers(0, 2**32 - 1),
           R=st.floats(0.5, 295.0), data=st.data())
    def test_matches_brute_force_projection(self, graph_seed, draw_seed, R, data):
        # each home's disc point, drawn as two scalar uniforms, projected by
        # a walk over every street and image
        g = generate_pvt(300.0, np.random.default_rng(graph_seed), seed_count=12)
        idx = build_cell_index(g)
        homes = random_homes(g, data)
        rng, ref = np.random.default_rng(draw_seed), np.random.default_rng(draw_seed)
        for home, dest in zip(homes, sample_destination_kappa_prime(homes, R, g, idx, rng),
                              strict=True):
            c = coords(home, g)
            u1 = ref.uniform()
            u2 = ref.uniform()
            rad = math.sqrt(u1) * R
            p = wrap((c.x + rad * math.sin(2.0 * math.pi * u2),
                      c.y + rad * math.cos(2.0 * math.pi * u2)), g.L)
            _, eid, t = brute_force_projection(p, g)
            assert (dest.street, dest.p) == (eid, t)
        assert rng.uniform() == ref.uniform()


def nx_oracle_graph(g, positions):
    """Independent overlay oracle: physically split streets at the positions."""
    G = nx.MultiGraph()
    for eid, e in g.edges.items():
        on_street = sorted(
            [(pos.p if pos.v1 == e.u else 1.0 - pos.p, name) for name, pos in positions.items()
             if pos.street == eid]
        )
        prev_node, prev_t = e.u, 0.0
        for t, name in on_street:
            G.add_edge(prev_node, name, weight=(t - prev_t) * e.length)
            prev_node, prev_t = name, t
        G.add_edge(prev_node, e.v, weight=(1.0 - prev_t) * e.length)
    return G


class TestShortestPath:
    def test_same_street_trivial(self, single_street_graph):
        g = single_street_graph
        p = shortest_path(g, StreetPosition(0, 0, 1, 0.2), StreetPosition(0, 0, 1, 0.7))
        assert p.streets == (0,)
        assert p.crossings == ()
        assert p.start == StreetPosition(0, 0, 1, 0.2)
        assert p.end == StreetPosition(0, 0, 1, 0.7)

    def test_same_street_reversed_orientation(self, single_street_graph):
        g = single_street_graph
        p = shortest_path(g, StreetPosition(0, 0, 1, 0.7), StreetPosition(0, 0, 1, 0.2))
        assert p.start == StreetPosition(0, 1, 0, pytest.approx(0.3))
        assert p.end == StreetPosition(0, 1, 0, pytest.approx(0.8))

    def test_single_hop_to_adjacent_street(self):
        # two streets sharing vertex 1
        g = make_graph(500.0, {0: (0, 0), 1: (100, 0), 2: (100, 80)}, [(0, 1), (1, 2)])
        p = shortest_path(g, StreetPosition(0, 0, 1, 0.75), StreetPosition(1, 1, 2, 0.5))
        assert p.streets == (0, 1)
        assert p.crossings == (1,)
        assert p.start == StreetPosition(0, 0, 1, 0.75)
        assert p.end == StreetPosition(1, 1, 2, 0.5)

    def test_start_flipped_when_leaving_via_other_endpoint(self):
        g = make_graph(500.0, {0: (0, 0), 1: (100, 0), 2: (-50, 80)}, [(0, 1), (0, 2)])
        p = shortest_path(g, StreetPosition(0, 0, 1, 0.25), StreetPosition(1, 0, 2, 0.5))
        # leaving via vertex 0: stored orientation flips so p increases
        assert p.start == StreetPosition(0, 1, 0, 0.75)
        assert p.crossings == (0,)

    def test_matches_networkx_oracle(self, rng):
        g = generate_pvt(700.0, rng, seed_count=30)
        edge_ids = sorted(g.edges)
        for _ in range(120):
            e1, e2 = (g.edges[i] for i in rng.choice(edge_ids, size=2, replace=False))
            frm = StreetPosition(e1.id, e1.u, e1.v, float(rng.uniform()))
            to = StreetPosition(e2.id, e2.u, e2.v, float(rng.uniform()))
            path = shortest_path(g, frm, to)
            # path length from the leg decomposition
            length = 0.0
            for k, sid in enumerate(path.streets):
                s = g.edges[sid]
                if len(path.streets) == 1:
                    length = abs(path.end.p - path.start.p) * s.length
                elif k == 0:
                    length += (1.0 - path.start.p) * s.length
                elif k == len(path.streets) - 1:
                    length += path.end.p * s.length
                else:
                    length += s.length
            G = nx_oracle_graph(g, {"SRC": frm, "DST": to})
            expect = nx.shortest_path_length(G, "SRC", "DST", weight="weight")
            assert length == pytest.approx(expect, abs=1e-6)

    def test_not_longer_than_random_walks(self, rng):
        g = generate_pvt(600.0, rng, seed_count=20)
        adj = g.adjacency()
        e1 = g.edges[min(g.edges)]
        e2 = g.edges[max(g.edges)]
        frm = StreetPosition(e1.id, e1.u, e1.v, 0.5)
        to = StreetPosition(e2.id, e2.u, e2.v, 0.5)
        path = shortest_path(g, frm, to)
        best = (1.0 - path.start.p) * g.edges[path.streets[0]].length
        for k, sid in enumerate(path.streets[1:], 1):
            best += g.edges[sid].length if k < len(path.streets) - 1 else path.end.p * g.edges[sid].length
        # random street walks from the start position to the target street
        hits = 0
        for _ in range(1000):
            if rng.uniform() < 0.5:
                node, walked = e1.u, frm.p * e1.length
            else:
                node, walked = e1.v, (1.0 - frm.p) * e1.length
            for _ in range(60):
                if node in (e2.u, e2.v):
                    walked += (to.p if node == e2.u else 1.0 - to.p) * e2.length
                    assert best <= walked + 1e-9
                    hits += 1
                    break
                nb, w, _sid = adj[node][int(rng.integers(len(adj[node])))]
                walked += w
                node = nb
        assert hits > 50


def batched_paths(g, pairs):
    """assign_commute's paths for devices commuting between the given positions."""
    devices = [Device(k, frm, 0.0, 1.0, None, frm) for k, (frm, _) in enumerate(pairs)]
    assign_commute(devices, [to for _, to in pairs], [1.0] * len(pairs), g)
    return [d.path for d in devices]


@pytest.fixture
def fallbacks(monkeypatch):
    """Count the devices assign_commute hands to shortest_path."""
    import streetsim.mobility as mobility

    calls = []

    def counted(g, frm, to):
        calls.append((frm, to))
        return shortest_path(g, frm, to)

    monkeypatch.setattr(mobility, "shortest_path", counted)
    return calls


def either_way(e, p):
    return [StreetPosition(e.id, e.u, e.v, p), StreetPosition(e.id, e.v, e.u, p)]


class TestBatchedPaths:
    """assign_commute's batched paths equal shortest_path's, device by device."""

    @settings(max_examples=40, deadline=None)
    @given(graph_seed=st.integers(0, 2**32 - 1), n_cells=st.integers(4, 30), data=st.data())
    def test_matches_shortest_path_on_pvts(self, graph_seed, n_cells, data):
        # a few cells on a small torus: wrapping and parallel streets are common
        try:
            g = generate_pvt(300.0, np.random.default_rng(graph_seed), seed_count=n_cells)
        except DegenerateTessellation:
            assume(False)
        eids = sorted(g.edges)
        fraction = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
        pairs = []
        for kind in data.draw(st.lists(st.sampled_from(["same", "adjacent", "any"]),
                                       min_size=1, max_size=30)):
            e1 = g.edges[data.draw(st.sampled_from(eids))]
            if kind == "same":
                e2 = e1
            elif kind == "adjacent":
                e2 = g.edges[data.draw(st.sampled_from(
                    [sid for x in (e1.u, e1.v) for _, _, sid in g.adjacency()[x] if sid != e1.id]))]
            else:
                e2 = g.edges[data.draw(st.sampled_from(eids))]
            frm = data.draw(st.sampled_from(either_way(e1, data.draw(fraction))))
            to = data.draw(st.sampled_from(either_way(e2, data.draw(fraction))))
            pairs.append((frm, to))
        paths = batched_paths(g, pairs)
        assert paths == [shortest_path(g, frm, to) for frm, to in pairs]
        assert all(type(x.p) is float for path in paths for x in (path.start, path.end))

    def test_exact_ties_on_a_grid_fall_back(self, fallbacks):
        # a 3 x 3 grid of 100 m streets that wraps around a 300 m torus: many
        # routes between two streets tie exactly
        ij = [(i, j) for i in range(3) for j in range(3)]
        g = make_graph(150.0, {3 * i + j: (100.0 * i - 100.0, 100.0 * j - 100.0) for i, j in ij},
                       [(3 * i + j, 3 * ((i + 1) % 3) + j) for i, j in ij]
                       + [(3 * i + j, 3 * i + (j + 1) % 3) for i, j in ij])
        pairs = [(StreetPosition(e1.id, e1.u, e1.v, p), StreetPosition(e2.id, e2.u, e2.v, 0.5))
                 for e1 in g.edges.values() for e2 in g.edges.values() for p in (0.25, 0.5)]
        assert batched_paths(g, pairs) == [shortest_path(g, frm, to) for frm, to in pairs]
        assert 0 < len(fallbacks) < len(pairs)

    @pytest.mark.parametrize("lengths, street, n_fallbacks", [
        ((100.0, 100.0), 1, 1),  # equal: tied, shortest_path takes the smaller id
        ((100.0, 150.0), 1, 0),
        ((150.0, 100.0), 2, 0),  # the shorter parallel street has the larger id
    ])
    def test_parallel_streets(self, fallbacks, lengths, street, n_fallbacks):
        # streets 1 and 2 both join crossings 0 and 1
        vertices = {0: TorusPoint(0.0, 0.0), 1: TorusPoint(100.0, 0.0),
                    2: TorusPoint(-100.0, 0.0), 3: TorusPoint(200.0, 0.0)}
        edges = {eid: Street(eid, u, v, length, (vertices[v].x - vertices[u].x, 0.0), (0, 0))
                 for eid, u, v, length in [(0, 2, 0, 100.0), (1, 0, 1, lengths[0]),
                                           (2, 0, 1, lengths[1]), (3, 1, 3, 100.0)]}
        g = StreetGraph(500.0, vertices, edges, {})
        pairs = [(StreetPosition(0, 2, 0, 0.5), StreetPosition(3, 1, 3, 0.5))]
        [path] = batched_paths(g, pairs)
        assert path == shortest_path(g, *pairs[0])
        assert path.streets == (0, street, 3)
        assert len(fallbacks) == n_fallbacks

    def test_rounding_near_tie_falls_back(self, fallbacks):
        # from crossing 1, streets 1 + 2 (0.2 m + 0.1 m) and street 3 (0.3 m)
        # reach crossing 3: in floats 0.2 + 0.1 > 0.3, but after the 0.5 m
        # from the home, 0.5 + 0.2 + 0.1 < 0.5 + 0.3, so the order of the
        # sums decides; the certificate hands the device to shortest_path
        vertices = {k: TorusPoint(float(k), 0.0) for k in range(5)}
        edges = {eid: Street(eid, u, v, length, (float(v - u), 0.0), (0, 0))
                 for eid, u, v, length in [(0, 0, 1, 1.0), (1, 1, 2, 0.2), (2, 2, 3, 0.1),
                                           (3, 1, 3, 0.3), (4, 3, 4, 1.0)]}
        g = StreetGraph(500.0, vertices, edges, {})
        pairs = [(StreetPosition(0, 0, 1, 0.5), StreetPosition(4, 3, 4, 0.5))]
        [path] = batched_paths(g, pairs)
        assert path == shortest_path(g, *pairs[0])
        assert path.crossings == (1, 2, 3)
        assert len(fallbacks) == 1

    def test_long_detour_searches_again_with_a_larger_limit(self, fallbacks, monkeypatch):
        # home and destination are 11 m apart, their street path is 195 m:
        # beyond the first limit (the longest street, 100 m), within twice it
        import streetsim.mobility as mobility

        limits = []

        def recorded(*args, limit, **kwargs):
            limits.append(limit)
            return dijkstra(*args, limit=limit, **kwargs)

        monkeypatch.setattr(mobility, "dijkstra", recorded)
        g = make_graph(500.0, {0: (0, 0), 1: (0, 100), 2: (10, 100), 3: (10, 0)},
                       [(0, 1), (1, 2), (2, 3)])
        pairs = [(StreetPosition(0, 0, 1, 0.05), StreetPosition(2, 2, 3, 0.9)),
                 (StreetPosition(0, 0, 1, 0.5), StreetPosition(1, 1, 2, 0.5))]
        assert batched_paths(g, pairs) == [shortest_path(g, frm, to) for frm, to in pairs]
        assert limits == [100.0, 200.0]
        assert not fallbacks

    def test_disconnected_graph_raises(self):
        g = StreetGraph.from_json_dict({
            "L": 500.0,
            "vertices": [{"id": k, "x": x, "y": y}
                         for k, (x, y) in enumerate([(0, 0), (100, 0), (0, 200), (100, 200)])],
            "edges": [{"id": 0, "u": 0, "v": 1, "length": 100.0},
                      {"id": 1, "u": 2, "v": 3, "length": 100.0}],
            "cells": [],
        })
        frm = StreetPosition(0, 0, 1, 0.5)
        to = StreetPosition(1, 2, 3, 0.5)
        with pytest.raises(ValueError, match="street graph is disconnected; no path exists"):
            shortest_path(g, frm, to)
        with pytest.raises(ValueError, match="street graph is disconnected; no path exists"):
            batched_paths(g, [(frm, StreetPosition(0, 0, 1, 0.9)), (frm, to)])

    def test_no_devices(self, single_street_graph):
        assert batched_paths(single_street_graph, []) == []


class TestPositionAt:
    def _device(self, g, p, v):
        e = g.edges[0]
        pos = StreetPosition(0, e.u, e.v, p)
        path = Path(pos, (), StreetPosition(0, e.u, e.v, 1.0), (0,))
        return Device(0, pos, 0.0, v, path, pos), e.length

    def test_zero_dt(self, single_street_graph):
        d, length = self._device(single_street_graph, 0.2, 1.5)
        assert position_at(d, 0.0, length) == 0.2

    def test_formula(self):
        g = make_graph(500.0, {0: (0, 0), 1: (300, 0)}, [(0, 1)])
        d, length = self._device(g, 0.2, 1.5)
        assert position_at(d, 10.0, length) == pytest.approx(0.25)

    def test_full_traversal(self, single_street_graph):
        d, length = self._device(single_street_graph, 0.0, 2.0)
        assert position_at(d, 50.0, length) == pytest.approx(1.0)

    def test_overshoot_raises(self, single_street_graph):
        d, length = self._device(single_street_graph, 0.5, 2.0)
        with pytest.raises(RuntimeInvariantError):
            position_at(d, 100.0, length)


class TestReversePath:
    def test_single_street_complement(self):
        p = Path(StreetPosition(0, 1, 2, 0.3), (), StreetPosition(0, 1, 2, 0.8), (0,))
        r = p.reverse()
        assert r.start == StreetPosition(0, 2, 1, pytest.approx(0.2))
        assert r.end == StreetPosition(0, 2, 1, pytest.approx(0.7))

    def test_involution_exact_on_dyadic_fractions(self):
        # complementing twice is float-exact for dyadic fractions; arbitrary
        # fractions may drift by one ulp per round trip (inherent to 1-p)
        p = Path(StreetPosition(0, 1, 2, 0.3125), (2, 3), StreetPosition(2, 3, 4, 0.8125), (0, 1, 2))
        assert p.reverse().reverse() == p

    def test_involution_semantic(self, rng):
        for _ in range(200):
            a, b = rng.uniform(size=2)
            p = Path(StreetPosition(0, 1, 2, float(a)), (2,), StreetPosition(1, 2, 3, float(b)), (0, 1))
            r = p.reverse().reverse()
            assert (r.crossings, r.streets) == (p.crossings, p.streets)
            assert (r.start.v1, r.start.v2, r.end.v1, r.end.v2) == (
                p.start.v1, p.start.v2, p.end.v1, p.end.v2)
            assert r.start.p == pytest.approx(p.start.p, abs=1e-15)
            assert r.end.p == pytest.approx(p.end.p, abs=1e-15)

    @given(
        p=st.floats(0.0, 1.0, allow_nan=False),
        q=st.floats(0.0, 1.0, allow_nan=False),
        n=st.integers(2, 6),
    )
    def test_general_form_matches_bracket_formula(self, p, q, n):
        # path [(v0, v1, p), v1, ..., v_{n-1}, (v_{n-1}, v_n, q)]
        verts = list(range(n + 1))
        streets = tuple(range(n))
        path = Path(
            StreetPosition(0, verts[0], verts[1], p),
            tuple(verts[1:n]),
            StreetPosition(n - 1, verts[n - 1], verts[n], q),
            streets,
        )
        r = path.reverse()
        assert (r.start.v1, r.start.v2, r.start.p) == (verts[n], verts[n - 1], 1.0 - q)
        assert list(r.crossings) == list(reversed(verts[1:n]))
        assert (r.end.v1, r.end.v2, r.end.p) == (verts[1], verts[0], 1.0 - p)


class TestDeviceMotionState:
    def test_moving_follows_every_path_assignment(self, rng):
        g = generate_pvt(300.0, rng, seed_count=10)
        idx = build_cell_index(g)
        devices = sample_devices(g, 0.05, rng)
        assert devices

        def consistent(d):
            return d.moving == (not d.path.is_stationary)

        # sampled devices start stationary
        assert all(consistent(d) and not d.moving for d in devices)
        for k, d in enumerate(devices):
            dest = (d.home if k % 3 == 0
                    else sample_destination_kappa_prime([d.home], 60.0, g, idx, rng)[0])
            assign_commute([d], [dest], [1.0], g)
            assert consistent(d)
            twin = d.clone()
            assert consistent(twin) and twin.moving == d.moving
            d.path = d.path.reverse()
            assert consistent(d) and d.moving == twin.moving
        assert any(d.moving for d in devices) and not all(d.moving for d in devices)

    def test_path_assigned_after_construction(self):
        pos = StreetPosition(0, 0, 1, 0.25)
        d = Device(0, pos, 0.0, 1.0, None, None)
        assert not d.moving
        d.path = Path(pos, (), StreetPosition(0, 0, 1, 1.0), (0,))
        assert d.moving
        d.path = Path(pos, (), pos, (0,))
        assert not d.moving

    @staticmethod
    def _routes(p, q, s, n):
        """A device part way along an n-street path, with its route table."""
        verts = list(range(10, 10 + n + 1))
        path = Path(StreetPosition(0, verts[0], verts[1], p), tuple(verts[1:n]),
                    StreetPosition(n - 1, verts[n - 1], verts[n], q), tuple(range(n)))
        pos = path.start._replace(p=s)
        return path, pos, _route_table([Device(3, pos, 0.0, 1.0, path, pos)])

    @given(
        p=st.floats(0.0, 1.0, allow_nan=False),
        q=st.floats(0.0, 1.0, allow_nan=False),
        s=st.floats(0.0, 1.0, allow_nan=False),
        n=st.integers(1, 4),
    )
    def test_turn_around_equals_rebuilt_reverse(self, p, q, s, n):
        # the route table's three routes are, bitwise, the path from the
        # device's position, path.reverse() and path.reverse().reverse()
        # (streets, crossings, start p, end p)
        path, pos, (table, n_legs, first, start_p, end_p) = self._routes(p, q, s, n)
        r1 = path.reverse()
        r2 = r1.reverse()
        assert n_legs.tolist() == [n] * 3 and table.device.tolist() == [3] * 3 * n
        for k, (start, route) in enumerate([(pos, path), (r1.start, r1), (r2.start, r2)]):
            legs = slice(first[k], first[k] + n)
            assert table.street[legs].tolist() == list(route.streets)
            assert table.crossing[legs].tolist() == [*route.crossings, -1]
            assert start_p[k].hex() == start.p.hex() and end_p[k].hex() == route.end.p.hex()

    @given(
        p=st.floats(0.0, 1.0, allow_nan=False),
        q=st.floats(0.0, 1.0, allow_nan=False),
        s=st.floats(0.0, 1.0, allow_nan=False),
        n=st.integers(1, 4),
    )
    def test_routes_ahead_are_the_next_turns(self, p, q, s, n):
        # each route's destination turns, bitwise, to the start of the route
        # after it: R1, R2, then R1 again
        path, _, (table, *_) = self._routes(p, q, s, n)
        r1 = path.reverse()
        r2 = r1.reverse()
        for k, start in enumerate([r1.start, r2.start, r1.start]):
            turn = (table.street[table.last[k]], table.turn_v1[k], table.turn_v2[k])
            assert turn == start[:3] and table.turn_p[k].hex() == start.p.hex()


class TestVelocities:
    def test_dirac(self, rng):
        assert all(sample_velocity(DiracVelocity(5.0), rng) == 5.0 for _ in range(10))

    def test_two_point_mean(self, rng):
        dist = TwoPointVelocity(1.0, 10.0, 0.5)
        xs = [sample_velocity(dist, rng) for _ in range(10_000)]
        assert set(xs) <= {1.0, 10.0}
        sigma = 4.5  # half-spread of the two-point law
        assert abs(np.mean(xs) - 5.5) < 3.0 * sigma / math.sqrt(10_000)

    def test_positive_normal(self, rng):
        dist = PositiveNormalVelocity(2.0, 0.4)
        xs = np.array([sample_velocity(dist, rng) for _ in range(10_000)])
        assert (xs > 0).all()
        assert abs(np.mean(xs) - dist.mean()) < 3.0 * 0.4 / math.sqrt(10_000)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DiracVelocity(0.0)
        with pytest.raises(ValueError):
            PositiveNormalVelocity(-1.0, 1.0)


class TestCoords:
    def test_endpoints(self, single_street_graph):
        g = single_street_graph
        assert coords(StreetPosition(0, 0, 1, 0.0), g) == g.vertices[0]
        assert coords(StreetPosition(0, 0, 1, 1.0), g) == g.vertices[1]

    def test_orientation_equivalence(self, single_street_graph):
        g = single_street_graph
        a = coords(StreetPosition(0, 0, 1, 0.25), g)
        b = coords(StreetPosition(0, 1, 0, 0.75), g)
        assert a == b

    def test_wrapping_street_midpoint(self):
        # street crossing the boundary: from (-490, 0) to (490, 0), length 20
        g = make_graph(500.0, {0: (-490.0, 0.0), 1: (490.0, 0.0)}, [(0, 1)])
        e = g.edges[0]
        assert e.length == pytest.approx(20.0)
        mid = coords(StreetPosition(0, 0, 1, 0.5), g)
        assert torus_distance(mid, g.vertices[0], g.L) == pytest.approx(10.0, abs=1e-9)
        assert torus_distance(mid, g.vertices[1], g.L) == pytest.approx(10.0, abs=1e-9)

    def test_fraction_gap_equals_torus_distance(self, rng):
        # contact checks need no absolute coordinates
        g = generate_pvt(700.0, rng, seed_count=25)
        eids = sorted(g.edges)
        for _ in range(300):
            e = g.edges[int(rng.choice(eids))]
            p1, p2 = rng.uniform(size=2)
            a = StreetPosition(e.id, e.u, e.v, float(p1))
            b = StreetPosition(e.id, e.u, e.v, float(p2))
            gap = abs(p1 - p2) * e.length
            assert gap == pytest.approx(torus_distance(coords(a, g), coords(b, g), g.L), abs=1e-6)


    def test_batched_coords_match_scalar_expressions(self, rng):
        # street_coords is the scalar interpolate-then-wrap, bit for bit, in
        # both orientations and at the ends of wrapping streets
        g = generate_pvt(150.0, rng, seed_count=8)
        positions = []
        for e in g.edges.values():
            for p in (0.0, 1.0, *rng.uniform(size=4).tolist()):
                positions += [StreetPosition(e.id, e.u, e.v, p), StreetPosition(e.id, e.v, e.u, p)]
        rows = street_coords(positions, g)
        for pos, (x, y) in zip(positions, rows.tolist()):
            e = g.edges[pos.street]
            ux, uy = g.vertices[e.u]
            t = pos.p if pos.v1 == e.u else 1.0 - pos.p
            ref = wrap((ux + t * e.delta[0], uy + t * e.delta[1]), g.L)
            assert (x.hex(), y.hex()) == (ref.x.hex(), ref.y.hex())
            assert coords(pos, g) == ref
        assert street_coords([], g).shape == (0, 2)
        with pytest.raises(KeyError):
            street_coords([StreetPosition(max(g.edges) + 1, 0, 1, 0.5)], g)

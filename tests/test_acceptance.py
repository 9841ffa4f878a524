"""Acceptance suite: one test per shipped criterion, each printing a
[PASS]/[FAIL] line (run with pytest -s to see them live).

Budgets are generous on a laptop: the whole module runs in a few minutes.
"""

import contextlib
import json
import math
import time

import networkx as nx
import numpy as np
import pytest
from scipy import stats

from streetsim.analysis import (
    aux_largest_component,
    long_edge_percolation_graph,
    velocity_sweep,
)
from streetsim.cli import main
from streetsim.config import parse_config, rng_streams
from streetsim.engine import (
    compute_contact_interval,
    derived_connection_graph,
    initialize,
    run,
)
from streetsim.mobility import (
    Device,
    Path,
    PositiveNormalVelocity,
    assign_commute,
    sample_destination_kappa_doubleprime,
    sample_destination_kappa_prime,
    sample_devices,
    sample_velocity,
)
from streetsim.streets import (
    StreetPosition,
    build_cell_index,
    generate_pvt,
    project_to_streets,
)
from streetsim.torus import TorusPoint, torus_distance, wrap

from conftest import make_graph, total_street_length
from contact_oracle import contact_oracle
from discrete_reference import DiscreteConfig, simulate_discrete
from test_streets import brute_force_projection
from test_torus import brute_force_distance


@contextlib.contextmanager
def criterion(n, description):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {n}: {description} ({time.time() - t0:.1f}s)")
        raise
    print(f"[PASS] criterion {n}: {description} ({time.time() - t0:.1f}s)")


# -- 1: in-and-out of percolation ---------------------------------------------


@pytest.mark.slow
def test_criterion_1_in_and_out_of_percolation():
    scales = [0.3, 0.5, 0.75, 1.0, 1.5, 2.25, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    cfg = parse_config({
        "torus_side_m": 3000.0,
        "street_intensity_km_per_km2": 20.0,
        "lambda_per_km": 20.0,
        "r_m": 20.0,
        "rho_s": 10.0,
        "T_s": 270.0,
        "kernel": {"kappa_prime": {"R_m": 300.0}},
        "velocity": {"normal_plus": {"mean_mps": 1.0, "std_mps": 0.2}},
        "sweep": {"parameter": "velocity_scale", "values": scales},
        "seeds": list(range(1, 11)),
        "outputs": {"csv_path": "in_out.csv"},
    })
    with criterion(1, "in-and-out of percolation, seed-averaged curve shape"):
        result = velocity_sweep(cfg)
        by_scale = {a: [] for a in scales}
        for row in result.rows:
            by_scale[row.scale_a].append(row.largest_fraction)
        curve = [float(np.mean(by_scale[a])) for a in scales]
        print("    mean curve:", " ".join(f"{a}:{f:.3f}" for a, f in zip(scales, curve)))
        peak = max(curve)
        k_star = curve.index(peak)
        assert peak >= 0.5, f"interior maximum {peak:.3f} < 0.5"
        assert 0 < k_star < len(curve) - 1, "maximum not at an interior velocity"
        assert curve[0] < 0.15, f"left end {curve[0]:.3f} >= 0.15"
        assert curve[-1] < 0.15, f"right end {curve[-1]:.3f} >= 0.15"
        dips = [curve[i] - curve[i + 1] for i in range(k_star) if curve[i + 1] < curve[i]]
        rises = [curve[i + 1] - curve[i] for i in range(k_star, len(curve) - 1)
                 if curve[i + 1] > curve[i]]
        assert len(dips) <= 1 and all(d <= 0.05 for d in dips), f"left-side dips {dips}"
        assert len(rises) <= 1 and all(r <= 0.05 for r in rises), f"right-side rises {rises}"


# -- 2: event engine vs discrete-time reference ---------------------------------


# the instances criterion 2 admitted when the engine still measured its own
# gaps; the contact oracle's gaps must admit the same ones
CRITERION_2_SEEDS = [
    1, 2, 3, 4, 5, 6, 8, 10, 12, 13, 15, 17, 18, 20, 22, 24, 25, 26, 27, 28, 29, 31, 33, 34,
    35, 36, 37, 38, 39, 40, 41, 42, 44, 45, 46, 47, 48, 50, 53, 54, 55, 56, 58, 59, 60, 63,
    66, 67, 70, 73, 74, 75, 76, 77, 78, 79, 80, 82, 83, 85, 86, 87, 88, 89, 90, 91, 92, 93,
    94, 95, 96, 97, 98, 99, 100, 101, 102, 103, 104, 106, 107, 108, 109, 112, 115, 116, 117,
    118, 121, 122, 123, 124, 125, 126, 128, 130, 131, 132, 134, 135,
]


def _admitted_instance(seed, T, r, rho):
    """Sampled small instance plus its engine run, or None when a contact
    duration or a minimum gap (from the contact oracle) lies within the
    reference's step resolution of rho or r."""
    streams = rng_streams(seed)
    g = generate_pvt(700.0, streams["geometry"], seed_count=25)
    lam = 12.0 / total_street_length(g)
    devices = sample_devices(g, lam, streams["placement"])
    if not 2 <= len(devices) <= 20:
        return None
    idx = build_cell_index(g)
    from streetsim.mobility import TwoPointVelocity

    dist = TwoPointVelocity(0.8, 1.6, 0.5)
    dests = sample_destination_kappa_prime([d.home for d in devices], 120.0, g, idx,
                                           streams["waypoints"])
    velocities = [sample_velocity(dist, streams["velocities"]) for _ in devices]
    assign_commute(devices, dests, velocities, g)
    v_max = max(d.velocity for d in devices)
    eps = 0.01
    if eps > 0.01 * min(e.length for e in g.edges.values()) / v_max:
        return None
    state = initialize(g, [d.clone() for d in devices], r=r, rho=rho, T=T)
    engine_graph = run(state)
    slack = 5.0 * eps * v_max
    for _, _, u, w in state.history:
        if abs((w - u) - rho) <= slack:
            return None
    for gmin in contact_oracle(g, devices, r, rho, T).closest_gap.values():
        if abs(gmin - r) <= slack:
            return None
    return g, devices, engine_graph


@pytest.mark.slow
def test_criterion_2_engine_matches_discrete_reference():
    T, r, rho = 80.0, 20.0, 10.0
    with criterion(2, "event engine vs discrete-time reference on 100 instances"):
        admitted = []
        seed = 0
        mismatches = 0
        while len(admitted) < 100:
            seed += 1
            assert seed < 600, "instance admission stalled"
            inst = _admitted_instance(seed, T, r, rho)
            if inst is None:
                continue
            g, devices, engine_graph = inst
            admitted.append(seed)
            reference = simulate_discrete(g, devices, DiscreteConfig(0.01, T, r, rho))
            if reference.edges != engine_graph.edges:
                mismatches += 1
                print(f"    mismatch at instance seed {seed}: "
                      f"engine {sorted(engine_graph.edges)} reference {sorted(reference.edges)}")
            # convergence: symmetric difference non-increasing in eps; the
            # eps = 0.01 entry is the strict run above (strict only validates)
            diffs = []
            for eps in (1.0, 0.1):
                og = simulate_discrete(g, devices, DiscreteConfig(eps, T, r, rho), strict=False)
                diffs.append(len(engine_graph.edges ^ og.edges))
            diffs.append(len(engine_graph.edges ^ reference.edges))
            assert all(b <= a for a, b in zip(diffs, diffs[1:])), \
                f"seed {seed}: symmetric difference not non-increasing: {diffs}"
        assert mismatches == 0, f"{mismatches} of {len(admitted)} instances disagreed at eps=0.01"
        assert admitted == CRITERION_2_SEEDS


# -- 3: scaling relation ----------------------------------------------------------


def _small_commuting_instance(seed, torus_side=700.0, n_target=12.0):
    streams = rng_streams(seed)
    g = generate_pvt(torus_side / 2.0, streams["geometry"], seed_count=25)
    lam = n_target / total_street_length(g)
    devices = sample_devices(g, lam, streams["placement"])
    if not 2 <= len(devices) <= 20:
        return None
    idx = build_cell_index(g)
    dist = PositiveNormalVelocity(1.0, 0.2)
    dests = sample_destination_kappa_prime([d.home for d in devices], 120.0, g, idx,
                                           streams["waypoints"])
    velocities = [sample_velocity(dist, streams["velocities"]) for _ in devices]
    assign_commute(devices, dests, velocities, g)
    return g, devices


def test_criterion_3_velocity_time_scaling_bitwise():
    T, rho, r = 100.0, 8.0, 20.0
    with criterion(3, "derived graph at (aT, a*rho) equals direct scaled run, bitwise"):
        checked = 0
        seed = 1000
        while checked < 50:
            seed += 1
            assert seed < 1400, "instance sampling stalled"
            inst = _small_commuting_instance(seed)
            if inst is None:
                continue
            g, devices = inst
            checked += 1
            base = initialize(g, [d.clone() for d in devices], r=r, rho=rho,
                              T=2.0 * T)
            run(base)
            for a in (0.5, 2.0):
                derived = derived_connection_graph(base, a * T, a * rho)
                scaled = [d.clone() for d in devices]
                for d in scaled:
                    d.velocity *= a
                direct = run(initialize(g, scaled, r=r, rho=rho, T=T))
                assert derived.edges == direct.edges, f"seed {seed}, a={a}"


# -- 4: contact-interval solver vs time-sampling -----------------------------------


def test_criterion_4_contact_solver_vs_time_sampling():
    rng = np.random.default_rng(4242)
    g = make_graph(500.0, {0: (0.0, 0.0), 1: (120.0, 0.0)}, [(0, 1)])
    street = g.edges[0]
    r = 15.0
    step = 1e-3
    with criterion(4, "contact solver within one 1e-3 s step of brute-force sampling"):
        for k in range(10_000):
            pa, pb = rng.uniform(size=2)
            va, vb = rng.uniform(0.5, 3.0, size=2)
            da = 1 if rng.uniform() < 0.5 else -1
            db = 1 if rng.uniform() < 0.5 else -1
            if k % 10 == 0:
                # zero relative speed: same velocity and direction
                vb, db = va, da
            pos_a = StreetPosition(0, 0, 1, pa) if da > 0 else StreetPosition(0, 1, 0, 1 - pa)
            pos_b = StreetPosition(0, 0, 1, pb) if db > 0 else StreetPosition(0, 1, 0, 1 - pb)
            A = Device(0, pos_a, 0.0, va, None, None)
            B = Device(1, pos_b, 0.0, vb, None, None)
            A.path = Path(pos_a, (), StreetPosition(0, pos_a.v1, pos_a.v2, 1.0), (0,))
            B.path = Path(pos_b, (), StreetPosition(0, pos_b.v1, pos_b.v2, 1.0), (0,))
            interval = compute_contact_interval(A, B, street, 0.0, r)
            horizon = min((1.0 - A.pos.p) * street.length / va,
                          (1.0 - B.pos.p) * street.length / vb)
            ts = np.arange(0.0, horizon, step)
            if len(ts) == 0:
                continue
            xa = pa * street.length + da * va * ts
            xb = pb * street.length + db * vb * ts
            hit = np.abs(xa - xb) <= r
            if interval is None:
                assert not hit.any(), f"pair {k}: sampler found contact, solver none"
                continue
            lo, hi = interval
            hi_eff = min(hi, float(ts[-1]))
            if lo >= horizon or hi_eff - lo < step:
                # window outside the scan or narrower than one step
                assert hit.sum() <= 1
                continue
            assert hit.any(), f"pair {k}: solver found contact, sampler none"
            first = float(ts[hit.argmax()])
            last = float(ts[len(hit) - 1 - hit[::-1].argmax()])
            assert abs(first - lo) <= step + 1e-9, f"pair {k}: start {first} vs {lo}"
            assert abs(last - hi_eff) <= step + 1e-9, f"pair {k}: end {last} vs {hi_eff}"


# -- 5: geometry suite --------------------------------------------------------------


def test_criterion_5_geometry_suite():
    rng = np.random.default_rng(555)
    with criterion(5, "wrap/distance/projection oracles, degree-3, calibrated intensity"):
        L = 500.0
        # wrap idempotence and periodicity, exact (dyadic grid for periodicity)
        pts = np.round(rng.uniform(-L, L, size=(10_000, 2)) * 1024) / 1024
        shifts = rng.integers(-3, 4, size=(10_000, 2))
        for (x, y), (kx, ky) in zip(pts, shifts):
            w = wrap((x, y), L)
            assert wrap(w, L) == w
            assert wrap((x + 2 * L * kx, y + 2 * L * ky), L) == wrap((x, y), L)
        # torus distance vs 9-image brute force, exact
        for x1, y1, x2, y2 in rng.uniform(-L, L, size=(10_000, 4)):
            p, q = TorusPoint(x1, y1), TorusPoint(x2, y2)
            assert torus_distance(p, q, L) == brute_force_distance(p, q, L)
        # projection vs all-streets brute force
        g = generate_pvt(700.0, rng, seed_count=30)
        idx = build_cell_index(g)
        points = [TorusPoint(x, y) for x, y in rng.uniform(-g.L, g.L, size=(1000, 2))]
        for p, pos in zip(points, project_to_streets(points, g, idx)):
            d_b, eid_b, t_b = brute_force_projection(p, g)
            assert pos.street == eid_b and abs(pos.p - t_b) <= 1e-9
        # degree 3 on 50 generated tessellations
        for k in range(50):
            gk = generate_pvt(600.0, np.random.default_rng(7000 + k), seed_count=20)
            deg = {}
            for e in gk.edges.values():
                deg[e.u] = deg.get(e.u, 0) + 1
                deg[e.v] = deg.get(e.v, 0) + 1
            assert set(deg.values()) == {3}
        # calibrated street intensity: mean within 3 sigma of 20 km/km^2
        intensities = []
        for k in range(50):
            gk = generate_pvt(1000.0, np.random.default_rng(8000 + k), street_intensity=20.0)
            area_km2 = (2.0 * gk.L / 1000.0) ** 2
            intensities.append(total_street_length(gk) / 1000.0 / area_km2)
        mean = float(np.mean(intensities))
        sem = float(np.std(intensities, ddof=1)) / math.sqrt(len(intensities))
        print(f"    intensity mean {mean:.3f} km/km^2, sem {sem:.4f}")
        assert abs(mean - 20.0) <= 3.0 * sem


# -- 6: sampling suite ----------------------------------------------------------------


def test_criterion_6_sampling_suite():
    rng = np.random.default_rng(666)
    with criterion(6, "Poisson placement, waypoint kernels, positive-normal velocities"):
        # per-street Poisson counts: mean lambda*length
        g1 = make_graph(500.0, {0: (0.0, 0.0), 1: (150.0, 0.0)}, [(0, 1)])
        counts = []
        for _ in range(10_000):
            counts.append(len(sample_devices(g1, 0.02, rng)))
        assert abs(np.mean(counts) - 3.0) <= 3.0 * math.sqrt(3.0 / 10_000)
        # chi-square against Poisson(3) with a >=10 tail bucket
        observed = np.bincount(np.minimum(counts, 10), minlength=11)
        pmf = stats.poisson(3.0).pmf(range(10))
        expected = np.append(pmf, 1.0 - pmf.sum()) * 10_000
        assert stats.chisquare(observed, expected).pvalue > 0.001
        # radial law of the disk kernel before projection: CDF (d/R)^2
        R = 150.0
        radii = np.sqrt(rng.uniform(size=10_000)) * R
        assert stats.kstest(radii, lambda d: (d / R) ** 2).pvalue > 0.01
        # kernel support: destination within 2R of home
        g2 = generate_pvt(600.0, rng, seed_count=25)
        idx = build_cell_index(g2)
        e0 = g2.edges[min(g2.edges)]
        home = StreetPosition(e0.id, e0.u, e0.v, 0.25)
        from conftest import coords

        hc = coords(home, g2)
        for dest in sample_destination_kappa_prime([home] * 2000, R, g2, idx, rng):
            assert torus_distance(hc, coords(dest, g2), g2.L) <= 2.0 * R + 1e-9
        # length-weighted street choice for the on-street kernel
        g3 = make_graph(
            500.0,
            {0: (0.0, 10.0), 1: (10.0, 10.0), 2: (0.0, -10.0), 3: (30.0, -10.0)},
            [(0, 1), (2, 3)],
        )
        home3 = StreetPosition(0, 0, 1, 0.0)
        picks = [d.street for d in
                 sample_destination_kappa_doubleprime([home3] * 10_000, 490.0, g3, rng)]
        frac_small = float(np.mean([p == 0 for p in picks]))
        assert abs(frac_small - 0.25) <= 3.0 * math.sqrt(0.25 * 0.75 / 10_000)
        # positive-normal velocities: positivity and truncated mean
        dist = PositiveNormalVelocity(1.0, 0.2)
        xs = np.array([sample_velocity(dist, rng) for _ in range(10_000)])
        assert (xs > 0).all()
        assert abs(np.mean(xs) - dist.mean()) <= 3.0 * 0.2 / math.sqrt(10_000)


# -- 7: long-street graph suite ---------------------------------------------------------


def test_criterion_7_long_street_graph_suite():
    with criterion(7, "S^{a,b} monotonicity grid and all-pairs-shortest-path oracle"):
        # monotone in a (non-increasing) and b (non-decreasing), 5x5 grid
        for k in range(10):
            g = generate_pvt(500.0, np.random.default_rng(9000 + k), seed_count=15)
            lengths = sorted(e.length for e in g.edges.values())
            a_grid = [float(np.quantile(lengths, q)) for q in (0.1, 0.3, 0.5, 0.7, 0.9)]
            b_grid = [float(np.quantile(lengths, 0.5)) * m for m in (0.0, 0.5, 1.0, 2.0, 4.0)]
            edge_sets = {}
            for a in a_grid:
                for b in b_grid:
                    aux = long_edge_percolation_graph(g, a, b)
                    edge_sets[(a, b)] = set(aux.aux_edges) | {
                        (min(e.u, e.v), max(e.u, e.v)) for e in aux.street_edges.values()}
            for ai, a in enumerate(a_grid):
                for bi, b in enumerate(b_grid):
                    if ai + 1 < len(a_grid):
                        assert edge_sets[(a_grid[ai + 1], b)] <= edge_sets[(a, b)]
                    if bi + 1 < len(b_grid):
                        assert edge_sets[(a, b)] <= edge_sets[(a, b_grid[bi + 1])]
        # auxiliary edges vs all-pairs Dijkstra on 10-seed instances, exact
        for k in range(10):
            g = generate_pvt(500.0, np.random.default_rng(9500 + k), seed_count=10)
            G = nx.MultiGraph()
            G.add_nodes_from(g.vertices)
            for e in g.edges.values():
                G.add_edge(e.u, e.v, weight=e.length)
            lengths = sorted(e.length for e in g.edges.values())
            a = float(np.quantile(lengths, 0.5))
            b = 1.5 * a
            aux = long_edge_percolation_graph(g, a, b)
            endpoints = sorted({v for e in g.edges.values() if e.length >= a
                                for v in (e.u, e.v)})
            expected = set()
            for s in endpoints:
                dist = nx.single_source_dijkstra_path_length(G, s, weight="weight")
                for t in endpoints:
                    if t != s and dist.get(t, math.inf) <= b:
                        expected.add((min(s, t), max(s, t)))
            assert set(aux.aux_edges) == expected
            # component census stays sane
            fraction, wraps = aux_largest_component(aux)
            assert 0.0 <= fraction <= 1.0


# -- 8: determinism -----------------------------------------------------------------------


def test_criterion_8_byte_identical_reruns(tmp_path):
    cfg = {
        "torus_side_m": 900.0,
        "street_intensity_km_per_km2": 20.0,
        "lambda_per_km": 20.0,
        "r_m": 20.0,
        "rho_s": 8.0,
        "T_s": [60.0, 120.0],
        "kernel": {"kappa_prime": {"R_m": 150.0}},
        "velocity": {"normal_plus": {"mean_mps": 1.0, "std_mps": 0.2}},
        "sweep": {"parameter": "velocity_scale", "values": [0.5, 1.0, 2.0]},
        "seeds": [1, 2, 3],
        "outputs": {"csv_path": "det.csv", "trace": True, "history": True},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with criterion(8, "re-running a config produces byte-identical outputs"):
        outs = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert main(["run", str(path), "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("det.csv", "trace-seed1.jsonl", "history-seed1.csv"):
            b1 = (outs[0] / fname).read_bytes()
            b2 = (outs[1] / fname).read_bytes()
            assert b1 == b2, f"{fname} differs between reruns"

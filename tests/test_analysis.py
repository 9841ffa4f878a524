import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streetsim.analysis import (
    aux_largest_component,
    cluster_size_histogram,
    connection_graph_wraps,
    largest_cluster_fraction,
    long_edge_percolation_graph,
    thinned_street_graph,
    velocity_sweep,
    write_sweep_csv,
)
from streetsim.config import parse_config
from streetsim.engine import ConnectionGraph
from streetsim.streets import Street, StreetGraph, generate_pvt
from streetsim.torus import TorusPoint, min_image_delta

from conftest import make_graph
from winding_oracle import _has_winding_cycle


def bfs_components(cg: ConnectionGraph):
    adj = {v: set() for v in cg.vertices}
    for i, j in cg.edges:
        adj[i].add(j)
        adj[j].add(i)
    seen = set()
    comps = []
    for v in cg.vertices:
        if v in seen:
            continue
        stack, comp = [v], set()
        while stack:
            u = stack.pop()
            if u in comp:
                continue
            comp.add(u)
            stack.extend(adj[u] - comp)
        seen |= comp
        comps.append(comp)
    return comps


class TestLargestCluster:
    def test_three_two_split(self):
        cg = ConnectionGraph((0, 1, 2, 3, 4), frozenset({(0, 1), (1, 2), (3, 4)}))
        assert largest_cluster_fraction(cg) == pytest.approx(0.6)

    def test_edgeless(self):
        cg = ConnectionGraph(tuple(range(8)), frozenset())
        assert largest_cluster_fraction(cg) == pytest.approx(1.0 / 8.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            largest_cluster_fraction(ConnectionGraph((), frozenset()))

    def test_matches_bfs_census(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 60))
            verts = tuple(range(n))
            edges = set()
            for _ in range(int(rng.integers(0, 2 * n))):
                i, j = rng.integers(0, n, size=2)
                if i != j:
                    edges.add((min(i, j), max(i, j)))
            cg = ConnectionGraph(verts, frozenset(edges))
            comps = bfs_components(cg)
            assert largest_cluster_fraction(cg) == pytest.approx(max(len(c) for c in comps) / n)
            hist = cluster_size_histogram(cg)
            sizes = sorted(len(c) for c in comps)
            expanded = sorted(s for s, k in hist for _ in range(k))
            assert expanded == sizes

    def test_invariant_under_relabeling(self, rng):
        cg = ConnectionGraph((0, 1, 2, 3, 4, 5), frozenset({(0, 1), (2, 3), (3, 4)}))
        relabel = {0: 10, 1: 21, 2: 32, 3: 43, 4: 54, 5: 65}
        cg2 = ConnectionGraph(
            tuple(relabel[v] for v in cg.vertices),
            frozenset((min(relabel[i], relabel[j]), max(relabel[i], relabel[j])) for i, j in cg.edges),
        )
        assert largest_cluster_fraction(cg) == largest_cluster_fraction(cg2)


class TestThinnedGraph:
    def test_threshold_filters_lengths(self):
        g = make_graph(500.0, {0: (0, 0), 1: (5, 0), 2: (100, 0), 3: (100, 12), 4: (200, 0), 5: (200, 30)},
                       [(0, 1), (2, 3), (4, 5)])
        thin = thinned_street_graph(g, 10.0)
        assert sorted(e.length for e in thin.edges.values()) == [12.0, 30.0]
        assert set(thin.vertices) == {2, 3, 4, 5}

    def test_zero_threshold_identity(self, rng):
        g = generate_pvt(600.0, rng, seed_count=15)
        thin = thinned_street_graph(g, 0.0)
        assert set(thin.edges) == set(g.edges)
        assert set(thin.vertices) == set(g.vertices)
        assert {c: sorted(cell.edge_ids) for c, cell in thin.cells.items()} == {
            c: sorted(cell.edge_ids) for c, cell in g.cells.items()}

    def test_above_max_empties(self, rng):
        g = generate_pvt(600.0, rng, seed_count=15)
        longest = max(e.length for e in g.edges.values())
        thin = thinned_street_graph(g, longest + 1.0)
        assert thin.edges == {}


def nx_multigraph(g):
    G = nx.MultiGraph()
    G.add_nodes_from(g.vertices)
    for e in g.edges.values():
        G.add_edge(e.u, e.v, weight=e.length)
    return G


class TestLongEdgeGraph:
    def test_b_zero_only_long_streets(self, rng):
        g = generate_pvt(600.0, rng, seed_count=12)
        median = sorted(e.length for e in g.edges.values())[len(g.edges) // 2]
        aux = long_edge_percolation_graph(g, median, 0.0)
        assert aux.aux_edges == {}
        assert all(g.edges[eid].length >= median for eid in aux.street_edges)

    def test_shared_crossing_connected_for_any_b(self, rng):
        g = generate_pvt(600.0, rng, seed_count=12)
        # pick two streets sharing a vertex, threshold below both lengths
        for e1 in g.edges.values():
            mates = [e2 for e2 in g.edges.values() if e2.id != e1.id and
                     {e1.u, e1.v} & {e2.u, e2.v}]
            if mates:
                e2 = mates[0]
                break
        a = min(e1.length, e2.length)
        aux = long_edge_percolation_graph(g, a, 0.0)
        uf = {}

        def find(x):
            while uf.get(x, x) != x:
                x = uf[x]
            return x

        for e in aux.street_edges.values():
            uf[find(e.u)] = find(e.v)
        assert find(e1.u) == find(e2.u) or find(e1.u) == find(e2.v) or \
               find(e1.v) == find(e2.u) or find(e1.v) == find(e2.v)

    def test_aux_edges_match_all_pairs_oracle(self, rng):
        for seed in range(3):
            local = np.random.default_rng(seed)
            g = generate_pvt(500.0, local, seed_count=10)
            lengths = sorted(e.length for e in g.edges.values())
            a = lengths[len(lengths) // 2]
            b = 1.7 * a
            aux = long_edge_percolation_graph(g, a, b)
            G = nx_multigraph(g)
            endpoints = sorted({v for e in g.edges.values() if e.length >= a for v in (e.u, e.v)})
            expected = set()
            for s in endpoints:
                dists = nx.single_source_dijkstra_path_length(G, s, weight="weight")
                for t in endpoints:
                    if t != s and dists.get(t, math.inf) <= b:
                        expected.add((min(s, t), max(s, t)))
            assert set(aux.aux_edges) == expected

    def test_monotone_in_a_and_b(self, rng):
        for seed in range(10):
            local = np.random.default_rng(100 + seed)
            g = generate_pvt(500.0, local, seed_count=15)
            lengths = sorted(e.length for e in g.edges.values())
            a_grid = np.quantile(lengths, [0.1, 0.3, 0.5, 0.7, 0.9])
            b_grid = np.quantile(lengths, [0.2, 0.5, 1.0]) * 2
            prev_by_b = {}
            for a in a_grid:
                for b in b_grid:
                    aux = long_edge_percolation_graph(g, float(a), float(b))
                    edges = set(aux.aux_edges) | {
                        (min(e.u, e.v), max(e.u, e.v)) for e in aux.street_edges.values()}
                    if (a, "prev_b") in prev_by_b:
                        assert prev_by_b[(a, "prev_b")] <= edges  # non-decreasing in b
                    prev_by_b[(a, "prev_b")] = edges
                    if ("prev_a", b) in prev_by_b:
                        assert edges <= prev_by_b[("prev_a", b)]  # non-increasing in a
                    prev_by_b[("prev_a", b)] = edges


def lift_wraps_oracle(aux, g):
    """Brute-force wrap check: lift the component into the plane over a 3x3
    block of copies; a component wraps iff a lifted copy connects to its own
    translate."""
    side = 2.0 * g.L
    G = nx.Graph()
    shifts = [(i * side, j * side) for i in (-1, 0, 1) for j in (-1, 0, 1)]

    def node(v, sx, sy):
        return (v, round(sx), round(sy))

    for sx, sy in shifts:
        for e in aux.street_edges.values():
            _add_lifted_edge(G, g, e.u, e.v, e.delta, sx, sy, side, node)
        for (u, v), d in aux.aux_edges.items():
            _add_lifted_edge(G, g, u, v, d, sx, sy, side, node)
    for v in aux.vertices:
        base = node(v, 0, 0)
        if base not in G:
            continue
        for sx, sy in shifts:
            if (sx, sy) == (0, 0):
                continue
            other = node(v, sx, sy)
            if other in G and nx.has_path(G, base, other):
                return True
    return False


def _add_lifted_edge(G, g, u, v, delta, sx, sy, side, node):
    ux, uy = g.vertices[u]
    vx_lift = ux + delta[0]
    vy_lift = uy + delta[1]
    vx, vy = g.vertices[v]
    # which copy does the lifted far endpoint land in?
    tx = sx + round((vx_lift - vx) / side) * side
    ty = sy + round((vy_lift - vy) / side) * side
    if abs(tx) <= side and abs(ty) <= side:
        G.add_edge(node(u, sx, sy), node(v, tx, ty))


class TestAuxComponent:
    def test_full_graph_wraps(self, rng):
        g = generate_pvt(500.0, rng, seed_count=12)
        aux = long_edge_percolation_graph(g, 0.0, 0.0)
        fraction, wraps = aux_largest_component(aux)
        assert fraction == pytest.approx(1.0)
        assert wraps is True

    def test_empty_after_thinning(self, rng):
        g = generate_pvt(500.0, rng, seed_count=12)
        longest = max(e.length for e in g.edges.values())
        aux = long_edge_percolation_graph(g, longest + 1, 0.0)
        assert aux_largest_component(aux) == (0.0, False)

    def test_winding_matches_lift_oracle(self):
        for seed in range(8):
            local = np.random.default_rng(300 + seed)
            g = generate_pvt(500.0, local, seed_count=10)
            lengths = sorted(e.length for e in g.edges.values())
            for a_q, b_mult in ((0.4, 1.0), (0.6, 0.5), (0.8, 2.0)):
                a = float(np.quantile(lengths, a_q))
                b = float(np.quantile(lengths, 0.5)) * b_mult
                aux = long_edge_percolation_graph(g, a, b)
                _, wraps = aux_largest_component(aux)
                assert wraps == lift_wraps_oracle(aux, g)

    @settings(max_examples=80, deadline=None)
    @given(graph_seed=st.integers(0, 2**32 - 1), L=st.sampled_from([150.0, 300.0, 500.0]),
           a_q=st.one_of(st.just(None), st.floats(0.0, 0.95)),
           b=st.one_of(st.tuples(st.just("median"), st.floats(0.0, 10.0)),
                       st.tuples(st.just("L"), st.floats(1.0, 3.0))))
    def test_wraps_match_bfs_oracle(self, graph_seed, L, a_q, b):
        # a_q None is a = 0 (every street is long); ("L", m) puts b >= L, so
        # aux paths may run further than half the side
        g = generate_pvt(L, np.random.default_rng(graph_seed), seed_count=10)
        lengths = sorted(e.length for e in g.edges.values())
        a = 0.0 if a_q is None else float(np.quantile(lengths, a_q))
        unit, mult = b
        b = mult * (float(np.quantile(lengths, 0.5)) if unit == "median" else L)
        aux = long_edge_percolation_graph(g, a, b)
        _, wraps = aux_largest_component(aux)
        assert wraps is _has_winding_cycle(aux.vertices, aux_adjacency(aux), aux.L)

    @pytest.mark.parametrize("verts, streets, a, b, expected", [
        # a chain 150 m long end to end that does not close: the aux edge
        # joining its ends is a tree edge longer than L
        ({0: (-90.0, 0.0), 1: (-30.0, 0.0), 2: (0.0, 0.0), 3: (60.0, 0.0)},
         [(0, 1, (60.0, 0.0)), (1, 2, (30.0, 0.0)), (2, 3, (60.0, 0.0))], 50.0, 200.0, False),
        # two streets between the same crossings, one the short way and one
        # the long way round
        ({0: (0.0, 0.0), 1: (50.0, 0.0)}, [(0, 1, (50.0, 0.0)), (0, 1, (-150.0, 0.0))],
         0.0, 0.0, True),
        # the same street twice, once given from its far end
        ({0: (0.0, 0.0), 1: (70.0, 0.0)}, [(0, 1, (70.0, 0.0)), (1, 0, (-70.0, 0.0))],
         0.0, 0.0, False),
        # a street from a crossing back to itself once around the torus
        ({0: (0.0, 0.0), 1: (0.0, 50.0)}, [(0, 0, (0.0, 200.0)), (0, 1, (0.0, 50.0))],
         0.0, 0.0, True),
    ], ids=["tree-edge-longer-than-L", "parallel-different-windings",
            "parallel-same-winding", "self-loop-full-side"])
    def test_hand_built_windings(self, verts, streets, a, b, expected):
        L = 100.0
        vertices = {vid: TorusPoint(x, y) for vid, (x, y) in verts.items()}
        edges = {eid: Street(eid, u, v, math.hypot(*delta), delta, (0, 0))
                 for eid, (u, v, delta) in enumerate(streets)}
        aux = long_edge_percolation_graph(StreetGraph(L, vertices, edges, {}), a, b)
        _, wraps = aux_largest_component(aux)
        assert wraps is expected
        assert wraps is _has_winding_cycle(aux.vertices, aux_adjacency(aux), L)


def aux_adjacency(aux):
    """The oracle's adjacency of an aux graph: street deltas and path displacements."""
    adj = {v: [] for v in aux.vertices}
    for e in aux.street_edges.values():
        dx, dy = e.delta
        adj[e.u].append((e.v, dx, dy))
        adj[e.v].append((e.u, -dx, -dy))
    for (u, v), (dx, dy) in aux.aux_edges.items():
        adj[u].append((v, dx, dy))
        adj[v].append((u, -dx, -dy))
    return adj


def tiny_config(**overrides):
    base = {
        "torus_side_m": 700.0, "street_intensity_km_per_km2": 20.0,
        "lambda_per_km": 20.0, "r_m": 20.0, "rho_s": 8.0, "T_s": 100.0,
        "kernel": {"kappa_prime": {"R_m": 120.0}},
        "velocity": {"normal_plus": {"mean_mps": 1.0, "std_mps": 0.2}},
        "seeds": [1, 2], "outputs": {"csv_path": "sweep.csv"},
        "sweep": {"parameter": "velocity_scale", "values": [0.5, 1.0, 2.0]},
    }
    base.update(overrides)
    return parse_config(base)


class TestVelocitySweep:
    def test_scale_one_reproduces_direct_run(self):
        from streetsim.config import build_seed_state
        from streetsim.engine import initialize, run

        cfg = tiny_config(seeds=[4], sweep={"parameter": "velocity_scale", "values": [1.0]})
        result = velocity_sweep(cfg)
        assert len(result.rows) == 1
        g, devices, _ = build_seed_state(cfg, 4)
        direct = run(initialize(g, devices, r=cfg.r_m, rho=cfg.rho_s, T=100.0))
        assert result.rows[0].largest_fraction == pytest.approx(
            largest_cluster_fraction(direct))

    def test_rows_match_direct_scaled_runs(self):
        from streetsim.config import build_seed_state
        from streetsim.engine import initialize, run

        cfg = tiny_config(seeds=[7])
        result = velocity_sweep(cfg)
        for row in result.rows:
            g, devices, _ = build_seed_state(cfg, row.seed)
            for d in devices:
                d.velocity *= row.scale_a
            direct = run(initialize(g, devices, r=cfg.r_m, rho=cfg.rho_s, T=row.T_s))
            assert row.largest_fraction == pytest.approx(largest_cluster_fraction(direct))

    def test_row_order_and_csv_schema(self, tmp_path):
        cfg = tiny_config()
        result = velocity_sweep(cfg)
        keys = [(r.seed, r.scale_a, r.T_s) for r in result.rows]
        assert keys == sorted(keys)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(result, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ("seed,scale_a,velocity_mean_mps,T_s,rho_s,r_m,"
                            "lambda_per_m,n_devices,largest_fraction,wraps")
        assert len(lines) == 1 + len(result.rows)


class TestConnectionWraps:
    def test_no_edges_no_wrap(self, single_street_graph):
        cg = ConnectionGraph((0, 1), frozenset())
        assert connection_graph_wraps(cg, {}, single_street_graph) is False

    @staticmethod
    def bfs_wraps(cg, anchors, L):
        """The per-point BFS over minimal-image displacements, as the oracle."""
        adj = {v: [] for v in cg.vertices}
        for i, j in cg.edges:
            dx, dy = min_image_delta(anchors[i], anchors[j], L)
            adj[i].append((j, dx, dy))
            adj[j].append((i, -dx, -dy))
        return _has_winding_cycle(cg.vertices, adj, L)

    def test_ring_around_the_torus_wraps(self):
        g = make_graph(100.0, {0: (0.0, 0.0), 1: (10.0, 0.0)}, [(0, 1)])
        xs = [-100.0, -60.0, -20.0, 20.0, 60.0]
        anchors = np.array([(x, 5.0) for x in xs])
        ring = ConnectionGraph(tuple(range(5)), frozenset((k, k + 1) for k in range(4)) | {(0, 4)})
        assert connection_graph_wraps(ring, anchors, g) is True
        chain = ConnectionGraph(tuple(range(5)), frozenset((k, k + 1) for k in range(4)))
        assert connection_graph_wraps(chain, anchors, g) is False

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(2, 24), on_grid=st.booleans())
    def test_matches_bfs_on_random_graphs(self, data, n, on_grid):
        # grid anchors put homes exactly half a side apart, the tie case of
        # the minimal image
        L = 100.0
        g = make_graph(L, {0: (0.0, 0.0), 1: (10.0, 0.0)}, [(0, 1)])
        if on_grid:
            coord = st.sampled_from([-L, -L / 2, 0.0, L / 2])
        else:
            coord = st.floats(-L, L, exclude_max=True, allow_nan=False)
        ids = data.draw(st.lists(st.integers(0, 1000), min_size=n, max_size=n, unique=True))
        anchors = np.full((max(ids) + 1, 2), np.nan)
        for v in ids:
            anchors[v] = (data.draw(coord), data.draw(coord))
        pairs = [(i, j) for i in sorted(ids) for j in sorted(ids) if i < j]
        edges = data.draw(st.lists(st.sampled_from(pairs), max_size=3 * n, unique=True))
        cg = ConnectionGraph(tuple(sorted(ids)), frozenset(edges))
        assert connection_graph_wraps(cg, anchors, g) is self.bfs_wraps(cg, anchors, L)

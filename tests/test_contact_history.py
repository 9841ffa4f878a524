"""The contact history as typed columns: ``ContactHistory`` itself, the
array-backed derived graphs read from it, and the sorted history file."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streetsim.analysis import connection_graph_wraps, home_anchors, largest_cluster_fraction
from streetsim.cli import HISTORY_CHUNK_ROWS, _write_history
from streetsim.config import build_seed_state, parse_config
from streetsim.engine import (
    ConnectionGraph,
    ContactHistory,
    SimulationState,
    _history_pairs,
    derived_connection_graph,
    initialize,
    run,
)

from conftest import make_graph
from test_engine_golden import GOLDEN_CASES, golden_run

ROOT = Path(__file__).resolve().parent.parent


def brute_force_edges(rows, T2, rho2):
    return {(i, j) for i, j, u, w in rows if min(w, T2) - u > rho2}


def assert_same_readout(cg, anchors, g):
    """The array-backed graph reads out as the same graph built from its frozenset."""
    plain = ConnectionGraph(cg.vertices, frozenset(cg.edges))
    assert len(cg.pairs) == len(cg.edges) == len(plain.pairs)
    assert largest_cluster_fraction(cg) == largest_cluster_fraction(plain)
    assert connection_graph_wraps(cg, anchors, g) is connection_graph_wraps(plain, anchors, g)


class TestContactHistory:
    def test_empty(self):
        h = ContactHistory()
        assert len(h) == 0 and not h
        assert list(h) == []
        assert h.columns().shape == (0, 4)
        assert (0, 1, 0.0, 1.0) not in h

    def test_rows_round_trip_with_python_types(self):
        rows = [(3, 7, 0.1 + 0.2, 12.5), (0, 2, 0.0, 1e-300), (3, 7, 0.1 + 0.2, 12.5)]
        h = ContactHistory(rows)
        assert len(h) == 3
        assert list(h) == rows
        for row in h:
            assert [type(x) for x in row] == [int, int, float, float]
        # the golden digests hash repr(sorted(history))
        assert repr(sorted(h)) == repr(sorted(rows))
        assert (0, 2, 0.0, 1e-300) in h
        assert (0, 2, 0.0, 1e-299) not in h

    def test_extend_appends_one_interval(self):
        h = ContactHistory()
        h.extend((4, 9, 1.5, 2.5))
        assert list(h) == [(4, 9, 1.5, 2.5)]
        assert h.columns().tolist() == [[4.0, 9.0, 1.5, 2.5]]

    def test_storage_is_32_bytes_an_interval(self):
        state, _ = golden_run(*GOLDEN_CASES[0][:3])
        data = state.history.data
        assert len(state.history) > 100
        assert data.buffer_info()[1] * data.itemsize == 32 * len(state.history)


class TestDerivedReadout:
    def test_every_desk_sweep_point(self):
        cfg = parse_config(json.loads((ROOT / "figures" / "in_out_desk.json").read_text()))
        g, devices, _ = build_seed_state(cfg, 1)
        state = initialize(g, devices, r=cfg.r_m, rho=cfg.rho_s,
                           T=max(cfg.sweep.values) * max(cfg.T_s))
        run(state)
        rows = list(state.history)
        anchors = home_anchors(state.devices, g)
        n_points = 0
        for a in cfg.sweep.values:
            for T in cfg.T_s:
                cg = derived_connection_graph(state, a * T, a * cfg.rho_s)
                assert cg.edges == brute_force_edges(rows, a * T, a * cfg.rho_s)
                assert_same_readout(cg, anchors, g)
                n_points += 1
        assert n_points == 36

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(2, 12))
    def test_small_histories_with_duplicates(self, data, n):
        L = 100.0
        g = make_graph(L, {0: (0.0, 0.0), 1: (10.0, 0.0)}, [(0, 1)])
        ids = sorted(data.draw(st.lists(st.integers(0, 60), min_size=n, max_size=n, unique=True)))
        pairs = [(i, j) for i in ids for j in ids if i < j]
        times = st.sampled_from([0.0, 2.5, 5.0, 10.0, 40.0]) | st.floats(0.0, 40.0)
        rows = []
        for i, j in data.draw(st.lists(st.sampled_from(pairs), max_size=4 * n)):
            u, w = sorted((data.draw(times), data.draw(times)))
            rows.append((i, j, u, w + 1e-3))
        # repeat some intervals as they are
        rows += data.draw(st.lists(st.sampled_from(rows), max_size=n)) if rows else []
        state = SimulationState(graph=g, devices=dict.fromkeys(ids), r=20.0, rho=1.0, T=40.0,
                                history=ContactHistory(rows))
        coord = st.floats(-L, L, exclude_max=True, allow_nan=False)
        anchors = np.full((max(ids) + 1, 2), np.nan)
        for v in ids:
            anchors[v] = (data.draw(coord), data.draw(coord))
        for _ in range(3):
            T2 = data.draw(st.floats(0.0, 40.0))
            rho2 = data.draw(st.sampled_from([0.0, 2.5, 5.0]) | st.floats(0.0, 20.0))
            cg = derived_connection_graph(state, T2, rho2)
            assert cg.edges == brute_force_edges(rows, T2, rho2)
            assert len(np.unique(cg.pairs, axis=0)) == len(cg.pairs)
            assert_same_readout(cg, anchors, g)


    def test_vertices_in_any_order(self):
        edges = frozenset({(0, 40), (7, 40), (3, 9)})
        for vertices in ((0, 3, 7, 9, 40, 41), (41, 9, 40, 0, 7, 3)):
            cg = ConnectionGraph(vertices, edges)
            assert largest_cluster_fraction(cg) == 3 / 6


def history_state(history):
    g = make_graph(100.0, {0: (0.0, 0.0), 1: (10.0, 0.0)}, [(0, 1)])
    return SimulationState(graph=g, devices={}, r=20.0, rho=1.0, T=40.0, history=history)


class TestHistoryPairs:
    """The pair index against ``np.unique`` of the keys i * base + j."""

    @staticmethod
    def unique_index(pairs):
        ij = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        base = int(ij[:, 1].max()) + 1
        keys, inverse = np.unique(ij[:, 0] * base + ij[:, 1], return_inverse=True)
        return inverse.tolist(), np.column_stack(np.divmod(keys, base)).tolist()

    def assert_matches_unique(self, pairs):
        state = history_state(ContactHistory((i, j, 0.0, 1.0) for i, j in pairs))
        pair_of, distinct = _history_pairs(state)
        want_of, want_distinct = self.unique_index(pairs)
        assert pair_of.tolist() == want_of
        assert distinct.tolist() == want_distinct

    @pytest.mark.parametrize("pairs", [
        [(0, 1)],  # one interval
        [(4, 9)] * 5,  # one pair, over and over
        [(3732, 3733), (0, 3733), (3732, 3733), (0, 1)],  # the largest ids
    ])
    def test_edge_cases_match_unique(self, pairs):
        self.assert_matches_unique(pairs)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), top=st.sampled_from([1, 2, 7, 3733, 2**20, 2**31 + 5]))
    def test_matches_unique(self, data, top):
        # ids right under the largest one, or from anywhere below it, with repeats
        ids = st.integers(max(0, top - 3), top) | st.integers(0, top)
        pair = st.tuples(ids, ids).filter(lambda p: p[0] != p[1]).map(sorted)
        pairs = data.draw(st.lists(pair, min_size=1, max_size=40))
        self.assert_matches_unique(pairs + data.draw(st.lists(st.sampled_from(pairs), max_size=10)))

    def test_cache_follows_the_history_length(self):
        history = ContactHistory([(2, 5, 0.0, 1.0)])
        state = history_state(history)
        first = _history_pairs(state)
        assert _history_pairs(state)[0] is first[0]
        history.extend((1, 3, 0.0, 1.0))
        pair_of, distinct = _history_pairs(state)
        assert pair_of.tolist() == [1, 0] and distinct.tolist() == [[1, 3], [2, 5]]

    def test_traced_peak_on_a_benchmark_sized_history(self):
        # as many intervals as the accept1_kp benchmark's program seed 1
        # logs (131,868), between its 3,734 devices; the index and its
        # temporaries stay within 4 MiB, about 32 bytes an interval
        n, devices = 131_868, 3734
        rng = np.random.default_rng(3)
        i = rng.integers(0, devices - 1, n)
        j = i + 1 + (rng.integers(0, devices, n) % (devices - 1 - i))
        u = rng.uniform(0.0, 2000.0, n)
        cols = np.column_stack((i, j, u, u + rng.uniform(0.0, 60.0, n)))
        history = ContactHistory()
        history.data.frombytes(cols.tobytes())
        state = history_state(history)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pair_of, distinct = _history_pairs(state)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        want_of, want_distinct = self.unique_index(np.column_stack((i, j)))
        assert pair_of.tolist() == want_of
        assert distinct.tolist() == want_distinct
        assert peak <= 4 * 2**20


class TestHistoryFile:
    HEADER = b"pair_i,pair_j,u,w\r\n"

    def test_empty_history_is_header_only(self, tmp_path):
        _write_history(tmp_path / "h.csv", ContactHistory())
        assert (tmp_path / "h.csv").read_bytes() == self.HEADER

    def test_ties_and_duplicates_in_sorted_order(self, tmp_path):
        rows = [
            (10, 11, 5.0, 6.0), (2, 11, 5.0, 6.0), (2, 10, 0.30000000000000004, 7.0),
            (2, 10, 0.3, 7.0), (2, 10, 0.3, 6.5), (2, 10, 0.3, 7.0), (2, 3, 1e-300, 2e300),
            (2, 10, 0.3, 7.0), (9, 10, 0.0, 1.0), (10, 11, 5.0, 6.0), (9, 10, -0.0, 9.0),
            (9, 10, 0.5, 0.75),
        ]
        _write_history(tmp_path / "h.csv", ContactHistory(rows))
        want = self.HEADER + b"".join(f"{i},{j},{u!r},{w!r}\r\n".encode()
                                      for i, j, u, w in sorted(rows))
        assert (tmp_path / "h.csv").read_bytes() == want

    def test_rows_across_chunks(self, tmp_path):
        rng = np.random.default_rng(7)
        n = 2 * HISTORY_CHUNK_ROWS + 1
        u = rng.choice([0.0, 1.0, 2.5], n) + rng.integers(0, 2, n) * rng.random(n)
        rows = [(int(i), int(i) + 1 + int(k), float(a), float(a) + 1.0)
                for i, k, a in zip(rng.integers(0, 50, n), rng.integers(0, 3, n), u)]
        _write_history(tmp_path / "h.csv", ContactHistory(rows))
        lines = (tmp_path / "h.csv").read_bytes().split(b"\r\n")
        assert lines[1:-1] == [f"{i},{j},{u!r},{w!r}".encode() for i, j, u, w in sorted(rows)]

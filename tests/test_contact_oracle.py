"""The event engine's whole contact history against the event-free oracle
in ``contact_oracle.py``: the same (i, j) multiset of intervals, endpoints
within 1e-9 s, and the same connection graph."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from streetsim.config import build_seed_state, parse_config
from streetsim.engine import initialize, run
from streetsim.streets import StreetPosition

from conftest import make_device, make_graph
from contact_oracle import assert_matches_engine, contact_oracle
from heap_reference import heap_merge, replayed_events, scheduled
from test_engine_golden import GOLDEN_CASES, GOLDEN_IDS, golden_run

ROOT = Path(__file__).resolve().parent.parent


def engine_and_oracle(g, devices, r, rho, T):
    state = initialize(g, [d.clone() for d in devices], r=r, rho=rho, T=T)
    run(state)
    return state, contact_oracle(g, devices, r, rho, T)


def sweep_run(cfg, seed):
    """One seed simulated as a velocity sweep simulates it."""
    g, devices, _ = build_seed_state(cfg, seed)
    T = max(cfg.sweep.values) * max(cfg.T_s)
    return engine_and_oracle(g, devices, cfg.r_m, cfg.rho_s, T)


@pytest.mark.parametrize("kernel, velocity, seed", [c[:3] for c in GOLDEN_CASES], ids=GOLDEN_IDS)
def test_golden_cases(kernel, velocity, seed):
    state, devices = golden_run(kernel, velocity, seed)
    assert_matches_engine(state, contact_oracle(state.graph, devices, state.r, state.rho, state.T))


def test_desk_seed():
    cfg = parse_config(json.loads((ROOT / "figures" / "in_out_desk.json").read_text()))
    state, oracle = sweep_run(cfg, 1)
    assert len(state.history) > 40_000
    assert_matches_engine(state, oracle)


@pytest.mark.slow
def test_acceptance_1_seed():
    cfg = parse_config({
        "torus_side_m": 3000.0, "street_intensity_km_per_km2": 20.0,
        "lambda_per_km": 20.0, "r_m": 20.0, "rho_s": 10.0, "T_s": 270.0,
        "kernel": {"kappa_prime": {"R_m": 300.0}},
        "velocity": {"normal_plus": {"mean_mps": 1.0, "std_mps": 0.2}},
        "sweep": {"parameter": "velocity_scale", "values": [0.3, 8.0]},
        "seeds": [1], "outputs": {"csv_path": "in_out.csv"},
    })
    state, oracle = sweep_run(cfg, 1)
    assert len(state.history) > 100_000
    assert_matches_engine(state, oracle)


# -- tiny hand-built graphs -----------------------------------------------------

# r and rho are not sums of the dyadic distances and times below, so no
# contact starts, ends or lasts exactly on a decision boundary
R, RHO = 13.7, 2.9

TINY_GRAPHS = {
    # a square with a diagonal, and a second street parallel to 0-1
    "square": ({0: (0.0, 0.0), 1: (40.0, 0.0), 2: (40.0, 40.0), 3: (0.0, 40.0)},
               [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (0, 1)]),
    # a triangle whose sides 1-2 come twice
    "triangle": ({0: (0.0, 0.0), 1: (50.0, 0.0), 2: (25.0, 40.0)},
                 [(0, 1), (1, 2), (2, 0), (1, 2)]),
    # three streets in a row, the middle one short
    "line": ({0: (0.0, 0.0), 1: (30.0, 0.0), 2: (40.0, 0.0), 3: (80.0, 0.0)},
             [(0, 1), (1, 2), (2, 3)]),
}


def tiny_graph(name):
    verts, edges = TINY_GRAPHS[name]
    return make_graph(500.0, verts, edges)


def on_street(g, eid, p):
    e = g.edges[eid]
    return StreetPosition(eid, e.u, e.v, p)


def commute_length(g, path):
    lengths = [g.edges[eid].length for eid in path.streets]
    if len(lengths) == 1:
        return (path.end.p - path.start.p) * lengths[0]
    return (1.0 - path.start.p) * lengths[0] + sum(lengths[1:-1]) + path.end.p * lengths[-1]


@st.composite
def tiny_runs(draw):
    name = draw(st.sampled_from(sorted(TINY_GRAPHS)))
    g = tiny_graph(name)
    streets = st.sampled_from(sorted(g.edges))
    # crossings (p = 0, 1) and simple fractions make simultaneous events
    fractions = st.sampled_from([0.0, 1.0, 0.25, 0.5]) | st.floats(0.0, 1.0)
    # repeated speeds make equal speeds and simultaneous events
    speeds = st.sampled_from([1.0, 2.0]) | st.floats(0.5, 3.0)
    devices = []
    for did in range(draw(st.integers(2, 6))):
        home = on_street(g, draw(streets), draw(fractions))
        if draw(st.integers(0, 4)) == 0:
            dest = home
        else:
            dest = on_street(g, draw(streets), draw(fractions))
        d = make_device(did, g, home, dest, draw(speeds))
        # a moving commute of length (nearly) zero turns (nearly) forever
        assume(d.path.is_stationary or commute_length(g, d.path) > 1.0)
        devices.append(d)
    T = draw(st.sampled_from([40.0, 97.3]))  # events can fall exactly on T = 40
    return g, devices, T


@settings(max_examples=150, deadline=None)
@given(tiny_runs())
def test_tiny_graphs(case):
    g, devices, T = case
    assert_matches_engine(*engine_and_oracle(g, devices, R, RHO, T))


@settings(max_examples=100, deadline=None)
@given(tiny_runs())
def test_schedule_is_the_replay_merged_by_a_heap(case):
    # each device's events are the oracle's replay of its commute, and they
    # fire in the order a rescheduling heap pops them
    g, devices, T = case
    state = initialize(g, [d.clone() for d in devices], r=R, rho=RHO, T=T)
    replay = {d.id: replayed_events(d, g, T) for d in devices}
    counts = np.bincount(state.routes.device[state.event_legs], minlength=len(devices))
    assert counts.tolist() == [len(replay[d.id]) for d in devices]
    assert scheduled(state) == heap_merge(replay)


def test_simultaneous_arrivals_at_a_crossing():
    # both reach crossing 1 at t = 10 from streets 0 and 1 and go on along 2
    g = tiny_graph("line")
    a = make_device(0, g, on_street(g, 0, 0.5), on_street(g, 2, 0.75), 1.5)
    b = make_device(1, g, on_street(g, 1, 1.0), on_street(g, 2, 0.5), 1.5)
    c = make_device(2, g, on_street(g, 1, 0.0), on_street(g, 0, 0.5), 1.0)
    state, oracle = engine_and_oracle(g, [a, b, c], R, RHO, 60.0)
    assert any(h[:2] == (0, 1) for h in state.history)
    assert_matches_engine(state, oracle)


def test_reversal_at_a_crossing():
    # device 0's destination is crossing 2, the start of street 2: it enters
    # street 2, turns and leaves it at one instant
    g = tiny_graph("line")
    a = make_device(0, g, on_street(g, 0, 0.5), on_street(g, 2, 0.0), 1.0)
    b = make_device(1, g, on_street(g, 1, 0.5), on_street(g, 1, 0.5), 1.0)
    c = make_device(2, g, on_street(g, 2, 0.1), on_street(g, 2, 0.1), 1.0)
    state, oracle = engine_and_oracle(g, [a, b, c], R, RHO, 97.3)
    assert_matches_engine(state, oracle)


def test_equal_speeds_on_parallel_streets():
    # 0 and 1 follow each other at one speed (c_max = inf) along street 0
    # until 1 leaves it at t = 32;
    # 2 takes the parallel street 5 between the same crossings
    g = tiny_graph("square")
    a = make_device(0, g, on_street(g, 0, 0.0), on_street(g, 1, 0.5), 1.0)
    b = make_device(1, g, on_street(g, 0, 0.2), on_street(g, 1, 0.75), 1.0)
    c = make_device(2, g, on_street(g, 5, 0.1), on_street(g, 5, 0.9), 1.0)
    state, oracle = engine_and_oracle(g, [a, b, c], R, RHO, 97.3)
    assert (0, 1, 0.0, 32.0) in state.history
    assert_matches_engine(state, oracle)


def test_home_and_destination_on_one_street():
    # 0 walks back and forth on street 0 past the stationary 1
    g = tiny_graph("square")
    a = make_device(0, g, on_street(g, 0, 0.1), on_street(g, 0, 0.9), 1.0)
    b = make_device(1, g, on_street(g, 0, 0.5), on_street(g, 0, 0.5), 1.0)
    state, oracle = engine_and_oracle(g, [a, b], R, RHO, 97.3)
    assert len(state.history) >= 3
    assert_matches_engine(state, oracle)


def test_minimum_gaps():
    # 0 walks x = 4 -> 36 and back past the stationary 1 at x = 20, never
    # reaching 2 at x = 38; 3 is alone on street 1
    g = tiny_graph("square")
    walker = make_device(0, g, on_street(g, 0, 0.1), on_street(g, 0, 0.9), 1.0)
    still = make_device(1, g, on_street(g, 0, 0.5), on_street(g, 0, 0.5), 1.0)
    far = make_device(2, g, on_street(g, 0, 0.95), on_street(g, 0, 0.95), 1.0)
    alone = make_device(3, g, on_street(g, 1, 0.5), on_street(g, 1, 0.5), 1.0)
    gaps = contact_oracle(g, [walker, still, far, alone], R, RHO, 97.3).closest_gap
    assert gaps == {(0, 1): 0.0, (0, 2): 2.0, (1, 2): 18.0}

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import streetsim.engine as engine
from streetsim.config import build_seed_state, parse_config
from streetsim.engine import (
    ContactHistory,
    EventKind,
    SimulationState,
    compute_contact_interval,
    derived_connection_graph,
    initialize,
    merge_reversal_interval,
    run,
)
from streetsim.mobility import Device, Path, RuntimeInvariantError, assign_commute
from streetsim.streets import StreetPosition

from conftest import make_device, make_graph
from heap_reference import KINDS, heap_merge, replayed_events, scheduled


def two_device_scenario(T=120.0, r=20.0, rho=10.0):
    """100 m street; A and B start at opposite ends, walk toward each other
    at 1 m/s, turn around at the far end.  Contact interval is [40, 60]."""
    g = make_graph(500.0, {0: (0.0, 0.0), 1: (100.0, 0.0)}, [(0, 1)])
    A = make_device(0, g, StreetPosition(0, 0, 1, 0.0), StreetPosition(0, 0, 1, 1.0), 1.0)
    B = make_device(1, g, StreetPosition(0, 1, 0, 0.0), StreetPosition(0, 1, 0, 1.0), 1.0)
    state = initialize(g, [A, B], r=r, rho=rho, T=T)
    return g, state


class TestContactInterval:
    def test_head_on_forty_sixty(self, single_street_graph):
        g = single_street_graph
        A = make_device(0, g, StreetPosition(0, 0, 1, 0.0), StreetPosition(0, 0, 1, 1.0), 1.0)
        B = make_device(1, g, StreetPosition(0, 1, 0, 0.0), StreetPosition(0, 1, 0, 1.0), 1.0)
        interval = compute_contact_interval(A, B, g.edges[0], 0.0, 20.0)
        assert interval == (40.0, 60.0)

    def test_parallel_in_contact_forever(self, single_street_graph):
        g = single_street_graph
        A = make_device(0, g, StreetPosition(0, 0, 1, 0.10), StreetPosition(0, 0, 1, 1.0), 1.0)
        B = make_device(1, g, StreetPosition(0, 0, 1, 0.15), StreetPosition(0, 0, 1, 1.0), 1.0)
        interval = compute_contact_interval(A, B, g.edges[0], 0.0, 20.0)
        assert interval == (0.0, math.inf)

    def test_parallel_never_in_contact(self, single_street_graph):
        g = single_street_graph
        A = make_device(0, g, StreetPosition(0, 0, 1, 0.0), StreetPosition(0, 0, 1, 1.0), 1.0)
        B = make_device(1, g, StreetPosition(0, 0, 1, 0.5), StreetPosition(0, 0, 1, 1.0), 1.0)
        assert compute_contact_interval(A, B, g.edges[0], 0.0, 20.0) is None

    def test_contact_entirely_in_past_is_none(self, single_street_graph):
        g = single_street_graph
        A = make_device(0, g, StreetPosition(0, 0, 1, 0.0), StreetPosition(0, 0, 1, 1.0), 1.0)
        B = make_device(1, g, StreetPosition(0, 1, 0, 0.0), StreetPosition(0, 1, 0, 1.0), 1.0)
        # by t=70 the devices have passed each other and are 40 m apart
        assert compute_contact_interval(A, B, g.edges[0], 70.0, 20.0) is None

    def test_different_streets_rejected(self):
        g = make_graph(500.0, {0: (0, 0), 1: (100, 0), 2: (100, 100)}, [(0, 1), (1, 2)])
        A = make_device(0, g, StreetPosition(0, 0, 1, 0.5), StreetPosition(0, 0, 1, 1.0), 1.0)
        B = make_device(1, g, StreetPosition(1, 1, 2, 0.5), StreetPosition(1, 1, 2, 1.0), 1.0)
        with pytest.raises(RuntimeInvariantError):
            compute_contact_interval(A, B, g.edges[0], 0.0, 20.0)

    def test_matches_time_sampling_oracle(self, rng):
        # analytic interval endpoints within one 1e-3 s step of a brute-force scan
        g = make_graph(500.0, {0: (0.0, 0.0), 1: (120.0, 0.0)}, [(0, 1)])
        street = g.edges[0]
        r = 15.0
        step = 1e-3
        for k in range(300):
            pa, pb = rng.uniform(size=2)
            va, vb = rng.uniform(0.5, 3.0, size=2)
            da = 1 if rng.uniform() < 0.5 else -1
            db = 1 if rng.uniform() < 0.5 else -1
            if k % 10 == 0:
                vb, db = va, da  # zero relative speed degeneracies
            A = Device(0, StreetPosition(0, 0, 1, pa) if da > 0 else StreetPosition(0, 1, 0, 1 - pa),
                       0.0, va, None, None)
            B = Device(1, StreetPosition(0, 0, 1, pb) if db > 0 else StreetPosition(0, 1, 0, 1 - pb),
                       0.0, vb, None, None)
            A.path = Path(A.pos, (), StreetPosition(0, A.pos.v1, A.pos.v2, 1.0), (0,))
            B.path = Path(B.pos, (), StreetPosition(0, B.pos.v1, B.pos.v2, 1.0), (0,))
            interval = compute_contact_interval(A, B, street, 0.0, r)
            # scan until either device would exit the street
            t_exit_a = (1.0 - A.pos.p) * street.length / va
            t_exit_b = (1.0 - B.pos.p) * street.length / vb
            horizon = min(t_exit_a, t_exit_b)
            ts = np.arange(0.0, horizon, step)
            xa = pa * street.length + da * va * ts
            xb = pb * street.length + db * vb * ts
            hit = np.abs(xa - xb) <= r
            if not hit.any():
                if interval is not None:
                    lo, hi = interval
                    assert min(hi, horizon) - lo <= 2 * step or lo >= horizon
                continue
            first = ts[hit.argmax()]
            last = ts[len(hit) - 1 - hit[::-1].argmax()]
            assert interval is not None
            lo, hi = interval
            assert abs(lo - first) <= step or (lo == 0.0 and first == 0.0)
            assert min(hi, horizon) >= last - step


class TestConnectionRule:
    """The rule min(w, T') - u > rho' on a history of one contact [40, 60]."""

    @staticmethod
    def connected(T2, rho2):
        g = make_graph(500.0, {0: (0.0, 0.0), 1: (100.0, 0.0)}, [(0, 1)])
        state = SimulationState(graph=g, devices=dict.fromkeys((0, 1)), r=20.0, rho=rho2,
                                T=60.0, history=ContactHistory([(0, 1, 40.0, 60.0)]))
        return derived_connection_graph(state, T2, rho2).edges == frozenset({(0, 1)})

    def test_established_when_elapsed_exceeds_rho(self):
        assert self.connected(55.0, 10.0)

    def test_not_established_too_early(self):
        assert not self.connected(45.0, 10.0)

    def test_zero_rho_needs_strictly_positive_elapsed(self):
        assert not self.connected(40.0, 0.0)
        assert self.connected(40.5, 0.0)


def traced_run(state, hook=None):
    """Run ``state`` and return the trace as (time, kind, device) tuples;
    ``hook``, if given, is called after each record."""
    seen = []

    def record(ev, st):
        seen.append(tuple(ev))
        if hook is not None:
            hook(ev, st)

    state.trace = record
    run(state)
    return seen


class TestQueueAndInit:
    def test_crossing_event_time(self):
        g = make_graph(500.0, {0: (0, 0), 1: (200, 0), 2: (200, 100)}, [(0, 1), (1, 2)])
        d = make_device(0, g, StreetPosition(0, 0, 1, 0.25), StreetPosition(1, 1, 2, 0.9), 2.0)
        state = initialize(g, [d], r=5.0, rho=1.0, T=300.0)
        assert scheduled(state)[0] == (75.0, EventKind.REACH_CROSSING, 0)

    def test_destination_event_time_same_street(self):
        g = make_graph(500.0, {0: (0, 0), 1: (200, 0)}, [(0, 1)])
        d = make_device(0, g, StreetPosition(0, 0, 1, 0.25), StreetPosition(0, 0, 1, 0.75), 2.0)
        state = initialize(g, [d], r=5.0, rho=1.0, T=300.0)
        assert scheduled(state)[0] == (50.0, EventKind.REACH_DESTINATION, 0)

    def test_finish_event_present(self):
        # the schedule holds movement events only; FINISH and GLOBAL_UPDATE
        # are the close-out's two records, the last the trace hook sees
        g, state = two_device_scenario(T=300.0)
        assert scheduled(state)[:2] == [(100.0, EventKind.REACH_DESTINATION, 0),
                                        (100.0, EventKind.REACH_DESTINATION, 1)]
        seen = traced_run(state)
        assert seen[-2:] == [(300.0, EventKind.FINISH, None),
                             (300.0, EventKind.GLOBAL_UPDATE, None)]
        assert {kind for _, kind, _ in seen[:-2]} == {EventKind.REACH_DESTINATION}

    def test_stationary_devices_contribute_no_events(self, single_street_graph):
        g = single_street_graph
        home = StreetPosition(0, 0, 1, 0.5)
        d = make_device(0, g, home, home, 1.0)
        assert not d.moving
        state = initialize(g, [d], r=5.0, rho=1.0, T=100.0)
        assert scheduled(state) == []

    @pytest.mark.parametrize("did", [-1, 2**30])
    def test_rejects_device_ids_outside_the_event_codes(self, did, single_street_graph):
        # ids must fit the int32 device column of the route table, with room
        d = make_device(did, single_street_graph, StreetPosition(0, 0, 1, 0.0),
                        StreetPosition(0, 0, 1, 1.0), 1.0)
        with pytest.raises(ValueError, match="outside"):
            initialize(single_street_graph, [d], r=5.0, rho=1.0, T=10.0)

    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_horizon_outside_zero_to_inf(self, T, single_street_graph):
        d = make_device(0, single_street_graph, StreetPosition(0, 0, 1, 0.0),
                        StreetPosition(0, 0, 1, 1.0), 1.0)
        with pytest.raises(ValueError, match="time horizon must be positive"):
            initialize(single_street_graph, [d], r=5.0, rho=1.0, T=T)

    @pytest.mark.parametrize("r, rho", [(5.0, -1.0), (5.0, math.nan), (math.inf, 1.0)])
    def test_rejects_negative_or_non_finite_r_and_rho(self, r, rho, single_street_graph):
        # the only inputs where the history's rule could part from the rule
        # applied when each contact stops
        d = make_device(0, single_street_graph, StreetPosition(0, 0, 1, 0.0),
                        StreetPosition(0, 0, 1, 1.0), 1.0)
        with pytest.raises(ValueError):
            initialize(single_street_graph, [d], r=r, rho=rho, T=10.0)

    def test_same_instant_kind_order(self):
        # at t = 50 device 0 reaches its destination and device 1 a crossing;
        # the crossing fires first although its device id is the larger
        g = make_graph(500.0, {0: (0, 0), 1: (100, 0), 2: (100, 80)}, [(0, 1), (1, 2)])
        d0 = make_device(0, g, StreetPosition(0, 0, 1, 0.0), StreetPosition(0, 0, 1, 0.5), 1.0)
        d1 = make_device(1, g, StreetPosition(0, 0, 1, 0.5), StreetPosition(1, 1, 2, 0.5), 1.0)
        seen = traced_run(initialize(g, [d0, d1], r=5.0, rho=1.0, T=60.0))
        assert [ev for ev in seen if ev[0] == 50.0] == [
            (50.0, EventKind.REACH_CROSSING, 1), (50.0, EventKind.REACH_DESTINATION, 0)]

    def test_tie_break_by_device_id(self):
        # devices 9 and 2 both reach crossing 1 at t = 50
        g = make_graph(500.0, {0: (0, 0), 1: (100, 0), 2: (100, 80)}, [(0, 1), (1, 2)])
        d9 = make_device(9, g, StreetPosition(0, 0, 1, 0.5), StreetPosition(1, 1, 2, 0.5), 1.0)
        d2 = make_device(2, g, StreetPosition(0, 0, 1, 0.0), StreetPosition(1, 1, 2, 0.5), 2.0)
        seen = traced_run(initialize(g, [d9, d2], r=5.0, rho=1.0, T=60.0))
        assert [ev for ev in seen if ev[0] == 50.0] == [
            (50.0, EventKind.REACH_CROSSING, 2), (50.0, EventKind.REACH_CROSSING, 9)]


@st.composite
def device_sequences(draw):
    """Events (time, kind) of a few devices, each in its own order, with
    many equal times: zero steps, and steps that meet other devices' times."""
    steps = st.sampled_from([0.0, 0.0, 0.5, 1.0]) | st.floats(0.0, 2.0)
    sequences = {}
    for did in draw(st.lists(st.integers(0, 1000), min_size=1, max_size=8, unique=True)):
        t, seq = 0.0, []
        for dt, kind in draw(st.lists(st.tuples(steps, st.sampled_from(KINDS)), max_size=12)):
            t += dt
            seq.append((t, kind))
        sequences[did] = seq
    return sequences


class TestSchedule:
    """The presorted schedule fires events in the order of a heap that holds
    each device's next event, rescheduled as its previous one fires."""

    @settings(max_examples=300, deadline=None)
    @given(device_sequences(), st.randoms(use_true_random=False))
    def test_firing_order_is_the_heap_merge(self, sequences, rnd):
        # devices may come in any order, each one's events contiguous
        order = list(sequences)
        rnd.shuffle(order)
        times = np.array([t for did in order for t, _ in sequences[did]], dtype=float)
        codes = np.array([2 * did + (kind == EventKind.REACH_DESTINATION)
                          for did in order for _, kind in sequences[did]], dtype=np.intc)
        # each event ends a leg of its own
        legs = np.arange(len(codes), dtype=np.intc)
        fired = codes[engine._firing_order(times, legs, codes >> 1, (codes & 1).astype(bool))]
        assert [(t, KINDS[c & 1], c >> 1) for t, c in zip(times.tolist(), fired.tolist())] \
            == heap_merge(sequences)

    def test_zero_duration_chain(self):
        # at t = 25 device 1 crosses onto street 2, reaches its destination
        # at that street's start, turns and crosses back, all at one instant;
        # 0 and 3 reach destinations and 2 a crossing at the same instant
        g = make_graph(500.0, {0: (0.0, 0.0), 1: (30.0, 0.0), 2: (40.0, 0.0), 3: (80.0, 0.0)},
                       [(0, 1), (1, 2), (2, 3)])
        devices = [
            make_device(0, g, StreetPosition(2, 2, 3, 0.125), StreetPosition(2, 2, 3, 0.75), 1.0),
            make_device(1, g, StreetPosition(0, 0, 1, 0.5), StreetPosition(2, 2, 3, 0.0), 1.0),
            make_device(2, g, StreetPosition(2, 2, 3, 0.625), StreetPosition(1, 1, 2, 0.5), 1.0),
            make_device(3, g, StreetPosition(2, 2, 3, 0.875), StreetPosition(2, 2, 3, 0.25), 1.0),
        ]
        reference = heap_merge({d.id: replayed_events(d, g, 60.0) for d in devices})
        state = initialize(g, [d.clone() for d in devices], r=5.0, rho=1.0, T=60.0)
        assert scheduled(state) == reference
        crossing, destination = KINDS
        assert [ev for ev in reference if ev[0] == 25.0] == [
            (25.0, crossing, 1), (25.0, crossing, 2), (25.0, destination, 0),
            (25.0, destination, 1), (25.0, crossing, 1), (25.0, destination, 3)]
        assert traced_run(state)[:-2] == reference

    def test_rows_wider_than_a_block(self, monkeypatch):
        # a device's times added in several segments, carried across them
        g, state = two_device_scenario(T=5000.0)
        monkeypatch.setattr(engine, "_BLOCK_CELLS", 4)
        g, narrow = two_device_scenario(T=5000.0)
        assert len(narrow.event_times) == 100
        assert scheduled(narrow) == scheduled(state)


class TestEventBudget:
    """initialize counts the events before it allocates their schedule."""

    def test_commute_a_few_ulps_long(self):
        # home an ulp before crossing 1, destination at crossing 1 on the
        # next street: 1.1e-14 m, and events without end
        g = make_graph(500.0, {0: (0, 0), 1: (100, 0), 2: (200, 0), 3: (300, 0)},
                       [(0, 1), (1, 2), (2, 3)])
        d = make_device(0, g, StreetPosition(0, 0, 1, 0.9999999999999999),
                        StreetPosition(1, 1, 2, 0.0), 1.0)
        assert d.moving
        with pytest.raises(RuntimeInvariantError,
                           match=r"device 0 would fire 7\.\d+e\+16 events .* commute of 1\.1\d*e-14 m"):
            initialize(g, [d], r=20.0, rho=5.0, T=400.0)

    def test_nanometre_commute(self, single_street_graph):
        g = single_street_graph
        d = make_device(0, g, StreetPosition(0, 0, 1, 0.5), StreetPosition(0, 0, 1, 0.5 + 1e-11), 1.0)
        with pytest.raises(RuntimeInvariantError,
                           match=r"device 0 would fire 1e\+11 events .* commute of 1\.0\d*e-09 m"):
            initialize(g, [d], r=20.0, rho=5.0, T=100.0)

    def test_names_the_device_with_most_events(self, monkeypatch):
        # device 1 turns every 10 s, device 0 every 100 s: 30 and 3 events
        # by T = 300, counted as 32 and 5, up to one round trip to spare
        g = make_graph(500.0, {0: (0.0, 0.0), 1: (100.0, 0.0)}, [(0, 1)])
        devices = [
            make_device(0, g, StreetPosition(0, 0, 1, 0.0), StreetPosition(0, 0, 1, 1.0), 1.0),
            make_device(1, g, StreetPosition(0, 0, 1, 0.5), StreetPosition(0, 0, 1, 0.6), 1.0),
        ]
        monkeypatch.setattr(engine, "MAX_EVENTS", 36)
        with pytest.raises(RuntimeInvariantError, match=r"device 1 would fire 32 events .* "
                                                        r"the run's 37 events exceed MAX_EVENTS = 36"):
            initialize(g, [d.clone() for d in devices], r=5.0, rho=1.0, T=300.0)
        monkeypatch.setattr(engine, "MAX_EVENTS", 37)
        state = initialize(g, [d.clone() for d in devices], r=5.0, rho=1.0, T=300.0)
        assert np.bincount(state.routes.device[state.event_legs]).tolist() == [3, 30]


class TestMergeRule:
    def test_turn_inside_contact_keeps_left_endpoint(self):
        assert merge_reversal_interval((40.0, 60.0), (30.0, 55.0), 50.0) == (40.0, 55.0)

    def test_turn_outside_contact_adopts_new_interval(self):
        assert merge_reversal_interval((40.0, 60.0), (70.0, 90.0), 65.0) == (70.0, 90.0)

    def test_new_interval_in_past_drops_edge(self):
        assert merge_reversal_interval((40.0, 60.0), (10.0, 30.0), 65.0) is None

    def test_no_future_contact(self):
        assert merge_reversal_interval((40.0, 60.0), None, 65.0) is None


def assert_occupancy_matches_positions(st):
    """Every street's occupancy set is exactly the devices positioned on it."""
    expected = {eid: set() for eid in st.graph.edges}
    for did, d in st.devices.items():
        expected[d.pos.street].add(did)
    assert st.occupancy == expected


class TestHandlers:
    def test_crossing_bookkeeping_no_neighbors(self):
        g = make_graph(500.0, {0: (0, 0), 1: (100, 0), 2: (100, 80)}, [(0, 1), (1, 2)])
        d = make_device(0, g, StreetPosition(0, 0, 1, 0.5), StreetPosition(1, 1, 2, 0.5), 1.0)
        state = initialize(g, [d], r=5.0, rho=1.0, T=300.0)
        cg = run(state)
        assert cg.edges == frozenset()
        # device ends up registered on exactly one street
        membership = [eid for eid, ids in state.occupancy.items() if 0 in ids]
        assert len(membership) == 1

    def test_co_street_connection_retained_on_exit(self):
        # continuation of the [40, 60] scenario: A exits at t=100 with 20 s
        # of elapsed contact, rho=10 -> connection established and kept
        g, state = two_device_scenario(T=120.0, rho=10.0)
        events = []

        def check(ev, st):
            assert_occupancy_matches_positions(st)
            events.append(ev.kind)

        state.trace = check
        cg = run(state)
        assert cg.edges == frozenset({(0, 1)})
        assert EventKind.REACH_DESTINATION in events
        assert_occupancy_matches_positions(state)

    def test_co_street_edge_dropped_without_connection(self):
        # rho=25 exceeds the 20 s contact: no edge survives
        g, state = two_device_scenario(T=120.0, rho=25.0)
        cg = run(state)
        assert cg.edges == frozenset()

    def test_reversal_merges_ongoing_contact(self):
        # stationary B at x=100 (dyadic positions); A walks from 0, turns at
        # x=90 inside the contact: [80, 120] merges to [80, 100] at the turn
        g = make_graph(500.0, {0: (0.0, 0.0), 1: (320.0, 0.0)}, [(0, 1)])
        A = make_device(0, g, StreetPosition(0, 0, 1, 0.0), StreetPosition(0, 0, 1, 0.28125), 1.0)
        B = make_device(1, g, StreetPosition(0, 0, 1, 0.3125), StreetPosition(0, 0, 1, 0.3125), 1.0)
        assert not B.moving
        state = initialize(g, [A, B], r=20.0, rho=10.0, T=150.0)
        cg = run(state)
        assert cg.edges == frozenset({(0, 1)})
        assert (0, 1, 80.0, 100.0) in [tuple(h) for h in state.history]

    def test_reversal_contact_too_short_for_rho(self):
        g = make_graph(500.0, {0: (0.0, 0.0), 1: (320.0, 0.0)}, [(0, 1)])
        A = make_device(0, g, StreetPosition(0, 0, 1, 0.0), StreetPosition(0, 0, 1, 0.28125), 1.0)
        B = make_device(1, g, StreetPosition(0, 0, 1, 0.3125), StreetPosition(0, 0, 1, 0.3125), 1.0)
        state = initialize(g, [A, B], r=20.0, rho=25.0, T=150.0)
        cg = run(state)
        assert cg.edges == frozenset()

    def test_solitary_reversal_timing(self):
        g = make_graph(500.0, {0: (0, 0), 1: (100, 0), 2: (100, 80)}, [(0, 1), (1, 2)])
        d = make_device(0, g, StreetPosition(0, 0, 1, 0.5), StreetPosition(1, 1, 2, 0.5), 1.0)
        state = initialize(g, [d], r=5.0, rho=1.0, T=300.0)
        times = []
        state.trace = lambda ev, st: times.append((ev.time, ev.kind))
        run(state)
        # 50 m to the crossing, 40 m into street 1 (t=90), back at the
        # crossing t=130, home (50 m in) at t=180, turn again...
        assert (50.0, EventKind.REACH_CROSSING) in times
        assert (90.0, EventKind.REACH_DESTINATION) in times
        assert (130.0, EventKind.REACH_CROSSING) in times
        assert (180.0, EventKind.REACH_DESTINATION) in times

    def test_global_update_mid_contact_establishes(self):
        # the close-out at T applies the rule to the running [40, 60]
        # contact: 11 s elapsed at T = 51 exceeds rho = 10, 9 s at T = 49 not
        _, state = two_device_scenario(T=51.0, rho=10.0)
        assert run(state).edges == frozenset({(0, 1)})
        _, state = two_device_scenario(T=49.0, rho=10.0)
        assert run(state).edges == frozenset()

    def test_global_update_materializes_positions(self):
        g, state = two_device_scenario(T=80.0)
        checks = []
        state.trace = lambda ev, st: checks.append(
            all(d.time_of_pos <= ev.time for d in st.devices.values()))
        run(state)
        assert checks and all(checks)
        for d in state.devices.values():
            assert d.time_of_pos == 80.0
            assert d.pos.p == 0.8
        assert scheduled(state) == []

    def test_finish_replaces_queue(self):
        # both devices turn at t = 100, after the horizon: nothing is
        # scheduled, and the close-out releases the empty schedule
        g, state = two_device_scenario(T=50.0)
        assert scheduled(state) == []
        assert traced_run(state) == [(50.0, EventKind.FINISH, None),
                                     (50.0, EventKind.GLOBAL_UPDATE, None)]
        assert scheduled(state) == []
        assert all(d.pos.p == 0.5 for d in state.devices.values())

    def test_event_at_horizon_fires_before_close_out(self):
        # both devices turn at exactly T = 100; the turns are traced and
        # handled (the [40, 60] contact settled) before the close-out's two
        # records, and their next turns, at 200, are not scheduled
        g, state = two_device_scenario(T=100.0)
        assert scheduled(state) == [(100.0, EventKind.REACH_DESTINATION, 0),
                                    (100.0, EventKind.REACH_DESTINATION, 1)]
        at_finish = []

        def hook(ev, st):
            if ev.kind == EventKind.FINISH:
                at_finish.append((set(st.established), list(st.history), scheduled(st)))

        seen = traced_run(state, hook)
        assert seen == [(100.0, EventKind.REACH_DESTINATION, 0),
                        (100.0, EventKind.REACH_DESTINATION, 1),
                        (100.0, EventKind.FINISH, None),
                        (100.0, EventKind.GLOBAL_UPDATE, None)]
        assert at_finish == [({(0, 1)}, [(0, 1, 40.0, 60.0)], [])]
        assert scheduled(state) == []


class TestRun:
    def test_zero_devices(self, single_street_graph):
        state = initialize(single_street_graph, [], r=5.0, rho=1.0, T=10.0)
        cg = run(state)
        assert cg.vertices == ()
        assert cg.edges == frozenset()

    def test_zero_length_commute_is_stationary_and_run_returns(self):
        # three streets in a row; home at the end of street 0 and destination
        # at the start of street 1 are the same crossing
        g = make_graph(500.0, {0: (0, 0), 1: (100, 0), 2: (200, 0), 3: (300, 0)},
                       [(0, 1), (1, 2), (2, 3)])
        home = StreetPosition(0, 0, 1, 1.0)
        still = Device(0, home, 0.0, 1.0, None, home)
        walker = Device(1, StreetPosition(2, 3, 2, 0.5), 0.0, 1.0, None,
                        StreetPosition(2, 3, 2, 0.5))
        assign_commute([still, walker], [StreetPosition(1, 1, 2, 0.0), StreetPosition(0, 1, 0, 0.5)],
                       [1.0, 1.0], g)
        assert not still.moving and still.pos == home
        assert walker.moving
        state = initialize(g, [still, walker], r=20.0, rho=5.0, T=400.0)
        events = []

        def bounded(ev, st):
            events.append(ev)
            assert len(events) < 100, "events without end"

        state.trace = bounded
        assert run(state).edges == frozenset({(0, 1)})
        assert {h[:2] for h in state.history} == {(0, 1)}

    def test_event_times_monotone(self):
        g, state = two_device_scenario(T=240.0)
        times = []
        state.trace = lambda ev, st: times.append(ev.time)
        run(state)
        assert all(t2 >= t1 for t1, t2 in zip(times, times[1:]))

    def test_device_conservation(self, rng):
        cfg = parse_config({
            "torus_side_m": 800.0, "street_intensity_km_per_km2": 20.0,
            "lambda_per_km": 15.0, "r_m": 20.0, "rho_s": 5.0, "T_s": 60.0,
            "kernel": {"kappa_prime": {"R_m": 150.0}},
            "velocity": {"dirac": {"v_mps": 1.5}},
            "seeds": [3], "outputs": {"csv_path": "x.csv"},
        })
        g, devices, _ = build_seed_state(cfg, 3)
        state = initialize(g, devices, r=20.0, rho=5.0, T=60.0)
        n = len(devices)

        def check(ev, st):
            total = sum(len(ids) for ids in st.occupancy.values())
            assert total == n
            assert_occupancy_matches_positions(st)

        state.trace = check
        run(state)

    def test_states_sharing_a_graph_are_independent(self):
        # both states are built before either runs: the graph holds no
        # occupancy, so neither run sees the other's devices
        cfg = parse_config({
            "torus_side_m": 800.0, "street_intensity_km_per_km2": 20.0,
            "lambda_per_km": 15.0, "r_m": 20.0, "rho_s": 5.0, "T_s": 60.0,
            "kernel": {"kappa_prime": {"R_m": 150.0}},
            "velocity": {"dirac": {"v_mps": 1.5}},
            "seeds": [3], "outputs": {"csv_path": "x.csv"},
        })
        g, devices, _ = build_seed_state(cfg, 3)
        alone = initialize(g, [d.clone() for d in devices], r=20.0, rho=5.0, T=60.0)
        expected = run(alone).edges
        assert expected
        first, second = [initialize(g, [d.clone() for d in devices], r=20.0, rho=5.0, T=60.0)
                         for _ in range(2)]
        for state in (first, second):
            assert run(state).edges == expected
            assert sorted(state.history) == sorted(alone.history)
            assert_occupancy_matches_positions(state)

    def test_orientation_fraction_nondecreasing(self):
        g, state = two_device_scenario(T=240.0)
        last = {}

        def check(ev, st):
            for did, d in st.devices.items():
                key = (did, d.pos.street, d.pos.v1, d.pos.v2)
                if key in last:
                    assert d.pos.p >= last[key] - 1e-12
                last[key] = d.pos.p

        state.trace = check
        run(state)

    def test_close_out_empties_active(self):
        # the [40, 60] contact still runs at T = 51: settled up to T, then dropped
        _, state = two_device_scenario(T=51.0)
        assert state.active
        run(state)
        assert state.active == {}
        assert list(state.history) == [(0, 1, 40.0, 51.0)]

    @pytest.mark.parametrize("seed", [3, 4])
    def test_graph_is_read_from_history(self, seed):
        cfg = parse_config({
            "torus_side_m": 800.0, "street_intensity_km_per_km2": 20.0,
            "lambda_per_km": 20.0, "r_m": 20.0, "rho_s": 5.0, "T_s": 90.0,
            "kernel": {"kappa_prime": {"R_m": 150.0}},
            "velocity": {"normal_plus": {"mean_mps": 1.0, "std_mps": 0.2}},
            "seeds": [seed], "outputs": {"csv_path": "x.csv"},
        })
        g, devices, _ = build_seed_state(cfg, seed)
        state = initialize(g, devices, r=cfg.r_m, rho=cfg.rho_s, T=90.0)
        seen = []
        state.trace = lambda ev, st: seen.append(st.established)
        edges = run(state).edges
        assert edges
        assert edges == derived_connection_graph(state, state.T, state.rho).edges
        assert edges == state.established
        # mid-run the pairs connected so far only grow; the close-out adds
        # the contacts that still run at T
        assert seen[0] == frozenset()
        assert all(a <= b for a, b in zip(seen, seen[1:]))
        assert seen[-1] <= edges

    def test_determinism_bitwise(self):
        results = []
        for _ in range(2):
            g, state = two_device_scenario(T=240.0)
            cg = run(state)
            results.append((cg.edges, tuple(state.history)))
        assert results[0] == results[1]

    def test_determinism_full_pipeline(self):
        cfg = parse_config({
            "torus_side_m": 800.0, "street_intensity_km_per_km2": 20.0,
            "lambda_per_km": 20.0, "r_m": 20.0, "rho_s": 5.0, "T_s": 90.0,
            "kernel": {"kappa_prime": {"R_m": 150.0}},
            "velocity": {"normal_plus": {"mean_mps": 1.0, "std_mps": 0.2}},
            "seeds": [11], "outputs": {"csv_path": "x.csv"},
        })
        outs = []
        for _ in range(2):
            g, devices, _ = build_seed_state(cfg, 11)
            state = initialize(g, devices, r=cfg.r_m, rho=cfg.rho_s, T=90.0)
            outs.append(run(state).edges)
        assert outs[0] == outs[1]


class TestContactHistory:
    def test_two_device_history(self):
        g, state = two_device_scenario(T=120.0)
        run(state)
        assert [tuple(h) for h in state.history] == [(0, 1, 40.0, 60.0)]

    def test_derived_graphs(self):
        g, state = two_device_scenario(T=120.0)
        run(state)
        assert derived_connection_graph(state, 50.0, 5.0).edges == frozenset({(0, 1)})
        assert derived_connection_graph(state, 45.0, 10.0).edges == frozenset()

    def test_rejects_horizon_beyond_simulated(self):
        g, state = two_device_scenario(T=120.0)
        run(state)
        with pytest.raises(ValueError):
            derived_connection_graph(state, 240.0, 5.0)

    def test_edge_set_monotone_in_T_and_rho(self, rng):
        cfg = parse_config({
            "torus_side_m": 800.0, "street_intensity_km_per_km2": 20.0,
            "lambda_per_km": 20.0, "r_m": 20.0, "rho_s": 5.0, "T_s": 120.0,
            "kernel": {"kappa_prime": {"R_m": 150.0}},
            "velocity": {"normal_plus": {"mean_mps": 1.2, "std_mps": 0.24}},
            "seeds": [5], "outputs": {"csv_path": "x.csv"},
        })
        g, devices, _ = build_seed_state(cfg, 5)
        state = initialize(g, devices, r=20.0, rho=5.0, T=120.0)
        run(state)
        prev = None
        for T2 in (30.0, 60.0, 90.0, 120.0):
            edges = derived_connection_graph(state, T2, 5.0).edges
            if prev is not None:
                assert prev <= edges
            prev = edges
        prev = None
        for rho2 in (20.0, 10.0, 5.0, 1.0):
            edges = derived_connection_graph(state, 120.0, rho2).edges
            if prev is not None:
                assert prev <= edges
            prev = edges


class TestScalingRelation:
    @pytest.mark.parametrize("a", [0.5, 2.0])
    def test_velocity_scale_equals_time_scale(self, a, rng):
        cfg = parse_config({
            "torus_side_m": 700.0, "street_intensity_km_per_km2": 20.0,
            "lambda_per_km": 20.0, "r_m": 20.0, "rho_s": 8.0, "T_s": 100.0,
            "kernel": {"kappa_prime": {"R_m": 120.0}},
            "velocity": {"normal_plus": {"mean_mps": 1.0, "std_mps": 0.2}},
            "seeds": [0], "outputs": {"csv_path": "x.csv"},
        })
        for seed in range(5):
            g, devices, _ = build_seed_state(cfg, seed)
            T, rho = 100.0, 8.0
            base = initialize(g, [d.clone() for d in devices], r=20.0, rho=rho,
                              T=max(1.0, a) * T)
            run(base)
            d_graph = derived_connection_graph(base, a * T, a * rho)
            scaled = [d.clone() for d in devices]
            for d in scaled:
                d.velocity *= a
            direct = run(initialize(g, scaled, r=20.0, rho=rho, T=T))
            assert d_graph.edges == direct.edges


def eager_position(path0, velocity, g, t):
    """Independent trajectory reconstruction: fold distance v*t over the
    commute (ping-pong between start and end) and walk the legs."""
    legs = []
    for k, sid in enumerate(path0.streets):
        e = g.edges[sid]
        if path0.n_legs == 1:
            lo, hi = path0.start.p, path0.end.p
        elif k == 0:
            lo, hi = path0.start.p, 1.0
        elif k == path0.n_legs - 1:
            lo, hi = 0.0, path0.end.p
        else:
            lo, hi = 0.0, 1.0
        # orientation of travel on this leg, as (v1, v2) of the stored tuple
        if k == 0:
            v1, v2 = path0.start.v1, path0.start.v2
        elif k == path0.n_legs - 1:
            v1, v2 = path0.end.v1, path0.end.v2
        else:
            v1 = path0.crossings[k - 1]
            v2 = path0.crossings[k]
        legs.append((sid, v1, v2, lo, hi, (hi - lo) * e.length))
    total = sum(leg[5] for leg in legs)
    if total == 0.0:
        sid, v1, v2, lo, hi, _ = legs[0]
        return StreetPosition(sid, v1, v2, lo)
    s = (velocity * t) % (2.0 * total)
    if s > total:
        s = s - total  # distance into the return trip, walked from the end
        legs = [(sid, v2, v1, 1.0 - hi, 1.0 - lo, d) for sid, v1, v2, lo, hi, d in reversed(legs)]
    for sid, v1, v2, lo, hi, d in legs:
        if s <= d or sid == legs[-1][0]:
            e = g.edges[sid]
            frac = lo + (s / e.length if e.length > 0 else 0.0)
            return StreetPosition(sid, v1, v2, min(frac, hi))
        s -= d
    raise AssertionError("walked past the journey end")


class TestLazyUpdateSoundness:
    def test_positions_match_eager_reconstruction(self):
        from streetsim.mobility import position_at, street_coords
        from streetsim.torus import torus_distance

        cfg = parse_config({
            "torus_side_m": 800.0, "street_intensity_km_per_km2": 20.0,
            "lambda_per_km": 15.0, "r_m": 20.0, "rho_s": 5.0, "T_s": 120.0,
            "kernel": {"kappa_prime": {"R_m": 150.0}},
            "velocity": {"normal_plus": {"mean_mps": 1.0, "std_mps": 0.2}},
            "seeds": [21], "outputs": {"csv_path": "x.csv"},
        })
        g, devices, _ = build_seed_state(cfg, 21)
        assert devices
        initial = {d.id: (d.path, d.velocity) for d in devices}
        state = initialize(g, devices, r=20.0, rho=5.0, T=120.0)
        checked = [0]

        def check(ev, st):
            # lazily stored positions brought to ev.time, then the eager
            # reconstructions, all in one street_coords call
            moving = [st.devices[did] for did in sorted(st.devices) if st.devices[did].moving]
            here = [StreetPosition(d.pos.street, d.pos.v1, d.pos.v2,
                                   position_at(d, ev.time, g.edges[d.pos.street].length))
                    for d in moving]
            there = [eager_position(*initial[d.id], g, ev.time) for d in moving]
            xy = street_coords(here + there, g).tolist()
            for a, b in zip(xy[:len(moving)], xy[len(moving):]):
                assert torus_distance(a, b, g.L) < 1e-6
            checked[0] += len(moving)

        state.trace = check
        run(state)
        assert checked[0] > 500

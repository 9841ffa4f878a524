"""The event loop split in two parts, one per strip of streets, the second in
a forked process: bitwise the run of one part, and no process left behind.

Contacts happen only between devices on one street, so a part that owns a
street fires every event that leaves, enters or turns on it, in the same
order as one part would; a crossing between the strips is a leave in one
part and an enter in the other.  The tests compare the exact history
tuples, the derived graph, every device's final position and time and the
occupancy with those of a one-part run of the same input.
"""

import errno
import os

import pytest
from hypothesis import given, settings

import streetsim.engine as engine
from streetsim.cli import main
from streetsim.config import build_seed_state, load_config
from streetsim.engine import derived_connection_graph, initialize, run
from streetsim.mobility import RuntimeInvariantError

from conftest import reaped
from test_cli import base_config, write_config
from test_contact_oracle import RHO, R, tiny_runs
from test_engine_golden import GOLDEN_CASES, GOLDEN_IDS, golden_run, small_config

ROOT = os.path.join(os.path.dirname(__file__), "..")
SIDE = {"csv_path": "out.csv", "trace": True, "history": True}


def crossings_between_strips(state) -> int:
    """Events of ``state``'s schedule that leave one strip for the other."""
    parts = engine._strips(state.graph, state.event_legs, state.routes)
    if parts is None:
        return 0
    action = parts[0][1][state.event_legs]
    return int(((action == engine._LEAVE) | (action == engine._ENTER)).sum())


def outcome(state) -> tuple:
    graph = derived_connection_graph(state, state.T, state.rho)
    return (sorted(state.history), sorted(graph.edges),
            {did: (d.pos, d.time_of_pos) for did, d in state.devices.items()},
            {eid: set(ids) for eid, ids in state.occupancy.items()})


def run_both(g, devices, r, rho, T, monkeypatch) -> int:
    """Run the input in two parts and in one, assert the outcomes are equal,
    and return the crossings between the strips."""
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(engine, "SPLIT_MIN_EVENTS", 0)
    split = initialize(g, [d.clone() for d in devices], r=r, rho=rho, T=T)
    crossings = crossings_between_strips(split)
    split_graph = run(split)
    monkeypatch.setattr(engine, "SPLIT_MIN_EVENTS", 2**62)
    whole = initialize(g, [d.clone() for d in devices], r=r, rho=rho, T=T)
    whole_graph = run(whole)
    assert sorted(split_graph.edges) == sorted(whole_graph.edges)
    assert outcome(split) == outcome(whole)
    return crossings


def sweep_input(path, seed):
    cfg = load_config(path)
    g, devices, _ = build_seed_state(cfg, seed)
    return g, devices, cfg.r_m, cfg.rho_s, max(cfg.sweep.values) * max(cfg.T_s)


class TestSplitIsBitwise:
    @pytest.mark.parametrize("kernel, velocity, seed", [case[:3] for case in GOLDEN_CASES],
                             ids=GOLDEN_IDS)
    def test_golden_cases(self, kernel, velocity, seed, monkeypatch):
        cfg = small_config(kernel, velocity, seed)
        state, devices = golden_run(kernel, velocity, seed)
        assert run_both(state.graph, devices, cfg.r_m, cfg.rho_s, cfg.T_s[0], monkeypatch) > 0

    def test_desk_seed_1(self, monkeypatch):
        g, devices, r, rho, T = sweep_input(os.path.join(ROOT, "figures", "in_out_desk.json"), 1)
        assert run_both(g, devices, r, rho, T, monkeypatch) > 0

    @pytest.mark.slow
    def test_accept1_seed_2(self, monkeypatch):
        # one device commuting a few millimetres on one street fires about
        # half the events, so the strips cannot be balanced
        path = os.path.join(ROOT, "perfbench", "workloads", "accept1_kp.json")
        assert run_both(*sweep_input(path, 2), monkeypatch) > 0

    @settings(max_examples=60, deadline=None)
    @given(tiny_runs())
    def test_tiny_graphs(self, case):
        g, devices, T = case
        with pytest.MonkeyPatch.context() as monkeypatch:
            run_both(g, devices, R, RHO, T, monkeypatch)

    def test_small_schedules_run_in_one_part(self, monkeypatch, forks):
        cfg = small_config(*GOLDEN_CASES[0][:2], 1)
        g, devices, _ = build_seed_state(cfg, 1)
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        state = initialize(g, devices, r=cfg.r_m, rho=cfg.rho_s, T=cfg.T_s[0])
        assert 0 < len(state.event_legs) < engine.SPLIT_MIN_EVENTS
        run(state)
        assert forks == []

    def test_one_cpu_runs_in_one_part(self, monkeypatch, forks):
        g, devices, r, rho, T = sweep_input(os.path.join(ROOT, "figures", "in_out_desk.json"), 1)
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 1)
        state = initialize(g, devices, r=r, rho=rho, T=T)
        assert len(state.event_legs) >= engine.SPLIT_MIN_EVENTS
        run(state)
        assert forks == []


class TestSecondPartProcess:
    """The second part's process is reaped however the run ends."""

    @pytest.fixture(autouse=True)
    def split_every_run(self, monkeypatch):
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(engine, "SPLIT_MIN_EVENTS", 0)

    def run(self, tmp_path, name="out", seeds=(1, 2), jobs=1):
        path = write_config(tmp_path, base_config(seeds=list(seeds), outputs=SIDE))
        return main(["run", path, "--out", str(tmp_path / name), "--jobs", str(jobs)])

    def test_clean_run(self, tmp_path, forks):
        assert self.run(tmp_path) == 0
        assert len(forks.of("second_part")) == 2  # one per seed
        assert len(forks.of("_write_trace_file")) == 2
        assert all(map(reaped, forks))

    def test_breach_in_the_second_part_exits_3(self, tmp_path, monkeypatch, capfd, forks):
        parent = os.getpid()
        reach_destination = engine._reach_destination

        def breaching(state, d, t, pos):
            if os.getpid() != parent:
                raise RuntimeInvariantError(f"synthetic breach at device {d.id}")
            reach_destination(state, d, t, pos)

        monkeypatch.setattr(engine, "_reach_destination", breaching)
        assert self.run(tmp_path, seeds=(1,)) == 3
        out, err = capfd.readouterr()
        assert err.startswith("runtime invariant breach: synthetic breach at device ")
        assert err.count("\n") == 1
        assert len(forks.of("second_part")) == 1 and all(map(reaped, forks))

    def test_interrupt_kills_the_second_part(self, tmp_path, monkeypatch, forks):
        parent = os.getpid()
        fire = engine._fire

        def interrupted(state, *args):
            if os.getpid() == parent and forks.of("second_part"):
                raise KeyboardInterrupt
            fire(state, *args)

        monkeypatch.setattr(engine, "_fire", interrupted)
        with pytest.raises(KeyboardInterrupt):
            self.run(tmp_path, seeds=(1,))
        assert len(forks.of("second_part")) == 1 and all(map(reaped, forks))

    def test_fork_failure_runs_in_process(self, tmp_path, monkeypatch, forks):
        assert self.run(tmp_path, "forked") == 0

        def failing_fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        runs = []
        run_part = engine._run_part

        def recording_run_part(state, *args):
            runs.append(os.getpid())
            return run_part(state, *args)

        monkeypatch.setattr(engine, "_run_part", recording_run_part)
        monkeypatch.setattr(os, "fork", failing_fork)
        assert self.run(tmp_path, "unforked") == 0
        assert runs == [os.getpid()] * 2  # one part a seed, here
        for name in ("trace-seed1.jsonl", "trace-seed2.jsonl", "history-seed1.csv",
                     "history-seed2.csv", "out.csv"):
            assert (tmp_path / "unforked" / name).read_bytes() == \
                (tmp_path / "forked" / name).read_bytes()

    def test_jobs_2(self, tmp_path, monkeypatch, forks):
        # each pool worker forks its seeds' writers and second parts; before
        # it writes a seed's history it checks that it has reaped them all
        import streetsim.cli as cli

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        log = tmp_path / "workers.log"
        write_history = cli._write_history

        def checking_write_history(path, history):
            with open(log, "a") as fh:
                fh.write(f"{len(forks.of('second_part'))} {all(map(reaped, forks))}\n")
            write_history(path, history)

        monkeypatch.setattr(cli, "_write_history", checking_write_history)
        assert self.run(tmp_path, "pooled", jobs=2) == 0
        assert forks and all(map(reaped, forks))  # the pool's workers
        checks = [line.split() for line in log.read_text().splitlines()]
        assert len(checks) == 2 and all(int(n) >= 1 and done == "True" for n, done in checks)
        assert self.run(tmp_path, "serial") == 0
        for name in ("trace-seed1.jsonl", "history-seed2.csv", "out.csv"):
            assert (tmp_path / "pooled" / name).read_bytes() == \
                (tmp_path / "serial" / name).read_bytes()

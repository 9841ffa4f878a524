"""The trace ``streetsim run`` writes from the schedule, in a process forked
beside the event loop: the same bytes as the hook writer in
``trace_reference.py``, and no writer process left behind on any path."""

import errno
import io
import os

import numpy as np
import pytest
from hypothesis import given, settings

import streetsim.analysis as analysis
import streetsim.cli as cli
import streetsim.engine as engine
from streetsim.cli import main
from streetsim.config import build_seed_state, parse_config
from streetsim.engine import initialize
from streetsim.streets import StreetPosition

from conftest import make_device, make_graph, reaped
from test_cli import base_config, write_config
from test_contact_oracle import RHO, R, tiny_runs
from trace_reference import hook_trace

SIDE = {"csv_path": "out.csv", "trace": True, "history": True}


def schedule_trace(state) -> str:
    out = io.StringIO()
    cli._write_trace(out, state)
    return out.getvalue()


def assert_same_trace(g, devices, r, rho, T):
    """The schedule's trace of a run equals the hook writer's, and has one
    line per scheduled event and two for the close-out."""
    state = initialize(g, [d.clone() for d in devices], r=r, rho=rho, T=T)
    written = schedule_trace(state)
    assert written.count("\n") == len(state.event_times) + 2
    assert written == hook_trace(initialize(g, [d.clone() for d in devices], r=r, rho=rho, T=T))
    return written


class TestSameBytesAsTheHookWriter:
    @settings(max_examples=100, deadline=None)
    @given(tiny_runs())
    def test_tiny_graphs(self, case):
        g, devices, T = case
        assert_same_trace(g, devices, R, RHO, T)

    def test_zero_duration_chain(self):
        # TestSchedule::test_zero_duration_chain's run: at t = 25 device 1
        # crosses onto street 2, reaches its destination at that street's
        # start, turns and crosses back to street 1, all at one instant
        g = make_graph(500.0, {0: (0.0, 0.0), 1: (30.0, 0.0), 2: (40.0, 0.0), 3: (80.0, 0.0)},
                       [(0, 1), (1, 2), (2, 3)])
        devices = [
            make_device(0, g, StreetPosition(2, 2, 3, 0.125), StreetPosition(2, 2, 3, 0.75), 1.0),
            make_device(1, g, StreetPosition(0, 0, 1, 0.5), StreetPosition(2, 2, 3, 0.0), 1.0),
            make_device(2, g, StreetPosition(2, 2, 3, 0.625), StreetPosition(1, 1, 2, 0.5), 1.0),
            make_device(3, g, StreetPosition(2, 2, 3, 0.875), StreetPosition(2, 2, 3, 0.25), 1.0),
        ]
        written = assert_same_trace(g, devices, 5.0, 1.0, 60.0)
        assert ('{"t": 25.0, "kind": 4, "device": 1, "street": 2}\n'
                '{"t": 25.0, "kind": 3, "device": 1, "street": 2}\n') in written

    def test_no_moving_devices(self, single_street_graph):
        g = single_street_graph
        home = StreetPosition(0, 0, 1, 0.5)
        written = assert_same_trace(g, [make_device(0, g, home, home, 1.0)], 5.0, 1.0, 100.0)
        assert written == ('{"t": 100.0, "kind": 6, "device": null, "street": null}\n'
                           '{"t": 100.0, "kind": 5, "device": null, "street": null}\n')

    def test_golden_cli_config(self, tmp_path):
        # the file test_golden_bytes pins, against the hook writer on a
        # fresh simulation of the seed, as the sweep simulates it
        raw = base_config(seeds=[1], outputs=SIDE)
        assert main(["run", write_config(tmp_path, raw), "--out", str(tmp_path / "out")]) == 0
        cfg = parse_config(raw)
        g, devices, _ = build_seed_state(cfg, 1)
        T = max(cfg.sweep.values if cfg.sweep is not None else [1.0]) * max(cfg.T_s)
        state = initialize(g, devices, r=cfg.r_m, rho=cfg.rho_s, T=T)
        assert (tmp_path / "out" / "trace-seed1.jsonl").read_text() == hook_trace(state)

    def test_streets_counted_across_blocks(self, monkeypatch):
        # a schedule added up in 7-event blocks names the same legs, so the
        # trace shows the same streets
        cfg = parse_config(base_config(seeds=[1]))
        g, devices, _ = build_seed_state(cfg, 1)
        whole = initialize(g, [d.clone() for d in devices], r=cfg.r_m, rho=cfg.rho_s,
                           T=max(cfg.T_s))
        assert len(whole.event_legs) > 100
        monkeypatch.setattr(engine, "_BLOCK_CELLS", 7)
        blocks = initialize(g, [d.clone() for d in devices], r=cfg.r_m, rho=cfg.rho_s,
                            T=max(cfg.T_s))
        assert np.array_equal(blocks.event_legs, whole.event_legs)
        assert schedule_trace(blocks) == schedule_trace(whole)


class TestWriterProcess:
    """Every writer forked for a seed's trace is reaped before the seed's
    side outputs end, however the run ends (for a run breach, see
    ``test_cli.py::TestRun::test_trace_file_closed_on_runtime_breach``)."""

    def run(self, tmp_path, name="out", seeds=(1, 2), jobs=1):
        path = write_config(tmp_path, base_config(seeds=list(seeds), outputs=SIDE))
        return main(["run", path, "--out", str(tmp_path / name), "--jobs", str(jobs)])

    def test_clean_run(self, tmp_path, forks):
        assert self.run(tmp_path) == 0
        assert len(forks) == 2  # one writer per seed
        assert all(map(reaped, forks))

    def test_interrupted_run_kills_the_writer(self, tmp_path, monkeypatch, forks):
        run = analysis.run

        def interrupt(ev, st):
            raise KeyboardInterrupt

        def interrupted_run(state):
            state.trace = interrupt
            return run(state)

        monkeypatch.setattr(analysis, "run", interrupted_run)
        with pytest.raises(KeyboardInterrupt):
            self.run(tmp_path)
        assert len(forks) == 1 and reaped(forks[0])

    def test_writer_failure_exits_2(self, tmp_path, monkeypatch, capfd, forks):
        runs = tmp_path / "run-pids"

        def failing_write(fh, state):
            raise ValueError("synthetic writer failure")

        run = analysis.run

        def recording_run(state):
            with open(runs, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return run(state)

        monkeypatch.setattr(cli, "_write_trace", failing_write)
        monkeypatch.setattr(analysis, "run", recording_run)
        assert self.run(tmp_path, seeds=(1,)) == 2
        assert len(forks) == 1 and reaped(forks[0])
        out, err = capfd.readouterr()
        trace = tmp_path / "out" / "trace-seed1.jsonl"
        # the parent's one line; the writer printed nothing and its file is empty
        assert out == ""
        assert err == (f"config error: cannot write to {tmp_path / 'out'}: cannot write "
                       f"{trace}: the trace writer exited with status 1\n")
        assert trace.read_bytes() == b""
        # only this process ran the seed's simulation
        assert runs.read_text().split() == [str(os.getpid())]

    def test_fork_failure_writes_in_process(self, tmp_path, monkeypatch, forks):
        assert self.run(tmp_path, "forked") == 0

        def failing_fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", failing_fork)
        assert self.run(tmp_path, "unforked") == 0
        assert len(forks) == 2 and all(map(reaped, forks))
        for name in ("trace-seed1.jsonl", "trace-seed2.jsonl", "history-seed1.csv", "out.csv"):
            assert (tmp_path / "unforked" / name).read_bytes() == \
                (tmp_path / "forked" / name).read_bytes()

    def test_jobs_2(self, tmp_path, monkeypatch, forks):
        # each pool worker forks its seeds' writers; before it writes a
        # seed's history it checks that it has reaped every child it forked
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        log = tmp_path / "workers.log"
        write_history = cli._write_history

        def checking_write_history(path, history):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {len(forks)} {all(map(reaped, forks))}\n")
            write_history(path, history)

        monkeypatch.setattr(cli, "_write_history", checking_write_history)
        assert self.run(tmp_path, jobs=2) == 0
        assert forks and all(map(reaped, forks))  # the pool's workers
        checks = [line.split() for line in log.read_text().splitlines()]
        assert len(checks) == 2  # one per seed
        for pid, n_forked, all_reaped in checks:
            assert pid != str(os.getpid()) and int(n_forked) >= 1 and all_reaped == "True"

import hashlib
import json
import os
import re

import pytest

import streetsim.forking as forking
from streetsim.cli import main
from streetsim.config import ConfigError, load_config, parse_config, validate_config
from streetsim.streets import StreetGraph


def base_config(**overrides):
    cfg = {
        "torus_side_m": 700.0,
        "street_intensity_km_per_km2": 20.0,
        "lambda_per_km": 15.0,
        "r_m": 20.0,
        "rho_s": 8.0,
        "T_s": 60.0,
        "kernel": {"kappa_prime": {"R_m": 120.0}},
        "velocity": {"dirac": {"v_mps": 1.2}},
        "seeds": [1, 2],
        "outputs": {"csv_path": "out.csv"},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg, indent=1))
    return str(p)


class TestValidate:
    def test_rho_must_be_below_T(self):
        cfg = parse_config(base_config(rho_s=10.0, T_s=5.0))
        assert any("rho_s < T_s" in v for v in validate_config(cfg))

    def test_kernel_radius_bound(self):
        cfg = parse_config(base_config(kernel={"kappa_prime": {"R_m": 700.0}}))
        assert any("torus_side/4" in v for v in validate_config(cfg))

    def test_desk_config_is_clean(self):
        cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "figures", "in_out_desk.json"))
        assert validate_config(cfg) == []

    def test_cli_exit_codes(self, tmp_path, capsys):
        good = write_config(tmp_path, base_config())
        assert main(["validate", good]) == 0
        bad = write_config(tmp_path, base_config(rho_s=100.0), "bad.json")
        assert main(["validate", bad]) == 2
        broken = tmp_path / "broken.json"
        broken.write_text("{ not json")
        assert main(["validate", str(broken)]) == 2
        err = capsys.readouterr().err
        assert "broken.json:1" in err  # line-precise parse error


class TestConfigInput:
    @pytest.mark.parametrize("command", [["run"], ["validate"], ["gen-streets", "--out", "g.json"]])
    def test_missing_config_file_exits_2(self, tmp_path, capsys, command):
        missing = str(tmp_path / "missing.json")
        assert main([command[0], missing, *command[1:]]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path)]) == 2  # a directory, not a file
        assert "cannot read" in capsys.readouterr().err

    def test_non_finite_fields_reported(self, tmp_path, capsys):
        assert any("r_m: must be finite" in v
                   for v in validate_config(parse_config(base_config(r_m=float("nan")))))
        assert any("T_s: must be finite" in v
                   for v in validate_config(parse_config(base_config(T_s=[float("nan")]))))
        assert any("velocity: must be finite" in v for v in validate_config(
            parse_config(base_config(velocity={"dirac": {"v_mps": float("inf")}}))))
        path = write_config(tmp_path, base_config(r_m=float("nan")))
        assert main(["validate", path]) == 2
        assert "r_m: must be finite" in capsys.readouterr().err

    def test_non_integer_seed_rejected(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="not an integer"):
            parse_config(base_config(seeds=[1.5]))
        path = write_config(tmp_path, base_config(seeds=[1, 1.5]))
        assert main(["validate", path]) == 2
        assert "not an integer" in capsys.readouterr().err


    @pytest.mark.parametrize("overrides, field", [
        ({"outputs": {"csv_path": "out.csv", "trace": "false"}}, "outputs.trace"),
        ({"outputs": {"csv_path": "out.csv", "history": 1}}, "outputs.history"),
        ({"seeds": [True]}, "seeds"),
        ({"r_m": True}, "r_m"),
        ({"torus_side_m": "1500"}, "torus_side_m"),
        ({"T_s": ["180"]}, "T_s"),
        ({"sweep": {"parameter": "velocity_scale", "values": [1.0, False]}}, "sweep.values"),
        ({"kernel": {"kappa_prime": {"R_m": "120"}}}, "kernel.kappa_prime.R_m"),
        ({"velocity": {"two_point": {"v_p_mps": 1.0, "v_d_mps": "6", "prob_p": 0.5}}},
         "velocity.two_point.v_d_mps"),
        ({"lambda_per_km": 10**400}, "lambda_per_km"),
    ], ids=["trace-string", "history-int", "seed-bool", "r_m-bool", "torus-string",
            "T_s-string", "sweep-bool", "kernel-string", "velocity-string", "lambda-overflow"])
    def test_json_types_are_not_coerced(self, tmp_path, capsys, overrides, field):
        # a bool is not a number, a string is neither, and a number is not a
        # flag: bool("false") would turn the trace on
        with pytest.raises(ConfigError, match=f"^{re.escape(field)}: "):
            parse_config(base_config(**overrides))
        path = write_config(tmp_path, base_config(**overrides))
        assert main(["validate", path]) == 2
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count(f"config error: {field}: ") == 2 and "Traceback" not in err
        assert not (tmp_path / "out" / "out.csv").exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="negative"):
            parse_config(base_config(seeds=[-1]))
        path = write_config(tmp_path, base_config(seeds=[2, -1]))
        assert main(["validate", path]) == 2
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "seeds: -1 is negative" in err and "Traceback" not in err

    def test_duplicate_seeds_exit_2(self, tmp_path, capsys):
        # a repeated seed would simulate it twice and, under --jobs, have two
        # workers write the same side-output files
        path = write_config(tmp_path, base_config(seeds=[1, 1]))
        assert main(["validate", path]) == 2
        assert main(["run", path, "--out", str(tmp_path / "out"), "--jobs", "2"]) == 2
        err = capsys.readouterr().err
        assert err.count("seeds: must be distinct") == 2 and "Traceback" not in err
        assert not (tmp_path / "out" / "out.csv").exists()

    def test_seed_offset_making_a_seed_negative_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(seeds=[1, 5]))
        assert main(["run", path, "--seed-offset", "-3", "--out", str(tmp_path / "out")]) == 2
        assert "config error: seeds: must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "out" / "out.csv").exists()

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_exits_2(self, tmp_path, capsys, jobs):
        path = write_config(tmp_path, base_config(lambda_per_km=0.0))
        assert main(["run", path, "--out", str(tmp_path / "out"), "--jobs", jobs]) == 2
        assert "config error: --jobs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestRun:
    def test_run_writes_csv_and_is_deterministic(self, tmp_path):
        cfg = base_config()
        path = write_config(tmp_path, cfg)
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["run", path, "--out", str(out1)]) == 0
        assert main(["run", path, "--out", str(out2)]) == 0
        b1 = (out1 / "out.csv").read_bytes()
        b2 = (out2 / "out.csv").read_bytes()
        assert b1 == b2

    def test_jobs_parallel_matches_serial(self, tmp_path, monkeypatch):
        # pool workers write their own seeds' trace and history files
        monkeypatch.setattr(forking, "usable_cpus", lambda: 2)
        cfg = base_config(outputs={"csv_path": "out.csv", "trace": True, "history": True})
        path = write_config(tmp_path, cfg)
        out1 = tmp_path / "serial"
        out2 = tmp_path / "par"
        assert main(["run", path, "--out", str(out1)]) == 0
        assert main(["run", path, "--out", str(out2), "--jobs", "2"]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == ["history-seed1.csv", "history-seed2.csv", "out.csv",
                         "trace-seed1.jsonl", "trace-seed2.jsonl"]
        assert sorted(p.name for p in out2.iterdir()) == names
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_zero_intensity_rows_empty_fraction(self, tmp_path):
        cfg = base_config(lambda_per_km=0.0, seeds=[1])
        path = write_config(tmp_path, cfg)
        out = tmp_path / "zero"
        assert main(["run", path, "--out", str(out)]) == 0
        lines = (out / "out.csv").read_text().strip().split("\n")
        assert len(lines) == 2
        fields = lines[1].split(",")
        header = lines[0].split(",")
        assert fields[header.index("n_devices")] == "0"
        assert fields[header.index("largest_fraction")] == ""

    def test_seed_offset_changes_rows(self, tmp_path):
        cfg = base_config(seeds=[1])
        path = write_config(tmp_path, cfg)
        out1 = tmp_path / "o0"
        out2 = tmp_path / "o5"
        assert main(["run", path, "--out", str(out1)]) == 0
        assert main(["run", path, "--out", str(out2), "--seed-offset", "5"]) == 0
        r1 = (out1 / "out.csv").read_text().strip().split("\n")[1]
        r2 = (out2 / "out.csv").read_text().strip().split("\n")[1]
        assert r1.split(",")[0] == "1"
        assert r2.split(",")[0] == "6"

    def test_trace_and_history_outputs(self, tmp_path):
        cfg = base_config(seeds=[1], outputs={"csv_path": "out.csv", "trace": True, "history": True})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "side"
        assert main(["run", path, "--out", str(out)]) == 0
        trace_lines = (out / "trace-seed1.jsonl").read_text().strip().split("\n")
        rec = json.loads(trace_lines[0])
        assert set(rec) == {"t", "kind", "device", "street"}
        hist = (out / "history-seed1.csv").read_text().strip().split("\n")
        assert hist[0] == "pair_i,pair_j,u,w"

    def test_golden_bytes(self, tmp_path):
        # pins the CSV, trace and history bytes of one seed; a change that
        # moves any of these digests changes the program's output contract
        cfg = base_config(seeds=[1], outputs={"csv_path": "out.csv", "trace": True, "history": True})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "golden"
        assert main(["run", path, "--out", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("out.csv", "trace-seed1.jsonl", "history-seed1.csv")}
        assert digests == {
            "out.csv": "6f64295c9a3afbecf3d8e7e5b3ab36b48eb41cdf7bfb75dbfbe6b919eb8e0b48",
            "trace-seed1.jsonl": "06945c0dc00de9ee3ab8271096a3853e41047ded7dd13ca99e44a9332c748ecc",
            "history-seed1.csv": "fbe3185e1a1968b22ac9b1ca80249029d89976a235c6d816b1d8187436af4e65",
        }

    def test_golden_bytes_kappa_doubleprime(self, tmp_path):
        # pins the sweep CSV of a small kappa'' run, so a change to the disc
        # sampler that moves any waypoint shows here
        cfg = base_config(torus_side_m=600.0, kernel={"kappa_doubleprime": {"L_m": 100.0}},
                          seeds=[1])
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "kpp")]) == 0
        digest = hashlib.sha256((tmp_path / "kpp" / "out.csv").read_bytes()).hexdigest()
        assert digest == "b56cd035bb9c9dab3f638d2ab78c3f42675eebd24d34be0aa39831dcffd7f072"

    @pytest.mark.parametrize("jobs, n_seeds, cpus, affinity, expected", [
        # no affinity mask: clamped to the CPU count
        pytest.param(64, 5, 3, None, 3, id="64-5-3-3"),
        # clamped to the affinity mask, below the CPU count
        pytest.param(64, 5, 8, 3, 3, id="64-5-8-affinity3-3"),
        # clamped to the seed count
        pytest.param(64, 2, 8, 8, 2, id="64-2-8-2"),
        pytest.param(2, 5, 8, 8, 2, id="2-5-8-2"),
        # one seed: no pool
        pytest.param(64, 1, 8, 8, None, id="64-1-8-None"),
        # no affinity mask and an unknown CPU count: counts as one
        pytest.param(4, 3, None, None, None, id="4-3-None-None"),
    ])
    def test_jobs_worker_count(self, tmp_path, monkeypatch, jobs, n_seeds, cpus, affinity,
                               expected):
        import streetsim.cli as cli

        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(forking.os, "cpu_count", lambda: cpus)
        if affinity is None:
            monkeypatch.delattr(forking.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(forking.os, "sched_getaffinity", lambda pid: set(range(affinity)),
                                raising=False)
        cfg = base_config(lambda_per_km=0.0, seeds=list(range(1, n_seeds + 1)))
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "par"), "--jobs", str(jobs)]) == 0
        assert started == ([] if expected is None else [expected])
        assert main(["run", path, "--out", str(tmp_path / "serial")]) == 0
        assert (tmp_path / "par" / "out.csv").read_bytes() == \
            (tmp_path / "serial" / "out.csv").read_bytes()

    def test_disc_radius_too_small_to_grow_exits_3(self, tmp_path, capsys):
        # the squared radius underflows for all 64 doublings: no street is found
        path = write_config(tmp_path, base_config(
            seeds=[1], kernel={"kappa_doubleprime": {"L_m": 1e-200}}))
        assert main(["validate", path]) == 0
        capsys.readouterr()
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime invariant breach: device ")
        assert "radius 9.2" in err and "Traceback" not in err

    @pytest.mark.parametrize("overrides", [
        {"street_intensity_km_per_km2": 1e-6},
        {"torus_side_m": 150.0, "kernel": {"kappa_prime": {"R_m": 30.0}}},
    ], ids=["tiny-intensity", "150m-torus"])
    @pytest.mark.parametrize("command", ["run", "gen-streets"])
    def test_too_few_voronoi_seeds_exits_3(self, tmp_path, capsys, overrides, command):
        # a Poisson seed count below 3 is resampled like a rejected
        # tessellation; at 1e-6 km/km^2 every draw is, and on the 150 m torus
        # seed 4 gets 20 such draws or rejected tessellations in a row
        path = write_config(tmp_path, base_config(seeds=[4], **overrides))
        assert main(["validate", path]) == 0
        capsys.readouterr()
        assert main([command, path, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime invariant breach: no valid tessellation after 20 attempts")

    def test_runtime_breach_exit_code(self, tmp_path, monkeypatch):
        import streetsim.cli as cli
        from streetsim.mobility import RuntimeInvariantError

        def boom(cfg, side_outputs=None):
            raise RuntimeInvariantError("synthetic")

        monkeypatch.setattr(cli, "velocity_sweep", boom)
        path = write_config(tmp_path, base_config())
        assert main(["run", path, "--out", str(tmp_path / "x")]) == 3

    def test_event_budget_exits_3(self, tmp_path, monkeypatch, capsys):
        # a commute a few ulps long would fire events without end: the run
        # stops before its event loop, naming the device
        import streetsim.analysis as analysis
        from streetsim.streets import StreetPosition

        from conftest import make_device, make_graph

        def few_ulp_commute(cfg, seed):
            g = make_graph(500.0, {0: (0, 0), 1: (100, 0), 2: (200, 0)}, [(0, 1), (1, 2)])
            d = make_device(7, g, StreetPosition(0, 0, 1, 0.9999999999999999),
                            StreetPosition(1, 1, 2, 0.0), 1.0)
            return g, [d], cfg.velocity

        monkeypatch.setattr(analysis, "build_seed_state", few_ulp_commute)
        path = write_config(tmp_path, base_config(seeds=[1]))
        assert main(["run", path, "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime invariant breach: device 7 would fire")
        assert "MAX_EVENTS = 10,000,000" in err

    def test_trace_file_closed_on_runtime_breach(self, tmp_path, monkeypatch, forks):
        # the sweep's simulation fails at its first turn-around: exit 3, and
        # the trace file, written from the schedule by a writer process, is
        # closed, holds every scheduled event as an unbroken run's does, and
        # its writer has been reaped
        import streetsim.analysis as analysis
        import streetsim.cli as cli
        from streetsim.engine import EventKind, run
        from streetsim.mobility import RuntimeInvariantError

        from conftest import reaped

        cfg = base_config(seeds=[1], outputs={"csv_path": "out.csv", "trace": True})
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "plain")]) == 0
        opened = []

        def recording_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            opened.append(fh)
            return fh

        def breach(ev, st):
            if ev.kind == EventKind.REACH_DESTINATION:
                raise RuntimeInvariantError("synthetic mid-run breach")

        def failing_run(state):
            state.trace = breach
            return run(state)

        monkeypatch.setattr(cli, "open", recording_open, raising=False)
        monkeypatch.setattr(analysis, "run", failing_run)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 3
        traces = [fh for fh in opened if fh.name.endswith("trace-seed1.jsonl")]
        assert len(traces) == 1 and traces[0].closed
        assert (out / "trace-seed1.jsonl").read_bytes() == \
            (tmp_path / "plain" / "trace-seed1.jsonl").read_bytes()
        assert len(forks) == 2 and all(map(reaped, forks))


class TestSideOutputs:
    """Trace and history files come from the sweep's one simulation per seed."""

    SIDE = {"csv_path": "out.csv", "trace": True, "history": True}

    def test_one_simulation_per_seed(self, tmp_path, monkeypatch):
        import streetsim.analysis as analysis
        import streetsim.cli as cli
        import streetsim.config as config
        import streetsim.engine as engine

        calls = {"build_seed_state": [], "run": []}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name].append(args[1] if name == "build_seed_state" else None)
                return fn(*args, **kwargs)
            return wrapper

        # counted wherever the CLI or the sweep could call them from
        for name, fn in (("build_seed_state", config.build_seed_state), ("run", engine.run)):
            for mod in (analysis, cli):
                monkeypatch.setattr(mod, name, counting(name, fn), raising=False)
        cfg = base_config(seeds=[1, 2], outputs=self.SIDE)
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        assert calls["build_seed_state"] == [1, 2]
        assert len(calls["run"]) == 2
        for name in ("trace-seed1.jsonl", "history-seed1.csv",
                     "trace-seed2.jsonl", "history-seed2.csv"):
            assert (out / name).is_file()

    def test_existing_trace_hook_is_chained(self, tmp_path, monkeypatch):
        import streetsim.analysis as analysis

        cfg = base_config(seeds=[1], outputs=self.SIDE)
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "plain")]) == 0

        seen = []
        initialize = analysis.initialize

        def initialize_with_hook(*args, **kwargs):
            state = initialize(*args, **kwargs)
            state.trace = lambda ev, st: seen.append(ev)
            return state

        monkeypatch.setattr(analysis, "initialize", initialize_with_hook)
        assert main(["run", path, "--out", str(tmp_path / "hooked")]) == 0
        trace = (tmp_path / "hooked" / "trace-seed1.jsonl").read_bytes()
        assert trace == (tmp_path / "plain" / "trace-seed1.jsonl").read_bytes()
        lines = trace.decode().splitlines()
        assert len(seen) == len(lines)
        assert [(ev.time, int(ev.kind)) for ev in seen] == \
            [(json.loads(line)["t"], json.loads(line)["kind"]) for line in lines]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_unwritable_trace_file_exits_2(self, tmp_path, monkeypatch, capsys, jobs):
        monkeypatch.setattr(forking, "usable_cpus", lambda: 2)
        out = tmp_path / "out"
        (out / "trace-seed1.jsonl").mkdir(parents=True)
        cfg = base_config(seeds=[1, 2], outputs=self.SIDE)
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out), "--jobs", jobs]) == 2
        assert "cannot write" in capsys.readouterr().err


class TestOutputPaths:
    """Outputs that cannot be written are a config error (exit 2), not a traceback."""

    def test_run_out_under_a_file(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        path = write_config(tmp_path, base_config(lambda_per_km=0.0))
        assert main(["run", path, "--out", str(blocker / "results")]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_run_csv_in_missing_directory(self, tmp_path, capsys):
        cfg = base_config(lambda_per_km=0.0, outputs={"csv_path": "missing/out.csv"})
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "results")]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_thin_out_in_missing_directory(self, tmp_path, capsys):
        graph_path = tmp_path / "graph.json"
        main(["gen-streets", write_config(tmp_path, base_config(seeds=[9])), "--out", str(graph_path)])
        capsys.readouterr()
        out = tmp_path / "missing" / "census.csv"
        assert main(["thin", str(graph_path), "--a", "30", "--b", "100", "--out", str(out)]) == 2
        assert "cannot write" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_streets_out_in_missing_directory(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(seeds=[9]))
        out = tmp_path / "missing" / "graph.json"
        assert main(["gen-streets", path, "--out", str(out)]) == 2
        assert "cannot write" in capsys.readouterr().err


class TestGenStreetsAndThin:
    def test_gen_streets_round_trip(self, tmp_path):
        path = write_config(tmp_path, base_config(seeds=[9]))
        out = tmp_path / "graph.json"
        assert main(["gen-streets", path, "--out", str(out)]) == 0
        g = StreetGraph.from_json(out)
        assert len(g.edges) == 3 * len(g.cells)
        assert len(g.vertices) == 2 * len(g.cells)

    @pytest.mark.parametrize("config, digest", [
        (os.path.join(os.path.dirname(__file__), "..", "figures", "in_out_desk.json"),
         "4d5a20eebf97117329b2ce95f058d8a9b74383f07e67cbffa5c228530837ef14"),
        # a 300 m torus with 7 cells: streets wrap both axes
        (dict(torus_side_m=300.0, kernel={"kappa_prime": {"R_m": 60.0}}, seeds=[5]),
         "4fc1259c0a95c22cf25d70bdc7b6c8f0972b1c7e04d4fe7270e4229deff4bcca"),
    ], ids=["desk-seed1", "small-torus"])
    def test_gen_streets_golden_bytes(self, tmp_path, config, digest):
        # pins the exported street graph of the first seed, apart from any
        # simulation
        path = config if isinstance(config, str) else write_config(tmp_path, base_config(**config))
        out = tmp_path / "graph.json"
        assert main(["gen-streets", path, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_thin_census(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(seeds=[9]))
        graph_path = tmp_path / "graph.json"
        main(["gen-streets", path, "--out", str(graph_path)])
        capsys.readouterr()
        assert main(["thin", str(graph_path), "--a", "30", "--b", "100"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0].startswith("a_m,b_m,n_long_streets")
        assert len(out) == 2

    def test_thin_out_file_matches_stdout(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(seeds=[9]))
        graph_path = tmp_path / "graph.json"
        main(["gen-streets", path, "--out", str(graph_path)])
        capsys.readouterr()
        argv = ["thin", str(graph_path), "--a", "30", "--b", "100"]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        census = tmp_path / "census.csv"
        assert main(argv + ["--out", str(census)]) == 0
        with open(census, newline="") as fh:
            assert fh.read() == stdout
        assert len(stdout.splitlines()) == 2

    def test_thin_golden_bytes(self, tmp_path, capsys):
        # pins the census CSV over an (a, b) grid on one graph (L = 350 m):
        # a = 0 keeps every street, b = 0 adds no aux edge, b >= L lets aux
        # paths run longer than half the side; both wrap outcomes occur
        path = write_config(tmp_path, base_config(seeds=[9]))
        graph_path = tmp_path / "graph.json"
        assert main(["gen-streets", path, "--out", str(graph_path)]) == 0
        capsys.readouterr()
        digests = {}
        for a in ("0", "30", "80", "150"):
            for b in ("0", "100", "400", "1000"):
                census = tmp_path / f"census-{a}-{b}.csv"
                assert main(["thin", str(graph_path), "--a", a, "--b", b,
                             "--out", str(census)]) == 0
                digests[(a, b)] = hashlib.sha256(census.read_bytes()).hexdigest()
        assert digests == {
            ("0", "0"): "347f3ba2a2907fe25f698b470db1cc8f638a6f3c4aed31cde4d0e1af206e44e8",
            ("0", "100"): "5db64881ff3eee9aef467be77952333b91434da11887f7155ddf1b05d4d56229",
            ("0", "400"): "cc30220e0fae895c86fc24f43921ec5ba3ce73e373232ada5a6e1654ce396f96",
            ("0", "1000"): "cba82ae11a73ea99eeae90248783eb9f0eb60e495a8120636b60a35551bc6d91",
            ("30", "0"): "785edd2efef84499d1d755fe2d8a7cde59eda96decdf1268e12ed52913bac8c0",
            ("30", "100"): "6305ca1a2cc789f94ea32f715d81df20df682b6117ec7ed03ec9e32ee00baad7",
            ("30", "400"): "bd7bdb53a3a2c812761c5f8732a344977ef76ea790445af4c1e7b97dd04323b1",
            ("30", "1000"): "cadb671c7e0f57c2ab36b0f78eef2d5f60afcf6788866fcd7dc0087231a64fbd",
            ("80", "0"): "e189e31c9b287b80e06362fa40b6aae5cebda95834d668b6c3d87d955d9bbf66",
            ("80", "100"): "8515274051b6366ecdb55988c97957eb3a3983b1a8e9a50619c395e4a2c9dd28",
            ("80", "400"): "ee45ed25588f3094df6cf4d917251894581deea0ec007bfc121f5d4d2af838c5",
            ("80", "1000"): "37e3cb1d76ec4267a1ea987e12c80faf82dec616b5e248236601b3e82c97f759",
            ("150", "0"): "bddabc30a441d00474e5fd8a47bf3c997a9babfe7ebee56844b4b777274b8580",
            ("150", "100"): "73c76c15b8b5511a55d3c702ee19c1599f4a5e6900b458e3d4203b4cfaba8301",
            ("150", "400"): "14ee38716c905b323b364c2c800c908a5334df5827b2702d484f46ee207fc60d",
            ("150", "1000"): "532d754bc22916420b24985bb01012567b0f4919cb6c6fd41564d8ceb7c11c63",
        }

    def test_thin_skips_isolated_crossing(self, tmp_path, capsys):
        # at a = 0 the thinned graph keeps every crossing, but the census
        # counts only the endpoints of long streets
        path = write_config(tmp_path, base_config(seeds=[9]))
        graph_path = tmp_path / "graph.json"
        assert main(["gen-streets", path, "--out", str(graph_path)]) == 0
        data = json.loads(graph_path.read_text())
        data["vertices"].append({"id": 1 + max(v["id"] for v in data["vertices"]),
                                 "x": 0.5, "y": -0.5})
        lonely = tmp_path / "lonely.json"
        lonely.write_text(json.dumps(data))
        capsys.readouterr()
        census = []
        for graph in (graph_path, lonely):
            assert main(["thin", str(graph), "--a", "0", "--b", "100"]) == 0
            census.append(capsys.readouterr().out)
        assert census[0] == census[1]
        n_endpoints = int(census[1].splitlines()[1].split(",")[3])
        assert n_endpoints == len(StreetGraph.from_json(graph_path).vertices)
        assert n_endpoints + 1 == len(StreetGraph.from_json(lonely).vertices)

    def test_thin_rejects_missing_graph(self, tmp_path):
        assert main(["thin", str(tmp_path / "nope.json"), "--a", "1", "--b", "1"]) == 2

    @pytest.mark.parametrize("a, b", [("-5", "10"), ("nan", "10"), ("30", "-1"), ("30", "inf")])
    def test_thin_rejects_bad_thresholds(self, tmp_path, capsys, a, b):
        path = write_config(tmp_path, base_config(seeds=[9]))
        graph_path = tmp_path / "graph.json"
        main(["gen-streets", path, "--out", str(graph_path)])
        capsys.readouterr()
        assert main(["thin", str(graph_path), "--a", a, "--b", b]) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err and captured.out == ""

    def test_thin_rejects_graph_that_is_not_an_object(self, tmp_path, capsys):
        graph_path = tmp_path / "graph.json"
        graph_path.write_text("[1, 2]")
        assert main(["thin", str(graph_path), "--a", "1", "--b", "1"]) == 2
        assert "config error: cannot read graph" in capsys.readouterr().err

    def test_thin_rejects_non_finite_torus_size(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(seeds=[9]))
        graph_path = tmp_path / "graph.json"
        main(["gen-streets", path, "--out", str(graph_path)])
        capsys.readouterr()
        for L in ("NaN", "Infinity", "0.0", "-350.0"):
            data = json.loads(graph_path.read_text())
            data["L"] = float(L)
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(data))
            assert main(["thin", str(bad), "--a", "1", "--b", "5"]) == 2
            captured = capsys.readouterr()
            assert "config error: cannot read graph" in captured.err and captured.out == ""

    @pytest.mark.parametrize("section", ["vertices", "edges", "cells"])
    def test_thin_rejects_duplicate_ids(self, tmp_path, capsys, section):
        path = write_config(tmp_path, base_config(seeds=[9]))
        graph_path = tmp_path / "graph.json"
        main(["gen-streets", path, "--out", str(graph_path)])
        capsys.readouterr()
        data = json.loads(graph_path.read_text())
        # the second record takes the first one's id
        data[section][1]["id"] = data[section][0]["id"]
        bad = tmp_path / "dup.json"
        bad.write_text(json.dumps(data))
        assert main(["thin", str(bad), "--a", "0", "--b", "0"]) == 2
        captured = capsys.readouterr()
        assert "config error: cannot read graph" in captured.err and captured.out == ""
        assert f"{section}: duplicate id {data[section][0]['id']}" in captured.err

    @pytest.mark.parametrize("fault, message", [
        ({"seed_x": float("nan")}, "seed must be finite"),
        ({"seed_y": float("inf")}, "seed must be finite"),
        ({"edge_ids": [0, 10**6]}, "no street 1000000"),
    ], ids=["nan-seed", "inf-seed", "missing-street"])
    def test_thin_rejects_bad_cells(self, tmp_path, capsys, fault, message):
        path = write_config(tmp_path, base_config(seeds=[9]))
        graph_path = tmp_path / "graph.json"
        main(["gen-streets", path, "--out", str(graph_path)])
        capsys.readouterr()
        data = json.loads(graph_path.read_text())
        data["cells"][1].update(fault)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["thin", str(bad), "--a", "1", "--b", "5"]) == 2
        captured = capsys.readouterr()
        assert "config error: cannot read graph" in captured.err and captured.out == ""
        assert f"cell {data['cells'][1]['id']}: {message}" in captured.err

    @pytest.mark.parametrize("section, key", [("vertices", "x"), ("vertices", "y"),
                                              ("edges", "length")])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_thin_rejects_non_finite_geometry(self, tmp_path, capsys, section, key, value):
        path = write_config(tmp_path, base_config(seeds=[9]))
        graph_path = tmp_path / "graph.json"
        main(["gen-streets", path, "--out", str(graph_path)])
        capsys.readouterr()
        data = json.loads(graph_path.read_text())
        data[section][0][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["thin", str(bad), "--a", "1", "--b", "5"]) == 2
        captured = capsys.readouterr()
        assert "config error: cannot read graph" in captured.err and captured.out == ""

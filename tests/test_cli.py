import hashlib
import json
import os

import pytest

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


    def test_negative_seed_rejected(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="negative"):
            parse_config(base_config(seeds=[-1]))
        path = write_config(tmp_path, base_config(seeds=[2, -1]))
        assert main(["validate", path]) == 2
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "seeds: -1 is negative" in err and "Traceback" not in err

    def test_seed_offset_making_a_seed_negative_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(seeds=[1, 5]))
        assert main(["run", path, "--seed-offset", "-3", "--out", str(tmp_path / "out")]) == 2
        assert "config error: seeds: must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "out" / "out.csv").exists()


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
        import streetsim.cli as cli

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
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

    @pytest.mark.parametrize("jobs, n_seeds, cpus, expected", [
        (64, 5, 3, 3),     # clamped to the CPU count
        (64, 2, 8, 2),     # clamped to the seed count
        (2, 5, 8, 2),
        (64, 1, 8, None),  # one seed: no pool
        (4, 3, None, None),  # unknown CPU count counts as one
    ])
    def test_jobs_worker_count(self, tmp_path, monkeypatch, jobs, n_seeds, cpus, expected):
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
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
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

    def test_trace_file_closed_on_runtime_breach(self, tmp_path, monkeypatch):
        # the sweep's simulation fails at its first turn-around: exit 3, and
        # the trace file it was writing is closed and holds the events that
        # fired before the failure
        import streetsim.analysis as analysis
        import streetsim.cli as cli
        from streetsim.engine import EventKind, run
        from streetsim.mobility import RuntimeInvariantError

        opened = []

        def recording_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            opened.append(fh)
            return fh

        def failing_run(state):
            write_line = state.trace

            def trace(ev, st):
                write_line(ev, st)
                if ev.kind == EventKind.REACH_DESTINATION:
                    raise RuntimeInvariantError("synthetic mid-run breach")

            state.trace = trace
            return run(state)

        monkeypatch.setattr(cli, "open", recording_open, raising=False)
        monkeypatch.setattr(analysis, "run", failing_run)
        cfg = base_config(seeds=[1], outputs={"csv_path": "out.csv", "trace": True})
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 3
        traces = [fh for fh in opened if fh.name.endswith("trace-seed1.jsonl")]
        assert len(traces) == 1 and traces[0].closed
        lines = (out / "trace-seed1.jsonl").read_text().splitlines()
        assert lines and json.loads(lines[-1])["kind"] == int(EventKind.REACH_DESTINATION)


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
        import streetsim.cli as cli

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
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

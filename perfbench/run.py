#!/usr/bin/env python3
"""Layered benchmark for streetsim.

Run from the repository root:

    python3 perfbench/run.py --workload accept1_kp --seed 0 --seconds 30 --trace 0

A workload is a config in ``workloads/``; ``--seed`` selects
``inputs_per_run`` disjoint blocks of its seeds, passed to the CLI through
``--seed-offset``.  Several inputs per run keep one heavy seed (a device
with a very short commute fires events at a high rate) from deciding a run.

``--trace 0`` measures the end-to-end metrics with tracing off.  It runs
cycles through the inputs; a cycle times ``config.build_seed_state`` over the
input's seeds in-process, repeatedly for ``SETUP_BUDGET_S``, then makes one
fresh-process ``streetsim run --jobs 1``.  Cycles go on while the next one
would end inside ``--seconds``, and there are at least ``MIN_CLI_RUNS`` of
them and one per input.  Each metric is the median over inputs of the
input's median set-up time, wall time and peak RSS.

``--trace 1`` runs the first input twice through ``streetsim.cli.main``
in-process: once as it is, and once with the layer functions wrapped by
``spans.instrument``, which records a span around every call.  Both runs'
outputs must be byte-identical.  It reports the per-layer metrics and
writes the spans to ``.perfbench/spans/``.

Every run's outputs are checked; the last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``failed / attempted`` is the error rate over set-up calls and runs: a run
that exits non-zero or fails an output check counts as failed.
"""

import os

# Single-threaded BLAS/OpenMP, set before numpy is imported here or in a
# child, so the numbers measure the program and not the thread scheduler.
PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import uuid  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = json.loads((HERE / "workloads.json").read_text())["workloads"]

# set-up is timed between CLI runs, repeatedly until this much time is used
SETUP_BUDGET_S = 1.0
# a one-input workload whose CLI run takes over half the window still gets
# a median of two runs
MIN_CLI_RUNS = 2
# the event-counting hook may take at most this share of the event loop
MAX_HOOK_SHARE = 0.05
HOOK_TIMING_CALLS = 200_000
# every run must end well inside the 180 s a benchmark invocation may take
HARD_LIMIT_S = 165.0
DEFAULT_SEED = 0

CSV_HEADER = ("seed,scale_a,velocity_mean_mps,T_s,rho_s,r_m,lambda_per_m,"
              "n_devices,largest_fraction,wraps")
HISTORY_HEADER = "pair_i,pair_j,u,w"

# per-layer metric -> count attached to the spans by spans.py
COUNTS = {
    "streets.n_streets": "n_streets",
    "mobility.n_devices": "n_devices",
    "engine.events": "events",
    "engine.events.reach_crossing": "reach_crossing",
    "engine.events.reach_destination": "reach_destination",
    "engine.history_intervals": "history_intervals",
    "engine.connections": "connections",
    "engine.derived_edges": "derived_edges",
    "analysis.sweep_points": "sweep_points",
}


class Failures:
    """Operations attempted and the problems found in them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]
        return not problems


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Input(NamedTuple):
    """One set of program seeds: the shifted config, its offset, its digests."""

    cfg: object
    offset: int
    expect: dict | None


def seeded_config(spec: dict, offset: int):
    from streetsim.config import load_config

    cfg = load_config(HERE / spec["config"])
    return dataclasses.replace(cfg, seeds=tuple(s + offset for s in cfg.seeds))


def side_files(cfg) -> list[str]:
    names = []
    for seed in cfg.seeds:
        if cfg.outputs.trace:
            names.append(f"trace-seed{seed}.jsonl")
        if cfg.outputs.history:
            names.append(f"history-seed{seed}.csv")
    return names


def check_outputs(cfg, out_dir: Path, expect: dict | None) -> list[str]:
    """Problems with one run's CSV and side outputs; empty when all is well.

    ``expect`` holds the input's recorded digests, given only for the
    default seed.
    """
    problems = []
    csv_path = out_dir / cfg.outputs.csv_path
    if not csv_path.is_file():
        return [f"missing {csv_path.name}"]
    lines = csv_path.read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        problems.append("CSV header differs")
    rows = [line.split(",") for line in lines[1:]]
    n_scales = len(cfg.sweep.values) if cfg.sweep is not None else 1
    want = len(cfg.seeds) * n_scales * len(cfg.T_s)
    if len(rows) != want:
        problems.append(f"CSV has {len(rows)} rows, expected {want}")
    if {r[0] for r in rows} != {str(s) for s in cfg.seeds}:
        problems.append("CSV seeds differ from the config's")
    for r in rows:
        try:
            frac = float(r[8])
        except (IndexError, ValueError):
            problems.append(f"bad largest_fraction in row {r}")
            break
        if not 0.0 <= frac <= 1.0:
            problems.append(f"largest_fraction {frac} outside [0, 1]")
            break
    if expect is not None and sha256(csv_path) != expect["csv_sha256"]:
        problems.append("CSV digest differs from the recorded default-seed digest")
    scales = cfg.sweep.values if cfg.sweep is not None else (1.0,)
    base_T = max(scales) * max(cfg.T_s)
    for name in side_files(cfg):
        path = out_dir / name
        if not path.is_file():
            problems.append(f"missing {name}")
            continue
        if name.startswith("history"):
            problems += _check_history(path, base_T)
        else:
            problems += _check_trace(path, base_T)
        if expect is not None and sha256(path) != expect["side_sha256"].get(name):
            problems.append(f"{name} digest differs from the recorded default-seed digest")
    return problems


def _check_history(path: Path, horizon: float) -> list[str]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != HISTORY_HEADER:
        return [f"{path.name}: header differs"]
    if len(lines) < 2:
        return [f"{path.name}: no contact intervals"]
    prev = None
    for line in lines[1:]:
        try:
            i, j, u, w = line.split(",")
            key = (int(i), int(j), float(u), float(w))
        except ValueError:
            return [f"{path.name}: bad row {line}"]
        if not (key[0] < key[1] and 0.0 <= key[2] < key[3] <= horizon):
            return [f"{path.name}: bad interval {line}"]
        if prev is not None and key < prev:
            return [f"{path.name}: rows not sorted"]
        prev = key
    return []


def _check_trace(path: Path, horizon: float) -> list[str]:
    t_prev = 0.0
    n = 0
    with open(path) as fh:
        for line in fh:
            try:
                ev = json.loads(line)
            except ValueError:
                ev = {}
            if set(ev) != {"t", "kind", "device", "street"} or not t_prev <= ev["t"] <= horizon:
                return [f"{path.name}: bad event line {line.strip()}"]
            t_prev = ev["t"]
            n += 1
    return [] if n else [f"{path.name}: no events"]


def run_cli(cfg_path: Path, offset: int, out_dir: Path, timeout: float) -> tuple[int, float, float]:
    """One fresh-process ``streetsim run``: (exit code, wall s, peak RSS MB)."""
    cmd = [sys.executable, "-m", "streetsim.cli", "run", str(cfg_path),
           "--seed-offset", str(offset), "--jobs", "1", "--out", str(out_dir)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(out_dir.parent / f"{out_dir.name}.log", "w") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=err, stderr=err)
        watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
        watchdog.start()
        try:
            # wait4 reaps the child and returns its own rusage
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # tells Popen the child is reaped
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def time_setup(cfg) -> tuple[float, int]:
    """Wall time of ``build_seed_state`` over all seeds, and the device count."""
    from streetsim.config import build_seed_state

    t0 = perf_counter()
    n_devices = sum(len(build_seed_state(cfg, seed)[1]) for seed in cfg.seeds)
    return perf_counter() - t0, n_devices


def context(workload: str, seed: int, program_seeds: list[int]) -> dict:
    import numpy
    import scipy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "workload": workload,
        "bench_seed": seed,
        "program_seeds": program_seeds,
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_env": {k: os.environ[k] for k in PINNED_THREADS},
    }


def median_of_inputs(per_input: dict) -> float:
    """The median over inputs of each input's median.

    Inputs differ in cost, so pooling their samples would let the input that
    happens to run most often decide the median; a heavy input (see the
    module docstring) moves this by at most one rank.
    """
    return statistics.median(statistics.median(v) for v in per_input.values())


def measure_end_to_end(args, spec, inputs, fails, work, start):
    """Cycles of set-up reps and one fresh-process CLI run, until the window is used."""
    setup, walls, rss, n_dev = {}, {}, {}, {}
    min_cycles = max(len(inputs), MIN_CLI_RUNS)
    for k in range(1000):
        i = k % len(inputs)
        inp = inputs[i]
        setup_end = perf_counter() + SETUP_BUDGET_S
        while True:
            secs, n = time_setup(inp.cfg)
            if fails.record("setup", [] if n > 0 else ["no devices sampled"]):
                setup.setdefault(i, []).append(secs)
                n_dev.setdefault(i, set()).add(n)
            if perf_counter() >= setup_end:
                break
        out = work / f"cli{k}"
        left = start + HARD_LIMIT_S - perf_counter()
        code, wall, peak = run_cli(HERE / spec["config"], inp.offset, out, left)
        if code != 0:
            log = (work / f"cli{k}.log").read_text().strip().splitlines()
            problems = [f"exit code {code}: {log[-1] if log else 'no output'}"]
        else:
            problems = check_outputs(inp.cfg, out, inp.expect)
        if fails.record(f"cli run {k}", problems):
            walls.setdefault(i, []).append(wall)
            rss.setdefault(i, []).append(peak)
        shutil.rmtree(out, ignore_errors=True)
        used = perf_counter() - start
        cycle = used / (k + 1)
        if used + cycle > HARD_LIMIT_S or (k + 1 >= min_cycles and used + cycle > args.seconds):
            break
    if any(len(ns) > 1 for ns in n_dev.values()):
        fails.record("setup", [f"device counts differ between set-ups: {n_dev}"])
    return {"run_wall_s": (walls, "s"), "setup_s": (setup, "s"), "peak_rss_mb": (rss, "MB")}


def hook_seconds(n_events: int) -> float:
    """Cost of ``n_events`` calls of the event-counting hook, timed directly."""
    from spans import count_events
    from streetsim.engine import Event, EventKind

    ev = Event(0.0, EventKind.REACH_CROSSING, 0)
    count_events.tally = [0] * (max(EventKind) + 1)
    reps = max(min(n_events, HOOK_TIMING_CALLS), 1)
    t0 = perf_counter()
    for _ in range(reps):
        count_events(ev, None)
    return (perf_counter() - t0) * n_events / reps


def measure_layers(args, spec, inputs, counts_expected, fails, work, ctx):
    """An uninstrumented and an instrumented in-process CLI run of the first input.

    They run in the order set by the parity of ``--seed``, so that the
    first run's cold start does not always land on the same side of
    ``trace.overhead_s``.
    """
    from spans import Tracer, instrument

    import streetsim.cli

    cfg, offset, expect = inputs[0]
    plain, traced = work / "untraced", work / "traced"
    tr = Tracer(run_id=uuid.uuid4().hex)

    def cli_run(out_dir: Path) -> tuple[int, float]:
        argv = ["run", str(HERE / spec["config"]), "--seed-offset", str(offset),
                "--jobs", "1", "--out", str(out_dir)]
        with contextlib.redirect_stdout(sys.stderr):
            t0 = perf_counter()
            code = streetsim.cli.main(argv)
            return code, perf_counter() - t0

    walls = {}
    for is_traced in ((False, True) if args.seed % 2 == 0 else (True, False)):
        if is_traced:
            with instrument(tr):
                code, walls[True] = cli_run(traced)
        else:
            code, walls[False] = cli_run(plain)
        out = traced if is_traced else plain
        fails.record("traced run" if is_traced else "untraced run",
                     [f"exit code {code}"] if code else check_outputs(cfg, out, expect))

    problems = []
    for name in [cfg.outputs.csv_path] + side_files(cfg):
        if (plain / name).is_file() and (traced / name).is_file() \
                and sha256(plain / name) != sha256(traced / name):
            problems.append(f"{name} differs between the traced and untraced runs")
    counts = {metric: tr.total(key) for metric, key in COUNTS.items()}
    if counts_expected is not None:
        problems += [f"{m} = {counts[m]}, recorded {n}"
                     for m, n in counts_expected.items() if counts[m] != n]
    loop_s = tr.seconds("engine.loop")
    hook_s = hook_seconds(counts["engine.events"])
    if hook_s > MAX_HOOK_SHARE * loop_s:
        problems.append(f"event-counting hook takes {hook_s:.3f} s of the {loop_s:.3f} s "
                        f"event loop, more than {MAX_HOOK_SHARE:.0%}")
    fails.record("traced outputs and counts", problems)

    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    tr.write(spans_dir / f"{args.workload}-seed{args.seed}-{tr.run_id}.jsonl", ctx)

    n_dev = max(counts["mobility.n_devices"], 1)
    side_bytes = sum((traced / n).stat().st_size for n in side_files(cfg) if (traced / n).is_file())
    metrics = {
        "streets.generate_pvt_s": (tr.seconds("streets.generate_pvt"), "s"),
        "streets.cell_index_s": (tr.seconds("streets.cell_index"), "s"),
        "mobility.sample_devices_s": (tr.seconds("mobility.sample_devices"), "s"),
        "mobility.waypoints_s": (tr.seconds("mobility.waypoints"), "s"),
        "mobility.waypoints_us_per_device": (tr.seconds("mobility.waypoints") / n_dev * 1e6, "us"),
        "mobility.paths_s": (tr.seconds("mobility.paths"), "s"),
        "mobility.paths_us_per_device": (tr.seconds("mobility.paths") / n_dev * 1e6, "us"),
        "engine.initialize_s": (tr.seconds("engine.initialize"), "s"),
        "engine.loop_s": (loop_s, "s"),
        "engine.events_per_s": (counts["engine.events"] / loop_s, "1/s"),
        "engine.us_per_event": (loop_s / max(counts["engine.events"], 1) * 1e6, "us"),
        "engine.derive_s": (tr.seconds("engine.derive"), "s"),
        "analysis.largest_cluster_s": (tr.seconds("analysis.largest_cluster"), "s"),
        "analysis.histogram_s": (tr.seconds("analysis.histogram"), "s"),
        "analysis.wraps_s": (tr.seconds("analysis.wraps"), "s"),
        "cli.write_csv_s": (tr.seconds("cli.write_csv"), "s"),
        "cli.side_outputs_s": (tr.seconds("cli.side_outputs"), "s"),
        "cli.side_output_bytes": (side_bytes, "bytes"),
        "trace.untraced_wall_s": (walls[False], "s"),
        "trace.traced_wall_s": (walls[True], "s"),
        "trace.overhead_s": (walls[True] - walls[False], "s"),
        "trace.hook_s": (hook_s, "s"),
        "trace.hook_share": (hook_s / loop_s, "fraction"),
        "trace.coverage": (tr.layer_seconds() / walls[True], "fraction"),
    }
    metrics.update({m: (n, "count") for m, n in counts.items()})
    return {name: ({0: [value]}, unit) for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "streetsim" / "cli.py").is_file():
        print(f"perfbench: no streetsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    spec = WORKLOADS[args.workload]

    # input k of benchmark seed n shifts the config's seeds by whole blocks,
    # so no two inputs, of this or any other benchmark seed, share a seed
    n_seeds = len(seeded_config(spec, 0).seeds)
    block = spec["inputs_per_run"]
    default = spec["default_seed"] if args.seed == DEFAULT_SEED else None
    inputs = []
    for k in range(block):
        offset = (args.seed * block + k) * n_seeds
        inputs.append(Input(seeded_config(spec, offset), offset,
                            default["inputs"][k] if default else None))
    ctx = context(args.workload, args.seed, [s for inp in inputs for s in inp.cfg.seeds])

    fails = Failures()
    work = WORK / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            samples = measure_layers(args, spec, inputs, default and default["counts"],
                                     fails, work, ctx)
        else:
            samples = measure_end_to_end(args, spec, inputs, fails, work, start)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in fails.problems:
        print(f"perfbench: FAILED {p}", file=sys.stderr)
    missing = [name for name, (values, _) in samples.items() if not values]
    if missing:
        print(f"perfbench: no successful sample for {missing}", file=sys.stderr)
        return 1
    metrics = {name: {"value": median_of_inputs(per_input), "unit": unit}
               for name, (per_input, unit) in samples.items()}

    print("context " + json.dumps(ctx))
    for name, (per_input, unit) in samples.items():
        print(f"  {name:36s} {metrics[name]['value']:16.6f} {unit:8s}"
              f" n={sum(map(len, per_input.values()))}")
    print(f"  {'error_rate':36s} {fails.failed / fails.attempted:16.6f} {'fraction':8s}"
          f" {fails.failed} failed of {fails.attempted} attempted")
    result = {"correct": fails.failed == 0, "attempted": fails.attempted,
              "failed": fails.failed, "metrics": metrics}
    WORK.mkdir(exist_ok=True)
    with open(WORK / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"context": ctx, "trace": args.trace, "result": result,
                             "samples": {k: v for k, (v, _) in samples.items()}}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

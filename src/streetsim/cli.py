"""Experiment runner CLI.

Subcommands:

* ``run <config.json> [--seed-offset N] [--jobs K] [--out DIR]`` -- execute
  the configured experiment and write the sweep CSV (plus optional event
  traces and contact-history dumps per seed, taken from the sweep's one
  simulation of that seed).  A seed's trace is written from its event
  schedule by a process forked beside the event loop; its history is
  written when the loop ends.
* ``validate <config.json>`` -- report config violations.
* ``gen-streets <config.json> --out graph.json`` -- generate and export the
  street system of the first seed.
* ``thin --a METERS --b METERS graph.json`` -- component census CSV of the
  long-street graph with shortcut edges.

Exit codes: 0 ok, 2 config error, 3 runtime invariant breach.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import gc
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path as FsPath

import numpy as np

from .analysis import (
    aux_largest_component,
    long_edge_percolation_graph,
    velocity_sweep,
    write_sweep_csv,
)
from .config import ConfigError, ExperimentConfig, build_geometry, load_config, validate_config
from .engine import EventKind
from .forking import forked
from .mobility import RuntimeInvariantError
from .streets import DegenerateTessellation, StreetGraph

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# history rows (and trace lines) formatted per write, so the text of a long
# history or trace is never held in memory all at once
HISTORY_CHUNK_ROWS = 8192

# a trace line's kind, by whether the event's leg ends at the destination
_KIND_NUMBER = (int(EventKind.REACH_CROSSING), int(EventKind.REACH_DESTINATION))


def _cmd_validate(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    violations = validate_config(cfg)
    if violations:
        for v in violations:
            print(f"violation: {v}", file=sys.stderr)
        return EXIT_CONFIG
    print("config ok")
    return EXIT_OK


def _valid(cfg: ExperimentConfig) -> ExperimentConfig:
    violations = validate_config(cfg)
    if violations:
        raise ConfigError("; ".join(violations))
    return cfg


def _load_valid_config(path) -> ExperimentConfig:
    return _valid(load_config(path))


@contextlib.contextmanager
def _emit_side_outputs(cfg: ExperimentConfig, out_dir: FsPath, seed: int, state):
    """Context the sweep runs one seed's ``state`` in, writing its trace and history.

    The trace is a function of the schedule ``initialize`` made, so a
    process forked on entry (:func:`forking.forked`) writes it while the
    event loop runs in this one; the file is opened here first, so a path
    that cannot be written raises before anything is forked.  The writer is
    reaped on every way out: after it finishes when the run ends or fails,
    killed first when the run is interrupted.  A writer that fails raises
    :class:`OSError` naming the file.  The sorted history is written on a
    clean exit.
    """
    if cfg.outputs.trace:
        trace_path = out_dir / f"trace-seed{seed}.jsonl"
        with open(trace_path, "w") as fh, forked(partial(_write_trace_file, fh, state)) as writer:
            fh.close()
            yield
        if writer is not None and writer.status != 0:
            raise OSError(f"cannot write {trace_path}: the trace writer exited with status "
                          f"{writer.status}")
    else:
        yield
    if cfg.outputs.history:
        _write_history(out_dir / f"history-seed{seed}.csv", state.history)


def _write_trace_file(fh, state) -> None:
    """:func:`_write_trace` to ``fh``, then close it."""
    with fh:
        _write_trace(fh, state)


def _write_trace(fh, state) -> None:
    """One JSON line per scheduled event, in firing order, then the
    close-out's FINISH and GLOBAL_UPDATE lines at T, in chunks of
    ``HISTORY_CHUNK_ROWS`` lines.

    The bytes are those ``json.dumps`` gives for each record, at a fraction
    of its cost: times by ``float.__repr__``, and the device, kind and
    street (the street the device is on when the event fires) of the
    route-table leg the event ends.
    """
    times, legs, routes = state.event_times, state.event_legs, state.routes
    number = float.__repr__
    for start in range(0, len(times), HISTORY_CHUNK_ROWS):
        stop = start + HISTORY_CHUNK_ROWS
        leg = legs[start:stop]
        fh.writelines(
            f'{{"t": {number(t)}, "kind": {_KIND_NUMBER[turns]}, "device": {device}, '
            f'"street": {street}}}\n'
            for t, turns, device, street in zip(
                times[start:stop].tolist(), routes.destination[leg].tolist(),
                routes.device[leg].tolist(), routes.street[leg].tolist()))
    for kind in (EventKind.FINISH, EventKind.GLOBAL_UPDATE):
        fh.write(f'{{"t": {number(state.T)}, "kind": {int(kind)}, "device": null, "street": null}}\n')


def _write_history(path, history) -> None:
    """The history's rows in ``sorted`` order, in chunks of ``HISTORY_CHUNK_ROWS``.

    ``np.lexsort`` is stable like ``sorted``, and ids are exact as doubles,
    so the rows come out as ``sorted(history)`` orders them.
    """
    cols = history.columns()
    order = np.lexsort((cols[:, 3], cols[:, 2], cols[:, 1], cols[:, 0]))
    with open(path, "w", newline="") as fh:
        # csv.writer's bytes: \r\n line ends, and no field ever needs quoting
        fh.write("pair_i,pair_j,u,w\r\n")
        for start in range(0, len(order), HISTORY_CHUNK_ROWS):
            rows = cols[order[start:start + HISTORY_CHUNK_ROWS]]
            i, j = rows[:, :2].astype(np.int64).T.tolist()
            u, w = rows[:, 2:].T.tolist()
            fh.writelines(f"{i},{j},{u!r},{w!r}\r\n" for i, j, u, w in zip(i, j, u, w))


def _cmd_run(args) -> int:
    if args.jobs < 1:
        print(f"config error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = _load_valid_config(args.config)
        if args.seed_offset:
            cfg = _valid(dataclasses.replace(
                cfg, seeds=tuple(s + args.seed_offset for s in cfg.seeds)))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = FsPath(args.out) if args.out else FsPath(".")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot write to {out_dir}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    side_outputs = partial(_emit_side_outputs, cfg, out_dir)
    workers = min(args.jobs, len(cfg.seeds), os.cpu_count() or 1)
    try:
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                result = velocity_sweep(cfg, side_outputs=side_outputs, map=pool.map)
        else:
            result = velocity_sweep(cfg, side_outputs=side_outputs)
        csv_path = out_dir / cfg.outputs.csv_path
        write_sweep_csv(result, csv_path)
    except OSError as exc:
        print(f"config error: cannot write to {out_dir}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeInvariantError, DegenerateTessellation) as exc:
        print(f"runtime invariant breach: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {csv_path}")
    return EXIT_OK


def _cmd_gen_streets(args) -> int:
    try:
        cfg = _load_valid_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        g = build_geometry(cfg, cfg.seeds[0])
    except DegenerateTessellation as exc:
        print(f"runtime invariant breach: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    try:
        g.to_json(args.out)
    except OSError as exc:
        print(f"config error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_thin(args) -> int:
    for name, value in (("--a", args.a), ("--b", args.b)):
        if not (math.isfinite(value) and value >= 0.0):
            print(f"config error: {name} must be finite and non-negative, got {value}",
                  file=sys.stderr)
            return EXIT_CONFIG
    try:
        g = StreetGraph.from_json(args.graph)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"config error: cannot read graph: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    aux = long_edge_percolation_graph(g, args.a, args.b)
    fraction, wraps = aux_largest_component(aux)
    try:
        out = contextlib.nullcontext(sys.stdout) if args.out is None else open(args.out, "w", newline="")
    except OSError as exc:
        print(f"config error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    with out as fh:
        writer = csv.writer(fh)
        writer.writerow(["a_m", "b_m", "n_long_streets", "n_endpoints", "n_aux_edges",
                         "largest_fraction_of_long_length", "wraps_torus"])
        writer.writerow([
            repr(float(args.a)), repr(float(args.b)),
            len(aux.street_edges), len(aux.vertices), len(aux.aux_edges),
            repr(float(fraction)), "true" if wraps else "false",
        ])
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="streetsim",
                                     description="Device connectivity simulator on random street systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--seed-offset", type=int, default=0)
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check a config for violations")
    p_val.add_argument("config")
    p_val.set_defaults(func=_cmd_validate)

    p_gen = sub.add_parser("gen-streets", help="generate and export a street graph")
    p_gen.add_argument("config")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen_streets)

    p_thin = sub.add_parser("thin", help="long-street component census")
    p_thin.add_argument("graph")
    p_thin.add_argument("--a", type=float, required=True)
    p_thin.add_argument("--b", type=float, required=True)
    p_thin.add_argument("--out", default=None)
    p_thin.set_defaults(func=_cmd_thin)

    args = parser.parse_args(argv)
    # the modules, classes and functions alive now live as long as the
    # process: frozen, the full collections that fire during set-up and the
    # run no longer walk them
    gc.freeze()
    try:
        return args.func(args)
    finally:
        gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())

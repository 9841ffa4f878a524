"""The names the benchmark's span recorder patches still exist, and
patching them changes no output.

``perfbench/spans.py`` wraps, by name, the module attributes through which
``streetsim run`` calls each layer, and reads counts off their results
(``len(state.history)``, ``len(state.established)``, ``len(result.edges)``).  A rename in ``src/`` would
break the traced benchmark, not the program, so this checks the names here.
The module is loaded read-only: no bytecode is written next to it.
"""

import csv
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import streetsim.cli

ROOT = Path(__file__).resolve().parent.parent
SIDE_FILES = ("trace-seed1.jsonl", "history-seed1.csv")


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_patched_name_resolves_and_is_restored(spans):
    originals = [getattr(mod, attr) for _, mod, attr in spans.PATCHES]
    assert all(callable(fn) for fn in originals)
    with spans.instrument(spans.Tracer("names")):
        for (_, mod, attr), fn in zip(spans.PATCHES, originals):
            assert getattr(mod, attr) is not fn
    assert [getattr(mod, attr) for _, mod, attr in spans.PATCHES] == originals


def test_instrumented_run_matches_plain_run(spans, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "torus_side_m": 700.0, "street_intensity_km_per_km2": 20.0, "lambda_per_km": 15.0,
        "r_m": 20.0, "rho_s": 8.0, "T_s": [40.0, 60.0],
        "kernel": {"kappa_prime": {"R_m": 120.0}}, "velocity": {"dirac": {"v_mps": 1.2}},
        "sweep": {"parameter": "velocity_scale", "values": [1.0, 2.0]},
        "seeds": [1], "outputs": {"csv_path": "out.csv", "trace": True, "history": True},
    }))
    tr = spans.Tracer("guard")
    assert streetsim.cli.main(["run", str(cfg), "--out", str(tmp_path / "plain")]) == 0
    with spans.instrument(tr):
        assert streetsim.cli.main(["run", str(cfg), "--out", str(tmp_path / "traced")]) == 0
    for name in ("out.csv",) + SIDE_FILES:
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()
    with open(tmp_path / "plain" / "history-seed1.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert tr.total("history_intervals") == len(rows)
    # the plain run's connections at the simulated (T, rho) = (120 s, 8 s)
    connected = {(r["pair_i"], r["pair_j"]) for r in rows if float(r["w"]) - float(r["u"]) > 8.0}
    assert connected
    assert tr.total("connections") == len(connected)
    assert tr.total("derived_edges") > 0
    assert tr.total("sweep_points") == 4

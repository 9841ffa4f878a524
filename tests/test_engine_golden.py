"""Whole-run regression digests of the event engine.

Each case builds one seed of a small config, turns every fifth device into a
stationary one (its commute is re-assigned to end at its home), runs the
engine and compares sha256 digests of the sorted contact history and of
the sorted edges of the connection graph read from it at (T, rho), which
is the graph ``run`` returns.  The κ′ cases use a
two-point velocity law, so fast devices overtake slow ones on shared
streets; every case has reversals and streets with several devices.  The
digests were recorded before the event loop was flattened, and pin its
floating-point results bit for bit; the edge digests were recorded while
the engine still kept its own set of established pairs beside the history.

The set-up digests pin every device's destination and path as
``build_seed_state`` gives them; they were recorded while the waypoint
kernels still ran once per device, and pin the batched kernels' draws.
"""

import hashlib

import pytest

from streetsim.config import build_seed_state, parse_config
from streetsim.engine import derived_connection_graph, initialize, run
from streetsim.mobility import assign_commute


def small_config(kernel, velocity, seed):
    return parse_config({
        "torus_side_m": 800.0, "street_intensity_km_per_km2": 20.0,
        "lambda_per_km": 25.0, "r_m": 20.0, "rho_s": 5.0, "T_s": 200.0,
        "kernel": kernel, "velocity": velocity,
        "seeds": [seed], "outputs": {"csv_path": "x.csv"},
    })


KAPPA_PRIME = {"kappa_prime": {"R_m": 150.0}}
KAPPA_DOUBLEPRIME = {"kappa_doubleprime": {"L_m": 120.0}}
TWO_POINT = {"two_point": {"v_p_mps": 0.8, "v_d_mps": 6.0, "prob_p": 0.6}}
NORMAL_PLUS = {"normal_plus": {"mean_mps": 1.0, "std_mps": 0.2}}


def digest(items) -> str:
    return hashlib.sha256(repr(sorted(items)).encode()).hexdigest()


def golden_run(kernel, velocity, seed):
    """The engine run of one case, and its devices in their initial state."""
    cfg = small_config(kernel, velocity, seed)
    g, devices, _ = build_seed_state(cfg, seed)
    stationary = devices[::5]
    assign_commute(stationary, [d.home for d in stationary], [d.velocity for d in stationary], g)
    state = initialize(g, [d.clone() for d in devices], r=cfg.r_m, rho=cfg.rho_s,
                       T=cfg.T_s[0])
    run(state)
    return state, devices


GOLDEN_CASES = [
    (KAPPA_PRIME, TWO_POINT, 1,
     "3dab5bcf366fe775e77aa19167de39cd9f4f2014cf286ddeb66ec6ecc0d52622",
     "9efd09d2589d58b91314acc577a738a528a96be03393228d6add13ce792e775e"),
    (KAPPA_PRIME, TWO_POINT, 2,
     "d7d42a69162eebe06ee334c28bb1960187fa9fe4561540f13ae5081262d03f61",
     "4c50169a067e739e77325d66c67c79a841a8518cda6e54113f32cabd0a812211"),
    (KAPPA_PRIME, TWO_POINT, 3,
     "322a634361cd87d25dbd166b1ce96acef7204cbb5bd1486b7efd4ebee33857b3",
     "de9a14433b04e24cdd358605551e2e14d1747aa4c596fb9dd3aa20e99f9e372c"),
    (KAPPA_DOUBLEPRIME, NORMAL_PLUS, 4,
     "8f2d0cbf231029cf413ec97e96c438336bc70696c4abd2fa49591814ae0bd51e",
     "4228b704c992e119c684635d0a284a2e3ce20651d1c4eeb8c317800660ab3843"),
]
GOLDEN_IDS = ["kappa_prime-two_point-1", "kappa_prime-two_point-2", "kappa_prime-two_point-3",
              "kappa_doubleprime-normal_plus-4"]


@pytest.mark.parametrize("kernel, velocity, seed, history_sha, established_sha",
                         GOLDEN_CASES, ids=GOLDEN_IDS)
def test_history_and_established_digests(kernel, velocity, seed, history_sha, established_sha):
    state, _ = golden_run(kernel, velocity, seed)
    edges = derived_connection_graph(state, state.T, state.rho).edges
    assert (digest(state.history), digest(edges)) == (history_sha, established_sha)


@pytest.mark.parametrize("kernel, velocity, seed, setup_sha", [
    (KAPPA_PRIME, TWO_POINT, 5,
     "fbff44cf057395f72238679225afa0853c1daf3552796abb775f01f59f0830b5"),
    (KAPPA_DOUBLEPRIME, NORMAL_PLUS, 6,
     "683d3d4a8eb256bc8c076d5e8caca1825594bd33df55a8f007f3f01714c3df56"),
], ids=["kappa_prime-5", "kappa_doubleprime-6"])
def test_setup_destination_and_path_digests(kernel, velocity, seed, setup_sha):
    g, devices, _ = build_seed_state(small_config(kernel, velocity, seed), seed)
    items = [(tuple(d.path.end), d.path.start, d.path.crossings, d.path.end, d.path.streets)
             for d in devices]
    assert hashlib.sha256(repr(items).encode()).hexdigest() == setup_sha

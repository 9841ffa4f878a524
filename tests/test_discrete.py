import pytest

from streetsim.config import parse_config, build_seed_state
from streetsim.engine import initialize, run
from streetsim.streets import StreetPosition

from conftest import make_device, make_graph
from discrete_reference import DiscreteConfig, simulate_discrete


def small_instance(seed, n_target=12, torus_side=700.0):
    cfg = parse_config({
        "torus_side_m": torus_side, "street_intensity_km_per_km2": 20.0,
        "lambda_per_km": 1000.0 * n_target / (20.0 * (torus_side / 1000.0) ** 2 * 1000.0),
        "r_m": 20.0, "rho_s": 10.0, "T_s": 100.0,
        "kernel": {"kappa_prime": {"R_m": 120.0}},
        "velocity": {"two_point": {"v_p_mps": 0.8, "v_d_mps": 1.6, "prob_p": 0.5}},
        "seeds": [seed], "outputs": {"csv_path": "x.csv"},
    })
    return build_seed_state(cfg, seed)


class TestDiscreteConfig:
    def test_eps_validation(self, single_street_graph):
        g = single_street_graph
        d = make_device(0, g, StreetPosition(0, 0, 1, 0.0), StreetPosition(0, 0, 1, 1.0), 2.0)
        cfg = DiscreteConfig(eps=1.0, T=50.0, r=20.0, rho=10.0)
        # 0.01 * 100 m / 2 mps = 0.5 s limit
        with pytest.raises(ValueError):
            simulate_discrete(g, [d], cfg)
        ok = DiscreteConfig(eps=0.4, T=50.0, r=20.0, rho=10.0)
        simulate_discrete(g, [d], ok)

    def test_zero_devices(self, single_street_graph):
        cfg = DiscreteConfig(eps=0.01, T=10.0, r=20.0, rho=5.0)
        cg = simulate_discrete(single_street_graph, [], cfg)
        assert cg.vertices == ()
        assert cg.edges == frozenset()


class TestTwoDeviceScenario:
    def test_matches_event_engine(self):
        g = make_graph(500.0, {0: (0.0, 0.0), 1: (100.0, 0.0)}, [(0, 1)])
        A = make_device(0, g, StreetPosition(0, 0, 1, 0.0), StreetPosition(0, 0, 1, 1.0), 1.0)
        B = make_device(1, g, StreetPosition(0, 1, 0, 0.0), StreetPosition(0, 1, 0, 1.0), 1.0)
        devices = [A, B]
        oracle = simulate_discrete(g, devices, DiscreteConfig(eps=0.01, T=120.0, r=20.0, rho=10.0))
        engine = run(initialize(g, [d.clone() for d in devices], r=20.0, rho=10.0, T=120.0))
        assert oracle.edges == engine.edges == frozenset({(0, 1)})

    def test_rho_above_contact_no_edge(self):
        g = make_graph(500.0, {0: (0.0, 0.0), 1: (100.0, 0.0)}, [(0, 1)])
        A = make_device(0, g, StreetPosition(0, 0, 1, 0.0), StreetPosition(0, 0, 1, 1.0), 1.0)
        B = make_device(1, g, StreetPosition(0, 1, 0, 0.0), StreetPosition(0, 1, 0, 1.0), 1.0)
        oracle = simulate_discrete(g, [A, B], DiscreteConfig(eps=0.01, T=120.0, r=20.0, rho=25.0))
        assert oracle.edges == frozenset()

    def test_does_not_mutate_inputs(self):
        g = make_graph(500.0, {0: (0.0, 0.0), 1: (100.0, 0.0)}, [(0, 1)])
        A = make_device(0, g, StreetPosition(0, 0, 1, 0.0), StreetPosition(0, 0, 1, 1.0), 1.0)
        p_before = A.pos
        simulate_discrete(g, [A], DiscreteConfig(eps=0.1, T=50.0, r=20.0, rho=10.0))
        assert A.pos == p_before


def eps_valid(g, devices, eps):
    v_max = max((d.velocity for d in devices if d.moving), default=0.0)
    if v_max == 0.0:
        return True
    return eps <= 0.01 * min(e.length for e in g.edges.values()) / v_max


class TestCrossEngineSmall:
    def test_agreement_on_sampled_instances(self):
        agree = checked = 0
        seed = 0
        while checked < 5 and seed < 40:
            seed += 1
            g, devices, _ = small_instance(seed)
            if not devices or not eps_valid(g, devices, 0.01):
                continue
            checked += 1
            state = initialize(g, [d.clone() for d in devices], r=20.0, rho=10.0, T=100.0)
            engine = run(state)
            oracle = simulate_discrete(g, devices, DiscreteConfig(eps=0.01, T=100.0, r=20.0, rho=10.0))
            # small fixed seeds here; slack-filtered exact agreement is acceptance 2
            sym = engine.edges ^ oracle.edges
            assert len(sym) <= max(1, len(engine.edges) // 5)
            agree += (engine.edges == oracle.edges)
        assert checked == 5
        assert agree >= 4

    def test_symmetric_difference_shrinks_with_eps(self):
        done = 0
        seed = 0
        while done < 3 and seed < 40:
            seed += 1
            g, devices, _ = small_instance(seed)
            if not devices or not eps_valid(g, devices, 0.01):
                continue
            done += 1
            state = initialize(g, [d.clone() for d in devices], r=20.0, rho=10.0, T=100.0)
            engine = run(state)
            diffs = []
            for eps in (1.0, 0.1, 0.01):
                if not eps_valid(g, devices, eps):
                    continue
                oracle = simulate_discrete(g, devices, DiscreteConfig(eps=eps, T=100.0, r=20.0, rho=10.0))
                diffs.append(len(engine.edges ^ oracle.edges))
            assert all(b <= a for a, b in zip(diffs, diffs[1:]))
        assert done == 3


class TestRuntimeScaling:
    def test_cost_grows_with_step_refinement(self):
        # documents the fixed-step trade-off: halving eps doubles the work
        import time

        for seed in range(1, 30):
            g, devices, _ = small_instance(seed)
            if devices and eps_valid(g, devices, 0.02):
                break
        else:
            pytest.skip("no instance suitable for timing comparison")
        timings = {}
        for eps in (0.2, 0.02):
            t0 = time.perf_counter()
            simulate_discrete(g, devices, DiscreteConfig(eps, 40.0, 20.0, 10.0), strict=False)
            timings[eps] = time.perf_counter() - t0
        print(f"    step 0.2s: {timings[0.2]:.3f}s   step 0.02s: {timings[0.02]:.3f}s")
        assert timings[0.02] > 2.0 * timings[0.2]

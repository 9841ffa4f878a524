"""Experiment configuration: JSON schema, validation and seeded setup.

All randomness flows from one master seed per run through named sub-streams
(geometry, placement, waypoints, velocities), so changing e.g. the device
intensity never perturbs the street system.  Streams are numpy PCG64
generators derived via SeedSequence(seed, spawn_key=(stream index,)).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import astuple, dataclass

import numpy as np

from .mobility import (
    DiracVelocity,
    PositiveNormalVelocity,
    TwoPointVelocity,
    assign_commute,
    sample_destination_kappa_doubleprime,
    sample_destination_kappa_prime,
    sample_devices,
    sample_velocity,
)
from .streets import StreetGraph, build_cell_index, generate_pvt

__all__ = [
    "KernelConfig",
    "SweepConfig",
    "OutputConfig",
    "ExperimentConfig",
    "ConfigError",
    "load_config",
    "parse_config",
    "validate_config",
    "rng_streams",
    "build_seed_state",
    "build_geometry",
]

_STREAMS = ("geometry", "placement", "waypoints", "velocities")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class KernelConfig:
    kind: str  # "kappa_prime" | "kappa_doubleprime"
    radius_m: float


@dataclass(frozen=True)
class SweepConfig:
    parameter: str  # only "velocity_scale" is supported
    values: tuple[float, ...]


@dataclass(frozen=True)
class OutputConfig:
    csv_path: str
    trace: bool = False
    history: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    torus_side_m: float
    street_intensity_km_per_km2: float
    lambda_per_km: float
    r_m: float
    rho_s: float
    T_s: tuple[float, ...]
    kernel: KernelConfig
    velocity: object  # one of the velocity distributions
    seeds: tuple[int, ...]
    outputs: OutputConfig
    sweep: SweepConfig | None = None

    @property
    def L(self) -> float:
        return self.torus_side_m / 2.0


def _velocity_from_dict(d: dict):
    if not isinstance(d, dict) or len(d) != 1:
        raise ConfigError("velocity must be one of dirac/two_point/normal_plus")
    kind, params = next(iter(d.items()))
    try:
        if kind == "dirac":
            return DiracVelocity(float(params["v_mps"]))
        if kind == "two_point":
            return TwoPointVelocity(
                float(params["v_p_mps"]), float(params["v_d_mps"]), float(params["prob_p"])
            )
        if kind == "normal_plus":
            return PositiveNormalVelocity(float(params["mean_mps"]), float(params["std_mps"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad velocity parameters for '{kind}': {exc}") from exc
    raise ConfigError(f"unknown velocity kind '{kind}'")


def parse_config(data: dict) -> ExperimentConfig:
    try:
        kernel_dict = data["kernel"]
        if not isinstance(kernel_dict, dict) or len(kernel_dict) != 1:
            raise ConfigError("kernel must be kappa_prime{R_m} or kappa_doubleprime{L_m}")
        kind, params = next(iter(kernel_dict.items()))
        if kind == "kappa_prime":
            kernel = KernelConfig(kind, float(params["R_m"]))
        elif kind == "kappa_doubleprime":
            kernel = KernelConfig(kind, float(params["L_m"]))
        else:
            raise ConfigError(f"unknown kernel '{kind}'")
        t_raw = data["T_s"]
        t_list = tuple(float(t) for t in (t_raw if isinstance(t_raw, list) else [t_raw]))
        sweep = None
        if data.get("sweep") is not None:
            sweep = SweepConfig(
                parameter=str(data["sweep"]["parameter"]),
                values=tuple(float(v) for v in data["sweep"]["values"]),
            )
        out = data["outputs"]
        outputs = OutputConfig(
            csv_path=str(out["csv_path"]),
            trace=bool(out.get("trace", False)),
            history=bool(out.get("history", False)),
        )
        return ExperimentConfig(
            torus_side_m=float(data["torus_side_m"]),
            street_intensity_km_per_km2=float(data["street_intensity_km_per_km2"]),
            lambda_per_km=float(data["lambda_per_km"]),
            r_m=float(data["r_m"]),
            rho_s=float(data["rho_s"]),
            T_s=t_list,
            kernel=kernel,
            velocity=_velocity_from_dict(data["velocity"]),
            seeds=tuple(_seed(s) for s in data["seeds"]),
            outputs=outputs,
            sweep=sweep,
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config: {exc}") from exc


def _seed(s) -> int:
    try:
        seed = operator.index(s)
    except TypeError:
        raise ConfigError(f"seeds: {s!r} is not an integer") from None
    if seed < 0:
        raise ConfigError(f"seeds: {seed} is negative")
    return seed


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return parse_config(data)


def validate_config(cfg: ExperimentConfig) -> list[str]:
    """All invariant violations, each naming the field and the constraint."""
    v: list[str] = []
    numbers = {
        "torus_side_m": (cfg.torus_side_m,),
        "street_intensity_km_per_km2": (cfg.street_intensity_km_per_km2,),
        "lambda_per_km": (cfg.lambda_per_km,),
        "r_m": (cfg.r_m,),
        "rho_s": (cfg.rho_s,),
        "T_s": cfg.T_s,
        "kernel": (cfg.kernel.radius_m,),
        "velocity": astuple(cfg.velocity),
        "sweep.values": cfg.sweep.values if cfg.sweep is not None else (),
    }
    for name, values in numbers.items():
        if not all(math.isfinite(x) for x in values):
            v.append(f"{name}: must be finite")
    if cfg.torus_side_m <= 0:
        v.append("torus_side_m: must be positive")
    if cfg.street_intensity_km_per_km2 <= 0:
        v.append("street_intensity_km_per_km2: must be positive")
    if cfg.lambda_per_km < 0:
        v.append("lambda_per_km: must be non-negative")
    if cfg.r_m <= 0:
        v.append("r_m: must be positive")
    if cfg.rho_s <= 0:
        v.append("rho_s: must be positive")
    if not cfg.T_s or any(t <= 0 for t in cfg.T_s):
        v.append("T_s: must be positive")
    elif cfg.rho_s >= min(cfg.T_s):
        v.append("rho_s: rho_s < T_s required")
    if cfg.kernel.radius_m <= 0:
        v.append("kernel: radius must be positive")
    elif cfg.kernel.kind == "kappa_prime" and cfg.kernel.radius_m >= cfg.torus_side_m / 4.0:
        v.append("kernel: kernel radius < torus_side/4 required")
    if not cfg.seeds:
        v.append("seeds: at least one seed required")
    elif min(cfg.seeds) < 0:
        v.append("seeds: must be non-negative")
    if cfg.sweep is not None:
        if cfg.sweep.parameter != "velocity_scale":
            v.append("sweep.parameter: only 'velocity_scale' is supported")
        if not cfg.sweep.values or any(a <= 0 for a in cfg.sweep.values):
            v.append("sweep.values: scales must be positive")
    return v


def rng_streams(seed: int) -> dict[str, np.random.Generator]:
    """Named independent generators derived from one master seed."""
    return {
        name: np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(k,))))
        for k, name in enumerate(_STREAMS)
    }


def build_geometry(cfg: ExperimentConfig, seed: int) -> StreetGraph:
    streams = rng_streams(seed)
    return generate_pvt(
        cfg.L, streams["geometry"], street_intensity=cfg.street_intensity_km_per_km2
    )


def build_seed_state(cfg: ExperimentConfig, seed: int):
    """Geometry plus fully initialized devices for one experiment seed.

    Returns (graph, devices, velocity distribution).  Devices carry sampled
    destinations, velocities and shortest paths.  The waypoint kernel runs
    once, on every device's home, from the ``waypoints`` stream; then each
    device draws its velocity from the ``velocities`` stream, in device
    order, and one ``assign_commute`` call gives every device its path.  The
    kernels draw the same numbers in the same order as one call per device
    would, so the destinations are those of such a loop.  The paths are
    ``shortest_path``'s: ``assign_commute`` batches the searches and keeps a
    batched path only where a certificate proves it equal, and computes
    every other device's path with ``shortest_path`` itself.
    """
    streams = rng_streams(seed)
    g = generate_pvt(
        cfg.L, streams["geometry"], street_intensity=cfg.street_intensity_km_per_km2
    )
    idx = build_cell_index(g)
    devices = sample_devices(g, cfg.lambda_per_km / 1000.0, streams["placement"])
    homes = [d.home for d in devices]
    if cfg.kernel.kind == "kappa_prime":
        dests = sample_destination_kappa_prime(homes, cfg.kernel.radius_m, g, idx,
                                               streams["waypoints"])
    else:
        dests = sample_destination_kappa_doubleprime(homes, cfg.kernel.radius_m, g,
                                                     streams["waypoints"])
    velocities = [sample_velocity(cfg.velocity, streams["velocities"]) for _ in devices]
    assign_commute(devices, dests, velocities, g)
    return g, devices, cfg.velocity

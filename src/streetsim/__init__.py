"""Continuous-time simulator for device-to-device connectivity on random street systems."""

from .analysis import (
    AuxGraph,
    SweepResult,
    SweepRow,
    aux_largest_component,
    largest_cluster_fraction,
    long_edge_percolation_graph,
    thinned_street_graph,
    velocity_sweep,
    write_sweep_csv,
)
from .config import ExperimentConfig, load_config, parse_config, rng_streams, validate_config
from .engine import (
    ConnectionGraph,
    Event,
    EventKind,
    SimulationState,
    compute_contact_interval,
    derived_connection_graph,
    initialize,
    run,
)
from .mobility import (
    Device,
    DiracVelocity,
    Path,
    PositiveNormalVelocity,
    TwoPointVelocity,
    position_at,
    sample_destination_kappa_doubleprime,
    sample_destination_kappa_prime,
    sample_devices,
    sample_velocity,
    shortest_path,
)
from .streets import (
    CellIndex,
    StreetGraph,
    StreetPosition,
    build_cell_index,
    calibrate_seed_intensity,
    generate_pvt,
    project_to_streets,
)
from .torus import TorusPoint, boundary_crossing_points, torus_distance, wrap

__version__ = "0.1.0"

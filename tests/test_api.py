"""The package's public names: each listed once, each resolvable."""

import refgame as rg
import refgame.config

# frozen: the exported names, one entry per name
PUBLIC_NAMES = [
    "BoxCheck", "CONVERGED", "CYCLING", "ConfigError", "ExperimentConfig",
    "FIGURE1_VARIANTS", "FirmParams", "HessianCertificate", "MarketParams",
    "MarketState", "PricePair", "RETENTION_LIMIT", "RateConstants", "RateReport",
    "SneSolution", "SolverConfig", "SolverError", "StepSchedule", "Trajectory",
    "TrajectoryRecord", "UNDECIDED", "ascent_step", "best_response",
    "bound_constants", "cycle_detector", "demand", "equilibrium_path",
    "equilibrium_policy", "figure1_config", "figure1_params", "hessian_certificate",
    "lambert_w", "load_config", "local_potential", "log_rev_derivative",
    "quadrant", "random_market", "rate_constants", "rate_fit", "reference_update",
    "revenue", "scaled_derivative", "scaled_derivative_partials", "simulate",
    "sne_bounds", "sne_drift", "solve_sne", "utility", "validate_price_box",
    "weighted_l1_distance",
]


def test_public_names_are_frozen():
    assert sorted(rg.__all__) == PUBLIC_NAMES


def test_each_public_name_listed_once_and_resolvable():
    assert len(set(rg.__all__)) == len(rg.__all__)
    for name in rg.__all__:
        getattr(rg, name)


def test_load_config_exported_by_its_module():
    assert "load_config" in refgame.config.__all__

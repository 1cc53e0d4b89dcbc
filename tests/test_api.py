"""The package's public names: each listed once, each resolvable, each read."""

import ast
from pathlib import Path

import refgame as rg
import refgame.config

# frozen: the exported names, one entry per name
PUBLIC_NAMES = [
    "CONVERGED", "CYCLING", "ConfigError", "ExperimentConfig",
    "FIGURE1_VARIANTS", "FirmParams", "HessianCertificate", "MarketParams",
    "MarketState", "PricePair", "RETENTION_LIMIT",
    "RateReport", "SneSolution", "SolverError", "StepSchedule", "Trajectory",
    "UNDECIDED", "bound_constants", "check_properties", "cycle_detector",
    "equilibrium_path", "figure1_config", "figure1_params", "hessian_certificate",
    "load_config", "log_rev_derivative",
    "random_market", "rate_fit", "reference_update",
    "scaled_derivative", "scaled_derivative_partials", "simulate",
    "sne_bounds", "sne_drift", "sne_drift_bound", "solve_sne", "utility",
    "validate_price_box",
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


ROOT = Path(__file__).resolve().parent.parent
# the program: the package and the benchmark, without the benchmark's tests
PROGRAM_FILES = [
    *sorted((ROOT / "src" / "refgame").glob("*.py")),
    *sorted(p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_")),
]

def exported_reads() -> dict[str, set]:
    """For each public name, the top-level definitions of the program that
    read it, as a ``Name`` or an ``Attribute``: their names, or None for a
    module-level statement. A read inside the name's own definition is
    not counted."""
    exported = set(rg.__all__)
    reads = {name: set() for name in exported}
    for path in PROGRAM_FILES:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if isinstance(node.ctx, ast.Load) and name in exported and name != owner:
                    reads[name].add(owner)
    return reads


def test_every_public_name_has_a_reader():
    # a read inside the definition of an unread public name is no read:
    # repeat until the unread set is stable
    reads = exported_reads()
    unread: set[str] = set()
    while True:
        now = {name for name, owners in reads.items() if owners <= unread}
        if now == unread:
            break
        unread = now
    assert unread == set()

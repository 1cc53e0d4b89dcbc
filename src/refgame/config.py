"""Experiment configuration: JSON ingestion and bundled presets.

A configuration document is plain JSON with this shape (all prices in
currency units)::

    {
      "params": {
        "firm_H": {"a": 8.70, "b": 2.00, "c": 0.82},
        "firm_L": {"a": 4.30, "b": 1.20, "c": 0.32},
        "alpha": 0.90,
        "p_lo": 0.10,
        "p_hi": 7.50
      },
      "init_prices": [4.85, 4.86],
      "init_references": [0.10, 2.95],
      "schedule": {"kind": "inverse_sqrt", "c": 1.0},
      "horizon": 100000,
      "output_path": "trajectory.csv"
    }

Schedule kinds: ``{"kind": "constant", "eta": x}``,
``{"kind": "inverse_sqrt", "c": x}``, ``{"kind": "inverse_t", "d": x}``,
``{"kind": "explicit", "values": [...]}``.

``output_path`` is optional, a non-empty string. A field not named above,
at any level, is refused with ``ConfigError`` naming the field and where
it sits, so a misspelt field never falls back to a default. One exception:
a top-level ``"seed"`` is accepted and ignored, so older documents that
carry it still load (the randomised ``verify`` sweep takes ``--seed``).
``refgame sne`` and ``refgame verify`` read the market alone, so they also
take a document that holds only ``params``.

The bundled ``figure1`` preset is the two-firm instance used throughout
the docs and test suite, with three variants: (a) a diminishing
1/sqrt(t+1) schedule that settles, (b) a unit constant schedule that
locks into a price cycle, and (c) the comparison of the learning path
against the full-information equilibrium-policy path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from .dynamics import StepSchedule, _check_horizon
from .equilibrium import sne_bounds
from .model import FirmParams, MarketParams, MarketState, PricePair

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "figure1_params",
    "figure1_config",
    "FIGURE1_VARIANTS",
    "load_config",
    "random_market",
]


class ConfigError(ValueError):
    """A configuration document failed to parse or validate."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated experiment description."""

    params: MarketParams
    init_prices: PricePair
    init_references: PricePair
    schedule: StepSchedule
    horizon: int
    output_path: str = "trajectory.csv"

    def __post_init__(self) -> None:
        _check_horizon(self.horizon, ConfigError)
        if not (isinstance(self.output_path, str) and self.output_path):
            raise ConfigError(f"output_path must be a non-empty string, got {self.output_path!r}")
        for label, pair in (
            ("init_prices", self.init_prices),
            ("init_references", self.init_references),
        ):
            if not self.params.in_box(pair[0], pair[1]):
                raise ConfigError(
                    f"{label} {tuple(pair)} outside the price box "
                    f"[{self.params.p_lo}, {self.params.p_hi}]"
                )

    def initial_state(self) -> MarketState:
        return MarketState(prices=self.init_prices, references=self.init_references)

    def override(self, **changes) -> "ExperimentConfig":
        return replace(self, **changes)


def _reject_unknown(spec: dict, known: tuple[str, ...], where: str) -> None:
    """Refuse a key not in ``known``, naming it and ``where`` it sits."""
    for key in spec:
        if key not in known:
            raise ConfigError(f"unknown field '{key}' in {where}")


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"missing field '{key}' in {where}")
    return mapping[key]


def _as_real(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field {where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"field {where} lies outside the float range") from None


def _firm_from_dict(spec, where: str) -> FirmParams:
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object with keys a, b, c")
    _reject_unknown(spec, ("a", "b", "c"), where)
    fields = {key: _as_real(_require(spec, key, where), f"{where}.{key}") for key in "abc"}
    try:
        return FirmParams(**fields)
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


def _schedule_from_dict(spec) -> StepSchedule:
    """A schedule from its descriptor, e.g. {"kind": "inverse_sqrt", "c": 1.0};
    a key other than ``kind`` and the kind's own field is refused, ``c`` of
    ``inverse_sqrt`` defaults to 1, and the coefficient and each explicit
    value must be a number (not a bool)."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("schedule descriptor must be a mapping with a 'kind' key")
    kind = spec["kind"]
    field = {"constant": "eta", "inverse_sqrt": "c", "inverse_t": "d", "explicit": "values"}
    if not isinstance(kind, str) or kind not in field:
        raise ConfigError(f"unknown schedule kind {kind!r}")
    where = f"{kind} schedule"
    _reject_unknown(spec, ("kind", field[kind]), where)
    if kind == "explicit":
        values = _require(spec, "values", where)
        if not isinstance(values, list):
            raise ConfigError(f"field values must be a list of numbers, got {values!r}")
        return StepSchedule.explicit([_as_real(v, f"values[{k}]") for k, v in enumerate(values)])
    coef = spec.get("c", 1.0) if kind == "inverse_sqrt" else _require(spec, field[kind], where)
    return StepSchedule(kind, _as_real(coef, field[kind]))


def _pair_from_list(spec, where: str) -> PricePair:
    if not isinstance(spec, (list, tuple)) or len(spec) != 2:
        raise ConfigError(f"{where} must be a two-element list [H, L]")
    return PricePair(_as_real(spec[0], f"{where}[0]"), _as_real(spec[1], f"{where}[1]"))


_PARAMS_FIELDS = ("firm_H", "firm_L", "alpha", "p_lo", "p_hi")
# "seed" is accepted and ignored (see the module docstring)
_TOP_FIELDS = (
    "params", "init_prices", "init_references", "schedule", "horizon", "output_path", "seed",
)


def _params_from_dict(doc: dict) -> MarketParams:
    """The market of a configuration document's ``params`` field."""
    params_doc = _require(doc, "params", "configuration")
    if not isinstance(params_doc, dict):
        raise ConfigError("'params' must be an object")
    _reject_unknown(params_doc, _PARAMS_FIELDS, "params")
    fields = {}
    for key in _PARAMS_FIELDS:
        convert = _firm_from_dict if key.startswith("firm_") else _as_real
        fields[key] = convert(_require(params_doc, key, "params"), f"params.{key}")
    try:
        return MarketParams(**fields)
    except ValueError as err:
        raise ConfigError(f"params: {err}") from err


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Validate a parsed JSON document into an ExperimentConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be a JSON object")
    _reject_unknown(doc, _TOP_FIELDS, "configuration")
    params = _params_from_dict(doc)
    schedule_doc = _require(doc, "schedule", "configuration")
    try:
        schedule = _schedule_from_dict(schedule_doc)
    except ValueError as err:
        raise ConfigError(f"schedule: {err}") from err
    horizon = _require(doc, "horizon", "configuration")
    return ExperimentConfig(
        params=params,
        init_prices=_pair_from_list(_require(doc, "init_prices", "configuration"), "init_prices"),
        init_references=_pair_from_list(
            _require(doc, "init_references", "configuration"), "init_references"
        ),
        schedule=schedule,
        horizon=horizon,
        output_path=doc.get("output_path", "trajectory.csv"),
    )


def _read_document(path: str | Path):
    """The parsed JSON of a configuration file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read configuration file {p}: {err}") from err
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"invalid JSON in {p} at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a JSON configuration file."""
    return config_from_dict(_read_document(path))


def _load_params(path: str | Path) -> MarketParams:
    """The market of a JSON configuration file, for commands that read
    nothing else: a document holding ``params`` alone (and the ignored
    ``seed``) is read as just that; any other document is validated as a
    whole experiment by :func:`config_from_dict`."""
    doc = _read_document(path)
    if isinstance(doc, dict) and doc.keys() <= {"params", "seed"}:
        return _params_from_dict(doc)
    return config_from_dict(doc).params


def figure1_params() -> MarketParams:
    """The bundled demonstration instance.

    Firm H (8.70, 2.00, 0.82), firm L (4.30, 1.20, 0.32), memory 0.90.
    The box [0.10, 7.50] contains the initial state and comfortably
    satisfies both admissibility thresholds (0.3546 and 3.2928).
    """
    return MarketParams(
        firm_H=FirmParams(a=8.70, b=2.00, c=0.82),
        firm_L=FirmParams(a=4.30, b=1.20, c=0.32),
        alpha=0.90,
        p_lo=0.10,
        p_hi=7.50,
    )


FIGURE1_VARIANTS = ("a", "b", "c")

# preset horizons: long enough for variant (a) to settle and (b) to show
# a persistent cycle; (c) pairs the variant-(a) run with an
# equilibrium-policy path over the same horizon
_FIGURE1_HORIZONS = {"a": 100_000, "b": 10_000, "c": 100_000}


def figure1_config(variant: str = "a") -> ExperimentConfig:
    """Preset experiment for the bundled instance.

    Variant "a": eta_t = 1/sqrt(t+1) for 1e5 periods (settles).
    Variant "b": eta_t = 1 for 1e4 periods (cycles).
    Variant "c": same schedule as "a"; meant to be run as a comparison
    against the equilibrium-policy path over the same 1e5 periods.
    """
    if variant not in FIGURE1_VARIANTS:
        raise ConfigError(f"variant must be one of {FIGURE1_VARIANTS}, got {variant!r}")
    schedule = (
        StepSchedule.constant(1.0) if variant == "b" else StepSchedule.inverse_sqrt(1.0)
    )
    return ExperimentConfig(
        params=figure1_params(),
        init_prices=PricePair(4.85, 4.86),
        init_references=PricePair(0.10, 2.95),
        schedule=schedule,
        horizon=_FIGURE1_HORIZONS[variant],
        output_path=f"figure1{variant}.csv",
    )


def random_market(rng) -> MarketParams:
    """Draw a random admissible game instance for randomized sweeps.

    Distributions: a_i ~ U[0, 12], b_i and c_i ~ U[0.1, 3],
    alpha ~ U[0, 0.99]; the price box is derived from the analytic
    admissibility thresholds with a 10% margin on each side, so
    every drawn instance passes the box check by construction. Draw
    order is fixed (a pair, b pair, c pair, alpha), making sweeps
    reproducible from the generator state alone.
    """
    a = rng.uniform(0.0, 12.0, 2)
    b = rng.uniform(0.1, 3.0, 2)
    c = rng.uniform(0.1, 3.0, 2)
    alpha = rng.uniform(0.0, 0.99)
    firm_H, firm_L = (FirmParams(a=a[i], b=b[i], c=c[i]) for i in (0, 1))
    probe = MarketParams(firm_H=firm_H, firm_L=firm_L, alpha=alpha, p_lo=1.0, p_hi=2.0)
    (lo_H, up_H), (lo_L, up_L) = sne_bounds(probe)
    return replace(probe, p_lo=0.9 * min(lo_H, lo_L), p_hi=1.1 * max(up_H, up_L))

"""Run configuration: flat key-value text with section headers.

Sections [noise], [field], [problem], [experiment]; every parameter constraint
is validated at load time, by the owning module's constructor where there is
one, and rejected configs name the violated constraint.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, fields

import numpy as np

from .attractor import _check_horizons
from .errors import AlignmentError, ConfigurationError
from .noise import NoiseSpectrum, _as_index
from .operators import DiffusionField, FractionalNormSpec
from .pathwise import NonlinearitySpec, SemilinearProblem

_DEFAULTS = {
    "noise": {
        "modes": "16",
        "decay_exponent": "1.0",
        "sigma": "0.1",
        "dt": "0.00390625",
        "seed": "12345",
        "n_paths": "16",
    },
    "field": {
        "delta": "0.5",
        "amp": "0.2",
        "kappa": "1.0",
        "driver_horizon": "8.0",
        "galerkin_dim": "64",
        "alpha": "0.2",
        "eta": "0.35",
        "beta": "0.2",
    },
    "problem": {
        "nonlinearity": "cubic_fisher",
        "forcing": "zero",
        "u0": "zero",
        "blowup_threshold": "1e6",
    },
    "experiment": {
        "horizons": "1,2,4,8",
        "gammas": "0.1",
        "levels": "3",
        "truncation_horizon": "8.0",
        "horizon": "1.0",
        "ensemble_size": "33",
        "ball_radius": "2.0",
        "temperedness_horizon": "100.0",
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters for one CLI run."""

    modes: int
    decay_exponent: float
    sigma: float
    dt: float
    seed: int
    n_paths: int
    delta: float
    amp: float
    kappa: float
    driver_horizon: float
    galerkin_dim: int
    alpha: float
    eta: float
    beta: float
    nonlinearity: str
    forcing: str
    u0: str
    blowup_threshold: float
    horizons: tuple[float, ...]
    gammas: tuple[float, ...]
    levels: int
    truncation_horizon: float
    horizon: float
    ensemble_size: int
    ball_radius: float
    temperedness_horizon: float

    def spectrum(self) -> NoiseSpectrum:
        return NoiseSpectrum(self.modes, self.decay_exponent)

    def field(self) -> DiffusionField:
        return DiffusionField(
            delta=self.delta,
            amp=self.amp,
            driver_decay=self.kappa,
            driver_horizon=self.driver_horizon,
        )

    def nonlinearity_spec(self) -> NonlinearitySpec:
        table = {
            "zero": NonlinearitySpec.zero,
            "cubic_fisher": NonlinearitySpec.cubic_fisher,
            "pure_cubic": NonlinearitySpec.pure_cubic,
        }
        if self.nonlinearity not in table:
            raise ConfigurationError(
                f"problem.nonlinearity must be one of {sorted(table)}"
            )
        return table[self.nonlinearity]()

    def coefficient_vector(self, spec_text: str) -> np.ndarray:
        """Parse 'zero' | 'mode:<n>:<amp>' | 'random:<radius>' into coefficients."""
        m = self.galerkin_dim
        if spec_text == "zero":
            return np.zeros(m)
        parts = spec_text.split(":")
        try:
            if parts[0] == "mode" and len(parts) == 3:
                n, amp = int(parts[1]), float(parts[2])
            elif parts[0] == "random" and len(parts) == 2:
                radius = float(parts[1])
            else:
                raise ValueError(spec_text)
        except ValueError as exc:
            raise ConfigurationError(
                f"cannot parse coefficient spec {spec_text!r} "
                "(use zero | mode:<n>:<amp> | random:<radius>)"
            ) from exc
        if parts[0] == "mode":
            if not 1 <= n <= m:
                raise ConfigurationError("mode index outside 1..galerkin_dim")
            out = np.zeros(m)
            out[n - 1] = amp
            return out
        rng = np.random.default_rng([self.seed, 999])
        g = rng.standard_normal(m)
        return g * (radius / float(np.linalg.norm(g)))

    def problem(self) -> SemilinearProblem:
        return SemilinearProblem(
            field=self.field(),
            nonlinearity=self.nonlinearity_spec(),
            forcing=(
                None
                if self.forcing == "zero"
                else self.coefficient_vector(self.forcing)
            ),
            sigma=self.sigma,
            u0=self.coefficient_vector(self.u0),
            blowup_threshold=self.blowup_threshold,
            norm_spec=FractionalNormSpec(alpha=self.alpha),
        )

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]

    def canonical_text(self) -> str:
        rows = []
        for key, value in sorted(self.__dict__.items()):
            rows.append(f"{key}={value!r}")
        return "\n".join(rows)


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip())


# the config section of each RunConfig field, to name the key in errors
_SECTION = {key: section for section, keys in _DEFAULTS.items() for key in keys}
# the parser of each RunConfig field type (as annotated)
_PARSE = {"int": int, "float": float, "str": str, "tuple[float, ...]": _floats}


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """The defaults, overlaid by the config file at ``path`` and then by
    ``overrides`` ({(section, key): value}).  A section or key that has no
    default is refused by name, as is a value its field cannot parse."""
    parser = configparser.ConfigParser()
    parser.read_dict(_DEFAULTS)
    if path is not None:
        with open(path) as fh:
            raw = fh.read()
        try:
            parser.read_string(raw)
        except configparser.Error as exc:
            raise ConfigurationError(f"cannot parse config: {exc}") from exc
    for section in parser.sections():
        if section not in _DEFAULTS:
            raise ConfigurationError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _DEFAULTS[section]:
                raise ConfigurationError(f"unknown config key {section}.{key}")
    if overrides:
        for (section, key), value in overrides.items():
            parser.set(section, key, str(value))
    values = {}
    for spec in fields(RunConfig):
        section = _SECTION[spec.name]
        try:
            values[spec.name] = _PARSE[spec.type](parser.get(section, spec.name))
        except (ValueError, configparser.Error) as exc:
            raise ConfigurationError(
                f"malformed config value {section}.{spec.name}: {exc}"
            ) from exc
    cfg = RunConfig(**values)
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    """Check every constraint, naming the violated one; the constructors of
    the spectrum and the problem (field, norm spec) check their own."""
    # one finiteness rule for every float: NaN and inf pass the constraint
    # comparisons below and would fail only later, deep in the numerics
    for spec in fields(cfg):
        value = getattr(cfg, spec.name)
        items = value if isinstance(value, tuple) else (value,)
        if not all(math.isfinite(x) for x in items if isinstance(x, float)):
            raise ConfigurationError(
                f"{_SECTION[spec.name]}.{spec.name} must be finite, got {value!r}"
            )
    if not cfg.dt > 0:
        raise ConfigurationError("noise.dt must be positive")
    if cfg.seed < 0:
        raise ConfigurationError("noise.seed must be a nonnegative integer")
    if cfg.n_paths < 1:
        raise ConfigurationError("noise.n_paths must be a positive integer")
    if cfg.galerkin_dim < 1:
        raise ConfigurationError("field.galerkin_dim must be a positive integer")
    if cfg.modes > cfg.galerkin_dim:
        raise ConfigurationError("noise.modes must not exceed field.galerkin_dim")
    cfg.spectrum()
    cfg.problem()
    if not 0.0 <= cfg.beta < 0.5:
        raise ConfigurationError("field.beta must lie in [0, 1/2)")
    if not (cfg.eta > cfg.alpha and cfg.eta + cfg.alpha < 1.0):
        raise ConfigurationError(
            "field.eta must satisfy eta > alpha and eta + alpha < 1"
        )
    _check_horizons(cfg.horizons, "experiment.horizons")
    # the temperedness limit e^{-gamma t} ||Z(theta_{-t} w)|| -> 0 is for gamma > 0
    if not cfg.gammas or not all(g > 0 for g in cfg.gammas):
        raise ConfigurationError(
            f"experiment.gammas must be nonempty and positive, got {cfg.gammas!r}"
        )
    if cfg.levels < 2:
        raise ConfigurationError(
            "experiment.levels must be >= 2 (the fitted order needs two levels)"
        )
    if not cfg.horizon > 0:
        raise ConfigurationError("experiment.horizon must be positive")
    if not cfg.truncation_horizon > 0:
        raise ConfigurationError("experiment.truncation_horizon must be positive")
    if not cfg.temperedness_horizon > 0:
        raise ConfigurationError("experiment.temperedness_horizon must be positive")
    if cfg.ensemble_size < 1:
        raise ConfigurationError("experiment.ensemble_size must be >= 1")
    if not cfg.ball_radius > 0:
        raise ConfigurationError("experiment.ball_radius must be positive")
    spans = [
        ("experiment.horizon", cfg.horizon),
        *(("experiment.horizons", t) for t in cfg.horizons),
        ("experiment.truncation_horizon", cfg.truncation_horizon),
        ("experiment.temperedness_horizon", cfg.temperedness_horizon),
        ("field.driver_horizon", cfg.driver_horizon),
    ]
    for key, value in spans:
        try:
            _as_index(value, cfg.dt, key)
        except AlignmentError as exc:
            raise ConfigurationError(str(exc)) from exc


def example_config() -> str:
    parser = configparser.ConfigParser()
    parser.read_dict(_DEFAULTS)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()

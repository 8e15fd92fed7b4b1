"""Experiment configuration: flat key-value parsing with preset defaults.

A config document is UTF-8 text, one ``key = value`` pair per line, ``#``
comments allowed.  Keys use dotted sections (``grid.mx``, ``controller.beta``)
and map onto the flat ExperimentConfig fields.  Unknown keys and
out-of-range values are errors; every preset carries the full parameter
set of the experiment it reproduces as defaults.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ConfigError

__all__ = ["ExperimentConfig", "parse_config", "serialize_config", "PRESETS", "preset_defaults"]


@dataclass
class ExperimentConfig:
    preset: str
    # model parameters
    m: float = 2.0
    theta: float = 0.25
    eps_interface: float = 0.01
    eta: float = 0.0
    eps_visc: float = 0.0
    amplitude: float = 1.0
    nu: float = 1.0
    mobility: str = "constant"
    # grid
    mx: int = 100
    my: int = 0
    # time stepping
    t_final: float = 0.5
    mode: str = "fixed"           # fixed | random | adaptive
    tau: float = 5e-3
    n_steps: int = 0              # random mode: number of random steps
    # controller
    strategy: int = 2
    gamma: float = 1.0
    beta: float = 1.0
    tau_min: float = 1e-6
    tau_max: float = 1e-2
    r_user: float = 1.5
    enforce_theory: bool = False
    tau1: float = 0.0             # startup steps; 0 means the preset decides
    tau2: float = 0.0
    # 2D scheme selection and viscosity scaling
    scheme: str = "explicit"      # explicit | implicit
    visc_scaling: str = "tau-sq-absolute"
    # run plumbing
    seed: int = 0
    out_dir: str = "runs"
    plots: bool = True


_KEY_MAP = {
    "preset": "preset",
    "model.m": "m",
    "model.theta": "theta",
    "model.eps": "eps_interface",
    "model.eta": "eta",
    "model.eps_visc": "eps_visc",
    "model.amplitude": "amplitude",
    "model.nu": "nu",
    "model.mobility": "mobility",
    "grid.mx": "mx",
    "grid.my": "my",
    "time.t_final": "t_final",
    "time.mode": "mode",
    "time.tau": "tau",
    "time.n_steps": "n_steps",
    "controller.strategy": "strategy",
    "controller.gamma": "gamma",
    "controller.beta": "beta",
    "controller.tau_min": "tau_min",
    "controller.tau_max": "tau_max",
    "controller.r_user": "r_user",
    "controller.enforce_theory": "enforce_theory",
    "controller.tau1": "tau1",
    "controller.tau2": "tau2",
    "scheme": "scheme",
    "visc_scaling": "visc_scaling",
    "seed": "seed",
    "out_dir": "out_dir",
    "plots": "plots",
}

_FIELD_TO_KEY = {v: k for k, v in _KEY_MAP.items()}

PRESETS = {
    "ac-interface": dict(mx=100, eps_interface=0.01, eta=0.0, mobility="constant",
                         t_final=20.0, mode="adaptive", strategy=2, beta=1e5,
                         r_user=1.5, tau_max=0.1, tau_min=1e-3, tau1=1e-3, tau2=1e-3,
                         n_steps=2000, seed=100),
    "pme-convergence": dict(m=2.0, mx=100, t_final=0.5, mode="fixed", tau=1.0 / 200.0,
                            n_steps=200, seed=11),
    "pme-waiting-time": dict(m=2.0, theta=0.25, mx=800, t_final=0.30, mode="fixed",
                             tau=1.0 / 800.0, strategy=1, gamma=10.0, tau_min=1e-6,
                             tau_max=5e-3, r_user=1.4, tau1=1e-6, tau2=1e-6, seed=5),
    "ks-blowup-1d": dict(amplitude=5.0 * math.pi, mx=800, t_final=6.0, mode="adaptive",
                         strategy=2, beta=1e-2, tau_min=1e-4, tau_max=1e-2, r_user=3.5,
                         tau1=1e-4, tau2=1e-4, seed=9),
    "barenblatt-2d": dict(m=2.0, mx=64, eps_visc=0.5, t_final=2.0, mode="adaptive",
                          strategy=2, beta=1e-2, tau_min=1e-4, tau_max=1e-2, r_user=1.25,
                          tau1=1e-2, tau2=1e-2, scheme="explicit",
                          visc_scaling="tau-sq-absolute", seed=11),
    "pme-nonradial-2d": dict(m=3.0, mx=64, eps_visc=100.0, t_final=0.6,
                             mode="fixed", tau=4e-3, scheme="explicit",
                             visc_scaling="tau-sq-absolute", seed=13),
    "ks-2d": dict(amplitude=1.0, nu=1.0, m=1.0, mx=64, eps_visc=0.1,
                  t_final=0.2, mode="adaptive", strategy=2, beta=1e-2,
                  tau_min=1e-4, tau_max=1e-2, r_user=1.5, tau1=1e-4, tau2=1e-4,
                  scheme="explicit", visc_scaling="tau-sq-absolute", seed=17),
}


def preset_defaults(preset: str) -> ExperimentConfig:
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; choose one of {sorted(PRESETS)}")
    return ExperimentConfig(preset=preset, **PRESETS[preset])


def _coerce(field: dataclasses.Field, raw: str):
    if field.type in ("float", float):
        value = float(raw)
        if not math.isfinite(value):
            # nan compares False with every bound, so it would slip past validation
            raise ValueError(f"not a finite number: {raw.strip()!r}")
        return value
    if field.type in ("int", int):
        return int(raw)
    if field.type in ("bool", bool):
        low = raw.strip().lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    return raw.strip()


def parse_config(text: str) -> ExperimentConfig:
    """Parse a flat key-value document into a validated ExperimentConfig."""
    pairs = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEY_MAP:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = raw
    if "preset" not in pairs:
        raise ConfigError("missing required key 'preset'")
    config = preset_defaults(pairs.pop("preset"))
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    for key, raw in pairs.items():
        name = _KEY_MAP[key]
        try:
            setattr(config, name, _coerce(fields[name], raw))
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from exc
    validate_config(config)
    return config


def validate_config(config: ExperimentConfig) -> None:
    p = config.preset
    if p not in PRESETS:
        raise ConfigError(f"unknown preset {p!r}")
    if config.mode not in ("fixed", "random", "adaptive"):
        raise ConfigError(f"time.mode must be fixed/random/adaptive, got {config.mode!r}")
    if config.scheme not in ("explicit", "implicit"):
        raise ConfigError(f"scheme must be explicit/implicit, got {config.scheme!r}")
    if config.visc_scaling not in ("tau-increment", "tau-sq-absolute"):
        raise ConfigError(f"unknown visc_scaling {config.visc_scaling!r}")
    if config.mobility not in ("constant", "degenerate"):
        raise ConfigError(f"model.mobility must be constant/degenerate, got {config.mobility!r}")
    if config.strategy not in (1, 2):
        raise ConfigError("controller.strategy must be 1 or 2")
    if config.mx < 2 or (config.my and config.my < 2):
        raise ConfigError("grid sizes must be at least 2")
    if config.t_final <= 0.0:
        raise ConfigError("time.t_final must be positive")
    if config.mode == "fixed" and config.tau <= 0.0:
        raise ConfigError("fixed mode needs time.tau > 0")
    if config.mode == "random" and not config.n_steps and config.tau <= 0.0:
        # the step count is then round(time.t_final / time.tau)
        raise ConfigError("random mode with time.n_steps = 0 needs time.tau > 0")
    if not 0.0 < config.tau_min <= config.tau_max:
        raise ConfigError("need 0 < controller.tau_min <= controller.tau_max")
    if config.r_user <= 0.0:
        raise ConfigError("controller.r_user must be positive")
    # 0 means "the preset decides" for n_steps, tau1 and tau2, and turns the
    # strategy's rate off for gamma and beta
    for key in ("time.n_steps", "seed", "controller.tau1", "controller.tau2",
                "controller.gamma", "controller.beta"):
        value = getattr(config, _KEY_MAP[key])
        if value < 0:
            raise ConfigError(f"{key} must be nonnegative, got {value}")
    if p in ("pme-convergence", "pme-waiting-time", "barenblatt-2d", "pme-nonradial-2d"):
        if not config.m > 1.0:
            raise ConfigError(f"preset {p}: model.m must exceed 1, got {config.m}")
    if p == "pme-waiting-time" and not 0.0 <= config.theta <= 0.25:
        raise ConfigError(f"preset {p}: model.theta must lie in [0, 0.25], got {config.theta}")
    if p == "ac-interface" and config.eps_interface <= 0.0:
        raise ConfigError("preset ac-interface: model.eps must be positive")
    if p == "ac-interface" and config.eta < 0.0:
        raise ConfigError(f"preset ac-interface: model.eta must be nonnegative, got {config.eta}")
    if p == "ks-2d" and config.m < 1.0:
        raise ConfigError("preset ks-2d: model.m must be at least 1")
    if p == "ks-2d" and config.nu < 0.0:
        raise ConfigError(f"preset ks-2d: model.nu must be nonnegative, got {config.nu}")
    if p == "ks-2d" and config.scheme == "implicit":
        # the interaction Hessian is dense, so the 2D schemes treat it explicitly only
        raise ConfigError("preset ks-2d: scheme = implicit is not supported for the "
                          "Keller-Segel interaction; use scheme = explicit")
    if p in ("ks-blowup-1d", "ks-2d") and config.amplitude <= 0.0:
        raise ConfigError(f"preset {p}: model.amplitude must be positive")
    if config.eps_visc < 0.0:
        raise ConfigError("model.eps_visc must be nonnegative")


def serialize_config(config: ExperimentConfig) -> str:
    """Emit a document that parses back to an equal config."""
    lines = [f"preset = {config.preset}"]
    defaults = preset_defaults(config.preset)
    for f in dataclasses.fields(ExperimentConfig):
        if f.name == "preset":
            continue
        value = getattr(config, f.name)
        key = _FIELD_TO_KEY[f.name]
        if value == getattr(defaults, f.name):
            continue
        if isinstance(value, float):
            lines.append(f"{key} = {value!r}")
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"

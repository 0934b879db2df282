"""Run configuration: a plain key-value file with sections, fully validated
against the module invariants at load time.

The format is INI-style (configparser; " ;" starts an inline comment).
Every key has a default, so a minimal file selects a working run;
validation collects every violation, an unknown section or key among them,
and reports them together, naming the violated bound.

Sections and keys::

    [model]       gamma, alpha, modes, truncation, nonlinear
    [noise]       forced_modes, lambda0, decay, lambdas (explicit override), cq_bound
    [integrator]  dt, time, record_every, scheme, noise_mode, blowup_guard
    [functionals] kappa, kappa2, xi
    [experiment]  driver-specific keys (free-form, echoed to the manifest);
                  the subcommand picks the driver
    [run]         seed, out_dir, save_states, u0_modes
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, field

import numpy as np

from .functionals import FunctionalConstants
from .models import NOISE_MODES, SCHEMES, IntegratorConfig, ModelParams
from .noise import NoiseSpec, traces


class ConfigError(ValueError):
    """Raised with the full list of validation violations."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("invalid configuration:\n  - " + "\n  - ".join(violations))


_DEFAULTS = {
    "model": {
        "gamma": "0.05",
        "alpha": "1.0",
        "modes": "64",
        "truncation": "",
        "nonlinear": "true",
    },
    "noise": {
        "forced_modes": "8",
        "lambda0": "0.05",
        "decay": "2.0",
        "lambdas": "",
        "cq_bound": "200.0",
    },
    "integrator": {
        "dt": "1e-3",
        "time": "1.0",
        "record_every": "10",
        "scheme": "strang",
        "noise_mode": "exact",
        "blowup_guard": "1e6",
    },
    "functionals": {
        "kappa": "1.0",
        "kappa2": "1.0",
        "xi": "0.05",
    },
    "experiment": {},
    "run": {
        "seed": "12345",
        "out_dir": "runs",
        "save_states": "false",
        "u0_modes": "",
    },
}


@dataclass
class RunConfig:
    """Validated configuration; sections mirror the file."""

    model: dict
    noise: dict
    integrator: dict
    functionals: dict
    experiment: dict
    run: dict

    # ---- typed accessors -------------------------------------------------

    def model_params(self) -> ModelParams:
        m = self.model
        trunc = None if m["truncation"] == "" else float(m["truncation"])
        return ModelParams(
            gamma=float(m["gamma"]),
            alpha=float(m["alpha"]),
            M=int(m["modes"]),
            truncation=trunc,
            nonlinear=_bool(m["nonlinear"]),
        )

    def noise_spec(self) -> NoiseSpec:
        n = self.noise
        if n["lambdas"]:
            lam = np.array([float(x) for x in n["lambdas"].split(",") if x.strip()])
            return NoiseSpec(lam)
        N = int(n["forced_modes"])
        return NoiseSpec.power_profile(N, float(n["lambda0"]), float(n["decay"]))

    def integrator_config(self) -> IntegratorConfig:
        i = self.integrator
        return IntegratorConfig(
            dt=float(i["dt"]),
            scheme=i["scheme"],
            record_every=int(i["record_every"]),
            noise_mode=i["noise_mode"],
            blowup_guard=float(i["blowup_guard"]),
        )

    def constants(self) -> FunctionalConstants:
        f = self.functionals
        return FunctionalConstants(
            kappa=float(f["kappa"]), kappa2=float(f["kappa2"]), xi=float(f["xi"])
        )

    @property
    def T(self) -> float:
        return float(self.integrator["time"])

    @property
    def seed(self) -> int:
        return int(self.run["seed"])

    def u0(self) -> np.ndarray:
        """Initial field from 'k:coeff' pairs, e.g. '1:0.5, 2:0.3+0.1j'."""
        M = int(self.model["modes"])
        out = np.zeros(M, dtype=np.complex128)
        text = self.run["u0_modes"].strip()
        if text:
            for item in text.split(","):
                k, val = item.split(":")
                out[int(k) - 1] = complex(val)
        return out

    # ---- serialization ---------------------------------------------------

    def serialize(self) -> str:
        cp = configparser.ConfigParser()
        for name in _DEFAULTS:
            cp[name] = dict(getattr(self, name))
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    def as_dict(self) -> dict:
        return {name: dict(getattr(self, name)) for name in _DEFAULTS}

    def content_hash(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()[:16]


def _bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _merged(cp: configparser.ConfigParser) -> tuple[dict, list[str]]:
    """(the file's sections over the defaults, one violation per unknown
    section or key).  [experiment] takes any key."""
    bad = [f"[{name}]: unknown section" for name in cp.sections() if name not in _DEFAULTS]
    sections = {}
    for name, defaults in _DEFAULTS.items():
        merged = dict(defaults)
        if cp.has_section(name):
            for key, val in cp.items(name):
                if name != "experiment" and key not in defaults:
                    bad.append(f"[{name}] {key}: unknown key")
                else:
                    merged[key] = val
        sections[name] = merged
    return sections, bad


def validate(cfg: RunConfig) -> list[str]:
    """Collect every invariant violation; empty list means valid."""
    bad: list[str] = []
    m, n, i, f, r = cfg.model, cfg.noise, cfg.integrator, cfg.functionals, cfg.run

    def num(section, sec_name, key, caster=float):
        try:
            return caster(section[key])
        except (ValueError, KeyError) as exc:
            bad.append(f"[{sec_name}] {key}: unparseable ({exc})")
            return None

    gamma = num(m, "model", "gamma")
    alpha = num(m, "model", "alpha")
    modes = num(m, "model", "modes", int)
    if gamma is not None and not 0.0 <= gamma < 1.0:
        bad.append(f"[model] gamma={gamma} violates 0 <= gamma < 1")
    if alpha is not None and alpha <= 0:
        bad.append(f"[model] alpha={alpha} violates alpha > 0 (damping is essential)")
    if modes is not None and modes < 1:
        bad.append(f"[model] modes={modes} violates modes >= 1")
    if m["truncation"]:
        R = num(m, "model", "truncation")
        if R is not None and R <= 0:
            bad.append(f"[model] truncation={R} violates R > 0")

    spec = None
    try:
        spec = cfg.noise_spec()
    except ValueError as exc:
        bad.append(f"[noise] {exc}")
    cq = num(n, "noise", "cq_bound")
    if spec is not None:
        if modes is not None and spec.N > modes:
            bad.append(
                f"[noise] forced_modes={spec.N} exceeds Galerkin modes={modes}"
            )
        if cq is not None:
            tr32 = traces(spec).tr_a32qq
            if tr32 >= cq:
                bad.append(
                    f"[noise] Tr(A^(3/2)QQ*)={tr32:.6g} exceeds the C_Q bound {cq:.6g}"
                )

    dt = num(i, "integrator", "dt")
    if dt is not None and dt <= 0:
        bad.append(f"[integrator] dt={dt} violates dt > 0")
    T = num(i, "integrator", "time")
    if T is not None and T < 0:
        bad.append(f"[integrator] time={T} violates time >= 0")
    re_ = num(i, "integrator", "record_every", int)
    if re_ is not None and re_ < 1:
        bad.append(f"[integrator] record_every={re_} violates record_every >= 1")
    if i["scheme"] not in SCHEMES:
        bad.append(f"[integrator] scheme={i['scheme']!r} not one of {SCHEMES}")
    if i["noise_mode"] not in NOISE_MODES:
        bad.append(f"[integrator] noise_mode={i['noise_mode']!r} not one of {NOISE_MODES}")

    kappa = num(f, "functionals", "kappa")
    kappa2 = num(f, "functionals", "kappa2")
    xi = num(f, "functionals", "xi")
    if kappa is not None and kappa <= 0:
        bad.append(f"[functionals] kappa={kappa} violates kappa > 0")
    if kappa2 is not None and kappa2 <= 0:
        bad.append(f"[functionals] kappa2={kappa2} violates kappa2 > 0")
    if xi is not None:
        if xi <= 0:
            bad.append(f"[functionals] xi={xi} violates xi > 0")
        elif spec is not None and alpha is not None and alpha > 0:
            tr = traces(spec).tr_qq
            if tr > 0 and xi >= alpha / (2.0 * tr):
                bad.append(
                    f"[functionals] xi={xi} violates xi < alpha/(2 Tr(QQ*)) = "
                    f"{alpha / (2.0 * tr):.6g}"
                )

    num(r, "run", "seed", int)
    if r["u0_modes"].strip():
        try:
            cfg.u0()
        except Exception as exc:
            bad.append(f"[run] u0_modes: unparseable ({exc})")
    return bad


def load_config(path: str) -> RunConfig:
    """Parse and validate; raises ConfigError listing all violations."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
    read = cp.read(path)
    if not read:
        raise ConfigError([f"config file not found or unreadable: {path}"])
    sections, bad = _merged(cp)
    cfg = RunConfig(**sections)
    bad += validate(cfg)
    if bad:
        raise ConfigError(bad)
    return cfg


def default_config() -> RunConfig:
    return RunConfig(**{k: dict(v) for k, v in _DEFAULTS.items()})

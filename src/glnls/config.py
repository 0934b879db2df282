"""Run configuration: a plain key-value file with sections, parsed and
validated at load time.

The format is INI-style (configparser; " ;" starts an inline comment).
Every key is declared once, in ``_KEYS`` or in its subcommand's
``EXPERIMENT`` table, with its default and its parser, so a minimal file
selects a working run.  ``load_config(path, subcommand)`` parses each key
once, and the drivers read the typed values.  Every key a file sets either
reaches the run or stops it: validation collects every violation and
reports them together, naming the violated bound.  A violation is a file
that does not parse, a value its parser rejects or finds out of range (an
[experiment] count below 1, t_points below 2, a duration that is not
positive, a tail-fitted run shorter than 1), an unknown section or key, or
a key the subcommand does not read (``UNREAD``; [noise] forced_modes,
lambda0 and decay are not read when lambdas is set, nor inviscid's radius
when truncated is false, nor couple's perturb when every mode is forced).

Sections and keys::

    [model]       gamma, alpha, modes, truncation, nonlinear
    [noise]       forced_modes, lambda0, decay, lambdas (explicit override), cq_bound
    [integrator]  dt, time, record_every, scheme, noise_mode, blowup_guard
    [functionals] kappa, kappa2, xi
    [experiment]  the subcommand's own keys (``EXPERIMENT``); loaded without
                  a subcommand, the section is kept as unchecked text
    [run]         seed, out_dir, save_states, u0_modes
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass

import numpy as np

from .functionals import FunctionalConstants
from .models import NOISE_MODES, SCHEMES, IntegratorConfig, ModelParams
from .noise import NoiseSpec, traces


class ConfigError(ValueError):
    """Raised with the full list of validation violations."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("invalid configuration:\n  - " + "\n  - ".join(violations))


def _bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _opt_float(text: str) -> float | None:
    """Empty text is None (the run's own default)."""
    return float(text) if text.strip() else None


def _floats(text: str) -> tuple[float, ...]:
    """Comma-separated floats; empty text is ()."""
    return tuple(float(x) for x in text.split(",") if x.strip())


class _OutOfRange(ValueError):
    """A value that parses but lies outside its key's bound."""


def _bounded(parse, low, strict=False):
    """``parse``, then require value >= low (> low when strict); None (unset) passes."""
    def bounded(text: str):
        value = parse(text)
        if value is not None and (value <= low if strict else value < low):
            raise _OutOfRange(f"{value} is out of range, need {'>' if strict else '>='} {low}")
        return value
    return bounded


_count = _bounded(int, 1)
_duration = _bounded(float, 0.0, strict=True)
_fit_time = _bounded(float, 1.0)  # stats.tail_fit's window starts at t = 1


def _modes(text: str) -> tuple[tuple[int, complex], ...]:
    """'k:coeff' pairs, e.g. '1:0.5, 2:0.3+0.1j'; empty text is ()."""
    items = text.split(",") if text.strip() else ()
    return tuple((int(k), complex(v)) for k, v in (item.split(":") for item in items))


# every shared key: (default text, parser)
_KEYS = {
    "model": {
        "gamma": ("0.05", float),
        "alpha": ("1.0", float),
        "modes": ("64", int),
        "truncation": ("", _opt_float),
        "nonlinear": ("true", _bool),
    },
    "noise": {
        "forced_modes": ("8", int),
        "lambda0": ("0.05", float),
        "decay": ("2.0", float),
        "lambdas": ("", _floats),
        "cq_bound": ("200.0", float),
    },
    "integrator": {
        "dt": ("1e-3", float),
        "time": ("1.0", float),
        "record_every": ("10", int),
        "scheme": ("strang", str),
        "noise_mode": ("exact", str),
        "blowup_guard": ("1e6", float),
    },
    "functionals": {
        "kappa": ("1.0", float),
        "kappa2": ("1.0", float),
        "xi": ("0.05", float),
    },
    "experiment": {},  # declared per subcommand, in EXPERIMENT
    "run": {
        "seed": ("12345", int),
        "out_dir": ("runs", str),
        "save_states": ("false", _bool),
        "u0_modes": ("", _modes),
    },
}

# each subcommand's [experiment] keys; an empty default is worked out by the driver
EXPERIMENT = {
    "simulate": {},
    "ensemble": {"size": ("100", _count)},
    "couple": {"pairs": ("64", _count), "segments": ("4", _count), "beta": ("0.5", float),
               "segment_time": ("2.0", _duration), "perturb": ("0", complex),
               "pilot_traj": ("100", _count), "pilot_time": ("10.0", _fit_time),
               "theta": ("", _opt_float)},
    "mixing": {"gammas": ("0.05", _floats), "t_max": ("50", _duration),
               "t_points": ("51", _bounded(int, 2)), "ensemble": ("64", _count)},
    "inviscid": {"gammas": ("1e-4,1e-3,1e-2,1e-1", _floats), "pairs": ("100", _count),
                 "time": ("1.0", _duration), "truncated": ("true", _bool),
                 "radius": ("2.0", float)},
    "measures": {"gammas": ("0.2,0.1,0.05", _floats),
                 "burn_in": ("", _bounded(_opt_float, 0.0, strict=True)),
                 "samples": ("128", _count), "thinning": ("1.0", _duration)},
    "tails": {"n": ("4", int), "p": ("1.0", float), "time": ("10.0", _fit_time),
              "ensemble": ("200", _count), "rho_grid": ("", _floats)},
}

# the shared keys each subcommand does not read: a file that sets one is rejected
UNREAD = {
    "simulate": "functionals.kappa2 functionals.xi",
    "ensemble": "functionals.kappa2 functionals.xi run.save_states",
    "couple": "integrator.time integrator.record_every integrator.scheme "
              "integrator.noise_mode functionals.xi run.save_states",
    "mixing": "model.gamma integrator.time integrator.record_every functionals.kappa "
              "functionals.kappa2 functionals.xi run.save_states",
    "inviscid": "model.gamma model.truncation model.nonlinear integrator.time "
                "integrator.record_every integrator.scheme integrator.noise_mode "
                "functionals.kappa functionals.kappa2 functionals.xi run.save_states",
    "measures": "model.gamma integrator.time integrator.record_every integrator.scheme "
                "integrator.noise_mode functionals.kappa2 run.save_states",
    "tails": "integrator.dt integrator.time integrator.scheme integrator.noise_mode "
             "functionals.kappa2 functionals.xi run.save_states",
}


@dataclass
class RunConfig:
    """Parsed configuration: each section maps its keys to typed values;
    ``text`` keeps, per section, the texts of the keys the run reads (the
    manifest's echo)."""

    model: dict
    noise: dict
    integrator: dict
    functionals: dict
    experiment: dict
    run: dict
    text: dict

    # ---- typed accessors -------------------------------------------------

    def model_params(self) -> ModelParams:
        m = self.model
        return ModelParams(gamma=m["gamma"], alpha=m["alpha"], M=m["modes"],
                           truncation=m["truncation"], nonlinear=m["nonlinear"])

    def noise_spec(self) -> NoiseSpec:
        n = self.noise
        if n["lambdas"]:
            return NoiseSpec(np.array(n["lambdas"]))
        return NoiseSpec.power_profile(n["forced_modes"], n["lambda0"], n["decay"])

    def integrator_config(self) -> IntegratorConfig:
        i = self.integrator
        return IntegratorConfig(
            dt=i["dt"], scheme=i["scheme"], record_every=i["record_every"],
            noise_mode=i["noise_mode"], blowup_guard=i["blowup_guard"],
        )

    def constants(self) -> FunctionalConstants:
        f = self.functionals
        return FunctionalConstants(kappa=f["kappa"], kappa2=f["kappa2"], xi=f["xi"])

    @property
    def T(self) -> float:
        return self.integrator["time"]

    @property
    def seed(self) -> int:
        return self.run["seed"]

    def u0(self) -> np.ndarray:
        """Initial field from [run] u0_modes."""
        out = np.zeros(self.model["modes"], dtype=np.complex128)
        for k, coeff in self.run["u0_modes"]:
            out[k - 1] = coeff
        return out

    # ---- serialization ---------------------------------------------------

    def serialize(self) -> str:
        cp = configparser.ConfigParser()
        cp.read_dict(self.text)
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    def as_dict(self) -> dict:
        return {name: dict(keys) for name, keys in self.text.items()}

    def content_hash(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()[:16]


def validate(cfg: RunConfig, unread=()) -> list[str]:
    """Collect every bound violation of the parsed values, leaving out the
    bounds of the ``unread`` keys ("section.key"); empty list means valid."""
    bad: list[str] = []
    m, n, i, f, r = cfg.model, cfg.noise, cfg.integrator, cfg.functionals, cfg.run

    gamma, alpha, modes, R = m["gamma"], m["alpha"], m["modes"], m["truncation"]
    if not 0.0 <= gamma < 1.0:
        bad.append(f"[model] gamma={gamma} violates 0 <= gamma < 1")
    if alpha <= 0:
        bad.append(f"[model] alpha={alpha} violates alpha > 0 (damping is essential)")
    if modes < 1:
        bad.append(f"[model] modes={modes} violates modes >= 1")
    if R is not None and R <= 0:
        bad.append(f"[model] truncation={R} violates R > 0")

    spec = None
    try:
        spec = cfg.noise_spec()
    except ValueError as exc:
        bad.append(f"[noise] {exc}")
    if spec is not None:
        if spec.N > modes:
            bad.append(f"[noise] forced_modes={spec.N} exceeds Galerkin modes={modes}")
        tr32, cq = traces(spec).tr_a32qq, n["cq_bound"]
        if tr32 >= cq:
            bad.append(f"[noise] Tr(A^(3/2)QQ*)={tr32:.6g} exceeds the C_Q bound {cq:.6g}")

    if i["dt"] <= 0:
        bad.append(f"[integrator] dt={i['dt']} violates dt > 0")
    if i["time"] < 0:
        bad.append(f"[integrator] time={i['time']} violates time >= 0")
    if i["record_every"] < 1:
        bad.append(f"[integrator] record_every={i['record_every']} violates record_every >= 1")
    if i["scheme"] not in SCHEMES:
        bad.append(f"[integrator] scheme={i['scheme']!r} not one of {SCHEMES}")
    if i["noise_mode"] not in NOISE_MODES:
        bad.append(f"[integrator] noise_mode={i['noise_mode']!r} not one of {NOISE_MODES}")

    kappa, kappa2, xi = f["kappa"], f["kappa2"], f["xi"]
    if kappa <= 0:
        bad.append(f"[functionals] kappa={kappa} violates kappa > 0")
    if kappa2 <= 0:
        bad.append(f"[functionals] kappa2={kappa2} violates kappa2 > 0")
    if xi <= 0:
        bad.append(f"[functionals] xi={xi} violates xi > 0")
    elif spec is not None and alpha > 0 and "functionals.xi" not in unread:
        tr = traces(spec).tr_qq
        if tr > 0 and xi >= alpha / (2.0 * tr):
            bad.append(
                f"[functionals] xi={xi} violates xi < alpha/(2 Tr(QQ*)) = "
                f"{alpha / (2.0 * tr):.6g}"
            )

    if any(not 1 <= k <= modes for k, _ in r["u0_modes"]):
        bad.append(f"[run] u0_modes: a mode index outside 1..{modes}")
    return bad


def _read(path: str) -> dict:
    """The file's sections as {name: {key: text}}."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        if not cp.read(path):
            raise ConfigError([f"config file not found or unreadable: {path}"])
        return {name: dict(cp.items(name)) for name in cp.sections()}
    except configparser.Error as exc:  # duplicate section or key, no header, ...
        raise ConfigError([f"{path}: {type(exc).__name__}: {exc}"]) from None


def load_config(path: str | None = None, subcommand: str | None = None,
                run: dict | None = None) -> RunConfig:
    """Parse and validate the file at ``path`` (None: no file, every default)
    for ``subcommand``; ``run`` holds [run] texts that replace the file's.
    Raises ConfigError listing all violations."""
    given = _read(path) if path is not None else {}
    given.setdefault("run", {}).update(run or {})
    free = {key: (val, str) for key, val in given.get("experiment", {}).items()}
    keys = dict(_KEYS, experiment=EXPERIMENT[subcommand] if subcommand else free)
    bad, sections = [], {}
    for name, decl in keys.items():
        sections[name] = {}
        for key, (default, parse) in decl.items():
            try:
                sections[name][key] = parse(given.get(name, {}).get(key, default))
            except ValueError as exc:
                why = exc if isinstance(exc, _OutOfRange) else f"unparseable ({exc})"
                bad.append(f"[{name}] {key}: {why}")
                sections[name][key] = parse(default)
    unread = dict.fromkeys(UNREAD[subcommand].split(), f"not read by {subcommand}") \
        if subcommand else {}
    if sections["noise"]["lambdas"]:
        unread.update(dict.fromkeys(("noise.forced_modes", "noise.lambda0", "noise.decay"),
                                    "not read, [noise] lambdas is read in its place"))
    if subcommand == "inviscid" and not sections["experiment"]["truncated"]:
        unread["experiment.radius"] = "not read, [experiment] truncated is false"
    forced = len(sections["noise"]["lambdas"]) or sections["noise"]["forced_modes"]
    if subcommand == "couple" and forced == sections["model"]["modes"]:
        # perturb moves mode M, which the coupled pair pins to u1's when every mode is forced
        unread["experiment.perturb"] = "not read, every mode is forced and so pinned"
    bad += [f"[{name}]: unknown section" for name in given if name not in keys]
    unknown = f"unknown key for {subcommand}" if subcommand else "unknown key"
    for name, sec in given.items():
        for key in sec if name in keys else ():
            why = unread.get(f"{name}.{key}") if key in keys[name] else unknown
            if why:
                bad.append(f"[{name}] {key}: {why}")
    # the texts of the keys the run reads, for the echo
    text = {name: {key: given.get(name, {}).get(key, default) for key, (default, _) in
                   decl.items() if f"{name}.{key}" not in unread} for name, decl in keys.items()}
    cfg = RunConfig(**sections, text=text)
    bad += validate(cfg, unread)
    if bad:
        raise ConfigError(bad)
    return cfg


def default_config(subcommand: str | None = None) -> RunConfig:
    return load_config(None, subcommand)

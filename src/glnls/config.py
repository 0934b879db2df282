"""Run configuration: a plain key-value file with sections, parsed and
validated at load time.

The format is INI-style (configparser; " ;" starts an inline comment).
Every key is declared once, in ``_KEYS`` or in its subcommand's
``EXPERIMENT`` table, with its default and its parser, so a minimal file
selects a working run.  ``load_config(path, subcommand)`` parses each key
once, and the drivers read the typed values.  Every key a file sets either
reaches the run or stops it: validation collects every violation and
reports them together, naming the violated bound.  A violation is a file
that does not parse, a value its parser rejects or finds outside the key's
own bound (a count below 1, a step, duration, amplitude or constant that is
not positive, a viscosity outside [0, 1), a scheme not in ``SCHEMES``, a
tails exponent p or a couple perturbation that is not finite; a list is
bounded element by element), a broken rule that ties keys together
(``validate``: forced modes at most modes, the C_Q and xi bounds, u0_modes
indices in 1..modes, measures' thinning a whole number of dt steps, no two
of mixing's or measures' gammas alike to 6 significant digits (the "{g:g}"
of mixing's CSV names), couple's forced modes at least one and
beta^10 above 0), an unknown section or key, or a key the subcommand does
not read (``UNREAD``; [noise] forced_modes, lambda0 and decay are not read
when lambdas is set, nor inviscid's radius when truncated is false, nor
couple's perturb when every mode is forced).

Sections and keys::

    [model]       gamma, alpha, modes, truncation, nonlinear
    [noise]       forced_modes, lambda0, decay, lambdas (explicit override), cq_bound
    [integrator]  dt, time, record_every, scheme, noise_mode, blowup_guard
    [functionals] kappa, kappa2, xi
    [experiment]  the subcommand's own keys (``EXPERIMENT``)
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


def _bounded(parse, low, strict=False, high=None):
    """``parse``, then require value >= low (> low when strict) and, given
    ``high``, value < high, of the value or of each element of a tuple;
    None (unset) passes."""
    need = f"{'>' if strict else '>='} {low}" + ("" if high is None else f" and < {high}")

    def bounded(text: str):
        value = parse(text)
        for x in value if isinstance(value, tuple) else (value,):
            if x is not None and not ((x > low if strict else x >= low)
                                      and (high is None or x < high)):
                raise _OutOfRange(f"{x} is out of range, need {need}")
        return value
    return bounded


def _finite(parse):
    """``parse``, then require a finite value (a complex one finite in both parts)."""
    def finite(text: str):
        value = parse(text)
        if not np.isfinite(value):
            raise _OutOfRange(f"{text} is out of range, need a finite value")
        return value
    return finite


def _choice(options):
    """The text itself, which must be one of ``options``."""
    def choice(text: str) -> str:
        if text not in options:
            raise _OutOfRange(f"{text} is out of range, need one of {', '.join(options)}")
        return text
    return choice


_count = _bounded(int, 1)
_positive = _bounded(float, 0.0, strict=True)
_opt_positive = _bounded(_opt_float, 0.0, strict=True)
_fit_time = _bounded(float, 1.0)  # stats.tail_fit's window starts at t = 1
_viscosities = _bounded(_floats, 0.0, high=1.0)


def _modes(text: str) -> tuple[tuple[int, complex], ...]:
    """'k:coeff' pairs, e.g. '1:0.5, 2:0.3+0.1j'; empty text is ()."""
    items = text.split(",") if text.strip() else ()
    return tuple((int(k), complex(v)) for k, v in (item.split(":") for item in items))


# every shared key: (default text, parser)
_KEYS = {
    "model": {
        "gamma": ("0.05", _bounded(float, 0.0, high=1.0)),
        "alpha": ("1.0", _positive),
        "modes": ("64", _count),
        "truncation": ("", _opt_positive),
        "nonlinear": ("true", _bool),
    },
    "noise": {
        "forced_modes": ("8", _bounded(int, 0)),
        "lambda0": ("0.05", _positive),
        "decay": ("2.0", float),
        "lambdas": ("", _bounded(_floats, 0.0, strict=True)),
        "cq_bound": ("200.0", float),
    },
    "integrator": {
        "dt": ("1e-3", _positive),
        "time": ("1.0", _bounded(float, 0.0)),
        "record_every": ("10", _count),
        "scheme": ("strang", _choice(SCHEMES)),
        "noise_mode": ("exact", _choice(NOISE_MODES)),
        "blowup_guard": ("1e6", _positive),
    },
    "functionals": {
        "kappa": ("1.0", _positive),
        "kappa2": ("1.0", _positive),
        "xi": ("0.05", _positive),
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
    "couple": {"pairs": ("64", _count), "segments": ("4", _count),
               "beta": ("0.5", _bounded(float, 0.0, strict=True, high=1.0)),
               "segment_time": ("2.0", _positive), "perturb": ("0", _finite(complex)),
               "pilot_traj": ("100", _count), "pilot_time": ("10.0", _fit_time),
               "theta": ("", _opt_positive)},
    "mixing": {"gammas": ("0.05", _viscosities), "t_max": ("50", _positive),
               "t_points": ("51", _bounded(int, 2)), "ensemble": ("64", _count)},
    "inviscid": {"gammas": ("1e-4,1e-3,1e-2,1e-1", _viscosities), "pairs": ("100", _count),
                 "time": ("1.0", _positive), "truncated": ("true", _bool),
                 "radius": ("2.0", _positive)},
    "measures": {"gammas": ("0.2,0.1,0.05", _viscosities), "burn_in": ("", _opt_positive),
                 "samples": ("128", _count), "thinning": ("1.0", _positive)},
    "tails": {"n": ("4", _count), "p": ("1.0", _bounded(_finite(float), 0.0, strict=True)),
              "time": ("10.0", _fit_time), "ensemble": ("200", _count),
              "rho_grid": ("", _floats)},
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


def validate(cfg: RunConfig, subcommand: str, unread=()) -> list[str]:
    """Collect every violation of the rules that tie keys together for
    ``subcommand``, leaving out the rules on the ``unread`` keys
    ("section.key"); each key's own bound is its parser's.  Empty list
    means valid."""
    bad: list[str] = []
    modes = cfg.model["modes"]
    if any(not 1 <= k <= modes for k, _ in cfg.run["u0_modes"]):
        bad.append(f"[run] u0_modes: a mode index outside 1..{modes}")
    x = cfg.experiment
    gammas = x["gammas"] if subcommand in ("mixing", "measures") else ()
    if len({f"{g:g}" for g in gammas}) < len(gammas):  # mixing's CSVs are named by {g:g}
        bad.append(f"[experiment] gammas: two values alike to 6 digits in {gammas}")
    if subcommand == "couple" and not x["beta"] ** 10 > 0:
        bad.append(f"[experiment] beta: {x['beta']}^10, couple's t1 and r1, underflows to 0")
    if subcommand == "measures":
        # invariant_measure_sample takes its samples a whole number of steps apart
        thinning, dt = x["thinning"], cfg.integrator["dt"]
        steps = thinning / dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            bad.append(f"[experiment] thinning: {thinning} is not a whole number of "
                       f"[integrator] dt = {dt} steps")
    try:
        spec = cfg.noise_spec()
    except ValueError as exc:  # lambda0 k^-decay underflows to 0 at some k <= N
        return bad + [f"[noise] {exc}"]
    if spec.N > modes:
        bad.append(f"[noise] forced_modes={spec.N} exceeds Galerkin modes={modes}")
    if subcommand == "couple" and spec.N == 0:
        bad.append("[noise] forced_modes: 0, but couple pins the forced modes and needs one")
    tr, cq = traces(spec), cfg.noise["cq_bound"]
    if not tr.tr_a32qq < cq:
        bad.append(f"[noise] Tr(A^(3/2)QQ*)={tr.tr_a32qq:.6g} exceeds the C_Q bound {cq:.6g}")
    xi, alpha = cfg.functionals["xi"], cfg.model["alpha"]
    if tr.tr_qq > 0 and "functionals.xi" not in unread and xi >= alpha / (2.0 * tr.tr_qq):
        bad.append(f"[functionals] xi={xi} violates xi < alpha/(2 Tr(QQ*)) = "
                   f"{alpha / (2.0 * tr.tr_qq):.6g}")
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


def load_config(path: str | None, subcommand: str, run: dict | None = None) -> RunConfig:
    """Parse and validate the file at ``path`` (None: no file, every default)
    for ``subcommand``; ``run`` holds [run] texts that replace the file's.
    Raises ConfigError listing all violations."""
    given = _read(path) if path is not None else {}
    given.setdefault("run", {}).update(run or {})
    keys = dict(_KEYS, experiment=EXPERIMENT[subcommand])
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
    unread = dict.fromkeys(UNREAD[subcommand].split(), f"not read by {subcommand}")
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
    unknown = f"unknown key for {subcommand}"
    for name, sec in given.items():
        for key in sec if name in keys else ():
            why = unread.get(f"{name}.{key}") if key in keys[name] else unknown
            if why:
                bad.append(f"[{name}] {key}: {why}")
    # the texts of the keys the run reads, for the echo
    text = {name: {key: given.get(name, {}).get(key, default) for key, (default, _) in
                   decl.items() if f"{name}.{key}" not in unread} for name, decl in keys.items()}
    cfg = RunConfig(**sections, text=text)
    bad += validate(cfg, subcommand, unread)
    if bad:
        raise ConfigError(bad)
    return cfg

"""Command-line surface: reproducible runs driven by a config file.

    glnls SUBCOMMAND [--config PATH] [--seed N] [--out DIR]
    glnls ensemble [--config PATH] [--seed N] [--workers N] [--out DIR]
    glnls validate [--only I,J,...]

Subcommands: validate, simulate, ensemble, couple, mixing, inviscid,
measures, tails.  Only ensemble accepts --workers (default 1): its pool
chunks the trajectory ensemble across processes, and because every
trajectory owns a counter-based stream keyed by (seed, id), the merged
output is identical for any worker count.

validate runs the pinned acceptance checks (--only picks some of them by
index) and writes nothing.  Every other subcommand has a driver
``drive_<name>(cfg, seed, args)`` that returns only what it computed: its
CSV tables as ``{file name: (header, rows)}`` and its manifest fields
(``trajectory_count`` and ``excluded_count``, and where it has them
``derived_constants`` and ``results``).  ``main`` is the one runner: it
loads the config for the subcommand (``config.load_config``; --seed and
--out replace [run] seed and out_dir), times the driver, allocates a fresh
run directory (never overwriting an earlier one, and none for a driver
that raised), writes each table with 17-significant-digit floats and then
one manifest.json with the config echo, the wall time, the counts and the
SHA-256 of every CSV.  Failures exit nonzero with a machine-readable JSON
error on stderr (code 2 for a config violation).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace

import numpy as np

from . import acceptance
from . import coupling as cp
from . import functionals as fn
from . import models as md
from . import stats as st
from .config import ConfigError, RunConfig, load_config
from .noise import derive_seed
from .outputs import allocate_run_dir, write_csv, write_manifest


def _ensemble_chunk(payload):
    """Worker-pool task: advance one chunk of trajectory ids."""
    u0, params, integ, spec, T, seed, ids, consts = payload
    rec = md.simulate_ensemble(
        u0, params, integ, spec, T, seed, traj_ids=np.asarray(ids), consts=consts
    )
    return (
        rec.times, rec.energy.H, rec.energy.H1, rec.energy.phi,
        rec.final, rec.excluded,
    )


def run_ensemble(cfg: RunConfig, n_traj: int, workers: int, seed: int):
    """Trajectory ensemble, chunked across workers; order-independent merge."""
    params, spec = cfg.model_params(), cfg.noise_spec()
    integ, consts = cfg.integrator_config(), cfg.constants()
    payloads = [(cfg.u0(), params, integ, spec, cfg.T, seed, c, consts)
                for c in np.array_split(np.arange(n_traj), workers) if len(c)]
    if workers <= 1:
        parts = [_ensemble_chunk(p) for p in payloads]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_ensemble_chunk, payloads))
    # the chunks' records (n_rec, chunk) join on axis 1, their final states and flags on 0
    H, H1, phi = (np.concatenate([p[i] for p in parts], axis=1) for i in (1, 2, 3))
    final, excluded = (np.concatenate([p[i] for p in parts]) for i in (4, 5))
    return parts[0][0], H, H1, phi, final, excluded


# ---------------------------------------------------------------------------
# drivers: (cfg, seed, args) -> (tables, manifest fields)
# ---------------------------------------------------------------------------

def _fit_fields(fit: st.RateFit, exponent: str) -> dict:
    return {exponent: fit.exponent, "r_squared": fit.r_squared,
            "residual": fit.residual, "half_width": fit.half_width}


def drive_simulate(cfg, seed, args):
    params = cfg.model_params()
    save_states = cfg.run["save_states"]
    rec = md.simulate_ensemble(
        cfg.u0(), params, cfg.integrator_config(), cfg.noise_spec(), cfg.T, seed,
        traj_ids=np.array([0]), consts=cfg.constants(), record_states=save_states,
    )
    e = rec.energy
    tables = {"energy.csv": (
        fn.ENERGY_CSV_HEADER,
        zip(e.t, *(getattr(e, name)[:, 0] for name in fn.ENERGY_CSV_HEADER[1:])),
    )}
    if save_states:
        modes = range(1, params.M + 1)
        header = ["t"] + [f"re_a{k}" for k in modes] + [f"im_a{k}" for k in modes]
        tables["states.csv"] = (header, (
            [t, *a.real, *a.imag] for t, a in zip(rec.times, rec.states[:, 0])
        ))
    return tables, {"trajectory_count": 1, "excluded_count": int(rec.excluded[0])}


def drive_ensemble(cfg, seed, args):
    n_traj = cfg.experiment["size"]
    times, H, H1, phi, final, excluded = run_ensemble(cfg, n_traj, args.workers, seed)
    live = ~excluded
    n = int(live.sum())

    def mean_se(x):  # NaN when no trajectory is live, with no empty-slice mean
        return (x.mean(), x.std() / np.sqrt(n)) if n else (np.nan, np.nan)

    rows = (
        (times[i], *mean_se(H[i, live]), *mean_se(H1[i, live]), *mean_se(phi[i, live]))
        for i in range(len(times))
    )
    header = ("t", "mean_H", "se_H", "mean_H1", "se_H1", "mean_phi", "se_phi")
    return {"ensemble_mean.csv": (header, rows)}, {
        "trajectory_count": n_traj, "excluded_count": int(excluded.sum()),
    }


def drive_couple(cfg, seed, args):
    params, spec = cfg.model_params(), cfg.noise_spec()
    consts, x, i = cfg.constants(), cfg.experiment, cfg.integrator
    n_pairs, n_segments = x["pairs"], x["segments"]
    pilot = cp.estimate_pilot_constants(
        params, spec, consts, derive_seed(seed, "pilot"),
        n_traj=x["pilot_traj"], T=x["pilot_time"],
    )
    theta = 10.0 * pilot.c4_hat if x["theta"] is None else x["theta"]
    ccfg = cp.CouplingConfig(
        N=spec.N, theta=theta, beta=x["beta"], T=x["segment_time"],
        c4_hat=pilot.c4_hat, k41_hat=pilot.k41_hat, consts=consts,
    )
    # the Girsanov weights fix exponential Euler with raw increments
    integ = md.IntegratorConfig(dt=i["dt"], scheme="expeuler", noise_mode="em",
                                blowup_guard=i["blowup_guard"])
    u1 = cfg.u0()
    u2 = u1.copy()
    if x["perturb"] != 0:
        u2[params.M - 1] += x["perturb"]
    state = cp.make_coupled_state(
        np.broadcast_to(u1, (n_pairs, params.M)).copy(),
        np.broadcast_to(u2, (n_pairs, params.M)).copy(),
        ccfg, consts,
    )
    rows = []
    for k in range(n_segments):
        state, seg = cp.coupled_segment(
            state, ccfg, params, integ, spec, derive_seed(seed, f"segment-{k}"),
        )
        flags = state.e4_crossed.astype(int) + 2 * state.budget_crossed.astype(int)
        j = fn.j_functional(*state.pair, consts)
        for pair in range(n_pairs):
            rows.append((
                pair, state.k, state.ell[pair], j[pair],
                state.log_weight[pair], *seg.e4[-1, :, pair], flags[pair],
            ))
    header = ("pair", "k", "ell", "J", "log_weight", "E4_u1", "E4_u2", "stopped_flags")
    return {"coupling.csv": (header, rows)}, {
        "trajectory_count": 2 * n_pairs,
        "excluded_count": 2 * int(state.excluded.sum()),  # a pair's members fall together
        "derived_constants": {
            "c4_hat": pilot.c4_hat, "k41_hat": pilot.k41_hat,
            "theta": theta, "t1": ccfg.t1, "r1": ccfg.r1,
            "rho1": ccfg.rho1, "rho2": ccfg.rho2,
            "kappa": consts.kappa, "kappa2": consts.kappa2,
        },
        "results": {
            "still_coupled": int(np.sum(state.ell != cp.UNCOUPLED)),
            "pairs": n_pairs, "segments": n_segments,
        },
    }


def drive_mixing(cfg, seed, args):
    x = cfg.experiment
    gammas, ensemble = x["gammas"], x["ensemble"]
    # every gamma in one batch, driven by one stream
    curves = st.mixing_curve(
        cfg.u0(), _second_state(cfg), replace(cfg.model_params(), gamma=gammas),
        cfg.noise_spec(), np.linspace(0.0, x["t_max"], x["t_points"]), ensemble,
        derive_seed(seed, "mixing"), integ=cfg.integrator_config(),
    )
    tables, fits = {}, {}
    for g, curve in zip(gammas, curves):
        tables[f"mixing_gamma{g:g}.csv"] = (
            ("t", "upper_d1", "upper_d0"),
            zip(curve.t, curve.upper_d1, curve.upper_d0),
        )
        tables[f"mixing_dual_gamma{g:g}.csv"] = (
            ("t", "dual_lower_d1"), zip(curve.dual_t, curve.dual_lower),
        )
        if curve.fit:
            fits[str(g)] = _fit_fields(curve.fit, "rate")
    return tables, {
        "trajectory_count": 2 * ensemble * len(gammas),  # a pair's members fall together
        "excluded_count": sum(2 * int(c.excluded.sum()) for c in curves),
        "results": {"fits": fits},
    }


def _second_state(cfg: RunConfig) -> np.ndarray:
    """Second initial state for two-point experiments: u0 shifted one mode up."""
    u0 = cfg.u0()
    out = np.roll(u0, 1)
    out[0] = 0.0
    if not np.any(out):
        out = np.zeros_like(u0)
        out[min(1, len(u0) - 1)] = 1.0
    return out


def drive_inviscid(cfg, seed, args):
    x, i = cfg.experiment, cfg.integrator
    gammas, pairs = x["gammas"], x["pairs"]
    curve = st.inviscid_curve(
        cfg.u0(), gammas, x["time"], pairs, seed,
        alpha=cfg.model["alpha"], M=cfg.model["modes"], spec=cfg.noise_spec(),
        truncated=x["truncated"], R=x["radius"], dt=i["dt"],
        blowup_guard=i["blowup_guard"],
    )
    rows = zip(curve.gammas, curve.mean_sup_err, curve.mean_sup_err_sq,
               curve.se_sup_err_sq, curve.excluded)
    header = ("gamma", "mean_sup_err", "mean_sup_err_sq", "se_sup_err_sq", "excluded")
    fields = {
        # one shared gamma = 0 reference per pair index, one path per distinct nonzero gamma
        "trajectory_count": pairs * (1 + len(set(gammas) - {0.0})),
        "excluded_count": int(curve.excluded.sum()),
    }
    if curve.fit:
        fields["results"] = _fit_fields(curve.fit, "slope")
    return {"inviscid.csv": (header, rows)}, fields


def drive_measures(cfg, seed, args):
    params0 = cfg.model_params()
    spec, consts, x = cfg.noise_spec(), cfg.constants(), cfg.experiment
    gammas = x["gammas"]
    burn_in = 20.0 / params0.alpha if x["burn_in"] is None else x["burn_in"]

    def sample(g, tag):
        return st.invariant_measure_sample(
            replace(params0, gamma=g), spec, burn_in, x["samples"], x["thinning"],
            derive_seed(seed, tag), dt=cfg.integrator["dt"], consts=consts,
            u0=cfg.u0(), blowup_guard=cfg.integrator["blowup_guard"],
        )

    ref, diag0 = sample(0.0, "measure-0")
    diags = {"0": diag0}
    rows = []
    for g in gammas:
        emp, diags[str(g)] = sample(g, f"measure-{g}")
        w0 = st.wasserstein(emp, ref, "d0")
        wxi = st.wasserstein(emp, ref, "d0xi", xi=consts.xi)
        dual = st.dual_lower_bound(emp, ref, "d0")
        rows.append((g, w0.value, w0.gap if w0.gap is not None else -1.0,
                     wxi.value, dual))
    header = ("gamma", "w_d0", "w_d0_gap", "w_d0xi", "dual_lower_d0")
    return {"measures.csv": (header, rows)}, {
        "trajectory_count": len(gammas) + 1,
        "excluded_count": sum(d["excluded"] for d in diags.values()),
        "results": {"diagnostics": diags},
    }


def drive_tails(cfg, seed, args):
    x, i = cfg.experiment, cfg.integrator
    rep = st.tail_experiment(
        cfg.model_params(), cfg.noise_spec(), cfg.u0(), x["n"], x["p"], x["time"],
        rho_grid=x["rho_grid"] or None, ensemble_size=x["ensemble"], seed=seed,
        consts=cfg.constants(), blowup_guard=i["blowup_guard"],
        record_every=i["record_every"],
    )
    rows = zip(rep.rho, rep.frequency, rep.envelope_k / rep.rho**rep.p)
    return {"tails.csv": (("rho", "frequency", "envelope"), rows)}, {
        "trajectory_count": x["ensemble"], "excluded_count": rep.excluded,
        "derived_constants": {"c_n_hat": rep.c_n_hat, "envelope_k": rep.envelope_k},
    }


DRIVERS = {
    "simulate": drive_simulate,
    "ensemble": drive_ensemble,
    "couple": drive_couple,
    "mixing": drive_mixing,
    "inviscid": drive_inviscid,
    "measures": drive_measures,
    "tails": drive_tails,
}


def _check_indices(text: str) -> set[int]:
    """--only: comma-separated acceptance check indices in 1..len(ALL_CHECKS)."""
    n = len(acceptance.ALL_CHECKS)
    only = set()
    for item in text.split(","):
        try:
            k = int(item)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{item!r} is not a check index") from None
        if not 1 <= k <= n:
            raise argparse.ArgumentTypeError(f"check {k} is not one of 1..{n}")
        only.add(k)
    return only


def _worker_count(text: str) -> int:
    """--workers: a process count of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{n} is below 1")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="glnls", description=__doc__)
    sub = ap.add_subparsers(dest="subcommand", required=True)
    sub.add_parser("validate").add_argument(
        "--only", type=_check_indices, default=None,
        help="comma-separated criterion indices to run")
    for name in DRIVERS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="config file path")
        sp.add_argument("--seed", type=int, default=None, help="master seed override")
        sp.add_argument("--out", default=None, help="output directory override")
        if name == "ensemble":
            sp.add_argument("--workers", type=_worker_count, default=1,
                            help="worker processes (default 1)")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.subcommand == "validate":
            results = acceptance.run_all(only=args.only)
            return 0 if all(r.passed for r in results) else 1
        overrides = {"seed": args.seed, "out_dir": args.out}
        cfg = load_config(args.config, args.subcommand,
                          run={k: str(v) for k, v in overrides.items() if v is not None})
        seed = cfg.seed
        start = time.perf_counter()
        tables, fields = DRIVERS[args.subcommand](cfg, seed, args)
        wall_time_s = time.perf_counter() - start
        # allocated only now, so that a failed run leaves no directory behind
        run_dir = allocate_run_dir(cfg.run["out_dir"], args.subcommand)
        files = [write_csv(run_dir / name, header, rows)
                 for name, (header, rows) in tables.items()]
        fields = {"derived_constants": {}, "results": {}, **fields}
        write_manifest(
            run_dir, files, subcommand=args.subcommand, config=cfg.as_dict(),
            config_hash=cfg.content_hash(), seed=seed, wall_time_s=wall_time_s,
            **fields,
        )
        print(f"wrote {run_dir}")
        return 0
    except ConfigError as exc:
        json.dump({"error": "config", "violations": exc.violations},
                  sys.stderr, indent=2)
        sys.stderr.write("\n")
        return 2
    except Exception as exc:  # machine-readable failure report
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

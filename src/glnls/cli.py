"""Command-line surface: reproducible runs driven by a config file.

    glnls SUBCOMMAND --config PATH [--seed N] [--workers N] [--out DIR]

Subcommands: validate, simulate, ensemble, couple, mixing, inviscid,
measures, tails.  Only ensemble accepts --workers, falling back to the
GLNLS_WORKERS environment variable and then to [run] workers; its pool
chunks the trajectory ensemble across processes, and because every
trajectory owns a counter-based stream keyed by (seed, id), the merged
output is identical for any worker count.

Every run allocates a fresh directory (never overwriting an earlier one),
writes CSV curves with 17-significant-digit floats, and one manifest.json
referencing each output file with its content hash.  Failures exit nonzero
with a machine-readable JSON error on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import acceptance
from . import coupling as cp
from . import functionals as fn
from . import models as md
from . import stats as st
from .config import ConfigError, RunConfig, default_config, load_config
from .noise import derive_seed
from .outputs import RunManifest, Stopwatch, allocate_run_dir, write_csv


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
    ids = np.arange(n_traj)
    if workers <= 1:
        chunks = [ids]
    else:
        chunks = np.array_split(ids, workers)
    payloads = [
        (cfg.u0(), params, integ, spec, cfg.T, seed, c, consts)
        for c in chunks if len(c)
    ]
    if workers <= 1:
        parts = [_ensemble_chunk(p) for p in payloads]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_ensemble_chunk, payloads))
    times = parts[0][0]
    H = np.concatenate([p[1] for p in parts], axis=1)
    H1 = np.concatenate([p[2] for p in parts], axis=1)
    phi = np.concatenate([p[3] for p in parts], axis=1)
    final = np.concatenate([p[4] for p in parts], axis=0)
    excluded = np.concatenate([p[5] for p in parts], axis=0)
    return times, H, H1, phi, final, excluded


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def _manifest(cfg: RunConfig, sub: str, seed: int) -> RunManifest:
    return RunManifest(
        subcommand=sub, config=cfg.as_dict(), config_hash=cfg.content_hash(),
        seed=seed,
    )


def _exp(cfg: RunConfig, key: str, default: str) -> str:
    return cfg.experiment.get(key, default)


def drive_validate(cfg, run_dir, seed, args) -> int:
    only = None
    if args.only:
        only = {int(x) for x in args.only.split(",")}
    results = acceptance.run_all(only=only)
    return 0 if all(r.passed for r in results) else 1


def drive_simulate(cfg, run_dir, seed, args) -> int:
    params, spec = cfg.model_params(), cfg.noise_spec()
    integ, consts = cfg.integrator_config(), cfg.constants()
    save_states = cfg.run["save_states"].strip().lower() in ("1", "true", "yes")
    man = _manifest(cfg, "simulate", seed)
    with Stopwatch() as sw:
        rec = md.simulate_ensemble(
            cfg.u0(), params, integ, spec, cfg.T, seed,
            traj_ids=np.array([0]), consts=consts, record_states=save_states,
        )
    one = rec.single()
    p = write_csv(run_dir / "energy.csv", fn.ENERGY_CSV_HEADER, one.energy.rows())
    man.add_file(p)
    if save_states:
        M = params.M
        header = ["t"] + [f"re_a{k}" for k in range(1, M + 1)] + [
            f"im_a{k}" for k in range(1, M + 1)
        ]
        rows = (
            [one.times[i]] + list(one.states[i].real) + list(one.states[i].imag)
            for i in range(len(one.times))
        )
        p = write_csv(run_dir / "states.csv", header, rows)
        man.add_file(p)
    man.wall_time_s = sw.elapsed
    man.trajectory_count = 1
    man.excluded_count = int(one.excluded)
    man.write(run_dir)
    return 0


def drive_ensemble(cfg, run_dir, seed, args) -> int:
    workers = args.workers
    if workers is None:
        workers = int(os.environ.get("GLNLS_WORKERS", cfg.run["workers"]))
    n_traj = int(_exp(cfg, "size", "100"))
    man = _manifest(cfg, "ensemble", seed)
    with Stopwatch() as sw:
        times, H, H1, phi, final, excluded = run_ensemble(cfg, n_traj, workers, seed)
    live = ~excluded
    n = max(int(live.sum()), 1)
    rows = (
        (times[i],
         H[i, live].mean(), H[i, live].std() / np.sqrt(n),
         H1[i, live].mean(), H1[i, live].std() / np.sqrt(n),
         phi[i, live].mean(), phi[i, live].std() / np.sqrt(n))
        for i in range(len(times))
    )
    p = write_csv(
        run_dir / "ensemble_mean.csv",
        ("t", "mean_H", "se_H", "mean_H1", "se_H1", "mean_phi", "se_phi"),
        rows,
    )
    man.add_file(p)
    man.wall_time_s = sw.elapsed
    man.trajectory_count = n_traj
    man.excluded_count = int(excluded.sum())
    man.write(run_dir)
    return 0


def drive_couple(cfg, run_dir, seed, args) -> int:
    params, spec = cfg.model_params(), cfg.noise_spec()
    consts = cfg.constants()
    n_pairs = int(_exp(cfg, "pairs", "64"))
    n_segments = int(_exp(cfg, "segments", "4"))
    beta = float(_exp(cfg, "beta", "0.5"))
    seg_t = float(_exp(cfg, "segment_time", "2.0"))
    perturb = complex(_exp(cfg, "perturb", "0"))
    dt = float(_exp(cfg, "dt", cfg.integrator["dt"]))
    man = _manifest(cfg, "couple", seed)
    with Stopwatch() as sw:
        pilot = cp.estimate_pilot_constants(
            params, spec, consts, derive_seed(seed, "pilot"),
            n_traj=int(_exp(cfg, "pilot_traj", "100")),
            T=float(_exp(cfg, "pilot_time", "10.0")),
        )
        theta = float(_exp(cfg, "theta", str(10.0 * pilot.c4_hat)))
        ccfg = cp.CouplingConfig(
            N=spec.N, theta=theta, beta=beta, T=seg_t,
            c4_hat=pilot.c4_hat, k41_hat=pilot.k41_hat, consts=consts,
        )
        integ = md.IntegratorConfig(dt=dt, scheme="expeuler", noise_mode="em")
        u1 = cfg.u0()
        u2 = u1.copy()
        if perturb != 0:
            u2[params.M - 1] += perturb
        state = cp.make_coupled_state(
            np.broadcast_to(u1, (n_pairs, params.M)).copy(),
            np.broadcast_to(u2, (n_pairs, params.M)).copy(),
            ccfg, consts,
        )
        rows = []
        for k in range(n_segments):
            state, seg = cp.coupled_segment(
                state, ccfg, params, integ, spec,
                derive_seed(seed, f"segment-{k}"),
            )
            flags = state.e4_crossed.astype(int) + 2 * state.budget_crossed.astype(int)
            j = fn.j_functional(state.u1, state.u2_composite(ccfg.N), consts)
            for pair in range(n_pairs):
                rows.append((
                    pair, state.k, state.ell[pair], j[pair],
                    state.log_weight[pair], seg.e4_1[-1, pair],
                    seg.e4_2[-1, pair], flags[pair],
                ))
    p = write_csv(
        run_dir / "coupling.csv",
        ("pair", "k", "ell", "J", "log_weight", "E4_u1", "E4_u2", "stopped_flags"),
        rows,
    )
    man.add_file(p)
    man.wall_time_s = sw.elapsed
    man.trajectory_count = 2 * n_pairs
    man.excluded_count = int(state.excluded.sum())
    man.derived_constants = {
        "c4_hat": pilot.c4_hat, "k41_hat": pilot.k41_hat,
        "theta": theta, "t1": ccfg.t1, "r1": ccfg.r1,
        "rho1": ccfg.rho1, "rho2": ccfg.rho2,
        "kappa": consts.kappa, "kappa2": consts.kappa2,
    }
    man.results = {
        "still_coupled": int(np.sum(state.ell != cp.UNCOUPLED)),
        "pairs": n_pairs, "segments": n_segments,
    }
    man.write(run_dir)
    return 0


def drive_mixing(cfg, run_dir, seed, args) -> int:
    params0 = cfg.model_params()
    spec = cfg.noise_spec()
    gammas = [float(x) for x in _exp(cfg, "gammas", cfg.model["gamma"]).split(",")]
    t_max = float(_exp(cfg, "t_max", "50"))
    n_points = int(_exp(cfg, "t_points", "51"))
    ensemble = int(_exp(cfg, "ensemble", "64"))
    t_grid = np.linspace(0.0, t_max, n_points)
    man = _manifest(cfg, "mixing", seed)
    fits = {}
    with Stopwatch() as sw:
        for g in gammas:
            params = md.ModelParams(
                gamma=g, alpha=params0.alpha, M=params0.M,
                truncation=params0.truncation, dealias=params0.dealias,
                pad_factor=params0.pad_factor, nonlinear=params0.nonlinear,
            )
            curve = st.mixing_curve(
                cfg.u0(), _second_state(cfg), params, spec, t_grid, ensemble,
                derive_seed(seed, f"mixing-{g}"),
                integ=cfg.integrator_config(),
            )
            p = write_csv(
                run_dir / f"mixing_gamma{g:g}.csv",
                ("t", "upper_d1", "upper_d0"),
                zip(curve.t, curve.upper_d1, curve.upper_d0),
            )
            man.add_file(p)
            p = write_csv(
                run_dir / f"mixing_dual_gamma{g:g}.csv",
                ("t", "dual_lower_d1"),
                zip(curve.dual_t, curve.dual_lower),
            )
            man.add_file(p)
            if curve.fit:
                fits[str(g)] = {
                    "rate": curve.fit.exponent, "r_squared": curve.fit.r_squared,
                    "residual": curve.fit.residual, "half_width": curve.fit.half_width,
                }
    man.wall_time_s = sw.elapsed
    man.trajectory_count = 2 * ensemble * len(gammas)
    man.results = {"fits": fits}
    man.write(run_dir)
    return 0


def _second_state(cfg: RunConfig) -> np.ndarray:
    """Second initial state for two-point experiments: u0 shifted one mode up."""
    u0 = cfg.u0()
    out = np.roll(u0, 1)
    out[0] = 0.0
    if not np.any(out):
        out = np.zeros_like(u0)
        out[min(1, len(u0) - 1)] = 1.0
    return out


def drive_inviscid(cfg, run_dir, seed, args) -> int:
    params0 = cfg.model_params()
    spec = cfg.noise_spec()
    gammas = [float(x) for x in _exp(cfg, "gammas", "1e-4,1e-3,1e-2,1e-1").split(",")]
    T = float(_exp(cfg, "time", "1.0"))
    pairs = int(_exp(cfg, "pairs", "100"))
    truncated = _exp(cfg, "truncated", "true").lower() in ("1", "true", "yes")
    R = float(_exp(cfg, "radius", "2.0"))
    man = _manifest(cfg, "inviscid", seed)
    with Stopwatch() as sw:
        curve = st.inviscid_curve(
            cfg.u0(), gammas, T, pairs, seed, alpha=params0.alpha, M=params0.M,
            spec=spec, truncated=truncated, R=R,
            dt=float(cfg.integrator["dt"]),
        )
    p = write_csv(
        run_dir / "inviscid.csv",
        ("gamma", "mean_sup_err", "mean_sup_err_sq", "se_sup_err_sq", "excluded"),
        zip(curve.gammas, curve.mean_sup_err, curve.mean_sup_err_sq,
            curve.se_sup_err_sq, curve.excluded),
    )
    man.add_file(p)
    man.wall_time_s = sw.elapsed
    # one shared gamma = 0 reference per pair index, one path per distinct nonzero gamma
    man.trajectory_count = pairs * (1 + len(set(gammas) - {0.0}))
    man.excluded_count = int(curve.excluded.sum())
    if curve.fit:
        man.results = {
            "slope": curve.fit.exponent, "r_squared": curve.fit.r_squared,
            "residual": curve.fit.residual, "half_width": curve.fit.half_width,
        }
    man.write(run_dir)
    return 0


def drive_measures(cfg, run_dir, seed, args) -> int:
    params0 = cfg.model_params()
    spec, consts = cfg.noise_spec(), cfg.constants()
    gammas = [float(x) for x in _exp(cfg, "gammas", "0.2,0.1,0.05").split(",")]
    burn_in = float(_exp(cfg, "burn_in", str(20.0 / params0.alpha)))
    n_samples = int(_exp(cfg, "samples", "128"))
    thinning = float(_exp(cfg, "thinning", "1.0"))
    man = _manifest(cfg, "measures", seed)
    rows = []
    diags = {}
    with Stopwatch() as sw:
        def sample(g, tag):
            params = md.ModelParams(gamma=g, alpha=params0.alpha, M=params0.M)
            return st.invariant_measure_sample(
                params, spec, burn_in, n_samples, thinning,
                derive_seed(seed, tag), dt=float(cfg.integrator["dt"]),
                consts=consts,
            )
        ref, diag0 = sample(0.0, "measure-0")
        diags["0"] = diag0
        for g in gammas:
            emp, diag = sample(g, f"measure-{g}")
            diags[str(g)] = diag
            w0 = st.wasserstein(emp, ref, "d0")
            wxi = st.wasserstein(emp, ref, "d0xi", xi=consts.xi)
            dual = st.dual_lower_bound(emp, ref, "d0")
            rows.append((g, w0.value, w0.gap if w0.gap is not None else -1.0,
                         wxi.value, dual))
    p = write_csv(
        run_dir / "measures.csv",
        ("gamma", "w_d0", "w_d0_gap", "w_d0xi", "dual_lower_d0"),
        rows,
    )
    man.add_file(p)
    man.wall_time_s = sw.elapsed
    man.trajectory_count = len(gammas) + 1
    man.results = {"diagnostics": diags}
    man.write(run_dir)
    return 0


def drive_tails(cfg, run_dir, seed, args) -> int:
    params, spec = cfg.model_params(), cfg.noise_spec()
    n = int(_exp(cfg, "n", "4"))
    p_ = float(_exp(cfg, "p", "1.0"))
    T = float(_exp(cfg, "time", "10.0"))
    ensemble = int(_exp(cfg, "ensemble", "200"))
    rho_text = _exp(cfg, "rho_grid", "")
    man = _manifest(cfg, "tails", seed)
    with Stopwatch() as sw:
        if rho_text:
            rho = np.array([float(x) for x in rho_text.split(",")])
        else:
            pilot = st.tail_experiment(
                params, spec, cfg.u0(), n, p_,
                np.geomspace(1e-3, 1e3, 7), T, ensemble_size=32,
                seed=derive_seed(seed, "tails-pilot"), consts=cfg.constants(),
            )
            hi = max(pilot.c_n_hat * np.sqrt(T), 1.0)
            rho = np.geomspace(hi * 1e-4, hi, 12)
        rep = st.tail_experiment(
            params, spec, cfg.u0(), n, p_, rho, T, ensemble_size=ensemble,
            seed=seed, consts=cfg.constants(),
        )
    rows = zip(rep.rho, rep.frequency, rep.envelope_k / rep.rho**rep.p)
    p = write_csv(run_dir / "tails.csv", ("rho", "frequency", "envelope"), rows)
    man.add_file(p)
    man.wall_time_s = sw.elapsed
    man.trajectory_count = ensemble
    man.derived_constants = {"c_n_hat": rep.c_n_hat, "envelope_k": rep.envelope_k}
    man.write(run_dir)
    return 0


DRIVERS = {
    "validate": drive_validate,
    "simulate": drive_simulate,
    "ensemble": drive_ensemble,
    "couple": drive_couple,
    "mixing": drive_mixing,
    "inviscid": drive_inviscid,
    "measures": drive_measures,
    "tails": drive_tails,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="glnls", description=__doc__)
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name in DRIVERS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="config file path")
        sp.add_argument("--seed", type=int, default=None, help="master seed override")
        sp.add_argument("--out", default=None, help="output directory override")
        if name == "ensemble":
            sp.add_argument("--workers", type=int, default=None)
        if name == "validate":
            sp.add_argument("--only", default=None,
                            help="comma-separated criterion indices to run")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else default_config()
        if args.seed is not None:
            cfg.run["seed"] = str(args.seed)
        if args.out is not None:
            cfg.run["out_dir"] = args.out
        seed = cfg.seed
        if args.subcommand == "validate":
            return drive_validate(cfg, None, seed, args)
        run_dir = allocate_run_dir(cfg.run["out_dir"], args.subcommand)
        code = DRIVERS[args.subcommand](cfg, run_dir, seed, args)
        print(f"wrote {run_dir}")
        return code
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

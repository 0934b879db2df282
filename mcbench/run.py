"""Monte Carlo throughput benchmark for glnls.

    python3 mcbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (ensemble, sweep, coupling, measures) from the root of a
source checkout; `src/` is put on the import path here, so glnls need not be
installed.  The process builds the workload from the seed, warms it up, then
runs whole rounds until S seconds have passed, checks the outputs and prints
one JSON object as its last line of standard output.

--trace 0 reports the end-to-end metrics: trajectory-steps per CPU-second
of the process (the median over rounds), set-up time in CPU-seconds (the
median of three fresh set-ups: this process and two more started with
--setup-only) and peak resident memory.  Times are process CPU time, not
wall time, because on a shared host the wall time of a 25 s run moves by up
to a factor of two with the neighbours' load (see README.md).
--trace 1 runs every second round with every public function of the traced
glnls modules wrapped in spans (see spans.py), and reports the per-layer
metrics per traced round, plus the tracing overhead: the median traced round
against the median untraced one, in CPU time.  The span table is also written to mcbench/out/.

    python3 mcbench/run.py --write-benchmark-json

rewrites BENCHMARK.json at the checkout root from the tables below.
"""

import time

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3

WORKLOAD_WHY = {
    "ensemble": "batched Strang steps at M=64, B=64 with strided records (checks 4 and 9); "
                "dense side of the transform crossover",
    "sweep": "shared-noise inviscid curve over five gammas (check 5); reruns the gamma=0 "
             "reference and redraws its normals per gamma",
    "coupling": "pilot, Girsanov bridge and coupled segments at M=32 (check 10); the only "
                "exponential-Euler traffic, Phi on both members every step",
    "measures": "B=1 invariant-measure runs at M=512 and LP transport between them; DST "
                "side of the crossover, no batch to amortise per-call cost",
}

END_TO_END = [
    {"name": "traj_steps_per_cpu_s", "unit": "steps/cpu_s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

# name, unit, better
PER_LAYER = [
    ("spectral.transform.calls", "count/round", "lower"),
    ("spectral.transform.rows", "count/round", "lower"),
    ("spectral.transform.rows_per_traj_step", "ratio", "lower"),
    ("spectral.transform.self_s", "s/round", "lower"),
    ("spectral.transform.us_per_row", "us", "lower"),
    ("spectral.transform.grid_points", "points", "lower"),
    ("models.step.calls", "count/round", "lower"),
    ("models.step.rows_per_traj_step", "ratio", "lower"),
    ("models.step.self_s", "s/round", "lower"),
    ("models.nl_coeffs.self_s", "s/round", "lower"),
    ("models.driver.self_s", "s/round", "lower"),
    ("noise.next_block.calls", "count/round", "lower"),
    ("noise.next_block.self_s", "s/round", "lower"),
    ("noise.normals_drawn", "count/round", "lower"),
    ("functionals.phi.calls", "count/round", "lower"),
    ("functionals.phi.self_s", "s/round", "lower"),
    ("functionals.l4_norm4.calls", "count/round", "lower"),
    ("functionals.l4_norm4.self_s", "s/round", "lower"),
    ("functionals.j_functional.calls", "count/round", "lower"),
    ("functionals.j_functional.self_s", "s/round", "lower"),
    ("functionals.norm.calls", "count/round", "lower"),
    ("functionals.norm.self_s", "s/round", "lower"),
    ("coupling.girsanov_attempt.self_s", "s/round", "lower"),
    ("coupling.coupled_segment.self_s", "s/round", "lower"),
    ("coupling.ess_fraction", "fraction", "higher"),
    ("stats.wasserstein.calls", "count/round", "lower"),
    ("stats.wasserstein.self_s", "s/round", "lower"),
    ("stats.lp_gap_max", "abs", "lower"),
    ("stats.dual_lower_bound.self_s", "s/round", "lower"),
    ("stats.driver.self_s", "s/round", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

# span groups behind the per-layer metrics
TRANSFORMS = ["spectral.to_physical", "spectral.to_spectral"]
NORMS = ["functionals.norm_h", "functionals.norm_h_sq", "functionals.norm_hr",
         "functionals.norm_hr_sq", "functionals.norm_lp"]
MODEL_DRIVERS = ["models.simulate_ensemble", "models.simulate", "models.simulate_eta"]
STATS_DRIVERS = ["stats.mixing_curve", "stats.inviscid_curve", "stats.moment_experiment",
                 "stats.mass_identity_residuals", "stats.tail_experiment",
                 "stats.invariant_measure_sample"]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "mcbench/run.py"],
        "paths": ["mcbench"],
        "run_seconds": 25,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOAD_WHY.items()],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def run_rounds(wl, seconds, tracer=None):
    """Whole rounds until `seconds` have passed.

    Returns (untraced rounds, traced rounds, failed operations), a round as
    (wall seconds, process CPU seconds).  With a tracer every second round
    runs traced, so both kinds of round see the same machine.  A round whose call raises counts every operation
    of the round as failed.
    """
    plain, traced, failed, r = [], [], 0, 0
    t_end = time.perf_counter() + seconds
    while True:
        on = tracer is not None and r % 2 == 1
        with tracer if on else contextlib.nullcontext():
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                failed += wl.run_round(r)
            except Exception:  # the round is the unit that must keep running
                traceback.print_exc(limit=3)
                failed += wl.ops_per_round
            (traced if on else plain).append(
                (time.perf_counter() - t0, time.process_time() - c0))
        r += 1
        if time.perf_counter() >= t_end and (tracer is None or traced):
            return plain, traced, failed


def extra_setups(args, n):
    """Set-up times of n fresh processes running this script with --setup-only."""
    out = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(n):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def layer_metrics(tracer, wl, rounds, overhead_pct):
    per = 1.0 / rounds
    steps = wl.steps_per_round * rounds
    tf = tracer.group(TRANSFORMS)
    step = tracer.group(["models.Stepper.step"])
    block = tracer.group(["noise.EnsembleNoise.next_block"])
    phi = tracer.group(["functionals.phi"])
    l4 = tracer.group(["functionals.l4_norm4"])
    jf = tracer.group(["functionals.j_functional"])
    nrm = tracer.group(NORMS)
    ws = tracer.group(["stats.wasserstein"])
    vals = {
        "spectral.transform.calls": tf.calls * per,
        "spectral.transform.rows": tf.rows * per,
        "spectral.transform.rows_per_traj_step": tf.rows / steps,
        "spectral.transform.self_s": tf.self_s * per,
        "spectral.transform.us_per_row": 1e6 * tf.self_s / tf.rows if tf.rows else 0.0,
        "spectral.transform.grid_points": tf.row_points / tf.rows if tf.rows else 0.0,
        "models.step.calls": step.calls * per,
        "models.step.rows_per_traj_step": step.rows / steps,
        "models.step.self_s": step.self_s * per,
        "models.nl_coeffs.self_s": tracer.group(["models.nl_coeffs"]).self_s * per,
        "models.driver.self_s": tracer.group(MODEL_DRIVERS).self_s * per,
        "noise.next_block.calls": block.calls * per,
        "noise.next_block.self_s": block.self_s * per,
        "noise.normals_drawn": block.items * per,
        "functionals.phi.calls": phi.calls * per,
        "functionals.phi.self_s": phi.self_s * per,
        "functionals.l4_norm4.calls": l4.calls * per,
        "functionals.l4_norm4.self_s": l4.self_s * per,
        "functionals.j_functional.calls": jf.calls * per,
        "functionals.j_functional.self_s": jf.self_s * per,
        "functionals.norm.calls": nrm.calls * per,
        "functionals.norm.self_s": nrm.self_s * per,
        "coupling.girsanov_attempt.self_s":
            tracer.group(["coupling.girsanov_attempt"]).self_s * per,
        "coupling.coupled_segment.self_s":
            tracer.group(["coupling.coupled_segment"]).self_s * per,
        "stats.wasserstein.calls": ws.calls * per,
        "stats.wasserstein.self_s": ws.self_s * per,
        "stats.dual_lower_bound.self_s":
            tracer.group(["stats.dual_lower_bound"]).self_s * per,
        "stats.driver.self_s": tracer.group(STATS_DRIVERS).self_s * per,
        "trace.overhead_pct": overhead_pct,
    }
    vals.update(wl.layer_extras())
    return {n: {"value": float(vals[n]), "unit": u} for n, u, _ in PER_LAYER}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOAD_WHY))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build and warm up the workload, print its set-up time")
    ap.add_argument("--write-benchmark-json", action="store_true",
                    help="rewrite BENCHMARK.json at the checkout root and exit")
    args = ap.parse_args(argv)
    if not args.write_benchmark_json and args.workload is None:
        ap.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    if not (SRC / "glnls" / "__init__.py").is_file():
        print(f"error: no glnls sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS  # imports glnls, numpy and scipy

    wl = WORKLOADS[args.workload](args.seed)
    wl.warm_up()
    setup_s = time.process_time()  # CPU time of this process since it started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        plain, traced, failed = run_rounds(wl, args.seconds, tracer)
        rounds = len(plain) + len(traced)
        overhead = 100.0 * (statistics.median(c for _, c in traced)
                            / statistics.median(c for _, c in plain) - 1.0)
        metrics = layer_metrics(tracer, wl, len(traced), overhead)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "traced_rounds": len(traced),
             "untraced_round_s": plain, "traced_round_s": traced,
             "metrics": metrics, "spans": tracer.table()}, indent=1))
    else:
        times, _, failed = run_rounds(wl, args.seconds)
        rounds = len(times)
        rate = statistics.median(wl.steps_per_round / c for _, c in times)
        wall_rate = statistics.median(wl.steps_per_round / w for w, _ in times)
        print(f"{args.workload}: wall-clock median {wall_rate:.6g} steps/s (not gated)")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [setup_s] + extra_setups(args, SETUP_REPEATS - 1)
        metrics = {
            "traj_steps_per_cpu_s": {"value": rate, "unit": "steps/cpu_s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }

    try:
        checks = wl.verify()
    except Exception as exc:  # e.g. no round completed to check
        traceback.print_exc(limit=3)
        checks = [(False, f"verification raised {exc!r}")]
    for ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {args.workload}: {detail}")
    print(f"{args.workload}: {rounds} rounds x {wl.steps_per_round} trajectory-steps, "
          f"{wl.ops_per_round} operations each")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(ok for ok, _ in checks),
        "attempted": rounds * wl.ops_per_round,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

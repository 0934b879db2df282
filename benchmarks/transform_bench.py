"""Timing of the two transform routes, of the stepping layouts, of the
weighted coupling step and of start-up.

Run:  python benchmarks/transform_bench.py [M ...]

For each mode count M (default 16 64 128 256 512 1024) on the 2x
de-aliasing grid K = 2M, and for batches of 1 and 64 fields, times one
synthesis plus one analysis through the dense sine-matrix route and through
the DST-I route, and prints the route `spectral.DENSE_MAX_POINTS` selects
for that K.  This is the measurement behind that constant.  The per-step
part times one Strang `Stepper.step` against one FSAL `Stepper.advance` at
(M=64, B=64), the dense side, and (M=512, B=1), the DST side.  The stepping
part compares batched ensemble stepping against a per-trajectory Python
loop at equal trajectory counts.  The coupling part times, per
trajectory-step, one weighted exponential-Euler step plus Phi of both
members at (M=32, 256 pairs), the inner loop of `coupled_segment`, once
as the package runs it (the stacked pair synthesised once, the field
shared by both Phis and the next drift) and once with each member's drift
and `functionals.phi` synthesising on their own; and the kick's phase at
(64, 128) as `models._phase` writes it (cos + i sin) against
np.exp(1j theta).  All times are process CPU time, so BLAS or FFT worker
threads count against the route that starts them.

The `measures`-shaped rows print process CPU and wall time side by side, so
that CPU spent in helper threads shows as CPU above wall: the complex DST-I
at K = 1024 as scipy makes it from a complex array (two strided real
transforms) against the one interleaved call of `spectral._dst_complex`;
`Stepper.advance` with and without the Strang state at (M, B) = (512, 1)
and (64, 1000); and `stats.dual_lower_bound` between two 32-sample
measures at M = 512.  The transport rows solve one uniform n x n problem
under the d0 cost between two measures-shaped samples at M = 512 (n = 32
and 128), by the HiGHS LP and by the assignment solver with its dual
certificate, and print each route's time, its gap and the difference of
their values.  The gamma-stack row times a check-7-shaped mixing
curve (M = 64, 64 pairs, gammas 0, 0.01 and 0.1, five time units) as three
single-gamma `stats.mixing_curve` runs against one run over the gamma
tuple, in process CPU time.

The start-up rows run each probe in a fresh interpreter and print the
median over its runs of the probe process's CPU time from interpreter start
(what mcbench's `setup_s` counts), its peak resident memory, and the number
of scipy modules it has loaded at the end: `import glnls`, `import
glnls.cli`, and `import glnls.cli` followed by a 20-step ensemble at
(M, B) = (64, 64), all on the dense route.  The other rows import scipy.fft
themselves, so only a fresh process shows what the package loads.
"""

import json
import pathlib
import statistics
import subprocess
import sys
import time

import numpy as np
from scipy.fft import dst

from glnls import coupling as cp
from glnls import functionals as fn
from glnls import models as md
from glnls import noise as nz
from glnls import spectral as sp
from glnls import stats as st


def cpu_wall(f, min_total=0.2):
    """(CPU, wall) seconds per call of f, repeated until min_total CPU seconds have passed."""
    f()  # builds the cached matrices
    reps = 1
    while True:
        t0, w0 = time.process_time(), time.perf_counter()
        for _ in range(reps):
            f()
        total, wall = time.process_time() - t0, time.perf_counter() - w0
        if total >= min_total:
            return total / reps, wall / reps
        reps *= 2


def cpu_time(f, min_total=0.2):
    """CPU seconds per call of f."""
    return cpu_wall(f, min_total)[0]


def _us(t):
    return f"{t[0] * 1e6:9.1f} us cpu {t[1] * 1e6:9.1f} us wall"


def bench_transforms(M: int, batch: int):
    K = 2 * M
    rng = np.random.default_rng(0)
    a = rng.standard_normal((batch, M)) + 1j * rng.standard_normal((batch, M))
    v = sp.to_physical_direct(a, sp.PhysicalGrid(K))
    dense = cpu_time(lambda: sp._analysis_dense(sp._synthesis_dense(a, K), M))
    fft = cpu_time(lambda: sp._analysis_dst(sp._synthesis_dst(a, K), M))
    err = max(np.max(np.abs(sp._synthesis_dense(a, K) - v)),
              np.max(np.abs(sp._synthesis_dst(a, K) - v)))
    route = "dense" if K <= sp.DENSE_MAX_POINTS else "dst"
    print(f"M={M:5d} K={K:5d} B={batch:3d}: dense {dense * 1e6:9.1f} us   "
          f"dst {fft * 1e6:9.1f} us   dst/dense {fft / dense:6.2f}   "
          f"selected {route:5s}   max|diff vs direct| {err:.1e}")


def bench_step(M: int, batch: int):
    params = md.ModelParams(gamma=0.05, alpha=1.0, M=M)
    spec = nz.NoiseSpec.power_profile(8, 0.05, 2.0)
    st = md.Stepper(params, md.IntegratorConfig(dt=5e-3), spec)
    rng = np.random.default_rng(0)
    a = 0.05 * (rng.standard_normal((batch, M))
                + 1j * rng.standard_normal((batch, M))) / np.arange(1, M + 1) ** 2
    z = rng.standard_normal((batch, 2, spec.N))
    c = st.open(a)
    t_step = cpu_time(lambda: st.step(a, z))
    t_adv = cpu_time(lambda: st.advance(c, z))
    print(f"strang M={M:4d} B={batch:3d}: step {t_step * 1e6:8.1f} us   "
          f"advance {t_adv * 1e6:8.1f} us   step/advance {t_step / t_adv:5.2f}")


def bench_stepping(M: int = 64, n_traj: int = 256, n_steps: int = 200):
    params = md.ModelParams(gamma=0.05, alpha=1.0, M=M)
    integ = md.IntegratorConfig(dt=1e-3, record_every=n_steps)
    spec = nz.NoiseSpec.power_profile(8, 0.05, 2.0)
    u0 = np.zeros(M, complex)

    def batched():
        md.simulate_ensemble(u0, params, integ, spec, n_steps * integ.dt, seed=1,
                             traj_ids=np.arange(n_traj))

    def looped():
        for i in range(n_traj):
            md.simulate_ensemble(u0, params, integ, spec, n_steps * integ.dt,
                                 seed=1, traj_ids=np.array([i]))

    t_b = cpu_time(batched)
    t_l = cpu_time(looped)
    print(f"stepping M={M} x {n_traj} trajectories x {n_steps} steps: "
          f"batched {t_b:6.2f} s   per-trajectory loop {t_l:6.2f} s   "
          f"speedup {t_l / t_b:4.1f}x")


def bench_weighted_step(M: int = 32, pairs: int = 256):
    params = md.ModelParams(gamma=0.05, alpha=1.0, M=M)
    spec = nz.NoiseSpec.power_profile(8, 1.0, 2.0)
    st = md.Stepper(params, md.IntegratorConfig(dt=1e-3, scheme="expeuler",
                                                noise_mode="em"), spec)
    consts = fn.FunctionalConstants()
    rng = np.random.default_rng(0)
    k = np.arange(1, M + 1)
    u1 = 0.02 * (rng.standard_normal((pairs, M)) + 1j * rng.standard_normal((pairs, M))) / k**2
    w = u1.copy()
    w[:, 8:] += 0.01 * (rng.standard_normal((pairs, M - 8))) / k[8:]
    pair = np.stack([u1, w])
    z = rng.standard_normal((pairs, 2, spec.N))
    drift = st.drift(pair)

    def stacked():
        # one step of coupling._weighted_run: the step from the carried drift,
        # then one synthesis of the stack for both Phis and the next drift
        new = cp._weighted_step(st, drift, z, 0.0)[0]
        field = fn.physical_field(new)
        fn.field_energy(field, *fn.norms_h_h1_sq(new), consts)
        st.drift(new, field)

    def separate():
        cp._weighted_step(st, np.stack([st.drift(u1), st.drift(w)]), z, 0.0)
        fn.phi(u1, consts)
        fn.phi(w, consts)

    per = 1e6 / (2 * pairs)
    t_s, t_u = cpu_time(stacked), cpu_time(separate)
    print(f"weighted step + Phi M={M} x {pairs} pairs, per trajectory-step: stacked pair "
          f"{t_s * per:6.2f} us   separate syntheses {t_u * per:6.2f} us   "
          f"ratio {t_u / t_s:4.2f}")


def bench_phase(B: int = 64, K: int = 128):
    params = md.ModelParams(gamma=0.05, alpha=1.0, M=K // 2)
    dens = np.random.default_rng(0).uniform(0.0, 2.0, (B, K))
    tau = 2.5e-3
    t_new = cpu_time(lambda: md._phase(dens, tau, params))
    t_exp = cpu_time(lambda: np.exp(1j * (tau * dens)))
    print(f"kick phase ({B}, {K}): cos + i sin {t_new * 1e6:7.1f} us   "
          f"exp(1j theta) {t_exp * 1e6:7.1f} us   ratio {t_exp / t_new:4.2f}")


def bench_dst_complex(K: int = 1024, batch: int = 1):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((batch, K)) + 1j * rng.standard_normal((batch, K))
    two = cpu_wall(lambda: dst(x, type=1, axis=-1))
    one = cpu_wall(lambda: sp._dst_complex(x))
    print(f"complex DST-I K={K} B={batch}: two real calls {_us(two)}   "
          f"one interleaved call {_us(one)}   ratio {two[0] / one[0]:4.2f}")


def bench_strang_state(M: int, batch: int):
    params = md.ModelParams(gamma=0.05, alpha=1.0, M=M)
    spec = nz.NoiseSpec.power_profile(8, 0.05, 2.0)
    stp = md.Stepper(params, md.IntegratorConfig(dt=5e-3), spec)
    rng = np.random.default_rng(0)
    a = 0.05 * (rng.standard_normal((batch, M))
                + 1j * rng.standard_normal((batch, M))) / np.arange(1, M + 1) ** 2
    z = rng.standard_normal((batch, 2, spec.N))
    c = stp.open(a)
    both = cpu_wall(lambda: stp.advance(c, z))
    carried = cpu_wall(lambda: stp.advance(c, z, strang_state=False))
    print(f"advance M={M:4d} B={batch:4d}: with Strang state {_us(both)}   "
          f"c_next only {_us(carried)}   ratio {both[0] / carried[0]:4.2f}")


STARTUP_PROBES = {
    "import glnls": "import glnls",
    "import glnls.cli": "import glnls.cli",
    "20-step ensemble M=64 B=64": (
        "import glnls.cli\n"
        "import numpy as np\n"
        "from glnls import models as md, noise as nz\n"
        "md.simulate_ensemble(np.zeros(64, complex), md.ModelParams(gamma=0.05, alpha=1.0, M=64),"
        " md.IntegratorConfig(dt=5e-3, record_every=20), nz.NoiseSpec.power_profile(8, 0.05, 2.0),"
        " 0.1, seed=0, traj_ids=np.arange(64))"
    ),
}

# Peak memory is the VmHWM line of /proc/self/status (Linux): ru_maxrss of a
# child keeps the high-water mark of the process it was forked from.
PROBE = """import sys
sys.path.insert(0, {src!r})
{code}
import json, time
hwm = [line for line in open("/proc/self/status") if line.startswith("VmHWM")]
print(json.dumps([time.process_time(), int(hwm[0].split()[1]) / 1024.0,
                  sum(m == "scipy" or m.startswith("scipy.") for m in sys.modules)]))
"""


def bench_startup(runs: int = 5):
    src = str(pathlib.Path(sp.__file__).resolve().parents[1])
    for label, code in STARTUP_PROBES.items():
        out = [json.loads(subprocess.run([sys.executable, "-c", PROBE.format(src=src, code=code)],
                                         capture_output=True, text=True, check=True).stdout)
               for _ in range(runs)]
        cpu, rss, mods = (statistics.median(col) for col in zip(*out))
        print(f"start-up {label:27s}: {cpu:6.3f} s cpu   peak rss {rss:6.1f} MB   "
              f"scipy modules {mods:4.0f}   (median of {runs} fresh processes)")


def bench_dual(M: int = 512, n: int = 32):
    rng = np.random.default_rng(0)
    k = np.arange(1, M + 1)

    def measure():
        return st.EmpiricalMeasure(0.05 * (rng.standard_normal((n, M))
                                           + 1j * rng.standard_normal((n, M))) / k**2)

    a, b = measure(), measure()
    t = cpu_wall(lambda: st.dual_lower_bound(a, b, "d0"))
    print(f"dual_lower_bound {n} x {n} samples M={M}: {_us(t)}   cpu/wall {t[0] / t[1]:4.2f}")


def bench_transport(n: int = 32, M: int = 512):
    rng = np.random.default_rng(1)
    k = np.arange(1, M + 1)
    a, b = (st.EmpiricalMeasure(0.05 * (rng.standard_normal((n, M))
                                        + 1j * rng.standard_normal((n, M))) / k**2)
            for _ in range(2))
    C = st.cost_matrix(a, b, "d0")
    lp, assign = st._solve_lp(C, a.weights, b.weights), st._solve_assignment(C)
    t_lp = cpu_wall(lambda: st._solve_lp(C, a.weights, b.weights))
    t_as = cpu_wall(lambda: st._solve_assignment(C))
    print(f"transport {n} x {n} samples M={M}: LP {_us(t_lp)} gap {lp.gap:.1e}   "
          f"assignment {_us(t_as)} gap {assign.gap:.1e}   "
          f"|value diff| {abs(lp.value - assign.value):.1e}   ratio {t_lp[0] / t_as[0]:5.1f}")


def bench_gamma_stack(M: int = 64, pairs: int = 64, T: float = 5.0):
    """Check 7's mixing curve over three gammas: three single-gamma runs
    against one run of the stacked (2, 3, pairs, M) batch."""
    spec = nz.NoiseSpec.power_profile(8, 0.05, 2.0)
    gammas = (0.0, 0.01, 0.1)
    t_grid = np.linspace(0.0, T, 6)

    def curve(gamma):
        return st.mixing_curve(sp.basis_mode(M, 1), sp.basis_mode(M, 2),
                               md.ModelParams(gamma=gamma, alpha=1.0, M=M), spec, t_grid,
                               pairs, seed=107, integ=md.IntegratorConfig(dt=5e-3),
                               dual_checkpoints=2)

    t_loop = cpu_time(lambda: [curve(g) for g in gammas])
    t_stack = cpu_time(lambda: curve(gammas))
    print(f"mixing curve M={M} x {pairs} pairs x {len(gammas)} gammas over T={T:g}: "
          f"per-gamma runs {t_loop:6.2f} s cpu   stacked {t_stack:6.2f} s cpu   "
          f"ratio {t_loop / t_stack:4.2f}")


if __name__ == "__main__":
    bench_startup()
    sizes = [int(x) for x in sys.argv[1:]] or [16, 64, 128, 256, 512, 1024]
    print(f"DENSE_MAX_POINTS = {sp.DENSE_MAX_POINTS}")
    for M in sizes:
        for batch in (1, 64):
            bench_transforms(M, batch)
    for M, batch in ((64, 64), (512, 1)):
        bench_step(M, batch)
    bench_stepping()
    bench_weighted_step()
    bench_phase()
    bench_dst_complex()
    for M, batch in ((512, 1), (64, 1000)):
        bench_strang_state(M, batch)
    bench_dual()
    for n in (32, 128):
        bench_transport(n)
    bench_gamma_stack()

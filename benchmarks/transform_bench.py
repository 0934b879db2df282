"""Timing of the two transform routes and of two stepping layouts.

Run:  python benchmarks/transform_bench.py [M ...]

For each mode count M (default 16 64 128 256 512 1024) on the 2x
de-aliasing grid K = 2M, and for batches of 1 and 64 fields, times one
synthesis plus one analysis through the dense sine-matrix route and through
the DST-I route, and prints the route `spectral.DENSE_MAX_POINTS` selects
for that K.  This is the measurement behind that constant.  The per-step
part times one Strang `Stepper.step` against one FSAL `Stepper.advance` at
(M=64, B=64), the dense side, and (M=512, B=1), the DST side.  The stepping
part compares batched ensemble stepping against a per-trajectory Python
loop at equal trajectory counts.  All times are process CPU time, so BLAS
or FFT worker threads count against the route that starts them.
"""

import sys
import time

import numpy as np

from glnls import models as md
from glnls import noise as nz
from glnls import spectral as sp


def cpu_time(f, min_total=0.2):
    """CPU seconds per call of f, repeated until min_total seconds have passed."""
    f()  # builds the cached matrices
    reps = 1
    while True:
        t0 = time.process_time()
        for _ in range(reps):
            f()
        total = time.process_time() - t0
        if total >= min_total:
            return total / reps
        reps *= 2


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


if __name__ == "__main__":
    sizes = [int(x) for x in sys.argv[1:]] or [16, 64, 128, 256, 512, 1024]
    print(f"DENSE_MAX_POINTS = {sp.DENSE_MAX_POINTS}")
    for M in sizes:
        for batch in (1, 64):
            bench_transforms(M, batch)
    for M, batch in ((64, 64), (512, 1)):
        bench_step(M, batch)
    bench_stepping()

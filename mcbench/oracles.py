"""Independent references the workloads check the program against.

`strang_step_oracle` rebuilds one exponential Strang step from the O(M^2)
direct-summation transforms, the closed-form linear decay and the closed-form
variance of the one-step stochastic convolution, without touching the
program's Stepper, padding or noise code.
"""

from __future__ import annotations

import numpy as np

from glnls.spectral import PhysicalGrid, to_physical_direct, to_spectral_direct


def strang_step_oracle(a, z, gamma, alpha, dt, lambdas, M, noise_mode="exact",
                       truncation=None):
    """One Strang step of the cubic GL/NLS equation on a 2M-point grid."""
    grid = PhysicalGrid(2 * M)
    k = np.arange(1, M + 1, dtype=float)
    al = (k * np.pi) ** 2
    c = gamma * al + alpha

    def kick(b, tau):
        v = to_physical_direct(b, grid)
        dens = np.abs(v) ** 2
        if truncation is not None:
            s = np.clip(dens - truncation, 0.0, 1.0)
            dens = dens * (1.0 - 3.0 * s**2 + 2.0 * s**3)
        return to_spectral_direct(v * np.exp(1j * tau * dens), M)

    lam = np.zeros(M)
    n = min(len(lambdas), M)
    lam[:n] = lambdas[:n]
    zc = np.zeros(z.shape[:-2] + (2, M))
    zc[..., :n] = z[..., :n]
    if noise_mode == "exact":
        std = np.sqrt(lam**2 * (1.0 - np.exp(-2.0 * c * dt)) / (2.0 * c))
    else:
        std = lam * np.sqrt(dt)
    noise = std * (zc[..., 0, :] + 1j * zc[..., 1, :])
    decay = np.exp(-((gamma + 1j) * al + alpha) * dt)

    b = kick(np.asarray(a, dtype=np.complex128), 0.5 * dt)
    b = decay * b + noise
    return kick(b, 0.5 * dt)


def check_one_step(params, integ, spec, rng, batch=4):
    """(passed, detail): Stepper.step against the oracle, 1e-10 relative."""
    from glnls.models import Stepper

    M = params.M
    k = np.arange(1, M + 1)
    # order-one fields so the cubic phase is far above round-off
    a = (rng.standard_normal((batch, M)) + 1j * rng.standard_normal((batch, M))) / k
    z = rng.standard_normal((batch, 2, spec.N))
    got = Stepper(params, integ, spec).step(a, z)
    want = strang_step_oracle(a, z, params.gamma, params.alpha, integ.dt,
                              spec.lambdas, M, integ.noise_mode, params.truncation)
    rel = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    return rel <= 1e-10, f"one Strang step vs direct-sum oracle at M={M}: rel err {rel:.2e} (<= 1e-10)"


def mean_weight_check(stage, s1, s2, n, band):
    """(passed, detail): a likelihood ratio has mean exactly 1."""
    mean = s1 / n
    var = max(s2 / n - mean**2, 0.0)
    se = np.sqrt(var / n)
    z = abs(mean - 1.0) / se if se > 0 else (0.0 if mean == 1.0 else np.inf)
    return z <= band, (f"mean exp(log-weight) after {stage}: {mean:.6f} +- {se:.2e} "
                       f"over {n} pairs, |z| {z:.2f} (<= {band:g})")

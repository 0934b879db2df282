"""scipy is loaded by the calls that use it, not by importing glnls.

The suite's own process has scipy loaded by other tests, so the runs go
through a fresh interpreter: it imports glnls.cli, makes dense-route runs
that must load none of the scipy parts, then solves transport problems and
takes K = 1024 transforms, which must load them.  Every array it computes
is compared bit for bit with the same call made in this process.
"""

import json
import pathlib
import subprocess
import sys

import numpy as np

from glnls import models as md
from glnls import noise as nz
from glnls import spectral as sp
from glnls import stats as st

HERE = pathlib.Path(__file__).resolve().parent
LAZY = ("scipy.optimize", "scipy.fft", "scipy.sparse")

CHILD = """
import json, sys
sys.path[:0] = [{src!r}, {tests!r}]
import numpy as np
import glnls.cli  # noqa: F401
import test_imports as t
dense = t.dense_runs()
before = t.loaded()
lazy = t.scipy_runs()
np.savez({out!r}, **dense, **lazy)
print(json.dumps({{"before": before, "after": t.loaded()}}))
"""


def loaded() -> list[str]:
    return [m for m in LAZY if m in sys.modules]


def dense_runs() -> dict:
    """A small ensemble and an inviscid curve, all grids at most 512 points."""
    M = 16
    params = md.ModelParams(gamma=0.05, alpha=1.0, M=M)
    spec = nz.NoiseSpec.power_profile(4, 0.2, 2.0)
    u0 = 0.3 * sp.basis_mode(M, 1)
    rec = md.simulate_ensemble(u0, params, md.IntegratorConfig(dt=1e-3, record_every=10),
                               spec, 0.05, seed=3, traj_ids=np.arange(4),
                               track_mass_integrals=True)
    curve = st.inviscid_curve(u0, [0.0, 0.01, 0.02, 0.04], T=0.02, ensemble_size=4, seed=5,
                              alpha=1.0, M=M, spec=spec, dt=1e-3)
    return {"H": rec.energy.H, "phi": rec.energy.phi, "final": rec.final,
            "mass_h": rec.mass_int_h, "sup_err_sq": curve.mean_sup_err_sq}


def scipy_runs() -> dict:
    """The transport LP, the assignment solver and the DST route (K = 1024)."""
    rng = np.random.default_rng(11)

    def fields(n, M=8):
        return rng.standard_normal((n, M)) + 1j * rng.standard_normal((n, M))

    a = st.EmpiricalMeasure(fields(5), rng.dirichlet(np.ones(5)))
    b = st.EmpiricalMeasure(fields(7))
    lp = st.wasserstein(a, b, "d1")
    # a uniform equal-size pair above 64 samples goes to the assignment solver
    assign = st.wasserstein(st.EmpiricalMeasure(fields(65)), st.EmpiricalMeasure(fields(65)),
                            "d0")
    v = sp.to_physical(fields(3, 64), sp.PhysicalGrid(1024))
    return {"lp": np.array([lp.value, lp.gap]), "lp_plan": lp.plan,
            "assignment": np.array(assign.value), "synthesis": v,
            "analysis": sp.to_spectral(v, 64)}


def test_scipy_loaded_only_where_called(tmp_path):
    out = tmp_path / "child.npz"
    code = CHILD.format(src=str(HERE.parent / "src"), tests=str(HERE), out=str(out))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, check=True)
    mods = json.loads(proc.stdout.strip().splitlines()[-1])
    assert mods == {"before": [], "after": list(LAZY)}
    with np.load(out) as child:
        mine = {**dense_runs(), **scipy_runs()}
        assert sorted(child.files) == sorted(mine)
        for name, arr in mine.items():
            assert np.array_equal(child[name], arr), name

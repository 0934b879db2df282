"""The timing scripts stay runnable: every ``bench_*`` function of
``benchmarks/transform_bench.py`` runs to the end at tiny sizes, and every
workload of ``mcbench`` runs one round and passes its own checks."""

import importlib
import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PATH = ROOT / "benchmarks" / "transform_bench.py"

# tiny arguments for every bench_* function of the script
TINY = {
    "bench_transforms": (8, 2),
    "bench_step": (8, 2),
    "bench_stepping": (8, 2, 5),
    "bench_weighted_step": (16, 4),
    "bench_phase": (2, 16),
    "bench_dst_complex": (16, 1),
    "bench_strang_state": (8, 2),
    "bench_startup": (1,),
    "bench_dual": (8, 4),
    "bench_transport": (4, 8),
    "bench_gamma_stack": (8, 2, 0.05),
}


def test_every_bench_runs_at_tiny_sizes(capsys):
    spec = importlib.util.spec_from_file_location("transform_bench", PATH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert {name for name in dir(bench) if name.startswith("bench_")} == set(TINY)
    for name, args in TINY.items():
        getattr(bench, name)(*args)
        assert capsys.readouterr().out, f"{name} printed nothing"


def test_every_mcbench_workload_runs_and_verifies(monkeypatch):
    # the workloads call the package as mcbench/run.py does; a renamed name or
    # a changed signature among them fails here; mcbench/ is left unwritten
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "mcbench"))
    workloads = importlib.import_module("workloads")
    for name, workload in workloads.WORKLOADS.items():
        wl = workload(0)
        wl.warm_up()
        wl.run_round(0)
        failed = [detail for ok, detail in wl.verify() if not ok]
        assert not failed, f"{name}: {failed}"

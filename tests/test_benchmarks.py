"""The timing script stays runnable: every ``bench_*`` function of
``benchmarks/transform_bench.py`` runs to the end at tiny sizes."""

import importlib.util
import pathlib

PATH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "transform_bench.py"

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

"""Every key a config file sets reaches the run or stops it.

For each subcommand and each key, a value other than the default must change
a CSV or the manifest's counts, results or derived constants, or make the
run exit 2 with a violation that names the key.  An out-of-range value of
every key with a bound of its own must make it exit 2 with a violation that
names the key.  The runs are tiny (M = 10, a few steps)."""

import json

from glnls import cli, config
from glnls import models as md

# a value other than the default (and the base run's) for every shared key
SHARED = {
    "model": {"gamma": "0.3", "alpha": "2.0", "modes": "12", "truncation": "0.01",
              "nonlinear": "false"},
    "noise": {"forced_modes": "3", "lambda0": "0.5", "decay": "3.0",
              "lambdas": "0.2, 0.1"},
    "integrator": {"dt": "5e-4", "time": "0.04", "record_every": "3",
                   "scheme": "expeuler", "noise_mode": "em", "blowup_guard": "1e-6"},
    "functionals": {"kappa": "2.0", "kappa2": "2.0", "xi": "0.01"},
    "run": {"seed": "7", "save_states": "true", "u0_modes": "1:0.3"},
}
# exempt by name: a path, and a start-up bound
EXEMPT = {("run", "out_dir"), ("noise", "cq_bound")}

# M > N = 8, so that couple's high modes and its perturbation exist
COMMON = {"model": {"modes": "10"}, "run": {"u0_modes": "1:0.5"}}
# per subcommand: the base run's own sections, another value for each
# [experiment] key, and keys it must reject as unknown
RUNS = {
    "simulate": ({"integrator": {"time": "0.05"}}, {}, {"size": "4"}),
    "ensemble": ({"integrator": {"time": "0.05"}, "experiment": {"size": "4"}},
                 {"size": "5"}, {"sizes": "5"}),
    "couple": ({"experiment": {"pairs": "2", "segments": "1", "segment_time": "0.05",
                               "pilot_traj": "4", "pilot_time": "1.0",
                               "perturb": "0.1"}},
               {"pairs": "3", "segments": "2", "beta": "0.3", "segment_time": "0.04",
                "perturb": "0.2", "pilot_traj": "5", "pilot_time": "1.2", "theta": "1e9"},
               {"pair": "10", "dt": "2e-3"}),
    "mixing": ({"experiment": {"t_max": "0.05", "t_points": "3", "ensemble": "4"}},
               {"gammas": "0.2", "t_max": "0.04", "t_points": "4", "ensemble": "5"},
               {"gamma": "0.2"}),
    # |u|^2 reaches 4.5, above the default cut-off radius 2
    "inviscid": ({"run": {"u0_modes": "1:1.5"},
                  "experiment": {"gammas": "0.01, 0.1", "pairs": "3", "time": "0.02"}},
                 {"gammas": "0.01, 0.2", "pairs": "4", "time": "0.03",
                  "truncated": "false", "radius": "0.1"},
                 {"pair": "4"}),
    "measures": ({"experiment": {"gammas": "0.1", "burn_in": "0.05", "samples": "3",
                                 "thinning": "0.01"}},
                 {"gammas": "0.2", "burn_in": "0.06", "samples": "4", "thinning": "0.02"},
                 {"sample": "4"}),
    # noise strong enough that the sup deviations are positive, so the default
    # rho grid spans them and moves with every key that moves the run
    "tails": ({"noise": {"lambda0": "1.0"}, "experiment": {"time": "1.0", "ensemble": "4"}},
              {"n": "2", "p": "2.0", "time": "1.1", "ensemble": "5", "rho_grid": "0.1, 1"},
              {"ensembles": "5"}),
}

# an out-of-range value for every key with a bound of its own, shared keys
# under "shared"; each must stop the run with a violation that names the key
# and, for a list, its offending last element
OUT_OF_RANGE = {
    "shared": {
        "model": {"gamma": "1.0", "alpha": "0", "modes": "0", "truncation": "-1"},
        "noise": {"forced_modes": "-1", "lambda0": "0", "lambdas": "0.1, -0.2"},
        "integrator": {"dt": "0", "time": "-1", "record_every": "0", "scheme": "euler",
                       "noise_mode": "milstein", "blowup_guard": "-1.0"},
        "functionals": {"kappa": "0", "kappa2": "-1", "xi": "0"},
    },
    "ensemble": {"size": "-3"},
    "couple": {"pairs": "0", "segments": "0", "beta": "1.5", "segment_time": "0",
               "perturb": "nan", "pilot_traj": "0", "pilot_time": "0.5", "theta": "-1"},
    "mixing": {"gammas": "0.05, 1.0", "t_max": "-1", "t_points": "1", "ensemble": "0"},
    "inviscid": {"gammas": "0.1, -0.1", "pairs": "0", "time": "0", "radius": "-1"},
    "measures": {"gammas": "0.2, 1.5", "burn_in": "0", "samples": "0", "thinning": "-0.1"},
    "tails": {"n": "0", "p": "inf", "time": "0.5", "ensemble": "0"},
}
# keys with no bound of their own: cq_bound and u0_modes are checked against
# other keys' values (config.validate), the rest take any value that parses
UNBOUNDED = {
    "shared": {"model": {"nonlinear"}, "noise": {"decay", "cq_bound"},
               "run": {"seed", "out_dir", "save_states", "u0_modes"}},
    "inviscid": {"truncated"},
    "tails": {"rho_grid"},
}


def ini(sections):
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


def with_key(sections, name, key, value):
    out = {n: dict(keys) for n, keys in sections.items()}
    if key == "lambdas":  # read in place of the power profile's keys
        out.pop("noise", None)
    out.setdefault(name, {})[key] = value
    return out


def outcome(tmp_path, capsys, sub, sections):
    """("ran", what the run wrote) or ("rejected", the violations)."""
    tmp_path.mkdir(exist_ok=True)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(ini(sections))
    capsys.readouterr()
    rc = cli.main([sub, "--config", str(cfg), "--out", str(tmp_path / "o")])
    if rc == 2:
        return "rejected", json.loads(capsys.readouterr().err)["violations"]
    assert rc == 0, capsys.readouterr().err
    (run_dir,) = (tmp_path / "o").iterdir()
    man = json.loads((run_dir / "manifest.json").read_text())
    csvs = {p.name: p.read_bytes() for p in run_dir.glob("*.csv")}
    return "ran", (csvs, *(man[k] for k in ("trajectory_count", "excluded_count",
                                             "results", "derived_constants")))


def test_every_key_changes_the_run_or_is_rejected(tmp_path, capsys):
    failures = []
    for sub, (own, experiment, unknown) in RUNS.items():
        base = {**COMMON, **own}
        kind, ref = outcome(tmp_path / sub, capsys, sub, base)
        assert kind == "ran", ref
        cases = [(name, key, v) for name, keys in SHARED.items() for key, v in keys.items()]
        cases += [("experiment", key, v) for key, v in {**experiment, **unknown}.items()]
        for i, (name, key, value) in enumerate(cases):
            kind, got = outcome(tmp_path / sub / str(i), capsys, sub,
                                with_key(base, name, key, value))
            if kind == "rejected":
                if not any(v.startswith(f"[{name}] {key}:") for v in got):
                    failures.append(f"{sub} [{name}] {key}: rejected for {got}")
            elif name == "experiment" and key in unknown:
                failures.append(f"{sub} [{name}] {key}: unknown key accepted")
            elif got == ref:
                failures.append(f"{sub} [{name}] {key} = {value}: accepted and ignored")
    assert not failures, "\n".join(failures)


def test_out_of_range_values_are_rejected(tmp_path, capsys):
    cases = [("simulate", name, key, value)
             for name, keys in OUT_OF_RANGE["shared"].items() for key, value in keys.items()]
    cases += [(sub, "experiment", key, value) for sub, keys in OUT_OF_RANGE.items()
              if sub != "shared" for key, value in keys.items()]
    failures = []
    for i, (sub, name, key, value) in enumerate(cases):
        kind, got = outcome(tmp_path / str(i), capsys, sub,
                            with_key({**COMMON, **RUNS[sub][0]}, name, key, value))
        named = f"[{name}] {key}: {value.split(',')[-1].strip()}"
        if kind != "rejected":
            failures.append(f"{sub} [{name}] {key} = {value}: accepted")
        elif not any(v.startswith(named) and "out of range" in v for v in got):
            failures.append(f"{sub} [{name}] {key} = {value}: rejected for {got}")
    assert not failures, "\n".join(failures)


def declared(table):
    """{(section or subcommand, key)} of a {"shared": {section: keys}, sub: keys} table."""
    out = {(name, key) for name, keys in table.get("shared", {}).items() for key in keys}
    return out | {(sub, key) for sub, keys in table.items() if sub != "shared" for key in keys}


def test_table_covers_every_declared_key():
    shared = {(name, key) for name, keys in SHARED.items() for key in keys}
    assert shared | EXEMPT == {(name, key) for name, keys in config._KEYS.items()
                               for key in keys}
    assert {sub: set(exp) for sub, (_, exp, _) in RUNS.items()} == \
        {sub: set(keys) for sub, keys in config.EXPERIMENT.items()}
    assert set(RUNS) == set(cli.DRIVERS)
    # every declared key is either bounded (with an out-of-range case) or unbounded
    bounded, unbounded = declared(OUT_OF_RANGE), declared(UNBOUNDED)
    assert not bounded & unbounded
    assert bounded | unbounded == declared({"shared": config._KEYS, **config.EXPERIMENT})


def test_couple_rejects_perturb_when_every_mode_is_forced(tmp_path, capsys):
    # perturb moves mode M, which the coupled pair pins to u1's when N = M
    own = RUNS["couple"][0]
    for i, noise in enumerate(({"forced_modes": "10"}, {"lambdas": ", ".join(["0.1"] * 10)})):
        kind, got = outcome(tmp_path / str(i), capsys, "couple", {**COMMON, **own, "noise": noise})
        assert kind == "rejected"
        assert any(v.startswith("[experiment] perturb: not read") for v in got), got


def test_cross_key_rules_stop_the_run_before_stepping(tmp_path, capsys, monkeypatch):
    # two gammas alike to 6 digits (0.05 and 5e-2 parse alike; 0.1 and
    # 0.1000001 would share mixing's CSV names); couple with no forced mode
    # to pin, or with t1 = r1 = beta^10 underflowing to 0
    cases = [("mixing", "experiment", "gammas", "0.05, 5e-2"),
             ("mixing", "experiment", "gammas", "0.1, 0.1000001"),
             ("measures", "experiment", "gammas", "0.1, 0.2, 1e-1"),
             ("measures", "experiment", "gammas", "0.1, 0.1000001"),
             ("couple", "noise", "forced_modes", "0"),
             ("couple", "experiment", "beta", "1e-40")]

    def no_stepping(*args):
        raise AssertionError("a stepper was built")

    monkeypatch.setattr(md.Stepper, "__init__", no_stepping)
    for i, (sub, name, key, value) in enumerate(cases):
        kind, got = outcome(tmp_path / str(i), capsys, sub,
                            with_key({**COMMON, **RUNS[sub][0]}, name, key, value))
        assert kind == "rejected", (sub, key, got)
        assert any(v.startswith(f"[{name}] {key}:") for v in got), got

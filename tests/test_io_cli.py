import hashlib
import json
import re
import warnings
from pathlib import Path

import pytest

from glnls import cli
from glnls.config import ConfigError, default_config, load_config, validate


def write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, "[run]\nseed = 3\n"))
        assert cfg.seed == 3
        assert cfg.model_params().M == 64
        assert cfg.noise_spec().N == 8
        assert cfg.integrator_config().scheme == "strang"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.cfg"))

    def test_xi_bound_rejection_names_value(self, tmp_path):
        # xi = 10 with Tr(QQ*) = 1, alpha = 1 -> bound is 0.5
        text = (
            "[noise]\nlambdas = 1.0\n"
            "[functionals]\nxi = 10\n"
            "[model]\nalpha = 1.0\n"
        )
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, text))
        msg = str(err.value)
        assert "xi" in msg and "0.5" in msg

    def test_cq_bound_rejection(self, tmp_path):
        # s = 1 profile with N = 100: Tr(A^{3/2}QQ*) blows past C_Q = 10
        text = (
            "[model]\nmodes = 128\n"
            "[noise]\nforced_modes = 100\nlambda0 = 1.0\ndecay = 1.0\ncq_bound = 10\n"
        )
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, text))
        assert "C_Q" in str(err.value)
        # a NaN trace is not below the bound either
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, "[noise]\ndecay = nan\n", name="nan.cfg"))
        assert err.value.violations == ["[noise] Tr(A^(3/2)QQ*)=nan exceeds the C_Q bound 200"]

    def test_all_violations_reported(self, tmp_path):
        text = (
            "[model]\ngamma = 2.0\nalpha = -1\n"
            "[integrator]\ndt = -0.1\n"
        )
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, text))
        assert len(err.value.violations) >= 3

    def test_alpha_zero_rejected_at_config_level(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, "[model]\nalpha = 0\n"))
        assert err.value.violations == ["[model] alpha: 0.0 is out of range, need > 0.0"]

    @pytest.mark.parametrize("thinning, ok", [
        ("0.0001", False), ("0.0025", False), ("0.003", True), ("0.1", True),
    ])
    def test_thinning_must_be_whole_dt_steps(self, tmp_path, thinning, ok):
        # measures samples a whole number of dt = 1e-3 steps apart
        path = write(tmp_path, f"[experiment]\nthinning = {thinning}\n")
        if ok:
            assert load_config(path, "measures").experiment["thinning"] == float(thinning)
            return
        with pytest.raises(ConfigError) as err:
            load_config(path, "measures")
        assert err.value.violations == [
            f"[experiment] thinning: {thinning} is not a whole number of [integrator] dt = "
            "0.001 steps"]

    def test_roundtrip_idempotent(self, tmp_path):
        path = write(tmp_path, "[model]\ngamma = 0.1\n[run]\nseed = 11\n")
        cfg = load_config(path)
        echoed = write(tmp_path, cfg.serialize(), name="echo.cfg")
        cfg2 = load_config(echoed)
        assert cfg.as_dict() == cfg2.as_dict()
        assert cfg.content_hash() == cfg2.content_hash()
        for sub in cli.DRIVERS:  # a manifest's echo loads again for its subcommand
            cfg = default_config(sub)
            echoed = write(tmp_path, cfg.serialize(), name=f"{sub}.cfg")
            assert load_config(echoed, sub).as_dict() == cfg.as_dict()

    def test_u0_parsing(self, tmp_path):
        cfg = load_config(write(tmp_path, "[run]\nu0_modes = 1:0.5, 3:0.1+0.2j\n"))
        u0 = cfg.u0()
        assert u0[0] == 0.5 and u0[2] == 0.1 + 0.2j
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "[run]\nu0_modes = nope\n", name="bad.cfg"))

    def test_default_config_is_valid(self):
        assert validate(default_config()) == []

    @pytest.mark.parametrize("text, error", [
        ("[model]\nalpha = 1.0\n[model]\nmodes = 8\n", "DuplicateSectionError"),
        ("[model]\nalpha = 1.0\nalpha = 2.0\n", "DuplicateOptionError"),
        ("alpha = 1.0\n[model]\n", "MissingSectionHeaderError"),
    ], ids=["section", "key", "header"])
    def test_malformed_file_exits_2(self, tmp_path, capsys, text, error):
        rc = cli.main(["simulate", "--config", write(tmp_path, text),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "config" and error in payload["violations"][0]
        assert not (tmp_path / "o").exists()

    def test_booleans_parse_once(self, tmp_path, capsys):
        # every boolean takes the same spellings, and a misspelt one stops the run
        def simulate(flag):
            text = SIMULATE.format(time="0.02").replace("[run]\n", f"[run]\nsave_states = {flag}\n")
            return cli.main(["simulate", "--config", write(tmp_path, text),
                             "--out", str(tmp_path / "o")])

        assert simulate("on") == 0
        assert (tmp_path / "o" / "simulate" / "states.csv").exists()
        assert simulate("tru") == 2
        assert any(v.startswith("[run] save_states: unparseable")
                   for v in json.loads(capsys.readouterr().err)["violations"])
        cfg = load_config(write(tmp_path, "[model]\nnonlinear = off\n", name="m.cfg"))
        assert cfg.model["nonlinear"] is False

    @pytest.mark.parametrize("sub, text, key", [
        (None, "[noise]\nlambdas = 0.1\nlambda0 = 0.2\n", "[noise] lambda0"),
        ("inviscid", "[experiment]\ntruncated = false\nradius = 1.0\n", "[experiment] radius"),
    ], ids=["lambdas", "radius"])
    def test_key_replaced_by_another_rejected(self, tmp_path, sub, text, key):
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, text), sub)
        assert [v.split(":")[0] for v in err.value.violations] == [key]

    def test_unknown_keys_and_sections_rejected(self, tmp_path):
        # a misspelt key, a removed key and a misspelt section: one violation
        # each, none silently dropped; loaded without a subcommand,
        # [experiment] is unchecked
        text = (
            "[model]\nmodse = 32\npad_factor = 3\n"
            "[integrater]\ndt = 1e-3\n"
            "[experiment]\nanything = 1\n"
        )
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, text))
        bad = err.value.violations
        assert len(bad) == 3
        assert any("modse" in v for v in bad) and any("pad_factor" in v for v in bad)
        assert any("[integrater]" in v for v in bad)

    def test_readme_config_loads(self, tmp_path):
        # the README's example config, inline comments and all, is a valid
        # config for the subcommand it names, so it names no removed key and
        # sets no key that subcommand ignores
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        assert len(blocks) == 1
        assert "a `glnls mixing` config" in readme
        cfg = load_config(write(tmp_path, blocks[0]), "mixing")
        assert cfg.model_params().M == 64 and cfg.model_params().truncation is None
        assert cfg.experiment["gammas"] == (0.0, 0.01, 0.1)
        for removed in ("dealias", "pad_factor", "GLNLS_WORKERS", "workers ="):
            assert removed not in readme


BASE = """
[model]
modes = 16

[noise]
forced_modes = 4
lambda0 = 0.1

[run]
seed = 21
u0_modes = 1:0.4
"""
SIMULATE = BASE + "\n[integrator]\ntime = {time}\n"


def assert_manifest(run_dir):
    """The run's manifest lists exactly its CSVs, each with its SHA-256, and
    carries the wall time and the trajectory and excluded counts."""
    man = json.loads((run_dir / "manifest.json").read_text())
    csvs = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in run_dir.glob("*.csv")}
    assert csvs and man["files"] == csvs
    assert set(p.name for p in run_dir.iterdir()) == set(csvs) | {"manifest.json"}
    assert man["wall_time_s"] > 0
    assert man["trajectory_count"] >= 1
    assert 0 <= man["excluded_count"] <= man["trajectory_count"]
    return man


MEASURES = BASE + (
    "\n[experiment]\ngammas = 0.1\nburn_in = 1.0\n"
    "samples = 8\nthinning = 0.1\n"
)


class TestCLI:
    def test_simulate_t_zero_single_row(self, tmp_path):
        cfgp = write(tmp_path, SIMULATE.format(time="0.0"))
        rc = cli.main(["simulate", "--config", cfgp, "--out", str(tmp_path / "o")])
        assert rc == 0
        csv = (tmp_path / "o" / "simulate" / "energy.csv").read_text().splitlines()
        assert csv[0] == "t,H,H1,L4,psi,phi,E1,E4"
        assert len(csv) == 2
        assert_manifest(tmp_path / "o" / "simulate")

    def test_rerun_never_overwrites(self, tmp_path):
        cfgp = write(tmp_path, SIMULATE.format(time="0.0"))
        out = str(tmp_path / "o")
        assert cli.main(["simulate", "--config", cfgp, "--out", out]) == 0
        assert cli.main(["simulate", "--config", cfgp, "--out", out]) == 0
        assert (tmp_path / "o" / "simulate").is_dir()
        assert (tmp_path / "o" / "simulate-2").is_dir()
        for d in ("simulate", "simulate-2"):
            assert (tmp_path / "o" / d / "manifest.json").exists()

    def test_failed_run_leaves_no_directory(self, tmp_path, capsys, monkeypatch):
        def fails(cfg, seed, args):
            raise RuntimeError("driver failed")

        cfgp = write(tmp_path, SIMULATE.format(time="0.0"))
        out = tmp_path / "o"
        monkeypatch.setitem(cli.DRIVERS, "simulate", fails)
        assert cli.main(["simulate", "--config", cfgp, "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["message"] == "driver failed"
        assert not out.exists()
        monkeypatch.undo()
        # so the next good run takes the first name, not a -2 suffix
        assert cli.main(["simulate", "--config", cfgp, "--out", str(out)]) == 0
        assert [p.name for p in out.iterdir()] == ["simulate"]

    def test_byte_identical_reruns(self, tmp_path):
        cfgp = write(tmp_path, SIMULATE.format(time="0.05"))
        out = str(tmp_path / "o")
        cli.main(["simulate", "--config", cfgp, "--out", out])
        cli.main(["simulate", "--config", cfgp, "--out", out])
        a = (tmp_path / "o" / "simulate" / "energy.csv").read_bytes()
        b = (tmp_path / "o" / "simulate-2" / "energy.csv").read_bytes()
        assert a == b

    def test_seed_override_changes_output(self, tmp_path):
        cfgp = write(tmp_path, SIMULATE.format(time="0.05"))
        out = str(tmp_path / "o")
        cli.main(["simulate", "--config", cfgp, "--out", out])
        cli.main(["simulate", "--config", cfgp, "--out", out, "--seed", "99"])
        a = (tmp_path / "o" / "simulate" / "energy.csv").read_bytes()
        b = (tmp_path / "o" / "simulate-2" / "energy.csv").read_bytes()
        assert a != b

    def test_manifest_hashes_outputs(self, tmp_path):
        cfgp = write(tmp_path, SIMULATE.format(time="0.02"))
        out = str(tmp_path / "o")
        cli.main(["simulate", "--config", cfgp, "--out", out])
        man = assert_manifest(tmp_path / "o" / "simulate")
        assert "energy.csv" in man["files"]
        assert len(man["files"]["energy.csv"]) == 64
        assert man["seed"] == 21 and man["code_version"]

    def test_ensemble_workers_equivalence(self, tmp_path):
        # 600 trajectories on the 32-point kick grid pass numpy's 256 KiB
        # temporary-reuse size in one batch and stay below it in two halves
        text = SIMULATE.format(time="0.05") + "\n[experiment]\nsize = 600\n"
        cfgp = write(tmp_path, text)
        out = str(tmp_path / "o")
        assert cli.main(["ensemble", "--config", cfgp, "--out", out,
                         "--workers", "1"]) == 0
        assert cli.main(["ensemble", "--config", cfgp, "--out", out,
                         "--workers", "2"]) == 0
        a = (tmp_path / "o" / "ensemble" / "ensemble_mean.csv").read_bytes()
        b = (tmp_path / "o" / "ensemble-2" / "ensemble_mean.csv").read_bytes()
        assert a == b
        assert assert_manifest(tmp_path / "o" / "ensemble")["trajectory_count"] == 600

    def test_ensemble_all_excluded_gives_nan_rows(self, tmp_path):
        # a guard every trajectory crosses: NaN means and errors, no warning
        text = (BASE + "\n[integrator]\ntime = 0.05\nblowup_guard = 1e-6\n"
                "\n[experiment]\nsize = 4\n")
        cfgp = write(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["ensemble", "--config", cfgp, "--out", str(tmp_path / "o")]) == 0
        lines = (tmp_path / "o" / "ensemble" / "ensemble_mean.csv").read_text().splitlines()
        assert len(lines) > 2
        assert all(line.split(",")[1:] == ["nan"] * 6 for line in lines[1:])
        assert assert_manifest(tmp_path / "o" / "ensemble")["excluded_count"] == 4

    def test_workers_rejected_outside_ensemble(self, tmp_path, capsys):
        cfgp = write(tmp_path, BASE)
        with pytest.raises(SystemExit) as exit_:
            cli.main(["mixing", "--config", cfgp, "--workers", "2"])
        assert exit_.value.code != 0
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["0", "-1", "x"])
    def test_workers_below_one_rejected(self, capsys, n):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["ensemble", "--workers", n])
        assert exit_.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("option", [["--config", "run.cfg"], ["--seed", "5"],
                                        ["--out", "x"]])
    def test_validate_rejects_ignored_options(self, tmp_path, monkeypatch, capsys, option):
        # the checks are pinned and write nothing: an option they would
        # ignore is an error, found before any check runs
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            cli.main(["validate", "--only", "8", *option])
        assert exit_.value.code == 2
        assert option[0] in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_invalid_config_exit_code_and_json(self, tmp_path, capsys):
        cfgp = write(tmp_path, "[model]\ngamma = 9\n")
        rc = cli.main(["simulate", "--config", cfgp, "--out", str(tmp_path / "o")])
        assert rc == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "config"
        assert any("gamma" in v for v in payload["violations"])

    def test_validate_subset(self, capsys):
        rc = cli.main(["validate", "--only", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[PASS]" in out and "Wasserstein" in out

    @pytest.mark.parametrize("only, named",
                             [("11", "11"), ("0,99", "0"), ("2,x", "x"), ("", "''")])
    def test_validate_rejects_bad_indices(self, capsys, only, named):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["validate", "--only", only])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "--only" in err and named in err

    def test_couple_driver_csv(self, tmp_path):
        text = BASE + (
            "\n[integrator]\ndt = 2e-3\n"
            "\n[experiment]\npairs = 3\nsegments = 2\n"
            "segment_time = 0.1\npilot_traj = 8\npilot_time = 2.0\n"
        )
        cfgp = write(tmp_path, text)
        out = str(tmp_path / "o")
        assert cli.main(["couple", "--config", cfgp, "--out", out]) == 0
        lines = (tmp_path / "o" / "couple" / "coupling.csv").read_text().splitlines()
        assert lines[0] == "pair,k,ell,J,log_weight,E4_u1,E4_u2,stopped_flags"
        assert len(lines) == 1 + 3 * 2
        man = assert_manifest(tmp_path / "o" / "couple")
        assert man["trajectory_count"] == 6 and "c4_hat" in man["derived_constants"]

    def test_inviscid_driver(self, tmp_path):
        text = BASE + (
            "\n[experiment]\ngammas = 1e-2,1e-1\n"
            "time = 0.1\npairs = 4\n"
        )
        cfgp = write(tmp_path, text)
        out = str(tmp_path / "o")
        assert cli.main(["inviscid", "--config", cfgp, "--out", out]) == 0
        lines = (tmp_path / "o" / "inviscid" / "inviscid.csv").read_text().splitlines()
        assert lines[0].startswith("gamma,")
        assert len(lines) == 3
        assert assert_manifest(tmp_path / "o" / "inviscid")["trajectory_count"] == 12

    def test_tails_driver(self, tmp_path):
        text = BASE + (
            "\n[experiment]\nn = 4\np = 1.0\ntime = 1.0\n"
            "ensemble = 8\nrho_grid = 0.1,1,10\n"
        )
        cfgp = write(tmp_path, text)
        out = str(tmp_path / "o")
        assert cli.main(["tails", "--config", cfgp, "--out", out]) == 0
        lines = (tmp_path / "o" / "tails" / "tails.csv").read_text().splitlines()
        assert lines[0] == "rho,frequency,envelope"
        assert assert_manifest(tmp_path / "o" / "tails")["trajectory_count"] == 8

    def test_tails_default_grid_spans_the_deviations(self, tmp_path):
        # with no rho_grid the grid runs up to the largest deviations: the
        # frequencies fall from (nearly) every trajectory to at most a tenth
        text = BASE + "\n[experiment]\ntime = 2\nensemble = 50\n"
        assert cli.main(["tails", "--config", write(tmp_path, text),
                         "--out", str(tmp_path / "o")]) == 0
        lines = (tmp_path / "o" / "tails" / "tails.csv").read_text().splitlines()[1:]
        freq = [float(line.split(",")[1]) for line in lines]
        assert len(freq) == 12 and freq[0] >= 0.5 and freq[-1] <= 0.1

    def test_tails_rejects_short_run(self, tmp_path, capsys):
        # c_n_hat is fitted over t >= 1, so a shorter run is rejected at load
        text = BASE + (
            "\n[experiment]\nn = 4\np = 1.0\ntime = 0.5\nensemble = 4\n"
        )
        cfgp = write(tmp_path, text)
        assert cli.main(["tails", "--config", cfgp, "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["violations"] == ["[experiment] time: 0.5 is out of range, need >= 1.0"]

    def test_mixing_driver(self, tmp_path):
        text = BASE + (
            "\n[experiment]\ngammas = 0.05\nt_max = 1.0\n"
            "t_points = 3\nensemble = 4\n"
        )
        cfgp = write(tmp_path, text)
        out = str(tmp_path / "o")
        assert cli.main(["mixing", "--config", cfgp, "--out", out]) == 0
        files = {p.name for p in (tmp_path / "o" / "mixing").iterdir()}
        assert "mixing_gamma0.05.csv" in files and "manifest.json" in files
        man = assert_manifest(tmp_path / "o" / "mixing")
        assert set(man["files"]) == {"mixing_gamma0.05.csv", "mixing_dual_gamma0.05.csv"}

    def test_measures_driver(self, tmp_path):
        cfgp = write(tmp_path, MEASURES)
        out = str(tmp_path / "o")
        assert cli.main(["measures", "--config", cfgp, "--out", out]) == 0
        lines = (tmp_path / "o" / "measures" / "measures.csv").read_text().splitlines()
        assert lines[0].startswith("gamma,w_d0")
        assert assert_manifest(tmp_path / "o" / "measures")["trajectory_count"] == 2

    @pytest.mark.parametrize("name, experiment, excluded", [
        ("mixing", "gammas = 0.05\nt_max = 0.2\nt_points = 3\nensemble = 4\n", 8),
        ("measures", "gammas = 0.1\nburn_in = 0.5\nsamples = 4\nthinning = 0.05\n", 2),
        ("tails", "n = 4\np = 1.0\ntime = 1.0\nensemble = 8\nrho_grid = 0.1,1\n", 8),
        ("couple", "pairs = 2\nsegments = 1\nsegment_time = 0.01\npilot_traj = 4\n"
                   "pilot_time = 1.0\n", 4),
    ], ids=["mixing", "measures", "tails", "couple"])
    def test_excluded_count(self, tmp_path, name, experiment, excluded):
        # a blow-up guard every trajectory crosses: the manifest counts each
        text = BASE + "\n[integrator]\nblowup_guard = 0.01\n"
        cfgp = write(tmp_path, text + "\n[experiment]\n" + experiment)
        out = str(tmp_path / "o")
        assert cli.main([name, "--config", cfgp, "--out", out]) == 0
        man = assert_manifest(tmp_path / "o" / name)
        assert man["excluded_count"] == man["trajectory_count"] == excluded

    def test_measures_honours_model_keys(self, tmp_path):
        # every gamma's params keep the [model] keys: linear dynamics give
        # other samples and so other distances
        out = str(tmp_path / "o")
        linear = MEASURES.replace("[model]\n", "[model]\nnonlinear = false\n")
        for name, text in (("cubic.cfg", MEASURES), ("linear.cfg", linear)):
            cfgp = write(tmp_path, text, name=name)
            assert cli.main(["measures", "--config", cfgp, "--out", out]) == 0
        a = (tmp_path / "o" / "measures" / "measures.csv").read_bytes()
        b = (tmp_path / "o" / "measures-2" / "measures.csv").read_bytes()
        assert a != b

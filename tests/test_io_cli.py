import json
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
        assert "damping" in str(err.value)

    def test_roundtrip_idempotent(self, tmp_path):
        path = write(tmp_path, "[model]\ngamma = 0.1\n[run]\nseed = 11\n")
        cfg = load_config(path)
        echoed = write(tmp_path, cfg.serialize(), name="echo.cfg")
        cfg2 = load_config(echoed)
        assert cfg.as_dict() == cfg2.as_dict()
        assert cfg.content_hash() == cfg2.content_hash()

    def test_u0_parsing(self, tmp_path):
        cfg = load_config(write(tmp_path, "[run]\nu0_modes = 1:0.5, 3:0.1+0.2j\n"))
        u0 = cfg.u0()
        assert u0[0] == 0.5 and u0[2] == 0.1 + 0.2j
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "[run]\nu0_modes = nope\n", name="bad.cfg"))

    def test_default_config_is_valid(self):
        assert validate(default_config()) == []


BASE = """
[model]
gamma = 0.05
alpha = 1.0
modes = 16

[noise]
forced_modes = 4
lambda0 = 0.1

[integrator]
dt = 1e-3
time = {time}
record_every = 10

[run]
seed = 21
u0_modes = 1:0.4
"""


class TestCLI:
    def test_simulate_t_zero_single_row(self, tmp_path):
        cfgp = write(tmp_path, BASE.format(time="0.0"))
        rc = cli.main(["simulate", "--config", cfgp, "--out", str(tmp_path / "o")])
        assert rc == 0
        csv = (tmp_path / "o" / "simulate" / "energy.csv").read_text().splitlines()
        assert csv[0] == "t,H,H1,L4,psi,phi,E1,E4"
        assert len(csv) == 2

    def test_rerun_never_overwrites(self, tmp_path):
        cfgp = write(tmp_path, BASE.format(time="0.0"))
        out = str(tmp_path / "o")
        assert cli.main(["simulate", "--config", cfgp, "--out", out]) == 0
        assert cli.main(["simulate", "--config", cfgp, "--out", out]) == 0
        assert (tmp_path / "o" / "simulate").is_dir()
        assert (tmp_path / "o" / "simulate-2").is_dir()
        for d in ("simulate", "simulate-2"):
            assert (tmp_path / "o" / d / "manifest.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfgp = write(tmp_path, BASE.format(time="0.05"))
        out = str(tmp_path / "o")
        cli.main(["simulate", "--config", cfgp, "--out", out])
        cli.main(["simulate", "--config", cfgp, "--out", out])
        a = (tmp_path / "o" / "simulate" / "energy.csv").read_bytes()
        b = (tmp_path / "o" / "simulate-2" / "energy.csv").read_bytes()
        assert a == b

    def test_seed_override_changes_output(self, tmp_path):
        cfgp = write(tmp_path, BASE.format(time="0.05"))
        out = str(tmp_path / "o")
        cli.main(["simulate", "--config", cfgp, "--out", out])
        cli.main(["simulate", "--config", cfgp, "--out", out, "--seed", "99"])
        a = (tmp_path / "o" / "simulate" / "energy.csv").read_bytes()
        b = (tmp_path / "o" / "simulate-2" / "energy.csv").read_bytes()
        assert a != b

    def test_manifest_hashes_outputs(self, tmp_path):
        cfgp = write(tmp_path, BASE.format(time="0.02"))
        out = str(tmp_path / "o")
        cli.main(["simulate", "--config", cfgp, "--out", out])
        man = json.loads((tmp_path / "o" / "simulate" / "manifest.json").read_text())
        assert "energy.csv" in man["files"]
        assert len(man["files"]["energy.csv"]) == 64
        assert man["seed"] == 21 and man["code_version"]

    def test_ensemble_workers_equivalence(self, tmp_path):
        # 600 trajectories on the 32-point kick grid pass numpy's 256 KiB
        # temporary-reuse size in one batch and stay below it in two halves
        text = BASE.format(time="0.05") + "\n[experiment]\ndriver = ensemble\nsize = 600\n"
        cfgp = write(tmp_path, text)
        out = str(tmp_path / "o")
        assert cli.main(["ensemble", "--config", cfgp, "--out", out,
                         "--workers", "1"]) == 0
        assert cli.main(["ensemble", "--config", cfgp, "--out", out,
                         "--workers", "2"]) == 0
        a = (tmp_path / "o" / "ensemble" / "ensemble_mean.csv").read_bytes()
        b = (tmp_path / "o" / "ensemble-2" / "ensemble_mean.csv").read_bytes()
        assert a == b

    def test_workers_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GLNLS_WORKERS", "2")
        cfgp = write(tmp_path, BASE.format(time="0.02")
                     + "\n[experiment]\ndriver = ensemble\nsize = 4\n")
        out = str(tmp_path / "o")
        assert cli.main(["ensemble", "--config", cfgp, "--out", out]) == 0

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

    def test_couple_driver_csv(self, tmp_path):
        text = BASE.format(time="0.1") + (
            "\n[experiment]\ndriver = couple\npairs = 3\nsegments = 2\n"
            "segment_time = 0.1\ndt = 2e-3\npilot_traj = 8\npilot_time = 2.0\n"
        )
        cfgp = write(tmp_path, text)
        out = str(tmp_path / "o")
        assert cli.main(["couple", "--config", cfgp, "--out", out]) == 0
        lines = (tmp_path / "o" / "couple" / "coupling.csv").read_text().splitlines()
        assert lines[0] == "pair,k,ell,J,log_weight,E4_u1,E4_u2,stopped_flags"
        assert len(lines) == 1 + 3 * 2

    def test_inviscid_driver(self, tmp_path):
        text = BASE.format(time="0.1") + (
            "\n[experiment]\ndriver = inviscid\ngammas = 1e-2,1e-1\n"
            "time = 0.1\npairs = 4\n"
        )
        cfgp = write(tmp_path, text)
        out = str(tmp_path / "o")
        assert cli.main(["inviscid", "--config", cfgp, "--out", out]) == 0
        lines = (tmp_path / "o" / "inviscid" / "inviscid.csv").read_text().splitlines()
        assert lines[0].startswith("gamma,")
        assert len(lines) == 3

    def test_tails_driver(self, tmp_path):
        text = BASE.format(time="1.0") + (
            "\n[experiment]\ndriver = tails\nn = 4\np = 1.0\ntime = 1.0\n"
            "ensemble = 8\nrho_grid = 0.1,1,10\n"
        )
        cfgp = write(tmp_path, text)
        out = str(tmp_path / "o")
        assert cli.main(["tails", "--config", cfgp, "--out", out]) == 0
        lines = (tmp_path / "o" / "tails" / "tails.csv").read_text().splitlines()
        assert lines[0] == "rho,frequency,envelope"

    def test_mixing_driver(self, tmp_path):
        text = BASE.format(time="0.1") + (
            "\n[experiment]\ndriver = mixing\ngammas = 0.05\nt_max = 1.0\n"
            "t_points = 3\nensemble = 4\n"
        )
        cfgp = write(tmp_path, text)
        out = str(tmp_path / "o")
        assert cli.main(["mixing", "--config", cfgp, "--out", out]) == 0
        files = {p.name for p in (tmp_path / "o" / "mixing").iterdir()}
        assert "mixing_gamma0.05.csv" in files and "manifest.json" in files

    def test_measures_driver(self, tmp_path):
        text = BASE.format(time="0.1") + (
            "\n[experiment]\ndriver = measures\ngammas = 0.1\nburn_in = 1.0\n"
            "samples = 8\nthinning = 0.1\n"
        )
        cfgp = write(tmp_path, text)
        out = str(tmp_path / "o")
        assert cli.main(["measures", "--config", cfgp, "--out", out]) == 0
        lines = (tmp_path / "o" / "measures" / "measures.csv").read_text().splitlines()
        assert lines[0].startswith("gamma,w_d0")

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from spacingcov import autocov as ac
from spacingcov.cli import main
from spacingcov.spectral import SpectrumInterpolant

MC_ARGS = ["--n", "24", "--m", "400", "--seed", "3", "--k-max", "3"]


def _run(tmp_path, name, argv):
    out = tmp_path / name
    rc = main(argv + ["--out", str(out)])
    return rc, out


class TestParser:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "spectrum" in capsys.readouterr().out

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        # --sampler chose between two samplers; one is left
        for argv in (["spectrum", "--bogus", "1"],
                     ["montecarlo", "--sampler", "sparse_cmv"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_threads_only_on_montecarlo(self, capsys):
        # only the Monte Carlo run has parallel workers to cap
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--threads", "2"])
        assert exc.value.code == 2


class TestSpectrum:
    def test_csv_output(self, tmp_path):
        rc, out = _run(tmp_path, "s.csv",
                       ["spectrum", "--omega-min", "0.5", "--omega-max", "2.5",
                        "--points", "5"])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "omega,S,err,backend"
        assert len(lines) == 6
        vals = np.array([float(l.split(",")[1]) for l in lines[1:]])
        assert np.all(np.diff(vals) > 0)          # increasing over this range

    def test_json_schema(self, tmp_path):
        rc, out = _run(tmp_path, "s.json",
                       ["spectrum", "--points", "3", "--format", "json"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "spacingcov/v1"
        assert doc["kind"] == "spectrum"
        assert len(doc["rows"]) == 3

    def test_invalid_grid_usage_error(self, tmp_path, capsys):
        rc, _ = _run(tmp_path, "x.csv",
                     ["spectrum", "--omega-min", "2.0", "--omega-max", "1.0"])
        assert rc == 2
        assert "grid" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["spectrum", "--omega-min", "0.8", "--omega-max", "3.0",
                "--points", "4"]
        _, a = _run(tmp_path, "a.csv", argv)
        _, b = _run(tmp_path, "b.csv", argv)
        assert a.read_bytes() == b.read_bytes()


class TestAutocov:
    def test_table_matches_library(self, tmp_path):
        rc, out = _run(tmp_path, "ac.csv", ["autocov", "--k-max", "5"])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ("k,exact,dyson,asymptotic,asymptotic_ci,"
                            "exact_over_dyson")
        assert len(lines) == 7
        k0 = lines[1].split(",")
        assert k0[0] == "0" and k0[2] == "" and k0[5] == ""
        k3 = lines[4].split(",")
        assert float(k3[2]) == pytest.approx(ac.autocov_dyson(3), abs=0)
        assert float(k3[3]) == pytest.approx(ac.autocov_asymptotic(3), abs=0)
        assert float(k3[5]) == pytest.approx(
            float(k3[1]) / ac.autocov_dyson(3), rel=1e-15)

    def test_rejects_bad_k_max(self, tmp_path, capsys):
        rc, _ = _run(tmp_path, "x.csv", ["autocov", "--k-max", "0"])
        assert rc == 2

    def test_k_max_above_guard_fails_before_build(self, tmp_path, capsys,
                                                  monkeypatch):
        def no_build(cls, *args, **kwargs):
            raise AssertionError("interpolant built for an invalid k_max")
        monkeypatch.setattr(SpectrumInterpolant, "build", classmethod(no_build))
        rc, _ = _run(tmp_path, "x.csv",
                     ["autocov", "--k-max", str(ac.K_CAP + 1)])
        assert rc == 2


class TestScipyLoading:
    def test_spectrum_and_autocov_leave_linalg_out(self, tmp_path,
                                                   spectrum_interpolant):
        # the fixture fills the shared interpolant cache the child reads
        src = os.path.dirname(os.path.dirname(ac.__file__))
        out = str(tmp_path / "out.csv")
        code = ("import sys\n"
                "from spacingcov.cli import main\n"
                "for argv in sys.argv[1:]:\n"
                "    assert main(argv.split()) == 0\n"
                "print(sorted(m for m in sys.modules if m.startswith(\n"
                "    ('scipy.linalg', 'spacingcov.montecarlo'))))")
        proc = subprocess.run(
            [sys.executable, "-c", code,
             f"spectrum --omega-min 1.0 --points 2 --out {out}",
             f"autocov --k-max 3 --out {out}"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, check=True)
        assert proc.stdout.strip() == "[]"


class TestMonteCarlo:
    def test_deterministic_reruns(self, tmp_path):
        _, a = _run(tmp_path, "a.csv", ["montecarlo"] + MC_ARGS)
        _, b = _run(tmp_path, "b.csv", ["montecarlo"] + MC_ARGS)
        assert a.read_bytes() == b.read_bytes()

    def test_thread_flag_does_not_change_output(self, tmp_path):
        _, a = _run(tmp_path, "a.csv", ["montecarlo"] + MC_ARGS +
                    ["--threads", "1"])
        _, b = _run(tmp_path, "b.csv", ["montecarlo"] + MC_ARGS +
                    ["--threads", "2"])
        assert a.read_bytes() == b.read_bytes()

    def test_thread_env_does_not_change_output(self, tmp_path, monkeypatch):
        _, a = _run(tmp_path, "a.csv", ["montecarlo"] + MC_ARGS)
        monkeypatch.setenv("SPACINGCOV_THREADS", "2")
        _, b = _run(tmp_path, "b.csv", ["montecarlo"] + MC_ARGS)
        assert a.read_bytes() == b.read_bytes()

    def test_checkpoint_then_resume(self, tmp_path):
        ck = str(tmp_path / "ck.npz")
        _, a = _run(tmp_path, "a.csv",
                    ["montecarlo"] + MC_ARGS + ["--checkpoint", ck])
        rc, b = _run(tmp_path, "b.csv",
                     ["montecarlo"] + MC_ARGS + ["--checkpoint", ck,
                                                 "--resume"])
        assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_checkpoint_mismatch_is_failure(self, tmp_path, capsys):
        ck = str(tmp_path / "ck.npz")
        _run(tmp_path, "a.csv", ["montecarlo"] + MC_ARGS + ["--checkpoint", ck])
        rc, _ = _run(tmp_path, "b.csv",
                     ["montecarlo", "--n", "24", "--m", "400", "--seed", "4",
                      "--k-max", "3", "--checkpoint", ck, "--resume"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["kind"] == "error"

    def test_invalid_dimension_is_failure(self, tmp_path, capsys):
        rc, _ = _run(tmp_path, "x.csv", ["montecarlo", "--n", "3", "--m", "4"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["schema"] == "spacingcov/v1"

    def test_zero_threads_is_failure(self, tmp_path, capsys):
        # refused with the exit code of an invalid --n, not run serially
        rc, out = _run(tmp_path, "x.csv",
                       ["montecarlo"] + MC_ARGS + ["--threads", "0"])
        assert rc == 1 and not out.exists()
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["kind"] == "error" and "threads" in err["error"]

    def test_header_and_metadata(self, tmp_path):
        _, out = _run(tmp_path, "m.csv", ["montecarlo"] + MC_ARGS)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,mean,std,half_width,N,M,seed"
        assert len(lines) == 5
        rec = lines[2].split(",")
        assert rec[4:] == ["24", "400", "3"]


class TestConfigFile:
    def test_flags_win_over_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        # one file serves every subcommand: the keys of the spectrum and
        # figure1 flags are allowed here
        cfg.write_text("n = 24\nm = 400\nk-max = 3\nseed = 5  # default\n"
                       "points = 5\nmc-file = mc.csv\n")
        _, a = _run(tmp_path, "a.csv",
                    ["--config", str(cfg), "montecarlo", "--seed", "3"])
        _, b = _run(tmp_path, "b.csv", ["montecarlo"] + MC_ARGS)
        assert a.read_bytes() == b.read_bytes()
        _, c = _run(tmp_path, "c.csv", ["--config", str(cfg), "montecarlo"])
        assert c.read_text().strip().splitlines()[1].split(",")[-1] == "5"

    def test_malformed_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just words\n")
        rc = main(["--config", str(cfg), "autocov", "--k-max", "1"])
        assert rc == 2
        assert "config" in capsys.readouterr().err

    def test_bad_config_value_is_usage_error(self, tmp_path, capsys):
        # a config value is converted as the flag's value would be
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n = abc\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "montecarlo"])
        assert exc.value.code == 2
        assert "abc" in capsys.readouterr().err

    def test_misspelled_config_key_is_usage_error(self, tmp_path, capsys):
        # unchecked, k_mx and sed were dropped: a run with seed 1 and
        # k_max 12 exited 0.  sampler names a flag that was deleted
        cfg = tmp_path / "typo.cfg"
        for text, named in (("k_mx = 3\nsed = 9\n", "k_mx, sed"),
                            ("sampler = qr_haar\n", "sampler")):
            cfg.write_text("n = 16\nm = 20\n" + text)
            with pytest.raises(SystemExit) as exc:
                main(["--config", str(cfg), "montecarlo"])
            assert exc.value.code == 2
            assert f"no flag takes {named}" in capsys.readouterr().err


class TestFigure1:
    def _mc_csv(self, tmp_path, mean_of):
        path = tmp_path / "mc.csv"
        lines = ["k,mean,std,half_width,N,M,seed"]
        for k in range(0, 6):
            mean = 0.18 if k == 0 else mean_of(k)
            lines.append(f"{k},{mean:.17g},1e-4,1e-6,256,1000,1")
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_columns_against_fabricated_input(self, tmp_path):
        src = self._mc_csv(tmp_path, ac.autocov_asymptotic)
        rc, out = _run(tmp_path, "f.csv",
                       ["figure1", "--mc-file", str(src)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ("k,mc_minus_dyson,mc_minus_asymptotic,"
                            "ci_half_width,mc_over_dyson,mc_over_asymptotic")
        assert len(lines) == 6                  # k = 0 row dropped
        for line in lines[1:]:
            k, md, ma, half, rd, ra = line.split(",")
            k = int(k)
            assert float(ma) == pytest.approx(0.0, abs=1e-18)
            assert float(ra) == pytest.approx(1.0, abs=1e-12)
            assert float(md) == pytest.approx(
                ac.autocov_asymptotic(k) - ac.autocov_dyson(k), rel=1e-12,
                abs=0)

    def test_missing_columns_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("k,value\n1,0.5\n")
        rc, _ = _run(tmp_path, "f.csv", ["figure1", "--mc-file", str(bad)])
        assert rc == 2

    def test_missing_file_is_failure(self, tmp_path):
        rc = main(["figure1", "--mc-file", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "f.csv")])
        assert rc == 1

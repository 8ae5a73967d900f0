import math

import numpy as np
import pytest

from photongate.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_NUMERICAL_ERROR,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReflect:
    def test_bare_high_fidelity(self, capsys):
        code, out, _ = run(capsys, "reflect", "--case", "bare",
                           "--kappa-l", "0", "--Tf", "50")
        assert code == EXIT_OK
        fid = float(next(l for l in out.splitlines() if l.startswith("F ")).split("=")[1])
        assert fid > 0.995
        phase = float(next(l for l in out.splitlines() if l.startswith("phase")).split("=")[1])
        assert abs(phase - math.pi) < 1e-3

    def test_coupled_g0_zero_matches_bare(self, capsys):
        code_b, out_b, _ = run(capsys, "reflect", "--case", "bare",
                               "--kappa-l", "0.1", "--Tf", "10")
        code_c, out_c, _ = run(capsys, "reflect", "--case", "coupled", "--g0", "0",
                               "--kappa-l", "0.1", "--Tf", "10")
        assert code_b == code_c == EXIT_OK
        metrics_b = [l for l in out_b.splitlines() if "=" in l and not l.startswith("case")]
        metrics_c = [l for l in out_c.splitlines() if "=" in l and not l.startswith("case")]
        assert metrics_b == metrics_c

    def test_bare_accepts_one_phase(self, capsys):
        code, out, _ = run(capsys, "reflect", "--case", "bare", "--Tf", "10", "--n-phi", "1")
        assert code == EXIT_OK
        assert "flux_residual" in out

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reflect", "--kappa-l", "0"])
        assert exc.value.code == 2
        assert "--case" in capsys.readouterr().err

    def test_solver_error_exit_code(self, capsys):
        code, _, err = run(capsys, "reflect", "--case", "coupled", "--g0", "300",
                           "--gamma", "1", "--Tf", "10", "--dt", "0.5")
        assert code == EXIT_NUMERICAL_ERROR
        assert "numerical error" in err

    def test_envelope_dump(self, capsys, tmp_path):
        out_path = tmp_path / "env.csv"
        code, _, _ = run(capsys, "reflect", "--case", "bare", "--Tf", "10",
                         "--out", str(out_path))
        assert code == EXIT_OK
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("# photongate")
        assert lines[1] == "t,f_in_re,f_in_im,f_out_re,f_out_im"


class TestConfigFile:
    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# sample\nkappa_l=0.3\nT_f=10\n")
        _, out_cfg, _ = run(capsys, "reflect", "--case", "bare", "--config", str(cfg))
        _, out_flag, _ = run(capsys, "reflect", "--case", "bare",
                             "--config", str(cfg), "--kappa-l", "0")
        p_cfg = float(next(l for l in out_cfg.splitlines() if l.startswith("P ")).split("=")[1])
        p_flag = float(next(l for l in out_flag.splitlines() if l.startswith("P ")).split("=")[1])
        assert p_cfg < 0.8 < p_flag

    def test_unknown_key_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("detuning=3\n")
        code, _, err = run(capsys, "reflect", "--case", "bare", "--config", str(cfg))
        assert code == EXIT_CONFIG_ERROR
        assert "unknown key" in err

    def test_missing_file_is_config_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "reflect", "--case", "bare",
                         "--config", str(tmp_path / "nope.cfg"))
        assert code == EXIT_CONFIG_ERROR


class TestGate:
    def test_prints_closed_forms(self, capsys):
        code, out, _ = run(capsys, "gate", "--P0", "1", "--r", "1")
        assert code == EXIT_OK
        assert "P_total = 1" in out
        assert "F_avg = 1" in out


class TestSweep:
    def test_csv_output_and_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(capsys, "sweep", "--case", "bare",
                             "--kappa-l", "0,0.2", "--Tf", "10", "--out", str(path))
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0].startswith("# photongate")
        assert lines[1] == ("g0,kappa_l,gamma,T_f,T_g,n_phi,case,"
                            "P,F,phase,loss_atom,loss_cavity,error")
        assert len(lines) == 4

    def test_stdout_matches_out_file(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        argv = ("sweep", "--case", "bare", "--kappa-l", "0,0.2", "--Tf", "10")
        code_f, _, _ = run(capsys, *argv, "--out", str(path))
        code_s, out, _ = run(capsys, *argv)
        assert code_f == code_s == EXIT_OK
        assert out.encode("utf-8") == path.read_bytes()


@pytest.mark.parametrize("argv", [
    ("reflect", "--case", "coupled", "--g0", "1", "--gamma", "1"),
    ("sweep", "--case", "coupled", "--g0", "1", "--gamma", "1"),
    ("figures", "fig3"),
])
@pytest.mark.parametrize("n_phi", ["0", "-3"])
def test_non_positive_n_phi_is_config_error(capsys, tmp_path, argv, n_phi):
    code, out, err = run(capsys, *argv, "--n-phi", n_phi, *(
        ("--out", str(tmp_path / "out")) if argv[0] == "figures" else ()))
    assert code == EXIT_CONFIG_ERROR
    assert "--n-phi must be at least 1" in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("sweep", "--case", "bare", "--kappa-l", ","),
    ("sweep", "--case", "bare", "--Tf", "inf"),
    ("reflect", "--case", "bare", "--dt", "0"),
    ("sweep", "--case", "bare", "--dt", "0"),
    ("reflect", "--case", "bare", "--dt", "-1"),
    ("sweep", "--case", "bare", "--dt", "-1"),
    ("reflect", "--case", "bare", "--dt", "nan"),
    ("sweep", "--case", "bare", "--dt", "nan"),
    ("reflect", "--case", "bare", "--window", "nan"),
    ("reflect", "--case", "bare", "--window", "-1"),
    ("reflect", "--case", "bare", "--Tf", "nan"),
    ("cluster", "--P", "1.5"),
    ("cluster", "--P", "0.7", "--m", "0"),
    ("gate", "--P0", "0", "--r", "1"),
    ("gate", "--P0", "0.5", "--r", "-1"),
    ("gate", "--P0", "0.5", "--r", "nan"),
    ("gate", "--P0", "0.5", "--r", "inf"),
    ("reflect", "--case", "coupled", "--g0", "1", "--Tg", "nan"),
    ("reflect", "--case", "coupled", "--g0", "1", "--phi", "nan"),
    ("sweep", "--case", "bare", "--Tf", "10", "--window", "5"),
    ("reflect", "--case", "bare", "--n-phi", "4"),
    ("sweep", "--case", "bare", "--n-phi", "4"),
])
def test_bad_numeric_input_is_config_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CONFIG_ERROR
    assert err.startswith("config error: ")
    assert out == ""


def test_fig5_bad_P0_is_config_error(capsys, tmp_path):
    d = tmp_path / "d"
    code, out, err = run(capsys, "figures", "fig5", "--P0", "2", "--out", str(d))
    assert code == EXIT_CONFIG_ERROR
    assert err.startswith("config error: ")
    assert not d.exists()


def test_sweep_window_from_config_is_config_error(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("T_f=10\nwindow=5\n")
    code, out, err = run(capsys, "sweep", "--case", "bare", "--config", str(cfg))
    assert code == EXIT_CONFIG_ERROR
    assert "window" in err
    assert out == ""


def test_envelope_dump_of_phase_average_is_config_error(capsys, tmp_path):
    path = tmp_path / "env.csv"
    code, out, err = run(capsys, "reflect", "--case", "coupled", "--g0", "1",
                         "--n-phi", "4", "--out", str(path))
    assert code == EXIT_CONFIG_ERROR
    assert "--out" in err
    assert out == ""
    assert not path.exists()


class TestCluster:
    def test_stats_and_csv(self, capsys, tmp_path):
        out_path = tmp_path / "growth.csv"
        code, out, _ = run(capsys, "cluster", "--P", "0.8", "--m", "1000",
                           "--trials", "50", "--seed", "3", "--out", str(out_path))
        assert code == EXIT_OK
        mean = float(next(l for l in out.splitlines()
                          if l.startswith("mean_delta")).split("=")[1])
        assert abs(mean - 400.0) < 100.0
        lines = out_path.read_text().splitlines()
        assert lines[1] == "P,m,n_trials,seed,mean_delta,std_err,floor_hits"

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run(capsys, "cluster", "--P", "0.7", "--m", "500", "--trials", "20",
                "--seed", "11", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()


class TestVerify:
    def test_oracle_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "oracle")
        assert code == EXIT_OK
        assert "[pass]" in out and "[FAIL]" not in out

    def test_growth_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "growth")
        assert code == EXIT_OK

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "everything"])
        assert exc.value.code == 2


class TestFigures:
    def test_fig5(self, capsys, tmp_path):
        code, _, _ = run(capsys, "figures", "fig5", "--out", str(tmp_path))
        assert code == EXIT_OK
        lines = (tmp_path / "fig5.csv").read_text().splitlines()
        assert lines[1] == "P0,r,P_L,P_R,P_total,F_L,F_R,F_avg"
        assert len(lines) == 2 + 81
        # at r=1 the gate is ideal: P_total = P0^2 and F_avg = 1
        row_r1 = next(l for l in lines[2:] if l.split(",")[1] == "1")
        fields = row_r1.split(",")
        assert float(fields[4]) == pytest.approx(1.0)
        assert float(fields[7]) == pytest.approx(1.0)

    def test_fig2_trends(self, capsys, tmp_path):
        code, _, _ = run(capsys, "figures", "fig2", "--out", str(tmp_path))
        assert code == EXIT_OK
        lines = (tmp_path / "fig2.csv").read_text().splitlines()[2:]
        rows = [l.split(",") for l in lines]
        assert len(rows) == 5 * 7
        by_tf = {}
        for r in rows:
            by_tf.setdefault(float(r[3]), []).append((float(r[1]), float(r[7])))
        for tf, series in by_tf.items():
            ps = [p for _, p in sorted(series)]
            assert all(a > b for a, b in zip(ps, ps[1:])), f"P0 not decreasing at Tf={tf}"

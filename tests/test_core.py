import io
import math

import numpy as np
import pytest

from photongate.core import (
    CavityParams,
    ConfigError,
    TimeGrid,
    WindowTooSmallError,
    coupling_at,
    default_time_grid,
    format_config,
    g0_for_mean_coupling,
    make_sech_pulse,
    mean_coupling,
    params_from_config,
    parse_config,
    write_csv,
)


class TestCavityParams:
    def test_phi_wrapped(self):
        p = CavityParams(phi=7.0)
        assert 0.0 <= p.phi < 2.0 * math.pi
        assert p.phi == pytest.approx(7.0 - 2.0 * math.pi)

    @pytest.mark.parametrize("kwargs", [
        {"kappa_c": 0.0}, {"kappa_c": -1.0}, {"T_g": 0.0},
        {"g0": -0.1}, {"gamma": -2.0}, {"kappa_l": float("nan")},
        {"kappa_c": float("nan")}, {"kappa_c": float("inf")},
        {"T_g": float("nan")}, {"T_g": float("inf")},
        {"phi": float("nan")}, {"phi": float("inf")},
    ])
    def test_rejects_bad_rates(self, kwargs):
        with pytest.raises(ValueError):
            CavityParams(**kwargs)


class TestSechPulse:
    def test_peak_value(self):
        # numeric quadrature of sech^2(2t/T_f)/T_f^2 gives norm^2 = 1/T_f,
        # so after rescaling f(0) = 1/sqrt(T_f)
        for tf in (1.0, 3.0, 50.0):
            grid = default_time_grid(tf)
            f = make_sech_pulse(tf, grid)
            t = grid.times()
            i0 = int(np.argmin(np.abs(t)))
            assert abs(f.samples[i0]) == pytest.approx(1.0 / math.sqrt(tf), rel=1e-6)

    def test_unit_norm(self):
        f = make_sech_pulse(7.0, default_time_grid(7.0))
        assert f.squared_norm() == pytest.approx(1.0, abs=1e-8)

    def test_real_and_even(self):
        f = make_sech_pulse(2.0, default_time_grid(2.0))
        assert np.all(f.samples.imag == 0.0)
        assert np.allclose(f.samples, f.samples[::-1], atol=1e-12)

    def test_window_doubling_leaves_norm(self):
        tf = 4.0
        g1 = default_time_grid(tf)
        g2 = default_time_grid(tf, window_halfwidth=16.0)
        raw1 = 1.0 / (tf * np.cosh(2.0 * g1.times() / tf))
        raw2 = 1.0 / (tf * np.cosh(2.0 * g2.times() / tf))
        n1 = math.sqrt(np.trapezoid(raw1**2, dx=g1.dt))
        n2 = math.sqrt(np.trapezoid(raw2**2, dx=g2.dt))
        assert abs(n1 - n2) < 1e-10

    def test_window_too_small(self):
        with pytest.raises(WindowTooSmallError):
            make_sech_pulse(10.0, TimeGrid(-30.0, 30.0, 0.01))
        # spans 5*T_f but tails not yet below 1e-6 of the peak
        with pytest.raises(WindowTooSmallError):
            make_sech_pulse(10.0, TimeGrid(-55.0, 55.0, 0.01))


class TestCoupling:
    def test_phi_zero_peak(self):
        p = CavityParams(g0=2.5)
        assert coupling_at(p, 0.0) == pytest.approx(2.5)

    def test_phi_half_pi_gives_half(self):
        p = CavityParams(g0=2.0, phi=math.pi / 2.0)
        assert coupling_at(p, 0.0) == pytest.approx(1.0)

    def test_periodicity_and_bounds(self):
        p = CavityParams(g0=1.7, T_g=13.0, phi=0.4)
        t = np.linspace(0.0, 26.0, 400)
        g = coupling_at(p, t)
        assert np.allclose(g, coupling_at(p, t + p.T_g), atol=1e-12)
        assert np.all(g >= p.g0 / 2.0 - 1e-12)
        assert np.all(g <= p.g0 + 1e-12)

    def test_mean_coupling_against_quadrature(self):
        # independent oracle: trapezoidal quadrature over one motion period
        theta = np.linspace(0.0, 2.0 * math.pi, 20001)
        oracle = np.trapezoid(np.cos((math.pi / 3.0) * np.sin(theta)), theta) / (2.0 * math.pi)
        assert mean_coupling(CavityParams(g0=1.0)) == pytest.approx(oracle, abs=1e-10)
        assert mean_coupling(CavityParams(g0=1.0)) == pytest.approx(0.7440719707529295, abs=1e-12)

    def test_mean_coupling_scales_linearly(self):
        base = mean_coupling(CavityParams(g0=1.0))
        assert mean_coupling(CavityParams(g0=3.5)) == pytest.approx(3.5 * base)
        assert mean_coupling(CavityParams(g0=0.0)) == 0.0

    def test_mean_coupling_phi_independent(self):
        # the time average over one period ignores phi: check by quadrature
        p0 = CavityParams(g0=1.0, T_g=11.0)
        vals = []
        for k in range(16):
            p = CavityParams(g0=1.0, T_g=11.0, phi=2.0 * math.pi * k / 16.0)
            t = np.linspace(0.0, p.T_g, 40001)
            vals.append(np.trapezoid(coupling_at(p, t), t) / p.T_g)
        assert max(vals) - min(vals) < 1e-10
        assert vals[0] == pytest.approx(mean_coupling(p0), abs=1e-8)

    def test_g0_for_mean_coupling_inverts(self):
        p = CavityParams(g0=g0_for_mean_coupling(2.0))
        assert mean_coupling(p) == pytest.approx(2.0, abs=1e-12)


class TestConfig:
    def test_roundtrip(self):
        values = {"g0": 2.0, "kappa_l": 0.1, "gamma": 1.0, "T_f": 50.0,
                  "T_g": 125.0, "phi": 0.25, "dt": 0.01, "window": 8.0}
        assert parse_config(format_config(values)) == values

    def test_comments_and_blanks(self):
        text = "# a comment\n\ng0 = 1.5  # inline\nkappa_l=0.2\n"
        assert parse_config(text) == {"g0": 1.5, "kappa_l": 0.2}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("kappa_c=2\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("g0=abc\n")
        with pytest.raises(ConfigError, match="finite"):
            parse_config("g0=inf\n")

    def test_params_from_config(self):
        p = params_from_config({"g0": 1.0, "T_g": 77.0})
        assert p.g0 == 1.0 and p.T_g == 77.0 and p.kappa_c == 1.0
        with pytest.raises(ConfigError):
            params_from_config({"g0": -1.0})


class TestWriteCsv:
    def test_cells_and_destinations(self, tmp_path):
        rows = [(None, 3, 0.1 + 0.2, "a,b\nc"), (1.0, -2, 1e-20, "")]
        path = tmp_path / "out.csv"
        write_csv(path, "w,x,y,z", rows, "cfg")
        assert path.read_text() == (
            "# cfg\nw,x,y,z\n,3,0.3,a;b c\n1,-2,1e-20,\n"
        )
        buf = io.StringIO()
        write_csv(buf, "w,x,y,z", iter(rows), "cfg")
        assert buf.getvalue().encode("utf-8") == path.read_bytes()

    def test_no_comment_line(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, "a", [(1,)])
        assert path.read_text() == "a\n1\n"

import math

import numpy as np
import pytest

from photongate.core import (
    CavityParams,
    PulseEnvelope,
    TimeGrid,
    default_time_grid,
    make_sech_pulse,
)
from photongate.reflection import (
    _CHUNK,
    SWEEP_CSV_HEADER,
    SolverError,
    _integrate,
    reflect_bare,
    reflect_coupled,
    reflect_coupled_motion_averaged,
    sweep,
    write_sweep_csv,
)


def run_bare(tf, kappa_l=0.0, **grid_kw):
    p = CavityParams(kappa_l=kappa_l)
    grid = default_time_grid(tf, p, **grid_kw)
    return p, make_sech_pulse(tf, grid), None


class TestBareCavity:
    def test_pi_phase_and_high_fidelity(self):
        p = CavityParams()
        f = make_sech_pulse(50.0, default_time_grid(50.0, p))
        rec = reflect_bare(p, f)
        assert abs(abs(rec.phase) - math.pi) < 1e-3
        assert rec.F > 0.995

    def test_adiabatic_reflection_coefficient(self):
        # steady-state elimination of the cavity amplitude gives the
        # reflection coefficient (kappa_l - kappa_c)/(kappa_l + kappa_c)
        p = CavityParams(kappa_l=0.2)
        f = make_sech_pulse(500.0, default_time_grid(500.0, p))
        rec = reflect_bare(p, f)
        target = ((p.kappa_c - p.kappa_l) / (p.kappa_c + p.kappa_l)) ** 2
        assert rec.P == pytest.approx(target, rel=0.01)

    def test_flux_balance_no_atom(self):
        p = CavityParams(kappa_l=0.15)
        f = make_sech_pulse(10.0, default_time_grid(10.0, p))
        rec = reflect_bare(p, f)
        assert rec.loss_atom == 0.0
        assert abs(rec.P + rec.loss_cavity - 1.0) < 1e-6


class TestCoupledCavity:
    def test_zero_phase_strong_coupling(self):
        from photongate.core import g0_for_mean_coupling
        p = CavityParams(g0=g0_for_mean_coupling(5.0), gamma=1.0, T_g=50.0)
        f = make_sech_pulse(50.0, default_time_grid(50.0, p))
        rec = reflect_coupled(p, f)
        assert abs(rec.phase) < 1e-3

    def test_g0_zero_matches_bare(self):
        p = CavityParams(g0=0.0, gamma=1.0, kappa_l=0.1)
        f = make_sech_pulse(10.0, default_time_grid(10.0, p))
        rb = reflect_bare(p, f)
        rc = reflect_coupled(p, f)
        assert abs(rb.P - rc.P) < 1e-12
        assert abs(rb.F - rc.F) < 1e-12
        assert abs(rb.phase - rc.phase) < 1e-12
        assert rc.loss_atom == 0.0
        assert np.max(np.abs(rb.f_out_raw.samples - rc.f_out_raw.samples)) < 1e-12

    def test_constant_g_steady_state(self):
        # T_g -> infinity at phi=0 freezes g(t) = g0; eliminating c and e in
        # steady state gives f_out/f_in = (2g^2/gamma - kc/2)/(2g^2/gamma + kc/2)
        p = CavityParams(g0=1.0, gamma=1.0, T_g=1e9, phi=0.0)
        f = make_sech_pulse(500.0, default_time_grid(500.0, p))
        rec = reflect_coupled(p, f)
        amp = f.overlap(rec.f_out_raw)
        target = (2.0 - 0.5) / (2.0 + 0.5)
        assert amp.real == pytest.approx(target, rel=0.01)
        assert abs(amp.imag) < 1e-3

    def test_flux_balance_with_atom(self):
        p = CavityParams(g0=2.0, gamma=1.0, kappa_l=0.2, T_g=50.0, phi=0.7)
        f = make_sech_pulse(10.0, default_time_grid(10.0, p))
        rec = reflect_coupled(p, f)
        assert rec.flux_residual < 1e-6
        assert rec.loss_atom > 0.0

    def test_cavity_hardly_populated(self):
        # diagnostic, not an invariant: the coupled cavity keeps the photon out
        p = CavityParams(g0=5.0, gamma=1.0, T_g=50.0)
        f = make_sech_pulse(50.0, default_time_grid(50.0, p))
        rec = reflect_coupled(p, f)
        assert rec.cavity_occupancy < 0.01


class TestMotionAverage:
    def test_n_phi_one_is_phi_zero(self):
        p = CavityParams(g0=2.0, gamma=1.0, T_g=50.0, phi=1.3)
        f = make_sech_pulse(10.0, default_time_grid(10.0, p))
        avg = reflect_coupled_motion_averaged(p, f, n_phi=1)
        direct = reflect_coupled(CavityParams(g0=2.0, gamma=1.0, T_g=50.0, phi=0.0), f)
        assert avg.P == pytest.approx(direct.P, abs=1e-14)
        assert avg.F == pytest.approx(direct.F, abs=1e-14)
        assert avg.phase == pytest.approx(direct.phase, abs=1e-14)

    def test_mean_bounded_by_extremes(self):
        p = CavityParams(g0=2.0, gamma=1.0, T_g=1e6)
        f = make_sech_pulse(10.0, default_time_grid(10.0, p))
        avg = reflect_coupled_motion_averaged(p, f, n_phi=8)
        per = [r.P for r in avg.per_phi]
        assert min(per) <= avg.P <= max(per)
        assert max(per) - min(per) > 1e-4  # frozen g(phi) spread is visible

    def test_flux_residual_of_scaled_input(self):
        # the averaged residual balances against the input's own norm, 4 here
        p = CavityParams(g0=2.0, gamma=1.0, kappa_l=0.1, T_g=50.0)
        f = make_sech_pulse(10.0, default_time_grid(10.0, p))
        avg = reflect_coupled_motion_averaged(p, PulseEnvelope(f.grid, 2.0 * f.samples),
                                              n_phi=5)
        assert avg.input_norm2 == pytest.approx(4.0, rel=1e-12)
        assert avg.flux_residual < 1e-6

    def test_metrics_are_per_phase_means_without_envelopes(self):
        p = CavityParams(g0=2.0, gamma=1.0, kappa_l=0.1, T_g=50.0)
        f = make_sech_pulse(10.0, default_time_grid(10.0, p))
        avg = reflect_coupled_motion_averaged(p, f, n_phi=4)
        assert len(avg.per_phi) == 4
        for attr in ("P", "F", "phase", "loss_atom", "loss_cavity", "cavity_occupancy"):
            assert getattr(avg, attr) == float(np.mean([getattr(r, attr) for r in avg.per_phi]))
        assert avg.f_out_raw is None
        assert all(r.f_out_raw is None and r.per_phi == () for r in avg.per_phi)

    def test_rejects_bad_n_phi(self):
        p = CavityParams(g0=1.0, gamma=1.0)
        f = make_sech_pulse(10.0, default_time_grid(10.0, p))
        with pytest.raises(ValueError):
            reflect_coupled_motion_averaged(p, f, n_phi=0)


class TestBatchedKernel:
    def test_columns_match_single_calls_bitwise(self):
        # mixed coupled and bare columns, each with its own drive and phase,
        # over several precompute chunks
        p = CavityParams(g0=3.0, gamma=1.0, kappa_l=0.1, T_g=50.0)
        grid = default_time_grid(10.0, p, dt=0.02)
        t = grid.times()
        sech = make_sech_pulse(10.0, grid).samples
        drives = np.stack([
            sech,
            (0.3 - 0.7j) * sech,
            np.exp(1j * t / 7.0) * make_sech_pulse(6.0, grid).samples,
        ], axis=1)
        phis = np.array([0.3, 1.1, 2.0])
        coupled = np.array([True, False, True])
        c, e = _integrate(p, drives, grid, phis, coupled)
        for i in range(3):
            c1, e1 = _integrate(p, drives[:, i], grid, phis[i:i + 1], coupled[i])
            assert np.array_equal(c[:, i].copy().view(float), c1[:, 0].view(float))
            assert np.array_equal(e[:, i].copy().view(float), e1[:, 0].view(float))

    @pytest.mark.parametrize("g0,coupled", [(3.0, False), (0.0, True)])
    def test_bare_batch_matches_mixed_batch_bitwise(self, g0, coupled):
        # an all-bare batch runs the scalar recurrence; the same columns next
        # to a coupled column run the 2x2 loop
        p = CavityParams(g0=3.0, gamma=1.0, kappa_l=0.1, T_g=50.0)
        grid = default_time_grid(10.0, p, dt=0.02)
        assert grid.n_steps > 2 * (_CHUNK // 3)
        t = grid.times()
        sech = make_sech_pulse(10.0, grid).samples
        drives = np.stack([
            sech,
            (0.3 - 0.7j) * sech,
            np.exp(1j * t / 7.0) * make_sech_pulse(6.0, grid).samples,
        ], axis=1)
        phis = np.array([0.3, 1.1, 2.0])
        c, e = _integrate(CavityParams(g0=g0, gamma=1.0, kappa_l=0.1, T_g=50.0),
                          drives, grid, phis, coupled)
        cm, em = _integrate(p, np.column_stack([drives, sech]), grid,
                            np.append(phis, 0.5), np.array([False] * 3 + [True]))
        assert np.all(e == 0)
        assert np.array_equal(c.view(float), cm[:, :3].copy().view(float))
        assert np.array_equal(e.view(float), em[:, :3].copy().view(float))

    def test_divergent_bare_step_raises(self):
        # h (kappa_c + kappa_l)/2 = 4.55 lies outside the RK4 stability
        # region, so the bare recurrence grows by about 9 per step
        p = CavityParams(kappa_l=0.3)
        f = make_sech_pulse(10.0, TimeGrid(-2000.0, 2000.0, 7.0))
        with pytest.raises(SolverError):
            reflect_bare(p, f)


class TestNumerics:
    def test_halving_dt(self):
        p = CavityParams(g0=2.0, gamma=1.0, kappa_l=0.1, T_g=50.0)
        grid = default_time_grid(10.0, p)
        f = make_sech_pulse(10.0, grid)
        r1 = reflect_coupled(p, f)
        f2 = make_sech_pulse(10.0, default_time_grid(10.0, p, dt=grid.dt / 2.0))
        r2 = reflect_coupled(p, f2)
        assert abs(r1.P - r2.P) < 1e-6
        assert abs(r1.F - r2.F) < 1e-6
        assert abs(r1.phase - r2.phase) < 1e-6

    def test_doubling_window(self):
        p = CavityParams(kappa_l=0.2)
        r1 = reflect_bare(p, make_sech_pulse(10.0, default_time_grid(10.0, p)))
        r2 = reflect_bare(
            p, make_sech_pulse(10.0, default_time_grid(10.0, p, window_halfwidth=16.0))
        )
        assert abs(r1.P - r2.P) < 1e-8
        assert abs(r1.F - r2.F) < 1e-8
        assert abs(r1.phase - r2.phase) < 1e-8

    def test_non_finite_state_raises(self):
        p = CavityParams(g0=300.0, gamma=1.0)
        # deliberately coarse step for the fast coupling oscillation
        grid = default_time_grid(10.0, None, dt=0.5)
        f = make_sech_pulse(10.0, grid)
        with pytest.raises(SolverError):
            reflect_coupled(p, f)


class TestSweep:
    def test_single_point_matches_direct(self):
        rows = sweep("bare", kappa_l_values=[0.1], T_f_values=[10.0])
        assert len(rows) == 1
        p = CavityParams(kappa_l=0.1)
        direct = reflect_bare(p, make_sech_pulse(10.0, default_time_grid(10.0, p)))
        assert rows[0].P == pytest.approx(direct.P, abs=1e-15)
        assert rows[0].error == ""

    def test_row_order_lexicographic(self):
        rows = sweep("bare", kappa_l_values=[0.0, 0.1], T_f_values=[10.0, 20.0])
        combos = [(r.kappa_l, r.T_f) for r in rows]
        assert combos == [(0.0, 10.0), (0.0, 20.0), (0.1, 10.0), (0.1, 20.0)]

    def test_error_recorded_and_run_continues(self):
        # dt too coarse for the huge coupling -> non-finite state in one row
        rows = sweep("coupled", g0_values=[0.5, 300.0], gamma_values=[1.0],
                     T_f_values=[10.0], dt=0.5)
        assert rows[0].error == "" and rows[0].P is not None
        assert rows[1].error != "" and rows[1].P is None

    def test_generator_ranges_match_lists(self):
        lists = sweep("bare", kappa_l_values=[0.1, 0.2], T_f_values=[10.0])
        gens = sweep("bare", kappa_l_values=(x for x in [0.1, 0.2]),
                     T_f_values=iter([10.0]))
        assert gens == lists
        assert len(gens) == 2

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            sweep("bare", kappa_l_values=[])
        with pytest.raises(ValueError):
            sweep("nonsense")

    def test_non_positive_n_phi_rejected(self):
        for n_phi in (0, -3):
            with pytest.raises(ValueError, match="n_phi"):
                sweep("coupled", g0_values=[1.0], gamma_values=[1.0], n_phi=n_phi)

    def test_csv_format(self, tmp_path):
        rows = sweep("bare", kappa_l_values=[0.0, 0.2], T_f_values=[10.0])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path, "unit test")
        lines = path.read_text().splitlines()
        assert lines[0] == "# unit test"
        assert lines[1] == SWEEP_CSV_HEADER
        assert len(lines) == 2 + len(rows)
        assert lines[2].split(",")[6] == "bare"

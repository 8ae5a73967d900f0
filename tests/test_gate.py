import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photongate.core import (
    CavityParams,
    PulseEnvelope,
    default_time_grid,
    g0_for_mean_coupling,
    make_sech_pulse,
)
from photongate.gate import (
    _WPLATE,
    IDEAL_TARGET,
    BranchReflectivities,
    GateOutcome,
    TwoQubitState,
    circuit_oracle,
    gate_from_simulation,
    single_cavity_entangle,
    two_cavity_gate,
    two_sided_effective_params,
    write_gate_csv,
)
from photongate.reflection import reflect_bare, reflect_coupled, reflect_envelope

branch_strategy = st.builds(
    BranchReflectivities,
    P0=st.floats(min_value=0.05, max_value=1.0),
    r=st.floats(min_value=0.0, max_value=4.0),
)


class TestBranchReflectivities:
    def test_amplitudes_and_signs(self):
        b = BranchReflectivities(P0=0.64, r=0.25)
        assert b.amp0 == pytest.approx(-0.8)
        assert b.amp1 == pytest.approx(0.4)
        assert b.amp0**2 == pytest.approx(b.P0)
        assert b.amp1**2 == pytest.approx(b.r * b.P0)

    @pytest.mark.parametrize("P0,r", [(0.0, 1.0), (1.5, 1.0), (0.5, -0.1),
                                      (0.5, math.nan), (0.5, math.inf)])
    def test_domain_errors(self, P0, r):
        with pytest.raises(ValueError):
            BranchReflectivities(P0=P0, r=r)


class TestSingleCavityEntangle:
    def test_ideal_ratio(self):
        P, F, state = single_cavity_entangle(BranchReflectivities(P0=0.9, r=1.0))
        assert P == pytest.approx(0.9)
        assert F == pytest.approx(1.0)
        assert np.allclose(state, np.array([1, 1, 1, -1]) / 2.0)

    def test_r_zero(self):
        P, F, _ = single_cavity_entangle(BranchReflectivities(P0=1.0, r=0.0))
        assert P == pytest.approx(0.75)
        assert F == pytest.approx(3.0 / (2.0 * math.sqrt(3.0)))

    @given(branch_strategy)
    @settings(max_examples=100, deadline=None)
    def test_fidelity_is_overlap_with_returned_state(self, b):
        # self-consistency: F equals |<ideal|state>| with the ideal photon-atom
        # entangled state (|0L>+|0R>+|1L>-|1R>)/2
        _, F, state = single_cavity_entangle(b)
        ideal = np.array([1, 1, 1, -1]) / 2.0
        assert F == pytest.approx(abs(np.vdot(ideal, state)), abs=1e-12)


class TestTwoCavityGate:
    def test_r_one_ideal(self):
        out = two_cavity_gate(BranchReflectivities(P0=0.7, r=1.0))
        assert out.P_L == pytest.approx(0.49 / 2.0, abs=1e-15)
        assert out.P_R == pytest.approx(0.49 / 2.0, abs=1e-15)
        assert out.P_total == pytest.approx(0.49, abs=1e-12)
        assert np.allclose(out.psi_L.coefficients, IDEAL_TARGET, atol=1e-12)
        assert np.allclose(out.psi_R.coefficients, IDEAL_TARGET, atol=1e-12)
        assert out.F_avg == pytest.approx(1.0, abs=1e-12)

    def test_r_zero_P_R(self):
        out = two_cavity_gate(BranchReflectivities(P0=1.0, r=0.0))
        assert out.P_R == pytest.approx(9.0 / 32.0, abs=1e-15)
        oracle = circuit_oracle(BranchReflectivities(P0=1.0, r=0.0))
        assert oracle.P_R == pytest.approx(9.0 / 32.0, abs=1e-12)

    def test_point_check_against_oracle(self):
        b = BranchReflectivities(P0=0.8, r=0.5)
        cf, oc = two_cavity_gate(b), circuit_oracle(b)
        for name in ("P_L", "P_R", "F_L", "F_R", "F_avg"):
            assert getattr(cf, name) == pytest.approx(getattr(oc, name), abs=1e-10)
        assert np.allclose(cf.psi_L.coefficients, oc.psi_L.coefficients, atol=1e-10)
        assert np.allclose(cf.psi_R.coefficients, oc.psi_R.coefficients, atol=1e-10)

    @given(branch_strategy)
    @settings(max_examples=150, deadline=None)
    def test_closed_forms_match_oracle(self, b):
        cf, oc = two_cavity_gate(b), circuit_oracle(b)
        assert abs(cf.P_L - oc.P_L) < 1e-10
        assert abs(cf.P_R - oc.P_R) < 1e-10
        assert np.max(np.abs(cf.psi_L.coefficients - oc.psi_L.coefficients)) < 1e-10
        assert np.max(np.abs(cf.psi_R_raw.coefficients - oc.psi_R_raw.coefficients)) < 1e-10

    @given(branch_strategy)
    @settings(max_examples=100, deadline=None)
    def test_total_probability_ratio(self, b):
        # P_total / P0^2 = [2r^2 + 8r + 4(r-1)sqrt(r) + 22] / 32
        out = two_cavity_gate(b)
        r = b.r
        ratio = (2 * r**2 + 8 * r + 4 * (r - 1) * math.sqrt(r) + 22) / 32.0
        assert out.P_total / b.P0**2 == pytest.approx(ratio, abs=1e-12)
        # bounded by the worst single-branch reflectivity on each side
        assert out.P_total <= (max(1.0, b.r) * b.P0) ** 2 + 1e-12

    @given(branch_strategy)
    @settings(max_examples=100, deadline=None)
    def test_states_unit_norm(self, b):
        out = two_cavity_gate(b)
        for psi in (out.psi_L, out.psi_R, out.psi_R_raw):
            assert abs(np.linalg.norm(psi.coefficients) - 1.0) < 1e-12

    def test_sigma_x_correction(self):
        out = two_cavity_gate(BranchReflectivities(P0=1.0, r=1.0))
        assert np.allclose(out.psi_R.coefficients, IDEAL_TARGET, atol=1e-14)
        # raw state differs from the corrected one
        assert not np.allclose(out.psi_R_raw.coefficients, IDEAL_TARGET)

    def test_derived_fields(self):
        out = two_cavity_gate(BranchReflectivities(P0=0.8, r=0.4))
        assert out.F_avg == (out.P_L * out.F_L + out.P_R * out.F_R) / (out.P_L + out.P_R)
        assert np.array_equal(out.psi_R.coefficients,
                              out.psi_R_raw.coefficients[[1, 0, 3, 2]])
        assert out.P0 is None and out.P1 is None and out.branch_envelopes is None


class TestTwoQubitState:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            TwoQubitState(np.array([1.0, 1.0, 0.0, 0.0]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            TwoQubitState(np.array([math.nan, 0.0, 0.0, 0.0]))

    def test_sigma_x_on_b_swaps(self):
        s = TwoQubitState(np.array([1.0, 2.0, 3.0, 4.0]) / math.sqrt(30.0))
        flipped = s.sigma_x_on_b()
        assert np.allclose(
            flipped.coefficients * math.sqrt(30.0), [2.0, 1.0, 4.0, 3.0]
        )


class TestTwoSided:
    def test_unit_point(self):
        eff = two_sided_effective_params(0.5)
        assert eff.kappa_c == pytest.approx(1.0)

    def test_doubling(self):
        base = CavityParams(g0=1.5, gamma=0.8, kappa_l=0.1, T_g=60.0)
        eff = two_sided_effective_params(1.0, base)
        assert eff.kappa_c == pytest.approx(2.0)
        assert (eff.g0, eff.gamma, eff.kappa_l, eff.T_g) == (1.5, 0.8, 0.1, 60.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            two_sided_effective_params(0.0)

    def test_metrics_match_onesided_run(self):
        # equivalence is exact: the substituted parameter set IS a one-sided
        # cavity with kappa_c = 2*kappa_c'
        base = CavityParams(g0=2.0, gamma=1.0, kappa_l=0.1, T_g=50.0)
        eff = two_sided_effective_params(0.7, base)
        manual = CavityParams(g0=2.0, kappa_c=1.4, gamma=1.0, kappa_l=0.1, T_g=50.0)
        f = make_sech_pulse(10.0, default_time_grid(10.0, manual))
        ra, rb = reflect_coupled(eff, f), reflect_coupled(manual, f)
        assert abs(ra.P - rb.P) < 1e-8
        assert abs(ra.F - rb.F) < 1e-8
        assert abs(ra.phase - rb.phase) < 1e-8


def _overlap_up_to_phase(a, b):
    return abs(np.vdot(a, b))


@pytest.fixture(scope="module")
def adiabatic_sim():
    p = CavityParams(
        g0=g0_for_mean_coupling(3.0), gamma=1.0, kappa_l=0.1, T_g=50.0, phi=0.3
    )
    f = make_sech_pulse(50.0, default_time_grid(50.0, p))
    return p, gate_from_simulation(p, p, f)


class TestGateFromSimulation:
    def test_consistent_with_closed_form(self, adiabatic_sim):
        _, sim = adiabatic_sim
        cf = two_cavity_gate(BranchReflectivities(P0=sim.P0, r=sim.r))
        for name in ("P_L", "P_R", "F_L", "F_R", "F_avg"):
            assert getattr(sim, name) == pytest.approx(getattr(cf, name), rel=0.02)
        assert _overlap_up_to_phase(
            sim.psi_L.coefficients, cf.psi_L.coefficients
        ) == pytest.approx(1.0, abs=1e-3)

    def test_carries_single_cavity_powers(self, adiabatic_sim):
        _, sim = adiabatic_sim
        assert isinstance(sim, GateOutcome)
        assert sim.r == sim.P1 / sim.P0
        assert sorted(sim.branch_envelopes) == [
            (pol, a, b) for pol in "LR" for a in (0, 1) for b in (0, 1)]

    def test_probabilities_from_branch_norms(self, adiabatic_sim):
        _, sim = adiabatic_sim
        dt = next(iter(sim.branch_envelopes.values())).grid.dt
        p_l = sum(
            np.trapezoid(np.abs(env.samples) ** 2, dx=dt)
            for (pol, _, _), env in sim.branch_envelopes.items()
            if pol == "L"
        )
        assert sim.P_L == pytest.approx(p_l, abs=1e-12)

    def test_short_pulse_penalty(self):
        # mode mismatch reduces the average fidelity below the idealized value
        p = CavityParams(g0=g0_for_mean_coupling(3.0), gamma=1.0, T_g=50.0)
        f = make_sech_pulse(10.0, default_time_grid(10.0, p))
        sim = gate_from_simulation(p, p, f)
        cf = two_cavity_gate(BranchReflectivities(P0=sim.P0, r=sim.r))
        assert sim.F_avg < cf.F_avg

    def test_no_coupling_is_separable(self):
        p = CavityParams(g0=0.0, gamma=1.0)
        f = make_sech_pulse(10.0, default_time_grid(10.0, p))
        sim = gate_from_simulation(p, p, f)
        assert sim.P1 == pytest.approx(sim.P0, abs=1e-12)
        # all branches reflect identically: both detectors equally likely and
        # the post-selected state is the separable |+>|+>
        assert sim.P_L == pytest.approx(sim.P0**2 / 2.0, rel=1e-9)
        assert sim.P_R == pytest.approx(sim.P0**2 / 2.0, rel=1e-9)
        plus_plus = np.full(4, 0.5)
        assert _overlap_up_to_phase(sim.psi_L.coefficients, plus_plus) == pytest.approx(
            1.0, abs=1e-9
        )


def _per_branch_gate(pA, pB, f_in):
    """The gate network with one reflect_envelope call per non-zero branch."""
    grid, n_t = f_in.grid, f_in.grid.n_steps

    def wplate(v):
        return np.einsum("pq,qabt->pabt", _WPLATE, v)

    def cavity(v, p, atom_axis):
        out = np.zeros_like(v)
        for key in np.ndindex(2, 2, 2):
            if np.any(v[key]):
                coupled = key[0] == 1 and key[atom_axis] == 1
                rec = reflect_envelope(p, PulseEnvelope(grid, v[key]), coupled)
                out[key] = rec.f_out_raw.samples
        return out

    envs = np.zeros((2, 2, 2, n_t), dtype=complex)
    envs[0] = 0.5 * f_in.samples
    envs = wplate(cavity(wplate(cavity(wplate(envs), pA, 1)), pB, 2))

    def stats(branches):
        rho = np.trapezoid(branches[:, None, :] * np.conj(branches[None, :, :]),
                           dx=grid.dt, axis=2)
        P = float(np.trace(rho).real)
        F = math.sqrt(max(float(np.vdot(IDEAL_TARGET, rho / P @ IDEAL_TARGET).real), 0.0))
        state = np.linalg.eigh(rho / P)[1][:, -1]
        return P, F, state / np.linalg.norm(state)

    P_L, F_L, psi_L = stats(envs[0].reshape(4, n_t))
    P_R, _, psi_R_raw = stats(envs[1].reshape(4, n_t))
    _, F_R, _ = stats(envs[1].reshape(4, n_t)[[1, 0, 3, 2]])
    return dict(
        envs=envs, P_L=P_L, P_R=P_R, F_L=F_L, F_R=F_R, psi_L=psi_L, psi_R_raw=psi_R_raw,
        F_avg=(P_L * F_L + P_R * F_R) / (P_L + P_R),
        P0=reflect_envelope(pA, f_in, coupled=False).P,
        P1=reflect_envelope(pA, f_in, coupled=True).P,
    )


class TestBatchedGate:
    def test_equals_per_branch_reflections(self):
        pA = CavityParams(g0=g0_for_mean_coupling(2.5), gamma=1.0, kappa_l=0.05,
                          T_g=50.0, phi=0.4)
        pB = CavityParams(g0=g0_for_mean_coupling(3.5), gamma=1.0, kappa_l=0.02,
                          T_g=125.0, phi=1.9)
        f = make_sech_pulse(10.0, default_time_grid(10.0, pB, dt=0.02))
        sim = gate_from_simulation(pA, pB, f)
        ref = _per_branch_gate(pA, pB, f)
        for (pol, a, b), env in sim.branch_envelopes.items():
            want = ref["envs"]["LR".index(pol), a, b]
            assert np.array_equal(env.samples.view(float), want.view(float))
        for name in ("P_L", "P_R", "P0", "P1", "F_L"):
            assert getattr(sim, name) == ref[name], name
        assert sim.P_total == ref["P_L"] + ref["P_R"]
        assert np.array_equal(sim.psi_L.coefficients, ref["psi_L"])
        assert np.array_equal(sim.psi_R_raw.coefficients, ref["psi_R_raw"])
        # F_R is read off the permuted density matrix, not recomputed
        assert abs(sim.F_R - ref["F_R"]) <= 1e-12
        assert abs(sim.F_avg - ref["F_avg"]) <= 1e-12


class TestGateCsv:
    def test_schema(self, tmp_path):
        rows = [
            (1.0, r, two_cavity_gate(BranchReflectivities(P0=1.0, r=r)))
            for r in (0.5, 1.0)
        ]
        path = tmp_path / "fig5.csv"
        write_gate_csv(rows, path, "hdr")
        lines = path.read_text().splitlines()
        assert lines[0] == "# hdr"
        assert lines[1] == "P0,r,P_L,P_R,P_total,F_L,F_R,F_avg"
        assert len(lines) == 4
        fields = lines[3].split(",")
        assert float(fields[1]) == 1.0
        assert float(fields[7]) == pytest.approx(1.0)

"""Post-selected entangling-gate layer.

Closed forms for the single-cavity atom-photon entangler and the two-cavity
controlled-phase gate in the idealization where both reflection fidelities
equal 1, plus an independent polarization-path circuit oracle that simulates
the optical network literally, and the full envelope-resolved gate
simulation that drops the idealization.

Basis conventions: two-qubit amplitudes are ordered |00>, |01>, |10>, |11>
(atom A tensor atom B); the single-cavity entangled state is ordered
|0L>, |0R>, |1L>, |1R>.  The ideal gate target is CZ acting on |+>|+>:
(|00> + |01> + |10> - |11>)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import CavityParams, PulseEnvelope, write_csv
from .reflection import _integrate

__all__ = [
    "IDEAL_TARGET",
    "BranchReflectivities",
    "TwoQubitState",
    "GateOutcome",
    "single_cavity_entangle",
    "two_cavity_gate",
    "circuit_oracle",
    "two_sided_effective_params",
    "gate_from_simulation",
    "write_gate_csv",
    "GATE_CSV_HEADER",
]

#: CZ |+>|+> in the |00>,|01>,|10>,|11> basis.
IDEAL_TARGET = np.array([1.0, 1.0, 1.0, -1.0]) / 2.0

# Quarter-wave plate acting on (|L>, |R>): L -> (L+R)/sqrt2, R -> (L-R)/sqrt2.
_WPLATE = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)

# sigma_x on atom B permutes the basis |00>,|01>,|10>,|11> this way.
_SIGMA_X_B = [1, 0, 3, 2]


def _wplate(v: np.ndarray) -> np.ndarray:
    """Apply the quarter-wave plate to the polarization axis (axis 0) of v."""
    return np.einsum("pq,q...->p...", _WPLATE, v)


@dataclass(frozen=True)
class BranchReflectivities:
    """Reflection amplitudes of the decoupled and coupled atomic branches.

    The decoupled branch reflects with amplitude -sqrt(P0) (pi phase), the
    coupled branch with +sqrt(r*P0) (zero phase), where r = P1/P0.
    """

    P0: float
    r: float

    def __post_init__(self):
        if not (0.0 < self.P0 <= 1.0):
            raise ValueError(f"P0 must lie in (0, 1], got {self.P0}")
        if not (math.isfinite(self.r) and self.r >= 0.0):
            raise ValueError(f"r must be finite and non-negative, got {self.r}")

    @property
    def amp0(self) -> float:
        return -math.sqrt(self.P0)

    @property
    def amp1(self) -> float:
        return math.sqrt(self.r * self.P0)


@dataclass(frozen=True)
class TwoQubitState:
    """Four complex amplitudes over |00>, |01>, |10>, |11> (A tensor B)."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        if c.shape != (4,):
            raise ValueError("a two-qubit state needs exactly 4 amplitudes")
        nrm = np.linalg.norm(c)
        if not abs(nrm - 1.0) <= 1e-12:
            raise ValueError(f"state norm {nrm} deviates from 1 beyond 1e-12")
        object.__setattr__(self, "coefficients", c)

    def fidelity_to(self, target: np.ndarray) -> float:
        return float(abs(np.vdot(np.asarray(target, dtype=complex), self.coefficients)))

    def sigma_x_on_b(self) -> "TwoQubitState":
        return TwoQubitState(self.coefficients[_SIGMA_X_B])


@dataclass(frozen=True)
class GateOutcome:
    """Detection probabilities and post-selected states of the two-cavity gate.

    psi_R is psi_R_raw after the sigma_x correction on atom B, and F_R is
    its fidelity.  Only gate_from_simulation fills P0 and P1 (cavity A's
    bare and coupled reflected powers) and branch_envelopes.
    """

    P_L: float
    P_R: float
    psi_L: TwoQubitState
    psi_R_raw: TwoQubitState
    F_L: float
    F_R: float
    P0: float | None = None
    P1: float | None = None
    #: branch envelopes keyed by (pol, a, b) with pol in {"L", "R"}
    branch_envelopes: dict | None = None

    @property
    def psi_R(self) -> TwoQubitState:
        return self.psi_R_raw.sigma_x_on_b()

    @property
    def F_avg(self) -> float:
        """Probability-weighted mean of the branch fidelities."""
        return (self.P_L * self.F_L + self.P_R * self.F_R) / (self.P_L + self.P_R)

    @property
    def P_total(self) -> float:
        return self.P_L + self.P_R

    @property
    def r(self) -> float:
        return self.P1 / self.P0


def _pure_outcome(P_L, P_R, psi_L: TwoQubitState, psi_R_raw: TwoQubitState) -> GateOutcome:
    """Outcome whose branch fidelities are the overlaps of the pure
    post-selected states with the ideal target."""
    F_L = psi_L.fidelity_to(IDEAL_TARGET)
    F_R = psi_R_raw.sigma_x_on_b().fidelity_to(IDEAL_TARGET)
    return GateOutcome(P_L, P_R, psi_L, psi_R_raw, F_L, F_R)


def single_cavity_entangle(b: BranchReflectivities):
    """Photon in (|L>+|R>)/sqrt2 reflected once off an atom in (|0>+|1>)/sqrt2.

    Returns (P, F, state) with the closed forms P = (P0/4)(3+r),
    F = (3+sqrt(r)) / (2*sqrt(3+r)) and the normalized state
    (|0L> + |0R> + |1L> - sqrt(r)|1R>) / sqrt(3+r).
    """
    P0, r = b.P0, b.r
    sr = math.sqrt(r)
    P = 0.25 * P0 * (3.0 + r)
    F = (3.0 + sr) / (2.0 * math.sqrt(3.0 + r))
    state = np.array([1.0, 1.0, 1.0, -sr]) / math.sqrt(3.0 + r)
    return P, F, state


def two_cavity_gate(b: BranchReflectivities) -> GateOutcome:
    """Closed-form outcome of the two-cavity controlled-phase gate.

    P_L = (P0^2/32)[r^2 + 2r + 4(r-1)sqrt(r) + 13],
    P_R = (P0^2/32)(r+3)^2, with the corresponding post-selected states;
    F_avg is the probability-weighted mean of the branch fidelities.
    """
    P0, r = b.P0, b.r
    sr = math.sqrt(r)
    P_L = (P0**2 / 32.0) * (r**2 + 2.0 * r + 4.0 * (r - 1.0) * sr + 13.0)
    P_R = (P0**2 / 32.0) * (r + 3.0) ** 2

    pre_L = P0 / math.sqrt(8.0 * P_L)
    psi_L = TwoQubitState(pre_L * np.array([1.0, 1.0, 1.0, -(r + 2.0 * sr - 1.0) / 2.0]))
    pre_R = P0 / math.sqrt(8.0 * P_R)
    psi_R_raw = TwoQubitState(pre_R * np.array([1.0, 1.0, -sr, (r + 1.0) / 2.0]))
    return _pure_outcome(P_L, P_R, psi_L, psi_R_raw)


def circuit_oracle(b: BranchReflectivities) -> GateOutcome:
    """Literal simulation of the gate network on the 8-dimensional space
    photon polarization (L, R) tensor atom A tensor atom B.

    Inject |L>|+>|+>, then alternate quarter-wave plates with cavity
    reflections (amp1 on the R component of each |1> branch of the addressed
    atom, amp0 on everything else), and finally project the polarization.
    Independent check of the closed forms in two_cavity_gate.
    """
    amp0, amp1 = b.amp0, b.amp1

    # psi[pol, a, b_]; start |L> (|0>+|1>)/sqrt2 (|0>+|1>)/sqrt2
    psi = np.zeros((2, 2, 2), dtype=complex)
    psi[0] = 0.5

    def reflect(v, atom_axis):
        out = amp0 * v.copy()
        if atom_axis == 1:
            out[1, 1, :] = amp1 * v[1, 1, :]
        else:
            out[1, :, 1] = amp1 * v[1, :, 1]
        return out

    psi = _wplate(psi)
    psi = reflect(psi, atom_axis=1)
    psi = _wplate(psi)
    psi = reflect(psi, atom_axis=2)
    psi = _wplate(psi)

    amps_L = psi[0].reshape(4)
    amps_R = psi[1].reshape(4)
    P_L = float(np.vdot(amps_L, amps_L).real)
    P_R = float(np.vdot(amps_R, amps_R).real)

    psi_L = TwoQubitState(amps_L / math.sqrt(P_L))
    psi_R_raw = TwoQubitState(amps_R / math.sqrt(P_R))
    return _pure_outcome(P_L, P_R, psi_L, psi_R_raw)


def two_sided_effective_params(
    kappa_c_prime: float, base: CavityParams | None = None
) -> CavityParams:
    """One-sided-equivalent parameters of a symmetric two-sided cavity.

    A cavity with two mirrors of decay rate kappa_c' each, interrogated in
    the balanced beam-splitter combination of its two decay channels,
    obeys the same input-output relations as a one-sided cavity with
    kappa_c = 2*kappa_c'.  All other rates carry over unchanged.
    """
    if kappa_c_prime <= 0:
        raise ValueError(f"kappa_c_prime must be positive, got {kappa_c_prime}")
    if base is None:
        base = CavityParams()
    return replace(base, kappa_c=2.0 * kappa_c_prime)


def _branch_stats(envs: np.ndarray, dt: float):
    """Probability, normalized density matrix and dominant state from four
    branch envelopes (4, n_t)."""
    rho = np.trapezoid(envs[:, None, :] * np.conj(envs[None, :, :]), dx=dt, axis=2)
    P = float(np.trace(rho).real)
    rho_n = rho / P
    w, v = np.linalg.eigh(rho_n)
    state = v[:, -1]
    state = state / np.linalg.norm(state)
    return P, rho_n, TwoQubitState(state)


def _target_fidelity(rho_n: np.ndarray) -> float:
    return math.sqrt(max(float(np.vdot(IDEAL_TARGET, rho_n @ IDEAL_TARGET).real), 0.0))


def _cavity(v: np.ndarray, p: CavityParams, grid, atom_axis: int, probe=None):
    """Reflect every non-zero branch of v[pol, a, b, t] off one cavity in one
    batched kernel call.

    A branch sees the coupled cavity when its photon is R-polarized and the
    atom on ``atom_axis`` (1 for A, 2 for B) is in |1>.  A ``probe``
    envelope adds two columns, the probe off the bare and off the coupled
    cavity; their reflected powers are reduced here, before the trajectory
    is dropped.  Returns the reflected branches and the probe powers.
    """
    keys = [key for key in np.ndindex(v.shape[:3]) if np.any(v[key])]
    coupled = [key[0] == 1 and key[atom_axis] == 1 for key in keys]
    drives = [v[key] for key in keys]
    if probe is not None:
        drives += [probe, probe]
        coupled += [False, True]
    drives = np.stack(drives, axis=1)
    c, _ = _integrate(p, drives, grid, np.full(len(coupled), p.phi), coupled)
    sq = math.sqrt(p.kappa_c)
    out = np.zeros_like(v)
    for i, key in enumerate(keys):
        out[key] = drives[:, i] + sq * c[:, i]
    powers = [float(np.trapezoid(np.abs(drives[:, i] + sq * c[:, i]) ** 2, dx=grid.dt))
              for i in range(len(keys), len(coupled))]
    return out, powers


def gate_from_simulation(
    pA: CavityParams, pB: CavityParams, f_in: PulseEnvelope
) -> GateOutcome:
    """Propagate the full photon envelope through the two-cavity network.

    One envelope is tracked per (polarization, atom A state, atom B state)
    branch; each cavity reflection is applied branch-wise with the exact
    input-output solver, so no adiabatic idealization is assumed.  Reduces
    to the two_cavity_gate closed forms when all branch envelopes end up
    shape-identical.  The branches of one cavity, and for cavity A the input
    pulse off its bare and coupled cavity (P0, P1), are one batched call.
    """
    grid = f_in.grid
    n_t = grid.n_steps
    dt = grid.dt
    # envs[pol, a, b_, t]
    envs = np.zeros((2, 2, 2, n_t), dtype=complex)
    envs[0] = 0.5 * f_in.samples  # photon |L>, atoms (|0>+|1>)(|0>+|1>)/2

    envs, (P0, P1) = _cavity(_wplate(envs), pA, grid, atom_axis=1, probe=f_in.samples)
    envs, _ = _cavity(_wplate(envs), pB, grid, atom_axis=2)
    envs = _wplate(envs)

    P_L, rho_L, psi_L = _branch_stats(envs[0].reshape(4, n_t), dt)
    P_R, rho_R, psi_R_raw = _branch_stats(envs[1].reshape(4, n_t), dt)
    F_L = _target_fidelity(rho_L)
    F_R = _target_fidelity(rho_R[np.ix_(_SIGMA_X_B, _SIGMA_X_B)])

    branch_envelopes = {
        (pol_name, a, bb): PulseEnvelope(grid, envs[pol, a, bb])
        for pol, pol_name in enumerate("LR")
        for a in (0, 1)
        for bb in (0, 1)
    }
    return GateOutcome(P_L, P_R, psi_L, psi_R_raw, F_L, F_R, P0=P0, P1=P1,
                       branch_envelopes=branch_envelopes)


GATE_CSV_HEADER = "P0,r,P_L,P_R,P_total,F_L,F_R,F_avg"


def write_gate_csv(rows, dest, header_comment: str | None = None) -> None:
    """Write (P0, r, GateOutcome) triples in the fixed r-sweep CSV schema to
    a file path or to an open text stream."""
    write_csv(dest, GATE_CSV_HEADER, (
        (P0, r, out.P_L, out.P_R, out.P_total, out.F_L, out.F_R, out.F_avg)
        for P0, r, out in rows
    ), header_comment)

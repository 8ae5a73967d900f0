"""Probabilistic cluster-state assembly.

Two representations are used side by side: exact state vectors for chains
of up to 14 qubits, which certify the failure-recovery and chain-splitting
rules, and pure length bookkeeping for the Monte Carlo growth statistics,
where each attempt adds one qubit on success and costs two on failure so
the expected net gain per attempt is 3P - 2.

Chain qubits are numbered 1..n; qubit 1 sits on the most significant bit of
the amplitude index.  A failed entangling attempt is modeled as a projective
measurement of the target qubit in a uniformly random basis, and recovery
must work for every basis and outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import write_csv

__all__ = [
    "MAX_QUBITS",
    "SmallState",
    "GrowthStats",
    "MeasurementResult",
    "make_linear_cluster",
    "apply_cz",
    "apply_z",
    "apply_x",
    "random_basis",
    "measure_qubit",
    "attach_attempt",
    "recover_failure",
    "split_measure",
    "break_chain_at",
    "join_cross",
    "graph_state",
    "stabilizers_hold",
    "state_fidelity",
    "monte_carlo_growth",
    "write_growth_csv",
    "GROWTH_CSV_HEADER",
]

MAX_QUBITS = 14

_SQRT_HALF = 1.0 / math.sqrt(2.0)


class SizeError(ValueError):
    """Raised when a state would exceed the exact-representation limit."""


class ShapeError(ValueError):
    """Raised when a state does not have the structure an operation needs."""


@dataclass(frozen=True)
class SmallState:
    """Exact state vector of up to MAX_QUBITS qubits, unit norm."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        n = int(amps.size).bit_length() - 1
        if amps.size != 2**n or n < 0:
            raise ValueError("amplitude count must be a power of two")
        if n > MAX_QUBITS:
            raise SizeError(f"{n} qubits exceed the {MAX_QUBITS}-qubit limit")
        nrm = np.linalg.norm(amps)
        if not abs(nrm - 1.0) <= 1e-10:
            raise ValueError(f"state norm {nrm} deviates from 1 beyond 1e-10")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n(self) -> int:
        return int(self.amplitudes.size).bit_length() - 1


def state_fidelity(a: SmallState, b: SmallState) -> float:
    """|<a|b>|; both states must have the same qubit count."""
    if a.n != b.n:
        raise ValueError("qubit counts differ")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)))


def _axis_view(amps: np.ndarray, n: int, i: int) -> np.ndarray:
    """Reshape so the 1-based qubit i becomes the middle axis."""
    if not 1 <= i <= n:
        raise IndexError(f"qubit index {i} out of range 1..{n}")
    return amps.reshape(2 ** (i - 1), 2, 2 ** (n - i))


def apply_z(state: SmallState, i: int) -> SmallState:
    amps = state.amplitudes.copy()
    view = _axis_view(amps, state.n, i)
    view[:, 1, :] *= -1.0
    return SmallState(amps)


def apply_x(state: SmallState, i: int) -> SmallState:
    amps = state.amplitudes.copy()
    view = _axis_view(amps, state.n, i)
    view[:, [0, 1], :] = view[:, [1, 0], :]
    return SmallState(amps)


def apply_cz(state: SmallState, i: int, j: int) -> SmallState:
    """Controlled-phase between qubits i and j (sign flip on |1>_i |1>_j)."""
    n = state.n
    if i == j:
        raise IndexError("CZ needs two distinct qubits")
    amps = state.amplitudes.copy()
    idx = np.arange(amps.size)
    bit_i = (idx >> (n - i)) & 1
    bit_j = (idx >> (n - j)) & 1
    amps[(bit_i & bit_j).astype(bool)] *= -1.0
    return SmallState(amps)


def make_linear_cluster(n: int) -> SmallState:
    """1D cluster state: |+>^n with CZ between every consecutive pair."""
    return graph_state(n, [(i, i + 1) for i in range(1, n)])


def graph_state(n: int, edges) -> SmallState:
    """Graph state on n qubits: |+>^n with CZ along every edge."""
    if not 1 <= n <= MAX_QUBITS:
        raise SizeError(f"n must lie in 1..{MAX_QUBITS}, got {n}")
    state = SmallState(np.full(2**n, 2.0 ** (-n / 2.0), dtype=complex))
    for i, j in edges:
        state = apply_cz(state, i, j)
    return state


def stabilizers_hold(state: SmallState, edges, atol: float = 1e-10) -> bool:
    """Check the graph stabilizers X_v prod_{w~v} Z_w fix the state."""
    n = state.n
    neighbors: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for i, j in edges:
        neighbors[i].append(j)
        neighbors[j].append(i)
    for v in range(1, n + 1):
        s = apply_x(state, v)
        for w in neighbors[v]:
            s = apply_z(s, w)
        if not np.allclose(s.amplitudes, state.amplitudes, atol=atol):
            return False
    return True


def random_basis(rng: np.random.Generator) -> np.ndarray:
    """Orthonormal single-qubit basis from a uniform point on the sphere.

    Returns a 2x2 array whose rows are the two basis states.
    """
    z = rng.uniform(-1.0, 1.0)
    azimuth = rng.uniform(0.0, 2.0 * math.pi)
    half = 0.5 * math.acos(z)
    c, s = math.cos(half), math.sin(half)
    phase = np.exp(1j * azimuth)
    return np.array([[c, phase * s], [-np.conj(phase) * s, c]])


COMPUTATIONAL_BASIS = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class MeasurementResult:
    outcome: int
    probability: float
    state: SmallState  # measured qubit removed


def measure_qubit(
    state: SmallState,
    i: int,
    basis: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
    outcome: int | None = None,
) -> MeasurementResult:
    """Projectively measure qubit i and remove it from the register.

    ``basis`` rows are the two measurement states (computational basis by
    default).  The outcome is drawn from the Born distribution unless fixed
    explicitly.
    """
    if basis is None:
        basis = COMPUTATIONAL_BASIS
    n = state.n
    if n < 1:
        raise ShapeError("nothing to measure")
    view = _axis_view(state.amplitudes, n, i)
    # branch k: <basis_k| applied on the middle axis
    branches = np.einsum("kb,abc->kac", np.conj(basis), view)
    probs = np.array([float(np.vdot(br, br).real) for br in branches])
    if outcome is None:
        if rng is None:
            rng = np.random.default_rng()
        outcome = int(rng.random() >= probs[0])
    prob = probs[outcome]
    if prob <= 1e-300:
        raise ShapeError(f"outcome {outcome} has zero probability")
    post = branches[outcome].reshape(-1) / math.sqrt(prob)
    return MeasurementResult(outcome=outcome, probability=prob, state=SmallState(post))


def attach_attempt(
    state: SmallState,
    succeed: bool,
    rng: np.random.Generator | None = None,
    basis: np.ndarray | None = None,
    outcome: int | None = None,
) -> SmallState:
    """One add-on attempt on the chain end.

    Success attaches a fresh |+> qubit via a controlled-phase, turning the
    n-qubit chain into the (n+1)-qubit chain.  Failure measures the end
    qubit in an arbitrary (random) basis and removes it, leaving one pure
    branch of the post-failure mixture on n-1 qubits; both outcomes occur
    with probability 1/2 regardless of the basis.
    """
    n = state.n
    if succeed:
        if n + 1 > MAX_QUBITS:
            raise SizeError(f"cannot grow beyond {MAX_QUBITS} qubits")
        amps = np.kron(state.amplitudes, np.full(2, _SQRT_HALF))
        return apply_cz(SmallState(amps), n, n + 1)
    if n < 3:
        raise ShapeError("failure recovery bookkeeping needs a chain of >= 3 qubits")
    if basis is None:
        basis = random_basis(rng if rng is not None else np.random.default_rng())
    return measure_qubit(state, n, basis=basis, rng=rng, outcome=outcome).state


def recover_failure(
    state: SmallState,
    rng: np.random.Generator | None = None,
    outcome: int | None = None,
) -> SmallState:
    """Recover the shorter chain after a failed add-on attempt.

    Measures the current end qubit in the computational basis and applies a
    phase flip to the new end qubit when the outcome is |1>; the result is
    the chain two qubits shorter than before the failed attempt, with unit
    fidelity for every failure basis.
    """
    n = state.n
    if n < 2:
        raise ShapeError("post-failure state must hold at least 2 qubits")
    res = measure_qubit(state, n, rng=rng, outcome=outcome)
    out = res.state
    if res.outcome == 1:
        out = apply_z(out, out.n)
    return out


def break_chain_at(
    state: SmallState,
    i: int,
    rng: np.random.Generator | None = None,
    basis: np.ndarray | None = None,
) -> list[SmallState]:
    """Measure chain qubit i in an arbitrary basis and detach it.

    The neighbors of i are then measured in the computational basis and the
    sign corrections land on qubits i-2 and i+2 only.  Returns the non-empty
    chain fragments (qubits 1..i-2 and i+2..n).
    """
    n = state.n
    if not 1 <= i <= n:
        raise IndexError(f"qubit index {i} out of range 1..{n}")
    if rng is None:
        rng = np.random.default_rng()
    if basis is None:
        basis = random_basis(rng)

    # Measure in descending index order so earlier removals do not shift
    # the indices still to be measured.
    out_right = out_left = 0
    work = state
    if i + 1 <= n:
        res = measure_qubit(work, i + 1, rng=rng)
        work, out_right = res.state, res.outcome
    res = measure_qubit(work, i, basis=basis, rng=rng)
    work = res.state
    if i - 1 >= 1:
        res = measure_qubit(work, i - 1, rng=rng)
        work, out_left = res.state, res.outcome

    n_left = i - 2
    n_right = n - i - 1
    if out_left == 1 and n_left >= 1:
        work = apply_z(work, n_left)
    if out_right == 1 and n_right >= 1:
        work = apply_z(work, max(n_left, 0) + 1)

    fragments = []
    if n_left >= 1 and n_right >= 1:
        m = work.amplitudes.reshape(2**n_left, 2**n_right)
        u, s, vh = np.linalg.svd(m)
        if s[0] < 1.0 - 1e-9:
            raise ShapeError("fragments did not disentangle; not a chain state?")
        fragments.append(SmallState(u[:, 0]))
        fragments.append(SmallState(vh[0, :]))
    elif work.n >= 1:
        fragments.append(work)
    return fragments


def split_measure(
    state: SmallState,
    i: int,
    rng: np.random.Generator | None = None,
    basis: np.ndarray | None = None,
) -> tuple[SmallState, SmallState]:
    """Split the n-qubit chain at interior qubit i into two chains.

    Qubit i is measured in an arbitrary basis, its neighbors in the
    computational basis; local corrections yield the chains of i-2 and
    n-i-1 qubits with unit fidelity.  Requires 2 < i < n-1 so that both
    fragments are non-empty.
    """
    n = state.n
    if not (2 < i < n - 1):
        raise IndexError(f"interior index must satisfy 2 < i < {n - 1}, got {i}")
    left, right = break_chain_at(state, i, rng=rng, basis=basis)
    return left, right


def join_cross(
    chain_a: SmallState,
    chain_b: SmallState,
    a: int,
    b: int,
    succeed: bool,
    rng: np.random.Generator | None = None,
):
    """Join two chains with a controlled-phase between qubit a of A and
    qubit b of B.

    Success returns the cross-shaped graph state (a plain longer chain when
    both join qubits are chain ends).  Failure measures both join qubits in
    arbitrary bases and returns the recovered 1D fragments (up to four),
    two qubits lost per chain.
    """
    na, nb = chain_a.n, chain_b.n
    if not 1 <= a <= na:
        raise IndexError(f"qubit {a} out of range 1..{na}")
    if not 1 <= b <= nb:
        raise IndexError(f"qubit {b} out of range 1..{nb}")
    if succeed:
        if na + nb > MAX_QUBITS:
            raise SizeError(f"combined size {na + nb} exceeds {MAX_QUBITS} qubits")
        amps = np.kron(chain_a.amplitudes, chain_b.amplitudes)
        return apply_cz(SmallState(amps), a, na + b)
    if rng is None:
        rng = np.random.default_rng()
    return break_chain_at(chain_a, a, rng=rng) + break_chain_at(chain_b, b, rng=rng)


@dataclass(frozen=True)
class GrowthStats:
    """Monte Carlo statistics of the net chain-length change."""

    P: float
    m: int
    n_trials: int
    seed: int
    mean_delta: float
    std_err: float
    floor_hits: int


def monte_carlo_growth(
    P: float,
    m: int,
    n_trials: int,
    seed: int,
    start_length: int | None = None,
) -> GrowthStats:
    """Monte Carlo estimate of the net length change after m attempts.

    Each trial draws its own generator from (seed, trial index) so serial
    and parallel execution agree bit for bit.  The default start length
    2m + 10 keeps every walk away from the zero floor, matching the
    (3P - 2)m accounting; explicit smaller start lengths clamp at zero and
    such trials are counted in floor_hits.
    """
    if not 0.0 <= P <= 1.0:
        raise ValueError(f"P must lie in [0, 1], got {P}")
    if m < 1 or n_trials < 1:
        raise ValueError("m and n_trials must be at least 1")
    if start_length is None:
        start_length = 2 * m + 10

    deltas = np.empty(n_trials)
    floor_hits = 0
    for trial in range(n_trials):
        rng = np.random.default_rng([seed, trial])
        # Lindley's form of L_k = max(L_{k-1} + s_k, 0): with the free walk
        # W_k = L_0 + s_1 + ... + s_k, L_m = W_m - min(0, min_k W_k), and the
        # length touches 0 exactly when min_k W_k <= 0
        walk = start_length + np.cumsum(np.where(rng.random(m) < P, 1, -2))
        low = int(walk.min())
        floor_hits += low <= 0
        deltas[trial] = walk[-1] - min(low, 0) - start_length
    mean = float(np.mean(deltas))
    std_err = float(np.std(deltas, ddof=1) / math.sqrt(n_trials)) if n_trials > 1 else 0.0
    return GrowthStats(
        P=P, m=m, n_trials=n_trials, seed=seed,
        mean_delta=mean, std_err=std_err, floor_hits=floor_hits,
    )


GROWTH_CSV_HEADER = "P,m,n_trials,seed,mean_delta,std_err,floor_hits"


def write_growth_csv(stats_list, dest, header_comment: str | None = None) -> None:
    """Write GrowthStats rows in the fixed CSV schema to a file path or to an
    open text stream."""
    write_csv(dest, GROWTH_CSV_HEADER, (
        (s.P, s.m, s.n_trials, s.seed, s.mean_delta, s.std_err, s.floor_hits)
        for s in stats_list
    ), header_comment)

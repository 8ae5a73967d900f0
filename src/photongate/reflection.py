"""Single-excitation input-output solver for photon reflection off a bare
or atom-coupled one-sided cavity.

The one-photon sector reduces the operator equations to linear ODEs for the
cavity amplitude c(t) and the excited-state amplitude e(t) driven by the
input envelope f_in(t):

    dc/dt = -((kappa_c + kappa_l)/2) c - i g(t) e - sqrt(kappa_c) f_in(t)
    de/dt = -(gamma/2) e - i g(t) c
    f_out(t) = f_in(t) + sqrt(kappa_c) c(t)

Sign conventions are fixed by the flux-balance identity

    int |f_in|^2 - int |f_out|^2 = gamma int |e|^2 + kappa_l int |c|^2

and by the bare-cavity pi phase shift in the adiabatic limit.

Integration uses a classical fixed-step 4th-order Runge-Kutta scheme with
the input envelope interpolated linearly at half steps.  Because the system
is linear, each step is precomputed as an affine update
y_{n+1} = A_n y_n + b_n (vectorized over time and over a batch of motion
phases), and only the cheap recursion runs sequentially.

When no column is coupled (g0 = 0, or every column bare), A_n is the same
diagonal matrix at every step and e stays zero, so the recursion is the
scalar first-order filter c_{n+1} = a c_n + b_n with a real, run in plain
Python complex arithmetic.  It is bit-identical to the 2x2 loop: with g = 0
the imaginary part of a and the off-diagonal terms of A_n and b_n are exact
zeros, so every product rounds the same whether or not numpy's complex
multiply fuses it (FMA).  With g != 0 fused and unfused products round
differently, so any batch with a coupled column keeps the numpy loop.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    CavityParams,
    PulseEnvelope,
    TimeGrid,
    TWO_PI,
    _coupling,
    default_time_grid,
    make_sech_pulse,
    write_csv,
)

__all__ = [
    "ReflectionRecord",
    "SolverError",
    "reflect_bare",
    "reflect_coupled",
    "reflect_coupled_motion_averaged",
    "SweepRow",
    "sweep",
    "write_sweep_csv",
    "SWEEP_CSV_HEADER",
]

#: Step-columns per precompute chunk of the integrator.
_CHUNK = 4096


class SolverError(RuntimeError):
    """Raised when the integrator produces a non-finite state."""


@dataclass(frozen=True)
class ReflectionRecord:
    """Metrics of one reflection run, or their means over motion phases.

    ``f_out_raw`` is the output envelope exactly as computed.  Only a
    single reflection keeps it; a motion average holds ``None`` there, and
    so do its per-phase records in ``per_phi``.
    """

    f_out_raw: PulseEnvelope | None
    P: float
    F: float
    phase: float
    loss_atom: float
    loss_cavity: float
    #: diagnostic int |c(t)|^2 dt (the cavity photon is "hardly created"
    #: in the coupled case; reported, not enforced)
    cavity_occupancy: float
    input_norm2: float = 1.0
    per_phi: tuple["ReflectionRecord", ...] = ()

    @property
    def flux_residual(self) -> float:
        """|int|f_in|^2 - int|f_out|^2 - gamma int|e|^2 - kappa_l int|c|^2|."""
        return abs(self.input_norm2 - self.P - self.loss_atom - self.loss_cavity)


def _integrate(
    p: CavityParams, f: np.ndarray, grid: TimeGrid, phis: np.ndarray, coupled
):
    """Integrate the driven two-amplitude system for a batch of columns.

    Column i is driven by ``f`` (shape (n,), shared by every column) or by
    ``f[:, i]`` (shape (n, k)).  It sees the coupling g(t) at motion phase
    ``phis[i]`` where ``coupled[i]`` is true and the bare cavity, g = 0,
    elsewhere; ``coupled`` may also be one bool for every column.  The
    arithmetic of a column does not depend on the other columns or on the
    batch width, so each column is bit-identical to a k = 1 call.

    Returns (c, e) trajectories of shape (n_steps, k).
    """
    n = grid.n_steps
    k = len(phis)
    h = grid.dt
    t = grid.times()
    kt = 0.5 * (p.kappa_c + p.kappa_l)
    gh = 0.5 * p.gamma
    sq = math.sqrt(p.kappa_c)
    coupled = np.broadcast_to(np.asarray(coupled, dtype=bool), (k,))
    if f.ndim == 1:
        f = f[:, None]
    # chunks hold about _CHUNK step-columns, so the precompute temporaries
    # take the same memory whatever the batch width
    rows = max(_CHUNK // k, 1)

    c = np.zeros((n, k), dtype=complex)
    e = np.zeros((n, k), dtype=complex)
    yc = np.zeros(k, dtype=complex)
    ye = np.zeros(k, dtype=complex)

    bare = p.g0 == 0.0 or not coupled.any()

    def coupling(tt):
        return np.where(coupled, _coupling(p, tt[:, None], phis), 0.0)

    for start in range(0, n - 1, rows):
        stop = min(start + rows, n - 1)
        sl = slice(start, stop)
        m = stop - start

        if not bare:
            ga = coupling(t[sl])
            gb = coupling(t[start + 1 : stop + 1])
            gm = coupling(t[sl] + 0.5 * h)
        else:
            ga = gb = gm = np.zeros((m, k))

        def mat(g):
            M = np.empty(g.shape + (2, 2), dtype=complex)
            M[..., 0, 0] = -kt
            M[..., 0, 1] = -1j * g
            M[..., 1, 0] = -1j * g
            M[..., 1, 1] = -gh
            return M

        Ma, Mm, Mb = mat(ga), mat(gm), mat(gb)
        eye = np.eye(2, dtype=complex)

        # k_i = P_i y + q_i for the four RK4 stages of a linear system
        P1 = Ma
        P2 = Mm @ (eye + 0.5 * h * P1)
        P3 = Mm @ (eye + 0.5 * h * P2)
        P4 = Mb @ (eye + h * P3)
        A = eye + (h / 6.0) * (P1 + 2.0 * P2 + 2.0 * P3 + P4)

        def src(fv):
            s = np.zeros((m, k, 2), dtype=complex)
            s[..., 0] = -sq * fv
            return s

        q1 = src(f[sl])
        sm = src(0.5 * (f[sl] + f[start + 1 : stop + 1]))
        q2 = 0.5 * h * np.einsum("...ij,...j->...i", Mm, q1) + sm
        q3 = 0.5 * h * np.einsum("...ij,...j->...i", Mm, q2) + sm
        q4 = h * np.einsum("...ij,...j->...i", Mb, q3) + src(f[start + 1 : stop + 1])
        b = (h / 6.0) * (q1 + 2.0 * q2 + 2.0 * q3 + q4)

        a00 = A[..., 0, 0]
        a01 = A[..., 0, 1]
        a10 = A[..., 1, 0]
        a11 = A[..., 1, 1]
        b0 = b[..., 0]
        b1 = b[..., 1]

        if bare:
            # exact scalar recurrence c <- a c + b0, e stays zero (see the
            # module docstring for why it is bit-identical to the loop below)
            for i in range(k):
                a = float(a00[0, i].real)
                y = complex(yc[i])
                out = []
                for bj in b0[:, i].tolist():
                    y = a * y + bj
                    out.append(y)
                yc[i] = y
                c[start + 1 : stop + 1, i] = out
            continue

        # a divergent step produces inf/nan here; that is detected below, so
        # silence the intermediate overflow warnings
        with np.errstate(invalid="ignore", over="ignore"):
            for j in range(m):
                yc, ye = (
                    a00[j] * yc + a01[j] * ye + b0[j],
                    a10[j] * yc + a11[j] * ye + b1[j],
                )
                c[start + j + 1] = yc
                e[start + j + 1] = ye

    if not (np.all(np.isfinite(c.view(float))) and np.all(np.isfinite(e.view(float)))):
        raise SolverError(
            "integrator produced a non-finite state; the time step is too "
            "large for the given rates"
        )
    return c, e


def _record_from_trajectory(
    p: CavityParams, f_in: PulseEnvelope, c: np.ndarray, e: np.ndarray
) -> ReflectionRecord:
    dt = f_in.grid.dt
    f = f_in.samples
    f_out = f + math.sqrt(p.kappa_c) * c

    P = float(np.trapezoid(np.abs(f_out) ** 2, dx=dt))
    occ = float(np.trapezoid(np.abs(c) ** 2, dx=dt))
    loss_atom = float(p.gamma * np.trapezoid(np.abs(e) ** 2, dx=dt))
    loss_cavity = float(p.kappa_l * occ)
    input_norm2 = f_in.squared_norm()

    ov = complex(np.trapezoid(np.conj(f) * f_out, dx=dt))
    phase = math.atan2(ov.imag, ov.real)
    F = abs(ov) / math.sqrt(input_norm2 * P) if P > 0 else 0.0

    return ReflectionRecord(
        f_out_raw=PulseEnvelope(f_in.grid, f_out),
        P=P,
        F=F,
        phase=phase,
        loss_atom=loss_atom,
        loss_cavity=loss_cavity,
        cavity_occupancy=occ,
        input_norm2=input_norm2,
    )


def reflect_envelope(
    p: CavityParams, f_in: PulseEnvelope, coupled: bool
) -> ReflectionRecord:
    """Reflect an arbitrary (not necessarily normalized) envelope.

    Linear in f_in; the k = 1 call of the batched kernel, at the motion
    phase p.phi when coupled.
    """
    c, e = _integrate(p, f_in.samples, f_in.grid, np.array([p.phi]), coupled)
    return _record_from_trajectory(p, f_in, c[:, 0], e[:, 0])


def reflect_bare(p: CavityParams, f_in: PulseEnvelope) -> ReflectionRecord:
    """Reflection off the bare cavity (atom decoupled): the P0/F0 case."""
    return reflect_envelope(p, f_in, coupled=False)


def reflect_coupled(p: CavityParams, f_in: PulseEnvelope) -> ReflectionRecord:
    """Reflection with the atom in the coupled state: the P1/F1 case at
    the fixed motion phase p.phi."""
    return reflect_envelope(p, f_in, coupled=True)


def reflect_coupled_motion_averaged(
    p: CavityParams, f_in: PulseEnvelope, n_phi: int = 16
) -> ReflectionRecord:
    """Coupled reflection averaged over n_phi equally spaced motion phases.

    The metrics are arithmetic means over the phases, whose own records are
    in ``per_phi``; neither the mean nor the per-phase records keep an
    output envelope.
    """
    if n_phi < 1:
        raise ValueError("n_phi must be at least 1")
    phis = TWO_PI * np.arange(n_phi) / n_phi
    try:
        c, e = _integrate(p, f_in.samples, f_in.grid, phis, True)
    except SolverError as exc:
        raise SolverError(f"{exc} (while batching phi={list(phis)})") from exc

    records = tuple(
        replace(_record_from_trajectory(p, f_in, c[:, i], e[:, i]), f_out_raw=None)
        for i in range(n_phi)
    )
    means = {attr: float(np.mean([getattr(r, attr) for r in records]))
             for attr in ("P", "F", "phase", "loss_atom", "loss_cavity", "cavity_occupancy")}
    return ReflectionRecord(f_out_raw=None, **means, input_norm2=f_in.squared_norm(),
                            per_phi=records)


SWEEP_CSV_HEADER = (
    "g0,kappa_l,gamma,T_f,T_g,n_phi,case,P,F,phase,loss_atom,loss_cavity,error"
)


@dataclass(frozen=True)
class SweepRow:
    g0: float
    kappa_l: float
    gamma: float
    T_f: float
    T_g: float
    n_phi: int
    case: str
    P: float | None = None
    F: float | None = None
    phase: float | None = None
    loss_atom: float | None = None
    loss_cavity: float | None = None
    error: str = ""


def sweep(
    case: str,
    g0_values=(0.0,),
    kappa_l_values=(0.0,),
    gamma_values=(0.0,),
    T_f_values=(10.0,),
    T_g_values=(50.0,),
    n_phi: int = 1,
    kappa_c: float = 1.0,
    dt: float | None = None,
) -> list[SweepRow]:
    """Evaluate the Cartesian product of the parameter ranges.

    Rows come out in lexicographic order of (g0, kappa_l, gamma, T_f, T_g).
    Per-row failures are recorded in the error column and the run continues.
    ``case`` is "bare" or "coupled"; the coupled case is phi-averaged when
    n_phi > 1.
    """
    if case not in ("bare", "coupled"):
        raise ValueError(f"unknown case {case!r}")
    if n_phi < 1:
        raise ValueError(f"n_phi must be at least 1, got {n_phi}")
    ranges = dict(g0=list(g0_values), kappa_l=list(kappa_l_values), gamma=list(gamma_values),
                  T_f=list(T_f_values), T_g=list(T_g_values))
    for name, vals in ranges.items():
        if not vals or not all(math.isfinite(v) for v in vals):
            raise ValueError(f"range {name} must be non-empty and finite")
    if dt is not None and not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")

    rows: list[SweepRow] = []
    for g0, kl, gam, tf, tg in itertools.product(*ranges.values()):
        base = dict(
            g0=g0, kappa_l=kl, gamma=gam, T_f=tf, T_g=tg,
            n_phi=n_phi if case == "coupled" else 1, case=case,
        )
        try:
            p = CavityParams(
                g0=g0, kappa_c=kappa_c, kappa_l=kl, gamma=gam, T_g=tg
            )
            grid = default_time_grid(tf, p, dt=dt)
            f_in = make_sech_pulse(tf, grid)
            if case == "bare":
                rec = reflect_bare(p, f_in)
            elif n_phi > 1:
                rec = reflect_coupled_motion_averaged(p, f_in, n_phi)
            else:
                rec = reflect_coupled(p, f_in)
            rows.append(SweepRow(
                **base, P=rec.P, F=rec.F, phase=rec.phase,
                loss_atom=rec.loss_atom, loss_cavity=rec.loss_cavity,
            ))
        except (ValueError, SolverError) as exc:
            rows.append(SweepRow(**base, error=str(exc)))
    return rows


def write_sweep_csv(rows, dest, header_comment: str | None = None) -> None:
    """Write sweep rows in the fixed CSV schema (12 significant digits) to a
    file path or to an open text stream."""
    write_csv(dest, SWEEP_CSV_HEADER, (
        (r.g0, r.kappa_l, r.gamma, r.T_f, r.T_g, r.n_phi, r.case,
         r.P, r.F, r.phase, r.loss_atom, r.loss_cavity, r.error)
        for r in rows
    ), header_comment)

"""Correctness checks of one op's output; any problem counts the op as failed.

- Flux balance of every reflection op, with the tolerance ``verify_flux``
  uses.
- The bare-cavity frequency-domain response (Gardiner & Collett, PRA 31,
  3761 (1985)), r(w) = (kl/2 - kc/2 - iw) / ((kc+kl)/2 - iw), weighted by the
  sech^2(pi w T_f / 4) spectrum of the input pulse: every bare_sweep op and
  the bare branch P0 of every gate op.
- An exact integer recount of every growth call from its per-trial draws;
  floored calls use the Lindley recursion L_k = max(L_{k-1} + s_k, 0).
- Reference outputs recorded from a known-good commit, where the seed has
  them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

FLUX_TOL = 1e-6
#: Oracle tolerances. The worst differences seen over the fig2 ranges were
#: |dP| = 1.1e-7 (the reflected tail beyond the window, which also shows as
#: the flux residual), |dF| = 9.6e-9 and a phase difference of 0.
ORACLE_TOL = {"P": 5e-7, "F": 5e-8, "phase": 1e-8}
#: Agreement with recorded reference outputs (the accuracy gate).
REFERENCE_TOL = 1e-8


def _wrapped(d: float) -> float:
    return abs((d + math.pi) % (2.0 * math.pi) - math.pi)


def bare_oracle(T_f: float, kappa_l: float, kappa_c: float = 1.0) -> dict:
    """P, F and phase of a sech pulse reflected off the bare cavity.

    The imaginary part of the overlap integrand is odd in w and drops out,
    so the overlap is real and the phase is 0 or pi.
    """
    a = 0.5 * (kappa_l - kappa_c)
    b = 0.5 * (kappa_c + kappa_l)
    c = math.pi * T_f / 4.0
    top = 40.0 / c  # sech^2 is below 1e-34 beyond this

    def integral(fn) -> float:
        return quad(lambda w: fn(w) / math.cosh(c * w) ** 2, 0.0, top,
                    limit=200, epsabs=0.0, epsrel=1e-13)[0]

    norm = integral(lambda w: 1.0)
    overlap = integral(lambda w: (a * b + w * w) / (b * b + w * w)) / norm
    P = integral(lambda w: (a * a + w * w) / (b * b + w * w)) / norm
    return {"P": P, "F": abs(overlap) / math.sqrt(P), "phase": math.atan2(0.0, overlap)}


def _flux(out: dict) -> list[str]:
    residual = abs(1.0 - out["P"] - out["loss_atom"] - out["loss_cavity"])
    if not residual <= FLUX_TOL:
        return [f"flux residual {residual:.3e} > {FLUX_TOL:.0e}"]
    return []


def _ranges(out: dict, keys) -> list[str]:
    return [f"{k} = {out[k]!r} outside [0, 1]" for k in keys
            if not 0.0 <= out[k] <= 1.0 + 1e-12]


def _oracle(got: dict, want: dict, keys) -> list[str]:
    problems = []
    for key in keys:
        d = _wrapped(got[key] - want[key]) if key == "phase" else abs(got[key] - want[key])
        if not d <= ORACLE_TOL[key]:
            problems.append(f"{key} off the frequency-domain oracle by {d:.3e}")
    return problems


def _sweep_failed(out: dict) -> list[str]:
    if out["rc"] != 0:
        return [f"exit code {out['rc']}: {out['error']}"]
    if out["error"]:
        return [f"row error: {out['error']}"]
    return []


def check_bare(op: dict, out: dict) -> list[str]:
    failed = _sweep_failed(out)
    if failed:
        return failed
    return (_ranges(out, ("P", "F")) + _flux(out)
            + _oracle(out, bare_oracle(op["T_f"], op["kappa_l"]), ("P", "F", "phase")))


def check_coupled(op: dict, out: dict) -> list[str]:
    failed = _sweep_failed(out)
    if failed:
        return failed
    return _ranges(out, ("P", "F", "loss_atom", "loss_cavity")) + _flux(out)


def growth_recount(P: float, m: int, n_trials: int, seed: int,
                   start_length: int | None = None) -> dict:
    """Recount a growth call from its draws, default_rng([seed, trial]).random(m) < P.

    Without a floor the net change is 3*successes - 2m. With one, the length
    follows the Lindley recursion, whose closed form is
    L_k = S_k + max(L_0, -min_{j<=k} S_j) for the partial sums S of the
    steps +1 (success) and -2 (failure).
    """
    if start_length is None:
        start_length = 2 * m + 10
    floored = start_length <= 2 * m
    deltas = np.empty(n_trials)
    floor_hits = 0
    for trial in range(n_trials):
        success = np.random.default_rng([seed, trial]).random(m) < P
        if floored:
            S = np.cumsum(np.where(success, 1, -2))
            L = S + np.maximum(start_length, -np.minimum.accumulate(S))
            floor_hits += bool(np.any(L == 0))
            deltas[trial] = L[-1] - start_length
        else:
            deltas[trial] = 3 * int(np.count_nonzero(success)) - 2 * m
    std_err = float(np.std(deltas, ddof=1) / math.sqrt(n_trials)) if n_trials > 1 else 0.0
    return {"mean_delta": float(np.mean(deltas)), "std_err": std_err,
            "floor_hits": floor_hits}


def check_gate(op: dict, out: dict) -> list[str]:
    if out["rc"] != 0:
        return [f"cluster command exit code {out['rc']}"]
    problems = _ranges(out, ("P_L", "P_R", "P_total", "F_L", "F_R", "F_avg", "P0", "P1"))
    if min(out["P_L"], out["P_R"]) <= 0.0:
        problems.append("a detector branch has zero probability")
    problems += _oracle({"P": out["P0"]}, bare_oracle(op["T_f"], op["A"]["kappa_l"]), ("P",))

    g = out["growth"]
    if g["P"] != f"{out['P_total']:.12g}":
        problems.append(f"cluster CSV P {g['P']} != gate P_total {out['P_total']!r}")
    # the CLI was given the exact P_total; the CSV rounds it to 12 digits
    want = growth_recount(out["P_total"], int(g["m"]), int(g["n_trials"]), int(g["seed"]))
    for key in ("mean_delta", "std_err"):
        if g[key] != f"{want[key]:.12g}":
            problems.append(f"cluster CSV {key} {g[key]} != recount {want[key]:.12g}")
    if int(g["floor_hits"]) != want["floor_hits"]:
        problems.append(f"cluster CSV floor_hits {g['floor_hits']} != {want['floor_hits']}")

    f = out["floored"]
    want = growth_recount(f["P"], f["m"], f["n_trials"], f["seed"], f["start_length"])
    for key in ("mean_delta", "std_err", "floor_hits"):
        if f[key] != want[key]:
            problems.append(f"floored {key} {f[key]!r} != Lindley recount {want[key]!r}")
    return problems


CHECKS = {"bare_sweep": check_bare, "coupled_avg": check_coupled, "gate_chain": check_gate}

#: Output fields compared with the reference: numbers to REFERENCE_TOL, the
#: growth statistics exactly.
REFERENCE_FIELDS = {
    "bare_sweep": ("P", "F", "phase"),
    "coupled_avg": ("P", "F", "phase"),
    "gate_chain": ("P_L", "P_R", "F_avg", "P0", "P1"),
}


def check_reference(workload: str, out: dict, ref: dict) -> list[str]:
    problems = []
    for key in REFERENCE_FIELDS[workload]:
        if key not in out:
            return [f"{key} missing from the output"]
        d = out[key] - ref[key]
        d = _wrapped(d) if key == "phase" else abs(d)
        if not d <= REFERENCE_TOL:
            problems.append(f"{key} off the reference by {d:.3e}")
    for key in ("growth", "floored"):
        if key in ref and out.get(key) != ref[key]:
            problems.append(f"{key} statistics differ from the reference")
    return problems


def check(workload: str, op: dict, out: dict, ref: dict | None = None) -> list[str]:
    """Every problem found with one op's output; empty when it passes."""
    if "exception" in out:
        return [f"raised {out['exception']}"]
    problems = CHECKS[workload](op, out)
    if ref is not None:
        problems += check_reference(workload, out, ref)
    return problems

"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single
``ACCEPTANCE n: PASS``/``FAIL`` line (visible with ``pytest -s`` or in the
captured output of a failing test).  Tolerances are fixed here and must not
be loosened; a red criterion indicates a real defect somewhere.
"""

import math
import time

import numpy as np
import pytest

from photongate import cli
from photongate.cli import FIG2_TF, FIG3_COMBOS, main
from photongate.cluster import (
    make_linear_cluster,
    monte_carlo_growth,
    random_basis,
    recover_failure,
    attach_attempt,
    split_measure,
    state_fidelity,
)
from photongate.core import (
    CavityParams,
    default_time_grid,
    g0_for_mean_coupling,
    make_sech_pulse,
)
from photongate.gate import two_sided_effective_params
from photongate.reflection import (
    reflect_bare,
    reflect_coupled,
    reflect_coupled_motion_averaged,
)
from photongate.verify import verify_oracle

FIG2_KL = cli.FIG2_KL[::2]  # 0, 0.1, 0.2, 0.3
FIG3_GAVG = (1.0, 2.0, 3.0, 5.0)
FIG3_NPHI = 8


def _report(n, failures):
    ok = not failures
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}"
    if failures:
        line += " - " + "; ".join(str(f) for f in failures[:5])
        if len(failures) > 5:
            line += f"; ... ({len(failures)} total)"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def fig2_battery():
    """Bare-cavity metrics over the photon-length / leakage grid."""
    out = {}
    for tf in FIG2_TF:
        for kl in FIG2_KL:
            p = CavityParams(kappa_l=kl)
            f = make_sech_pulse(tf, default_time_grid(tf, p))
            out[(tf, kl)] = reflect_bare(p, f)
    return out


@pytest.fixture(scope="module")
def fig3_battery():
    """Motion-averaged coupled metrics over 8 parameter combos x 4 couplings.

    Only scalar summaries are retained: mean P/F plus the per-phase phases
    and flux residuals needed by criteria 2 and 3.
    """
    out = {}
    for tf, tg, kl in FIG3_COMBOS:
        for gavg in FIG3_GAVG:
            p = CavityParams(
                g0=g0_for_mean_coupling(gavg), gamma=1.0, kappa_l=kl, T_g=tg
            )
            f = make_sech_pulse(tf, default_time_grid(tf, p))
            avg = reflect_coupled_motion_averaged(p, f, n_phi=FIG3_NPHI)
            out[(tf, tg, kl, gavg)] = {
                "P": avg.P,
                "F": avg.F,
                "phases": [r.phase for r in avg.per_phi],
                "residuals": [r.flux_residual for r in avg.per_phi],
            }
    return out


def test_criterion_01_bare_fidelity_long_pulses():
    # F >= 0.995 for T_f in {50, 70} across kappa_l in {0, 0.1, 0.2, 0.3};
    # total runtime under 10 s.
    #
    # Known red: at (T_f=50, kappa_l=0.3) the converged value is ~0.994884,
    # 1.2e-4 below threshold (stable under dt/2, dt/4 and wider windows).
    # The threshold is kept as stated rather than weakened.
    start = time.perf_counter()
    failures = []
    for tf in (50.0, 70.0):
        for kl in FIG2_KL:
            p = CavityParams(kappa_l=kl)
            f = make_sech_pulse(tf, default_time_grid(tf, p))
            rec = reflect_bare(p, f)
            if not rec.F >= 0.995:
                failures.append(f"F={rec.F:.6f} at T_f={tf}, kappa_l={kl}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _report(1, failures)


def test_criterion_02_reflection_phases(fig2_battery, fig3_battery):
    # bare phase = pi within 1e-3 rad; coupled phase = 0 within 1e-3 rad,
    # for every run (and every motion phase) on both figure grids
    failures = []
    for key, rec in fig2_battery.items():
        if abs(abs(rec.phase) - math.pi) >= 1e-3:
            failures.append(f"bare phase {rec.phase:.6f} at {key}")
    for key, summary in fig3_battery.items():
        worst = max(abs(ph) for ph in summary["phases"])
        if worst >= 1e-3:
            failures.append(f"coupled phase {worst:.2e} at {key}")
    _report(2, failures)


def test_criterion_03_flux_balance(fig2_battery, fig3_battery):
    failures = []
    for key, rec in fig2_battery.items():
        if rec.flux_residual >= 1e-6:
            failures.append(f"residual {rec.flux_residual:.2e} at {key}")
    for key, summary in fig3_battery.items():
        worst = max(summary["residuals"])
        if worst >= 1e-6:
            failures.append(f"residual {worst:.2e} at {key}")
    _report(3, failures)


def test_criterion_04_adiabatic_oracles():
    failures = []
    # bare: P0 -> ((kc - kl)/(kc + kl))^2 for a very long pulse
    for kl in (0.1, 0.3):
        p = CavityParams(kappa_l=kl)
        f = make_sech_pulse(500.0, default_time_grid(500.0, p))
        rec = reflect_bare(p, f)
        target = ((p.kappa_c - kl) / (p.kappa_c + kl)) ** 2
        if abs(rec.P - target) >= 0.01 * target:
            failures.append(f"P0={rec.P:.5f} vs {target:.5f} at kappa_l={kl}")
    # coupled, frozen coupling: f_out/f_in -> (2g^2/g_a - kc/2)/(2g^2/g_a + kc/2)
    p = CavityParams(g0=1.0, gamma=1.0, T_g=1e9, phi=0.0)
    f = make_sech_pulse(500.0, default_time_grid(500.0, p))
    amp = f.overlap(reflect_coupled(p, f).f_out_raw)
    target = (2.0 - 0.5) / (2.0 + 0.5)
    if abs(amp - target) >= 0.01 * target:
        failures.append(f"constant-g amp {amp:.5f} vs {target:.5f}")
    _report(4, failures)


def test_criterion_05_trends(fig2_battery, fig3_battery):
    failures = []
    # P0 strictly decreasing in kappa_l at each T_f
    for tf in FIG2_TF:
        ps = [fig2_battery[(tf, kl)].P for kl in FIG2_KL]
        if not all(a > b for a, b in zip(ps, ps[1:])):
            failures.append(f"P0 not decreasing in kappa_l at T_f={tf}")
    # F0 series strictly ordered by T_f at each kappa_l
    for kl in FIG2_KL:
        fs = [fig2_battery[(tf, kl)].F for tf in FIG2_TF]
        if not all(a < b for a, b in zip(fs, fs[1:])):
            failures.append(f"F0 not increasing in T_f at kappa_l={kl}")
    # P1 and F1 non-decreasing in the mean coupling for each combo
    for combo in FIG3_COMBOS:
        for attr in ("P", "F"):
            vals = [fig3_battery[combo + (g,)][attr] for g in FIG3_GAVG]
            if not all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])):
                failures.append(f"{attr}1 not non-decreasing at {combo}")
    # spread over the 8 combos at fixed mean coupling: max deviation from
    # the mean below 5% relative
    for g in FIG3_GAVG:
        for attr in ("P", "F"):
            vals = np.array([fig3_battery[c + (g,)][attr] for c in FIG3_COMBOS])
            spread = np.max(np.abs(vals - vals.mean())) / vals.mean()
            if spread >= 0.05:
                failures.append(f"{attr}1 spread {spread:.3f} at g_avg={g}")
    _report(5, failures)


def test_criterion_06_gate_closed_forms_vs_oracle():
    # closed forms vs the circuit oracle on 100 random (P0, r) draws within
    # 1e-10, and the ideal point r = 1: P_total = P0^2 and F_avg = 1 within 1e-12
    failures = [res.line() for res in verify_oracle() if not res.ok]
    _report(6, failures)


def test_criterion_07_two_sided_mapping():
    failures = []
    for g0, gamma, kl, kcp in ((2.0, 1.0, 0.0, 0.5), (1.0, 0.5, 0.1, 0.7),
                               (3.0, 2.0, 0.2, 1.0)):
        base = CavityParams(g0=g0, gamma=gamma, kappa_l=kl, T_g=50.0)
        eff = two_sided_effective_params(kcp, base)
        manual = CavityParams(
            g0=g0, kappa_c=2.0 * kcp, gamma=gamma, kappa_l=kl, T_g=50.0
        )
        f = make_sech_pulse(20.0, default_time_grid(20.0, manual))
        ra, rb = reflect_coupled(eff, f), reflect_coupled(manual, f)
        worst = max(abs(ra.P - rb.P), abs(ra.F - rb.F), abs(ra.phase - rb.phase))
        if worst >= 1e-8:
            failures.append(f"deviation {worst:.2e} at kappa_c'={kcp}")
    _report(7, failures)


def test_criterion_08_cluster_recovery_and_split():
    failures = []
    rng = np.random.default_rng(808)
    for n in range(4, 11):
        target = make_linear_cluster(n - 2)
        for trial in range(20):
            basis = random_basis(rng)
            failed = attach_attempt(
                make_linear_cluster(n), succeed=False, basis=basis, rng=rng
            )
            recovered = recover_failure(failed, rng=rng)
            fid = state_fidelity(recovered, target)
            if abs(fid - 1.0) >= 1e-10:
                failures.append(f"recovery fid {fid!r} at n={n}, trial={trial}")
    for n in range(5, 11):
        for i in range(3, n - 1):
            left, right = split_measure(make_linear_cluster(n), i, rng=rng)
            fl = state_fidelity(left, make_linear_cluster(i - 2))
            fr = state_fidelity(right, make_linear_cluster(n - i - 1))
            if abs(fl - 1.0) >= 1e-10 or abs(fr - 1.0) >= 1e-10:
                failures.append(f"split fids {fl!r}/{fr!r} at n={n}, i={i}")
    _report(8, failures)


def test_criterion_09_growth_law():
    start = time.perf_counter()
    failures = []
    means = {}
    for P in (0.5, 0.7, 0.75, 0.9):
        stats = monte_carlo_growth(P, m=10_000, n_trials=200, seed=909)
        means[P] = stats.mean_delta
        target = (3.0 * P - 2.0) * 10_000
        if abs(stats.mean_delta - target) > 3.0 * max(stats.std_err, 1e-12):
            failures.append(
                f"mean {stats.mean_delta:.1f} vs {target:.1f} "
                f"(SE {stats.std_err:.1f}) at P={P}"
            )
    if not (means[0.5] < 0.0 < means[0.7]):
        failures.append(f"no sign change across P=2/3: {means[0.5]}, {means[0.7]}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _report(9, failures)


def test_criterion_10_determinism(tmp_path):
    failures = []
    # byte-identical CSVs from repeated CLI runs with the same seed/arguments
    pairs = []
    for name, argv in (
        ("sweep", ["sweep", "--case", "bare", "--kappa-l", "0,0.2", "--Tf", "10"]),
        ("growth", ["cluster", "--P", "0.75", "--m", "1000", "--trials", "50",
                    "--seed", "42"]),
    ):
        paths = [tmp_path / f"{name}_{i}.csv" for i in (0, 1)]
        for path in paths:
            code = main(argv + ["--out", str(path)])
            if code != 0:
                failures.append(f"{name} run exited {code}")
        pairs.append((name, paths))
    for name, (a, b) in pairs:
        if a.read_bytes() != b.read_bytes():
            failures.append(f"{name} CSVs differ between identical runs")
    # halving dt changes solver metrics by < 1e-6
    p = CavityParams(g0=2.0, gamma=1.0, kappa_l=0.1, T_g=50.0)
    grid = default_time_grid(10.0, p)
    r1 = reflect_coupled(p, make_sech_pulse(10.0, grid))
    r2 = reflect_coupled(
        p, make_sech_pulse(10.0, default_time_grid(10.0, p, dt=grid.dt / 2.0))
    )
    worst = max(abs(r1.P - r2.P), abs(r1.F - r2.F), abs(r1.phase - r2.phase))
    if worst >= 1e-6:
        failures.append(f"dt-halving drift {worst:.2e}")
    _report(10, failures)

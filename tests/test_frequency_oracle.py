"""Bare-cavity reflection against an independent frequency-domain oracle.

Each frequency component of the input is reflected off the bare one-sided
cavity with (Gardiner & Collett, PRA 31, 3761 (1985))

    r(w) = (kappa_l/2 - kappa_c/2 - i w) / ((kappa_c + kappa_l)/2 - i w),

and the sech input f(t) ~ sech(2 t / T_f) has the power spectrum
sech^2(pi w T_f / 4).  P and the overlap <f_in|f_out> are then spectral
averages of |r|^2 and r, evaluated by adaptive quadrature with no time
stepping at all.
"""

import math

import pytest
from scipy.integrate import quad

from photongate.core import CavityParams, default_time_grid, make_sech_pulse
from photongate.reflection import reflect_bare

TOL = {"P": 5e-7, "F": 5e-8, "phase": 1e-8}


def r_bare(w: float, kappa_l: float, kappa_c: float = 1.0) -> complex:
    return (0.5 * (kappa_l - kappa_c) - 1j * w) / (0.5 * (kappa_c + kappa_l) - 1j * w)


def spectral_mean(fn, T_f: float) -> float:
    """Mean of fn(w) over the normalised sech^2(pi w T_f / 4) spectrum."""
    s = math.pi * T_f / 4.0
    cut = 45.0 / s  # the weight is below 1e-38 beyond
    val = quad(lambda w: fn(w) / math.cosh(s * w) ** 2, -cut, cut,
               points=[0.0], limit=400, epsabs=1e-14, epsrel=1e-13)[0]
    return val * s / 2.0  # the weight integrates to 2 / s over the line


def oracle(T_f: float, kappa_l: float) -> dict:
    P = spectral_mean(lambda w: abs(r_bare(w, kappa_l)) ** 2, T_f)
    ov = complex(spectral_mean(lambda w: r_bare(w, kappa_l).real, T_f),
                 spectral_mean(lambda w: r_bare(w, kappa_l).imag, T_f))
    return {"P": P, "F": abs(ov) / math.sqrt(P), "phase": math.atan2(ov.imag, ov.real)}


@pytest.mark.parametrize("T_f,kappa_l", [
    (10.0, 0.0), (10.0, 0.3), (70.0, 0.0), (70.0, 0.3), (50.0, 0.3),
])
def test_reflect_bare_matches_transfer_function(T_f, kappa_l):
    p = CavityParams(kappa_l=kappa_l)
    rec = reflect_bare(p, make_sech_pulse(T_f, default_time_grid(T_f, p)))
    want = oracle(T_f, kappa_l)
    assert abs(rec.P - want["P"]) <= TOL["P"]
    assert abs(rec.F - want["F"]) <= TOL["F"]
    assert abs(math.remainder(rec.phase - want["phase"], 2.0 * math.pi)) <= TOL["phase"]


def test_criterion_one_red_is_the_model():
    # the spectral F at (T_f = 50, kappa_l = 0.3) is itself below the 0.995
    # threshold of acceptance criterion 1, so no time step could lift it
    assert oracle(50.0, 0.3)["F"] == pytest.approx(0.99488368, abs=1e-8)

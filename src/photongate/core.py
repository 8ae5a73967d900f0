"""Shared physical parameters, time grids, photon pulse shapes, and the
sinusoidal atom-cavity coupling model.

All rates are expressed in units of the mirror decay rate ``kappa_c`` and
all times in units of ``1/kappa_c``; by default ``kappa_c = 1`` fixes the
unit system.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import j0

TWO_PI = 2.0 * math.pi

#: Default half-width of the simulation window in units of the pulse width.
#: Wide enough that the sech tails are below 1e-6 of the peak amplitude.
DEFAULT_WINDOW_HALFWIDTH = 8.0

#: Boundary samples must stay below this fraction of the peak amplitude.
BOUNDARY_TOLERANCE = 1e-6

# Allowed keys of the plain-text key=value configuration format.
CONFIG_KEYS = ("g0", "kappa_l", "gamma", "T_f", "T_g", "phi", "dt", "window")


class ConfigError(ValueError):
    """Raised for malformed or out-of-range configuration input."""


class WindowTooSmallError(ValueError):
    """Raised when a time grid cannot hold the requested pulse."""


@dataclass(frozen=True)
class CavityParams:
    """Physical rates and motion parameters of one atom-cavity node.

    Attributes
    ----------
    g0 : float
        Peak atom-cavity coupling rate.
    kappa_c : float
        Mirror decay rate; the unit scale (1 by default).
    kappa_l : float
        Unwanted cavity loss rate (absorption, scattering).
    gamma : float
        Atomic spontaneous emission rate.
    T_g : float
        Period of the trapped atom's motion.
    phi : float
        Phase of the atomic motion, wrapped into [0, 2*pi).
    """

    g0: float = 0.0
    kappa_c: float = 1.0
    kappa_l: float = 0.0
    gamma: float = 0.0
    T_g: float = 50.0
    phi: float = 0.0

    def __post_init__(self):
        for name in ("kappa_c", "T_g", "phi"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.kappa_c <= 0:
            raise ValueError(f"kappa_c must be positive, got {self.kappa_c}")
        if self.T_g <= 0:
            raise ValueError(f"T_g must be positive, got {self.T_g}")
        for name in ("g0", "kappa_l", "gamma"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be a finite non-negative rate, got {v}")
        object.__setattr__(self, "phi", self.phi % TWO_PI)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [t_start, t_end] with step dt."""

    t_start: float
    t_end: float
    dt: float

    def __post_init__(self):
        if self.t_end <= self.t_start:
            raise ValueError("t_end must exceed t_start")
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    @property
    def n_steps(self) -> int:
        return int(round((self.t_end - self.t_start) / self.dt)) + 1

    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_steps)


@dataclass(frozen=True)
class PulseEnvelope:
    """Sampled complex photon envelope on a uniform time grid."""

    grid: TimeGrid
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=complex)
        if samples.shape != (self.grid.n_steps,):
            raise ValueError(
                f"samples shape {samples.shape} does not match grid "
                f"({self.grid.n_steps} points)"
            )
        object.__setattr__(self, "samples", samples)

    def squared_norm(self) -> float:
        """Trapezoidal integral of |f(t)|^2 over the grid."""
        return float(np.trapezoid(np.abs(self.samples) ** 2, dx=self.grid.dt))

    def normalized(self) -> "PulseEnvelope":
        nrm = math.sqrt(self.squared_norm())
        if nrm == 0.0:
            raise ValueError("cannot normalize a zero envelope")
        return PulseEnvelope(self.grid, self.samples / nrm)

    def overlap(self, other: "PulseEnvelope") -> complex:
        """Trapezoidal inner product  int conj(self) * other dt."""
        if self.grid != other.grid:
            raise ValueError("envelopes live on different grids")
        return complex(
            np.trapezoid(np.conj(self.samples) * other.samples, dx=self.grid.dt)
        )


def default_time_grid(
    T_f: float,
    params: CavityParams | None = None,
    dt: float | None = None,
    window_halfwidth: float = DEFAULT_WINDOW_HALFWIDTH,
) -> TimeGrid:
    """Time grid resolving both the pulse and the fastest internal rate.

    The window is [-window_halfwidth*T_f, +window_halfwidth*T_f] and the
    step defaults to min(T_f/2000, 1/(20*max(g0, kappa_c+kappa_l, gamma))).
    Raises ValueError unless T_f, dt and window_halfwidth are positive and
    finite.
    """
    if not (math.isfinite(T_f) and T_f > 0):
        raise ValueError(f"T_f must be positive and finite, got {T_f}")
    if dt is None:
        fastest = 1.0
        if params is not None:
            fastest = max(params.g0, params.kappa_c + params.kappa_l, params.gamma)
        dt = min(T_f / 2000.0, 1.0 / (20.0 * max(fastest, 1e-12)))
    for name, v in (("dt", dt), ("window_halfwidth", window_halfwidth)):
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be positive and finite, got {v}")
    half = window_halfwidth * T_f
    n_intervals = int(math.ceil(2.0 * half / dt))
    return TimeGrid(-half, -half + n_intervals * dt, dt)


def make_sech_pulse(T_f: float, grid: TimeGrid) -> PulseEnvelope:
    """Sech-shaped input envelope f(t) ~ 1/(T_f*cosh(2t/T_f)), renormalized
    to unit trapezoidal norm on the grid.

    Raises WindowTooSmallError if the grid is narrower than 5*T_f on either
    side of t=0 or if the boundary samples are not negligible (< 1e-6 of
    the peak), i.e. the pulse does not fit the window.
    """
    if T_f <= 0:
        raise ValueError("T_f must be positive")
    if grid.t_start > -5.0 * T_f or grid.times()[-1] < 5.0 * T_f:
        raise WindowTooSmallError(
            f"grid [{grid.t_start}, {grid.t_end}] does not span [-5*T_f, 5*T_f]"
        )
    t = grid.times()
    f = 1.0 / (T_f * np.cosh(2.0 * t / T_f))
    peak = float(np.max(f))
    if max(f[0], f[-1]) >= BOUNDARY_TOLERANCE * peak:
        raise WindowTooSmallError(
            "boundary samples exceed 1e-6 of the peak; widen the window "
            f"(need roughly +/-7.3*T_f, got [{grid.t_start}, {grid.t_end}])"
        )
    pulse = PulseEnvelope(grid, f.astype(complex))
    return pulse.normalized()


def coupling_at(p: CavityParams, t):
    """Instantaneous coupling rate g(t) = g0*cos((pi/3)*sin(2*pi*t/T_g + phi)).

    Accepts scalars or arrays; the result lies in [g0/2, g0].
    """
    return _coupling(p, np.asarray(t), p.phi)


def _coupling(p: CavityParams, t: np.ndarray, phi):
    """g(t) at motion phase ``phi``, broadcasting ``t`` against ``phi``."""
    return p.g0 * np.cos((np.pi / 3.0) * np.sin(TWO_PI * t / p.T_g + phi))


def mean_coupling(p: CavityParams) -> float:
    """Time average of g(t) over one motion period (independent of phi).

    The average of cos(z*sin(theta)) over a full period is the Bessel
    function J0(z), here with z = pi/3.
    """
    return float(p.g0 * j0(np.pi / 3.0))


def g0_for_mean_coupling(g_avg: float) -> float:
    """Peak coupling g0 that yields the requested time-averaged coupling."""
    if g_avg < 0:
        raise ValueError("mean coupling must be non-negative")
    return float(g_avg / j0(np.pi / 3.0))


def parse_config(text: str) -> dict[str, float]:
    """Parse the plain-text key=value configuration format.

    Lines starting with '#' (or inline '#' tails) are comments; blank lines
    are ignored.  Unknown keys and non-finite values are rejected.
    """
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            x = float(val.strip())
        except ValueError:
            raise ConfigError(f"line {lineno}: invalid number {val.strip()!r}") from None
        if not math.isfinite(x):
            raise ConfigError(f"line {lineno}: value for {key} must be finite")
        values[key] = x
    return values


def format_config(values: dict[str, float]) -> str:
    """Serialize a configuration dict back to key=value text."""
    for key in values:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown key {key!r}")
    return "\n".join(f"{k}={values[k]:.12g}" for k in CONFIG_KEYS if k in values) + "\n"


def params_from_config(values: dict[str, float]) -> CavityParams:
    """Build CavityParams from configuration values (missing keys default)."""
    kwargs = {}
    for key in ("g0", "kappa_l", "gamma", "T_g", "phi"):
        if key in values:
            kwargs[key] = values[key]
    try:
        return CavityParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v.replace(",", ";").replace("\n", " ")
    if isinstance(v, int):
        return str(v)
    return f"{v:.12g}"


def write_csv(dest, header: str, rows, header_comment: str | None = None) -> None:
    """Write rows of cells under a header line to a file path or to an open
    text stream, preceded by a ``# header_comment`` line when one is given.

    Cells: None is empty, an int is written as is, a float with 12
    significant digits (so identically seeded reruns are byte-identical),
    and a string with ',' replaced by ';' and newlines by spaces.
    """
    if hasattr(dest, "write"):
        ctx = contextlib.nullcontext(dest)
    else:
        ctx = open(dest, "w", encoding="utf-8", newline="\n")
    with ctx as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(v) for v in row) + "\n")

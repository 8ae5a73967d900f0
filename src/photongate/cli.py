"""Command-line front end: reflection runs, gate evaluation, parameter
sweeps, cluster-growth Monte Carlo, verification suites, and figure-data
reproduction as CSV.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical/solver error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .cluster import monte_carlo_growth, write_growth_csv
from .core import (
    CONFIG_KEYS,
    ConfigError,
    default_time_grid,
    g0_for_mean_coupling,
    make_sech_pulse,
    params_from_config,
    parse_config,
    write_csv,
)
from .gate import BranchReflectivities, two_cavity_gate, write_gate_csv
from .reflection import (
    SolverError,
    reflect_bare,
    reflect_coupled,
    reflect_coupled_motion_averaged,
    sweep,
    write_sweep_csv,
)
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ERROR = 3

_DEFAULTS = {
    "g0": 0.0, "kappa_l": 0.0, "gamma": 0.0,
    "T_f": 10.0, "T_g": 50.0, "phi": 0.0,
    "dt": None, "window": None,
}


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _add_param_flags(parser: argparse.ArgumentParser, lists: bool = False) -> None:
    conv = _floats if lists else float
    parser.add_argument("--g0", type=conv, help="peak coupling rate [kappa_c]")
    parser.add_argument("--kappa-l", dest="kappa_l", type=conv,
                        help="unwanted cavity loss rate [kappa_c]")
    parser.add_argument("--gamma", type=conv, help="spontaneous emission rate [kappa_c]")
    parser.add_argument("--Tf", dest="T_f", type=conv, help="pulse width [1/kappa_c]")
    parser.add_argument("--Tg", dest="T_g", type=conv,
                        help="atomic motion period [1/kappa_c]")
    parser.add_argument("--phi", type=float, help="motion phase [rad]")
    parser.add_argument("--dt", type=float, help="integrator step [1/kappa_c]")
    parser.add_argument("--window", type=float,
                        help="half-width of the time window in units of Tf")
    parser.add_argument("--config", help="key=value config file")


def _floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _load_settings(args) -> dict:
    """Merge defaults, config file, and explicit flags (in that precedence)."""
    settings = dict(_DEFAULTS)
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                settings.update(parse_config(fh.read()))
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    for key in CONFIG_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            settings[key] = val
    return settings


def _n_phi(args, default: int) -> int:
    """The --n-phi flag, or ``default`` when it is absent; at least 1, and
    1 for ``--case bare``, which has no motion phase to average over."""
    if args.n_phi is None:
        return default
    if args.n_phi < 1:
        raise ConfigError(f"--n-phi must be at least 1, got {args.n_phi}")
    if args.n_phi > 1 and getattr(args, "case", None) == "bare":
        raise ConfigError(f"--n-phi {args.n_phi} averages over the motion phase; "
                          "--case bare has none")
    return args.n_phi


def _grid_and_pulse(settings: dict, p):
    tf = float(settings["T_f"])
    kwargs = {}
    if settings.get("dt") is not None:
        kwargs["dt"] = float(settings["dt"])
    if settings.get("window") is not None:
        kwargs["window_halfwidth"] = float(settings["window"])
    grid = default_time_grid(tf, p, **kwargs)
    return grid, make_sech_pulse(tf, grid)


def _config_comment(command: str, settings: dict, extra: dict | None = None) -> str:
    items = {k: v for k, v in settings.items() if v is not None}
    if extra:
        items.update(extra)
    body = " ".join(f"{k}={v}" for k, v in sorted(items.items()))
    return f"photongate {__version__} | {command} | {body}"


def cmd_reflect(args) -> int:
    settings = _load_settings(args)
    n_phi = _n_phi(args, 1)
    p = params_from_config(settings)
    grid, f_in = _grid_and_pulse(settings, p)
    if args.case == "bare":
        rec = reflect_bare(p, f_in)
    elif n_phi > 1:
        if args.out:
            raise ConfigError("--out dumps one envelope; a motion average over "
                              f"--n-phi {n_phi} phases has none")
        rec = reflect_coupled_motion_averaged(p, f_in, n_phi)
    else:
        rec = reflect_coupled(p, f_in)
    print(f"case={args.case} T_f={_fmt(float(settings['T_f']))} "
          f"n_steps={grid.n_steps} dt={_fmt(grid.dt)}")
    for name in ("P", "F", "phase", "loss_atom", "loss_cavity"):
        print(f"{name} = {_fmt(getattr(rec, name))}")
    print(f"flux_residual = {_fmt(rec.flux_residual)}")
    if args.out:
        f, fo = f_in.samples, rec.f_out_raw.samples
        write_csv(args.out, "t,f_in_re,f_in_im,f_out_re,f_out_im",
                  zip(grid.times(), f.real, f.imag, fo.real, fo.imag),
                  _config_comment("reflect", settings, {"case": args.case}))
    return EXIT_OK


def cmd_gate(args) -> int:
    out = two_cavity_gate(BranchReflectivities(P0=args.P0, r=args.r))
    print(f"P0={_fmt(args.P0)} r={_fmt(args.r)}")
    for name in ("P_L", "P_R", "P_total", "F_L", "F_R", "F_avg"):
        print(f"{name} = {_fmt(getattr(out, name))}")
    print("psi_L =", " ".join(_fmt(c.real) for c in out.psi_L.coefficients))
    print("psi_R =", " ".join(_fmt(c.real) for c in out.psi_R.coefficients))
    print("psi_R_raw =", " ".join(_fmt(c.real) for c in out.psi_R_raw.coefficients))
    return EXIT_OK


def cmd_sweep(args) -> int:
    settings = _load_settings(args)
    n_phi = _n_phi(args, 1)
    if settings["window"] is not None:
        raise ConfigError("sweep always uses the default window; "
                          "drop window from the flags and the config file")

    def rng_of(key):
        val = settings[key]
        return val if isinstance(val, list) else [float(val)]

    rows = sweep(
        args.case,
        g0_values=rng_of("g0"),
        kappa_l_values=rng_of("kappa_l"),
        gamma_values=rng_of("gamma"),
        T_f_values=rng_of("T_f"),
        T_g_values=rng_of("T_g"),
        n_phi=n_phi,
        dt=settings.get("dt"),
    )
    comment = _config_comment("sweep", settings, {"case": args.case, "n_phi": n_phi})
    if args.out:
        write_sweep_csv(rows, args.out, comment)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        write_sweep_csv(rows, sys.stdout, comment)
    bad = [r for r in rows if r.error]
    if bad:
        print(f"{len(bad)} rows failed", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    return EXIT_OK


def cmd_cluster(args) -> int:
    stats = monte_carlo_growth(args.P, args.m, args.trials, seed=args.seed)
    law = (3.0 * args.P - 2.0) * args.m
    print(f"P={_fmt(args.P)} m={args.m} trials={args.trials} seed={args.seed}")
    print(f"mean_delta = {_fmt(stats.mean_delta)}")
    print(f"std_err = {_fmt(stats.std_err)}")
    print(f"(3P-2)m = {_fmt(law)}")
    print(f"floor_hits = {stats.floor_hits}")
    if args.out:
        comment = _config_comment("cluster", {"P": args.P, "m": args.m,
                                              "trials": args.trials, "seed": args.seed})
        write_growth_csv([stats], args.out, comment)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    suites = sorted(SUITES) if args.suite == "all" else [args.suite]
    results = [res for name in suites for res in run_suite(name)]
    failed = 0
    for res in results:
        print(res.line())
        failed += not res.ok
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


# Figure-data parameter grids.
FIG2_TF = (10.0, 20.0, 30.0, 50.0, 70.0)
FIG2_KL = tuple(round(0.05 * k, 2) for k in range(7))  # 0 .. 0.3
FIG3_COMBOS = tuple(
    (tf, tg, kl) for tf in (10.0, 50.0) for tg in (50.0, 125.0) for kl in (0.0, 0.2)
)
FIG3_GAVG = tuple(0.5 * k for k in range(1, 11))  # 0.5 .. 5.0
FIG5_R = tuple(round(0.05 * k, 2) for k in range(81))  # 0 .. 4


def cmd_figures(args) -> int:
    n_phi = _n_phi(args, 16)
    if args.which == "fig2":
        rows = []
        for tf in FIG2_TF:
            rows.extend(sweep("bare", kappa_l_values=FIG2_KL, T_f_values=[tf]))
        write, comment = write_sweep_csv, _config_comment(
            "figures fig2", {"T_f": list(FIG2_TF), "kappa_l": list(FIG2_KL)})
    elif args.which == "fig3":
        rows = []
        for tf, tg, kl in FIG3_COMBOS:
            rows.extend(sweep(
                "coupled",
                g0_values=[g0_for_mean_coupling(g) for g in FIG3_GAVG],
                kappa_l_values=[kl], gamma_values=[1.0],
                T_f_values=[tf], T_g_values=[tg], n_phi=n_phi,
            ))
        write, comment = write_sweep_csv, _config_comment(
            "figures fig3",
            {"gamma": 1.0, "n_phi": n_phi, "g_avg": list(FIG3_GAVG),
             "note": "g_avg = g0 * J0(pi/3)"})
    else:  # fig5
        P0 = args.P0 if args.P0 is not None else 1.0
        rows = [(P0, r, two_cavity_gate(BranchReflectivities(P0=P0, r=r)))
                for r in FIG5_R]
        write, comment = write_gate_csv, _config_comment("figures fig5", {"P0": P0})
    # the directory is made only once the rows exist, so bad input leaves none
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{args.which}.csv")
    write(rows, path, comment)
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photongate",
        description="Cavity-mediated photon gate and cluster-growth simulator",
    )
    parser.add_argument("--version", action="version", version=f"photongate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_reflect = sub.add_parser("reflect", help="single reflection run")
    p_reflect.add_argument("--case", required=True, choices=("bare", "coupled"))
    p_reflect.add_argument("--n-phi", dest="n_phi", type=int,
                           help="phi-average the coupled case over this many phases")
    p_reflect.add_argument("--out", help="optional envelope dump (CSV)")
    _add_param_flags(p_reflect)
    p_reflect.set_defaults(func=cmd_reflect)

    p_gate = sub.add_parser("gate", help="closed-form two-cavity gate outcome")
    p_gate.add_argument("--P0", type=float, required=True)
    p_gate.add_argument("--r", type=float, required=True)
    p_gate.set_defaults(func=cmd_gate)

    p_sweep = sub.add_parser("sweep", help="Cartesian parameter sweep to CSV")
    p_sweep.add_argument("--case", required=True, choices=("bare", "coupled"))
    p_sweep.add_argument("--n-phi", dest="n_phi", type=int)
    p_sweep.add_argument("--out", help="output CSV path (default: stdout)")
    _add_param_flags(p_sweep, lists=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_cluster = sub.add_parser("cluster", help="Monte Carlo cluster growth")
    p_cluster.add_argument("--P", type=float, required=True,
                           help="per-attempt success probability")
    p_cluster.add_argument("--m", type=int, default=10_000)
    p_cluster.add_argument("--trials", type=int, default=200)
    p_cluster.add_argument("--seed", type=int, default=0)
    p_cluster.add_argument("--out", help="output CSV path")
    p_cluster.set_defaults(func=cmd_cluster)

    p_verify = sub.add_parser("verify", help="run an invariant suite")
    p_verify.add_argument(
        "suite", choices=("all", "flux", "oracle", "recovery", "growth", "twosided")
    )
    p_verify.set_defaults(func=cmd_verify)

    p_fig = sub.add_parser("figures", help="emit figure-reproduction CSV data")
    p_fig.add_argument("which", choices=("fig2", "fig3", "fig5"))
    p_fig.add_argument("--out", default=".", help="output directory")
    p_fig.add_argument("--n-phi", dest="n_phi", type=int)
    p_fig.add_argument("--P0", type=float)
    p_fig.set_defaults(func=cmd_figures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError, WindowTooSmallError, domain checks
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except SolverError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: seeded op lists, how one op runs, and what it
returns.

The seed only draws each op's parameters inside fixed strata, one op per
stratum, so the op count of a pass is fixed and its integration work
(steps times trajectories) moves by a few percent at most between seeds.
Every op calls only public functions, looked up on the module at call time
so that a tracer installed on the module sees the call.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from photongate import cli, cluster, core, gate

N_PHI = 16
GROWTH_M = 10_000
GROWTH_TRIALS_CLI = 200
GROWTH_TRIALS_FLOORED = 1000
GROWTH_FLOORED_START = 10

#: Largest T_f * g0 that still lets the pulse, not the coupling, set the
#: step (dt = T_f/2000), so every gate op has the same 32,001-point grid.
GATE_MAX_TF_G0 = 99.0


@dataclass(frozen=True)
class Workload:
    name: str
    op: str
    strata: tuple
    draw: Callable  # (rng, stratum) -> op parameters (JSON-able dict)
    grid_and_pulse: Callable  # op -> (grid, pulse), the set-up of one op
    run: Callable  # (op, path, lap) -> raw result; the timed part, which
    # calls lap() between its steps so each step is timed on its own
    collect: Callable  # (op, path, raw) -> output dict; untimed

    def ops(self, seed: int) -> list[dict]:
        rng = np.random.default_rng(seed)
        return [self.draw(rng, stratum) for stratum in self.strata]


def _read_csv_row(path) -> dict:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    if len(rows) != 1:
        raise ValueError(f"{path}: expected one row, got {len(rows)}")
    return rows[0]


def _uniform(rng, lo_hi) -> float:
    lo, hi = lo_hi
    return float(rng.uniform(lo, hi))


# --- bare_sweep ---------------------------------------------------------

_FIG2_TF_CELLS = ((10.0, 15.0), (15.0, 25.0), (25.0, 40.0), (40.0, 60.0), (60.0, 70.0))
_FIG2_KL_CELLS = ((0.0, 0.025),) + tuple(
    (round(0.05 * k - 0.025, 3), round(min(0.05 * k + 0.025, 0.3), 3)) for k in range(1, 7)
)


def _draw_bare(rng, stratum) -> dict:
    return {"T_f": _uniform(rng, stratum["T_f"]), "kappa_l": _uniform(rng, stratum["kappa_l"])}


def _bare_params(op) -> core.CavityParams:
    return core.CavityParams(kappa_l=op["kappa_l"])


def _bare_grid_and_pulse(op):
    grid = core.default_time_grid(op["T_f"], _bare_params(op))
    return grid, core.make_sech_pulse(op["T_f"], grid)


def _run_bare(op, path, lap):
    return cli.main(["sweep", "--case", "bare", "--Tf", repr(op["T_f"]),
                     "--kappa-l", repr(op["kappa_l"]), "--out", str(path)])


def _collect_sweep(op, path, rc) -> dict:
    row = _read_csv_row(path)
    out = {"rc": rc, "error": row["error"], "csv_bytes": os.path.getsize(path)}
    if not row["error"]:
        for key in ("P", "F", "phase", "loss_atom", "loss_cavity"):
            out[key] = float(row[key])
    return out


# --- coupled_avg --------------------------------------------------------


def _draw_coupled(rng, stratum) -> dict:
    g_avg = _uniform(rng, stratum["g_avg"])
    return {
        "T_f": stratum["T_f"], "T_g": stratum["T_g"], "g_avg": g_avg,
        "g0": core.g0_for_mean_coupling(g_avg), "gamma": 1.0,
        "kappa_l": _uniform(rng, stratum["kappa_l"]),
    }


def _coupled_params(op) -> core.CavityParams:
    return core.CavityParams(g0=op["g0"], kappa_l=op["kappa_l"], gamma=op["gamma"],
                             T_g=op["T_g"])


def _coupled_grid_and_pulse(op):
    grid = core.default_time_grid(op["T_f"], _coupled_params(op))
    return grid, core.make_sech_pulse(op["T_f"], grid)


def _run_coupled(op, path, lap):
    return cli.main(["sweep", "--case", "coupled", "--n-phi", str(N_PHI),
                     "--g0", repr(op["g0"]), "--gamma", repr(op["gamma"]),
                     "--Tf", repr(op["T_f"]), "--Tg", repr(op["T_g"]),
                     "--kappa-l", repr(op["kappa_l"]), "--out", str(path)])


# --- gate_chain ---------------------------------------------------------


def _draw_gate(rng, stratum) -> dict:
    T_f = _uniform(rng, stratum["T_f"])
    g_lo, g_hi = stratum["g_avg"]
    # keep T_f * g0 <= GATE_MAX_TF_G0 so the step is the pulse's, T_f/2000
    g_hi = min(g_hi, GATE_MAX_TF_G0 / T_f / core.g0_for_mean_coupling(1.0))
    nodes = []
    for _ in range(2):
        g_avg = float(rng.uniform(g_lo, g_hi))
        nodes.append({
            "g_avg": g_avg, "g0": core.g0_for_mean_coupling(g_avg), "gamma": 1.0,
            "kappa_l": _uniform(rng, stratum["kappa_l"]),
            "T_g": float(rng.choice(stratum["T_g"])),
        })
    return {"T_f": T_f, "A": nodes[0], "B": nodes[1],
            "growth_seed": int(rng.integers(2**31))}


def _node(params: dict) -> core.CavityParams:
    return core.CavityParams(g0=params["g0"], kappa_l=params["kappa_l"],
                             gamma=params["gamma"], T_g=params["T_g"])


def _gate_grid_and_pulse(op):
    fastest = max((_node(op["A"]), _node(op["B"])), key=lambda p: p.g0)
    grid = core.default_time_grid(op["T_f"], fastest)
    return grid, core.make_sech_pulse(op["T_f"], grid)


def _run_gate(op, path, lap) -> dict:
    grid, f_in = _gate_grid_and_pulse(op)
    sim = gate.gate_from_simulation(_node(op["A"]), _node(op["B"]), f_in)
    lap()
    rc = cli.main(["cluster", "--P", repr(sim.P_total), "--m", str(GROWTH_M),
                   "--trials", str(GROWTH_TRIALS_CLI), "--seed", str(op["growth_seed"]),
                   "--out", str(path)])
    lap()
    floored = cluster.monte_carlo_growth(
        sim.P_total, m=GROWTH_M, n_trials=GROWTH_TRIALS_FLOORED,
        seed=op["growth_seed"], start_length=GROWTH_FLOORED_START,
    )
    return {"rc": rc, "n_steps": grid.n_steps, "sim": sim, "floored": floored}


def _collect_gate(op, path, raw) -> dict:
    sim, floored = raw["sim"], raw["floored"]
    row = _read_csv_row(path)
    out = {"rc": raw["rc"], "error": "", "csv_bytes": os.path.getsize(path),
           "n_steps": raw["n_steps"]}
    for key in ("P_L", "P_R", "P_total", "F_L", "F_R", "F_avg", "P0", "P1"):
        out[key] = float(getattr(sim, key))
    out["growth"] = {k: row[k] for k in ("P", "m", "n_trials", "seed",
                                         "mean_delta", "std_err", "floor_hits")}
    out["floored"] = {"P": floored.P, "m": floored.m, "n_trials": floored.n_trials,
                      "seed": floored.seed, "start_length": GROWTH_FLOORED_START,
                      "mean_delta": floored.mean_delta, "std_err": floored.std_err,
                      "floor_hits": floored.floor_hits}
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bare_sweep",
            op='cli.main(["sweep", "--case", "bare", "--Tf", T_f, "--kappa-l", '
               'kappa_l, "--out", csv]): one fig2 row, one k=1 trajectory of '
               '32,001 points',
            strata=tuple({"T_f": tf, "kappa_l": kl}
                         for tf in _FIG2_TF_CELLS for kl in _FIG2_KL_CELLS),
            draw=_draw_bare,
            grid_and_pulse=_bare_grid_and_pulse,
            run=_run_bare,
            collect=_collect_sweep,
        ),
        Workload(
            name="coupled_avg",
            op='cli.main(["sweep", "--case", "coupled", "--n-phi", "16", "--g0", g0, '
               '"--gamma", "1", "--Tf", T_f, "--Tg", T_g, "--kappa-l", kappa_l, '
               '"--out", csv]) with g0 = g0_for_mean_coupling(g_avg): one fig3 row',
            # T_f = 10 ops and the low-g T_f = 50 op all have 32,001 points;
            # in the two narrow T_f = 50 strata (the top one included) g0 sets
            # the step, so those ops' cost moves by up to 6%, a pass's by < 3%
            strata=(
                {"T_f": 10.0, "T_g": 50.0, "g_avg": (0.5, 2.0), "kappa_l": (0.0, 0.2)},
                {"T_f": 10.0, "T_g": 125.0, "g_avg": (2.0, 3.5), "kappa_l": (0.0, 0.2)},
                {"T_f": 50.0, "T_g": 125.0, "g_avg": (0.5, 1.45), "kappa_l": (0.0, 0.2)},
                {"T_f": 50.0, "T_g": 50.0, "g_avg": (2.6, 2.75), "kappa_l": (0.0, 0.2)},
                {"T_f": 50.0, "T_g": 125.0, "g_avg": (4.85, 5.0), "kappa_l": (0.0, 0.2)},
            ),
            draw=_draw_coupled,
            grid_and_pulse=_coupled_grid_and_pulse,
            run=_run_coupled,
            collect=_collect_sweep,
        ),
        Workload(
            name="gate_chain",
            op="gate_from_simulation(pA, pB, sech pulse); then cli.main(['cluster', "
               "'--P', P_total, '--m', '10000', '--trials', '200', ...]) from the "
               "default start; then monte_carlo_growth(P_total, m=10000, "
               "n_trials=1000, start_length=10), the floored walk",
            # T_g is drawn from the two values, the others uniformly in range
            strata=({"T_f": (10.0, 30.0), "g_avg": (2.0, 5.0), "kappa_l": (0.0, 0.1),
                     "T_g": (50.0, 125.0), "max_T_f_g0": GATE_MAX_TF_G0},),
            draw=_draw_gate,
            grid_and_pulse=_gate_grid_and_pulse,
            run=_run_gate,
            collect=_collect_gate,
        ),
    )
}


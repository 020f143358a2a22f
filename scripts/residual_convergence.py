#!/usr/bin/env python3
"""Refinement study for the three absolute residuals.

Evolves a chirped Gaussian in a locally linear potential on a ladder of
(dx, dt) -> (dx/2, dt/4) refinements and prints the measured orders.
"""

import argparse
from dataclasses import replace

import numpy as np

from absqm.absolute import mass_shell_norm, residual_continuity, residual_force
from absqm.errors import ContractViolationError
from absqm.numerics import Grid, derivative, whole_steps
from absqm.schrodinger import evolve, free_processes
from absqm.states import flat_force_potential, gaussian_packet


def residual_triplet(n: int, dt: float, e0: float, t_final: float):
    g = Grid(-20.0, 20.0, n)
    a0, _ = flat_force_potential(g, e0)
    w0 = replace(gaussian_packet(g, sigma=1.5, momentum=0.6, chirp=0.1), a0=a0)
    procs = free_processes(evolve(w0, dt, t_final, snapshot_every=5))
    return (
        float(np.median(mass_shell_norm(procs[1:-1]))),
        float(np.median(residual_continuity(procs).values)),
        float(np.median(residual_force(procs, derivative(a0, g, 1)).values)),
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, default=3)
    ap.add_argument("--n0", type=int, default=256)
    ap.add_argument("--dt0", type=float, default=0.02)
    ap.add_argument("--e0", type=float, default=0.05)
    ap.add_argument("--t-final", type=float, default=0.5)
    return ap


def main() -> None:
    ap = build_parser()
    args = ap.parse_args()
    steps = [args.dt0 / 4**level for level in range(args.levels)]
    for dt in steps:
        try:
            whole_steps(args.t_final, dt)
        except ContractViolationError as exc:
            ap.error(f"--t-final {args.t_final:g} with --dt0 {args.dt0:g}: {exc}")

    names = ("mass_shell", "continuity", "force")
    prev = None
    print(f"{'n':>6} {'dt':>10} " + " ".join(f"{s:>12}" for s in names))
    for level, dt in enumerate(steps):
        n = args.n0 * 2**level
        res = residual_triplet(n, dt, args.e0, args.t_final)
        line = f"{n:>6} {dt:>10.2e} " + " ".join(f"{r:>12.3e}" for r in res)
        if prev is not None:
            orders = [np.log(p / r) / np.log(4.0) for p, r in zip(prev, res)]
            line += "   orders: " + ", ".join(f"{o:.2f}" for o in orders)
        print(line)
        prev = res


if __name__ == "__main__":
    main()

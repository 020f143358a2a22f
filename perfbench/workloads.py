"""Workload definitions shared by the runner, the child and the reference recorder.

Each workload is a list of absqm CLI commands run back to back in one child
process.  A command is (name, config file under configs/, seeded), where
`seeded` says whether the command draws its inputs from `--seed`; the others
give the same artifacts for every seed and have one reference.
"""

from __future__ import annotations

from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = HERE / "configs"
REFERENCE = HERE / "reference"

WORKLOADS = {
    # damped RK4 in (rho, j): ~85% numerics.derivative FFTs under
    # dissipative._rhs; the wave-side layers do nothing here
    "damped": [("dissipative", "damped.yaml", False)],
    # periodic Strang steps + extract_absolute + residuals + moments + CSVs
    "wave": [("simulate", "wave.yaml", True)],
    # same command and layer as `wave`, but the dense LU stepper and FD path
    "dirichlet": [("simulate", "dirichlet.yaml", False)],
    # the only workload where aharonov_bohm, kleingordon, states and the
    # process geometry do the work
    "survey": [
        ("ab-sweep", "survey-ab-sweep.yaml", False),
        ("kg-limit", "survey-kg-limit.yaml", False),
        ("check", "survey-check.yaml", True),
    ],
}

# Seconds one sample takes on the baseline host in its slower spells, child
# start included.  A run of --seconds s makes s // SAMPLE_S samples (at least
# one), so how much it attempts, and how many of its checks fail, never
# depends on how fast the host happens to be.
SAMPLE_S = {"damped": 16.0, "wave": 3.8, "dirichlet": 7.5, "survey": 3.5}

# CLI seeds come from a finite pool so that every seeded artifact has a
# recorded reference.  A run of n samples walks the first min(n, SEED_POOL)
# seeds of the pool once each, starting at --seed: every run meets the same
# inputs, so a seed-dependent known defect fails as often in every run.
SEED_POOL = 32

# Seeds of the committed baseline, and one seed kept out of all tuning.  With
# the pool walk above a seed sets the order in which a run meets its inputs
# (and so which input each sample's host state falls on), not the inputs.
BASELINE_SEEDS = tuple(range(1, 11))
HELD_OUT_SEED = 4049

# BLAS threads for every child, fixed so that runs compare.  One, because a
# second OpenBLAS thread widened the dirichlet (dense LU) spread between runs
# from 3% to 23% in the measurements this benchmark was designed from.
BLAS_THREADS = 1


def samples(workload: str, seconds: float) -> int:
    return max(1, int(seconds // SAMPLE_S[workload]))


def cli_seed(seed: int, index: int, n_samples: int) -> int:
    return (seed + index) % min(n_samples, SEED_POOL)

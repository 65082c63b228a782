"""A seeded corpus of `exact` problems, half normal-range and half extreme.

Each seed draws a sequence of batches of 1 to 4 rows that share K, from
{1, 2, 8, 64}. Every row has its own counts M_k in [1, 256] and average
pilot power p_avg = 10^U(-4, 0) W. Even batches are normal-range:
beta^2 = 10^U(-12, -8) and sigma_z^2 = 10^U(-16, -8) W. Odd batches are
extreme: beta^2 = 10^U(-40, 40), and on every third batch also
sigma_z^2 = 10^U(-30, 30) W. A batch's draws depend only on its seed and
index, so a prefix of the corpus is the corpus at a smaller count.

Run as a script, it solves the corpus, prints its counts (rows, certified,
uncertified, and the uncertified rows that ran to the step cap) and exits
1 if a normal-range row is uncertified:

    PYTHONPATH=src python tests/solver_corpus.py [batches per seed]
"""
from __future__ import annotations

import sys
from typing import Iterator, NamedTuple

import numpy as np

from rispilot.allocation import _MAX_ITER, ExactSolution, solve_exact

SEEDS = (7, 99)
KS = (1, 2, 8, 64)


class Batch(NamedTuple):
    """solve_exact's four arguments, and whether the batch is extreme."""

    beta_sq: np.ndarray
    counts: np.ndarray
    p_avg: np.ndarray
    sigma_z_sq: np.ndarray
    extreme: bool


def batches(seed: int, count: int) -> Iterator[Batch]:
    """The first count batches of seed's corpus."""
    for index in range(count):
        gen = np.random.Generator(np.random.Philox(key=[seed, index]))
        rows, k = int(gen.integers(1, 5)), KS[int(gen.integers(len(KS)))]
        extreme = index % 2 == 1
        beta_exp = (-40.0, 40.0) if extreme else (-12.0, -8.0)
        sigma_exp = (-30.0, 30.0) if extreme and index % 3 == 0 else (-16.0, -8.0)
        yield Batch(
            beta_sq=10.0 ** gen.uniform(*beta_exp, (rows, k)),
            counts=gen.integers(1, 257, (rows, k)),
            p_avg=10.0 ** gen.uniform(-4.0, 0.0, rows),
            sigma_z_sq=10.0 ** gen.uniform(*sigma_exp, rows),
            extreme=extreme,
        )


def solved(count: int) -> Iterator[tuple[Batch, ExactSolution]]:
    """Each of the first count batches of every seed, with solve_exact's answer."""
    for seed in SEEDS:
        for batch in batches(seed, count):
            yield batch, solve_exact(*batch[:4])


def _summary(count: int) -> tuple[str, int]:
    """The corpus counts, and how many normal-range rows are uncertified."""
    rows = certified = normal_lost = at_cap = 0
    for batch, sol in solved(count):
        rows += sol.certified.size
        certified += int(np.count_nonzero(sol.certified))
        normal_lost += 0 if batch.extreme else int(np.count_nonzero(~sol.certified))
        at_cap += int(np.count_nonzero(~sol.certified & (sol.iterations == _MAX_ITER)))
    return (f"{count} batches per seed: {rows} rows, {certified} certified, "
            f"{rows - certified} uncertified ({normal_lost} of them normal-range, "
            f"{at_cap} stopped at the {_MAX_ITER}-step cap)"), normal_lost


if __name__ == "__main__":
    line, normal_lost = _summary(int(sys.argv[1]) if len(sys.argv) > 1 else 500)
    print(line)
    sys.exit(1 if normal_lost else 0)

"""Latin hypercube sampling over design boxes.

Plain stratified LHS: each variable's range is cut into n equal strata, one
sample lands uniformly inside each stratum, and a seeded permutation assigns
strata to rows.  The same generator samples full design spaces and the
reduced boxes picked out by mined rules.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .atomic import atomic_open
from .errors import InvalidParameterError
from .rules import Rule

__all__ = [
    "SamplingPlan",
    "lhs",
    "lhs_in_rule",
    "sample_count_heuristic",
    "save_samples",
    "GENERATOR",
]

#: The seeded generator behind every sampling call, recorded in run metadata.
GENERATOR = "numpy.random.Generator(PCG64)"


@dataclass(frozen=True)
class SamplingPlan:
    """Bounds per variable, the sample count, and the generator seed."""

    bounds: tuple
    n: int
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParameterError("sample count must be >= 1")
        for lo, hi in self.bounds:
            if not lo < hi:
                raise InvalidParameterError(f"bounds not ordered: [{lo}, {hi}]")


def lhs(plan: SamplingPlan) -> np.ndarray:
    """n-by-k Latin hypercube sample: per variable, exactly one point per
    stratum, uniformly placed, strata shuffled by the seeded generator."""
    rng = np.random.default_rng(plan.seed)
    n = plan.n
    out = np.empty((n, len(plan.bounds)))
    for j, (lo, hi) in enumerate(plan.bounds):
        strata = rng.permutation(n)
        offsets = rng.random(n)
        out[:, j] = lo + (strata + offsets) * (hi - lo) / n
    return out


def lhs_in_rule(rule: Rule, n: int, seed: int = 0) -> np.ndarray:
    """LHS restricted to a rule's box; every sample satisfies the rule."""
    return lhs(SamplingPlan(tuple(zip(rule.lower, rule.upper)), n, seed))


def sample_count_heuristic(k: int) -> int:
    """Advisory minimum number of design instances for k variables (3k)."""
    if k < 1:
        raise InvalidParameterError("variable count must be >= 1")
    return 3 * k


def save_samples(path, names: Sequence[str], samples: np.ndarray) -> None:
    """Write samples as a dataset-format CSV without the label column."""
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for row in np.asarray(samples):
            writer.writerow([repr(float(v)) for v in row])

"""Branch enumeration, interval design rules, and reliability screening.

A root-to-leaf path is a conjunction of threshold constraints, i.e. a box in
design space.  Branches are scored by ACC (the leaf's dominant-label
probability) and CTT (correctly classified target mass over total training
mass, a coverage/robustness measure), and the most robust sufficiently-pure
branch becomes the design rule.  Candidate designs are screened by their
predicted label probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    EmptyDatasetError,
    InconsistentBranchError,
    IngestionError,
    InvalidParameterError,
    SelectionError,
)
from .tree import UncertainTree, LeafNode, classify_batch, route
from .uncertain import Dataset, LabelCriteria, UncertainTuple, dataset_mass

__all__ = [
    "Branch",
    "Rule",
    "BranchScore",
    "ScreenedDesign",
    "PipelineConfig",
    "enumerate_branches",
    "branch_to_rule",
    "branch_ctt",
    "score_branches",
    "select_branch",
    "screen_designs",
    "rules_payload",
    "rule_from_payload",
]


@dataclass(frozen=True)
class Branch:
    """One root-to-leaf path: ordered (attr, relation, threshold) constraints
    plus the leaf it ends in.  Relations are '<=' (left) and '>' (right)."""

    id: str
    path: tuple
    leaf: LeafNode

    @property
    def lp(self) -> dict:
        return self.leaf.lp

    @property
    def mass(self) -> float:
        return self.leaf.mass

    @property
    def dominant(self) -> str:
        return self.leaf.dominant

    @property
    def number(self) -> int:
        return int(self.id[1:])


@dataclass(frozen=True)
class Rule:
    """A per-attribute box intersected from a branch path and the global
    design bounds, with the branch's quality metrics attached."""

    attribute_names: tuple
    lower: tuple
    upper: tuple
    label: str
    acc: float
    ctt: float
    branch_id: str

    def __post_init__(self):
        for name, lo, hi in zip(self.attribute_names, self.lower, self.upper):
            if not lo < hi:
                raise InconsistentBranchError(f"empty interval for {name!r}: [{lo}, {hi}]")

    def box(self) -> dict:
        return {
            name: (lo, hi)
            for name, lo, hi in zip(self.attribute_names, self.lower, self.upper)
        }

    def contains(self, x: Sequence[float]) -> bool:
        return all(lo <= v <= hi for v, lo, hi in zip(x, self.lower, self.upper))


@dataclass(frozen=True)
class BranchScore:
    branch: Branch
    acc: float
    ctt: float


@dataclass(frozen=True)
class ScreenedDesign:
    id: object
    lp: dict
    rank: int


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the mining workflow needs about one design problem: global
    variable bounds, the label to aim for, the purity threshold for rule
    selection, the labelling thresholds, and the tree depth cap."""

    variable_names: tuple
    lower: tuple
    upper: tuple
    criteria: Optional[LabelCriteria] = None
    target_label: str = "g"
    lp_threshold: float = 0.85
    max_layers: int = 6

    def __post_init__(self):
        for name, lo, hi in zip(self.variable_names, self.lower, self.upper):
            if not lo < hi:
                raise InvalidParameterError(f"bounds for {name!r} not ordered: [{lo}, {hi}]")
        if not 0.0 < self.lp_threshold <= 1.0:
            raise InvalidParameterError("lp threshold must be in (0, 1]")

    def bounds(self) -> list:
        return list(zip(self.lower, self.upper))


def enumerate_branches(tree: UncertainTree) -> list:
    """All branches in left-to-right leaf order, ids b1, b2, ..."""
    branches = []

    def walk(node, path):
        if isinstance(node, LeafNode):
            branches.append(Branch(f"b{len(branches) + 1}", tuple(path), node))
            return
        walk(node.left, path + [(node.attr, "<=", node.threshold)])
        walk(node.right, path + [(node.attr, ">", node.threshold)])

    walk(tree.root, [])
    return branches


def branch_to_rule(
    branch: Branch,
    attribute_names: Sequence[str],
    bounds: Sequence,
    ctt: float = float("nan"),
) -> Rule:
    """Intersect the branch constraints with the global bounds.

    '<=' tightens the upper edge of the attribute interval, '>' the lower
    edge; attributes the path never tests keep their global bounds.
    """
    lower = [lo for lo, _ in bounds]
    upper = [hi for _, hi in bounds]
    for attr, rel, threshold in branch.path:
        if rel == "<=":
            upper[attr] = min(upper[attr], threshold)
        else:
            lower[attr] = max(lower[attr], threshold)
    for name, lo, hi in zip(attribute_names, lower, upper):
        if not lo < hi:
            raise InconsistentBranchError(
                f"branch {branch.id} intersects to an empty interval on {name!r}"
            )
    return Rule(
        tuple(attribute_names),
        tuple(lower),
        tuple(upper),
        branch.dominant,
        branch.lp[branch.dominant],
        ctt,
        branch.id,
    )


def _leaf_ctt(tree: UncertainTree, d_origin: Dataset, targets) -> dict:
    """CTT of every leaf whose dominant label is in ``targets``, keyed by
    ``id(leaf)``: the samples labelled with a target are routed in one batch,
    and each leaf adds up the arriving masses of those labelled with its
    dominant label in ``d_origin`` order (``cumsum`` adds in row order)."""
    total = dataset_mass(d_origin)
    if total <= 0.0:
        raise EmptyDatasetError("CTT undefined on a zero-mass dataset")
    routed = [t for t in d_origin.tuples if t.label in targets]
    labels = np.array([t.label for t in routed], dtype=object)
    hits = ((leaf, mass[labels[pos] == leaf.dominant]) for leaf, pos, mass in route(tree, routed))
    return {id(leaf): float(hit.cumsum()[-1]) / total for leaf, hit in hits if len(hit)}


def branch_ctt(tree: UncertainTree, branch: Branch, d_origin: Dataset) -> float:
    """Training mass of target-labelled samples reaching this leaf, relative
    to the whole training dataset."""
    return _leaf_ctt(tree, d_origin, {branch.dominant}).get(id(branch.leaf), 0.0)


def score_branches(
    tree: UncertainTree, d_origin: Dataset, target_label: Optional[str] = None
) -> list:
    """ACC/CTT table for the tree's branches (optionally only those whose
    dominant label is the target)."""
    branches = [
        b for b in enumerate_branches(tree) if target_label is None or b.dominant == target_label
    ]
    ctt = _leaf_ctt(tree, d_origin, {b.dominant for b in branches})
    return [BranchScore(b, b.lp[b.dominant], ctt.get(id(b.leaf), 0.0)) for b in branches]


def select_branch(scores: Sequence[BranchScore], target_label: str, lp_threshold: float):
    """Most robust qualifying branch: among branches dominated by the target
    label with lp(target) at or above the threshold, pick maximum CTT; ties go
    to higher target probability, then the lowest branch id."""
    qualifying = [
        s
        for s in scores
        if s.branch.dominant == target_label and s.branch.lp[target_label] >= lp_threshold
    ]
    if not qualifying:
        raise SelectionError(
            f"no branch is dominated by {target_label!r} with lp >= {lp_threshold}; "
            "lower the threshold or grow a deeper tree"
        )
    return max(
        qualifying,
        key=lambda s: (s.ctt, s.branch.lp[target_label], -s.branch.number),
    )


def screen_designs(
    tree: UncertainTree,
    designs: Sequence[UncertainTuple],
    target_label: str,
    top_k: int,
) -> list:
    """Rank designs by predicted target-label probability and keep the top k.

    Ties are broken by ascending design id; the returned records carry the
    full label-probability vectors.
    """
    if target_label not in tree.label_set:
        raise InvalidParameterError(
            f"target label {target_label!r} is not one of the tree's labels {list(tree.label_set)}"
        )
    if top_k > len(designs):
        raise InvalidParameterError(f"top_k={top_k} exceeds {len(designs)} designs")
    lp = classify_batch(tree, designs)
    target = lp[:, tree.label_set.index(target_label)].tolist()
    order = sorted(range(len(designs)), key=lambda i: (-target[i], designs[i].id))
    return [
        ScreenedDesign(designs[i].id, dict(zip(tree.label_set, lp[i].tolist())), rank)
        for rank, i in enumerate(order[:top_k], start=1)
    ]


def rules_payload(
    tree: UncertainTree,
    d_origin: Dataset,
    bounds: Sequence,
    target_label: str,
    lp_threshold: float,
) -> dict:
    """JSON-ready rule report: every target branch with its ACC/CTT and box,
    plus the selected branch id.

    Branches whose box intersects the global bounds to an empty set (their
    region lies entirely in the uncertainty fringe outside the declared
    design space) are dropped; selection runs over the remaining branches.
    """
    kept = []
    for s in score_branches(tree, d_origin, target_label):
        try:
            rule = branch_to_rule(s.branch, tree.attribute_names, bounds, s.ctt)
        except InconsistentBranchError:
            continue
        kept.append((s, rule))
    selected = select_branch([s for s, _ in kept], target_label, lp_threshold)
    branches = [
        {
            "id": s.branch.id,
            "acc": s.acc,
            "ctt": s.ctt,
            "mass": s.branch.mass,
            "box": {name: list(iv) for name, iv in rule.box().items()},
        }
        for s, rule in kept
    ]
    return {
        "target": target_label,
        "theta": lp_threshold,
        "branches": branches,
        "selected": selected.branch.id,
    }


def _finite_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def rule_from_payload(payload: dict, branch_id: Optional[str] = None) -> Rule:
    """Rebuild the (selected) rule box from a rules JSON payload.

    A payload without ``target``, a ``branches`` list or ``selected``, a
    ``selected`` id that no branch has, or a chosen branch without ``acc``,
    ``ctt`` and a box of ordered ``[lo, hi]`` finite numbers raises
    ``IngestionError`` naming the branch.  A requested ``branch_id`` that no
    branch has raises ``InvalidParameterError``.
    """
    keys = ("target", "branches") + (() if branch_id else ("selected",))
    missing = [key for key in keys if key not in payload] if isinstance(payload, dict) else keys
    if missing:
        raise IngestionError(f"rules payload has no {', '.join(map(repr, missing))}")
    if not isinstance(payload["branches"], list):
        raise IngestionError("rules payload: 'branches' is not a list")
    wanted = branch_id or payload["selected"]
    entry = next(
        (e for e in payload["branches"] if isinstance(e, dict) and e.get("id") == wanted), None
    )
    if entry is None:
        if branch_id:
            raise InvalidParameterError(f"branch {wanted!r} not present in rules payload")
        raise IngestionError(f"selected branch {wanted!r} not present in rules payload")
    box = entry.get("box")
    if not isinstance(box, dict) or not box:
        raise IngestionError(f"branch {wanted!r}: 'box' is not a non-empty object")
    for name, iv in box.items():
        if not (isinstance(iv, (list, tuple)) and len(iv) == 2 and all(map(_finite_number, iv))):
            raise IngestionError(
                f"branch {wanted!r}: box of {name!r} is {iv!r}, not [lo, hi] numbers"
            )
    try:
        return Rule(
            tuple(box),
            tuple(lo for lo, _ in box.values()),
            tuple(hi for _, hi in box.values()),
            payload["target"],
            entry["acc"],
            entry["ctt"],
            wanted,
        )
    except KeyError as exc:
        raise IngestionError(f"branch {wanted!r} has no {exc}") from None
    except InconsistentBranchError as exc:
        raise IngestionError(f"branch {wanted!r}: {exc}") from None

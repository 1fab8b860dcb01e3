"""Binary decision tree over uncertain samples.

Nodes split on (attribute, threshold); every training sample contributes
fractional probability mass to both sides of a split, so leaves carry a
label-probability distribution over the mass that reached them rather than a
single class.  Split quality is the information-gain ratio computed on those
masses.  Trees are immutable once built.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .atomic import atomic_open
from .errors import (
    EmptyDatasetError,
    InvalidParameterError,
    InvalidSplitError,
    SchemaError,
    TreeConstructionError,
)
from .uncertain import (
    Dataset,
    UncertainTuple,
    dataset_mass,
    label_masses,
    partition_tuple,
)

__all__ = [
    "TreeConfig",
    "SplitCandidate",
    "LeafNode",
    "SplitNode",
    "UncertainTree",
    "entropy",
    "split_entropy",
    "split_info",
    "gain_ratio",
    "gen_split_candidates",
    "best_split",
    "build_tree",
    "route",
    "classify",
    "predicted_label",
    "dominant_label",
    "training_accuracy",
    "test_accuracy",
    "k_fold_cv",
    "tree_depth",
    "iter_leaves",
    "tree_to_dict",
    "tree_from_dict",
    "save_tree",
    "load_tree",
]

#: Partitions lighter than this are treated as empty when scoring splits.
MIN_PARTITION_MASS = 1e-6


@dataclass(frozen=True)
class TreeConfig:
    """Construction knobs: depth cap, candidate grid size, and the seed used
    by derived procedures (cross-validation shuffling)."""

    max_layers: int
    n_split_points: int = 10
    min_partition_mass: float = MIN_PARTITION_MASS
    seed: int = 0

    def __post_init__(self):
        if self.max_layers < 1:
            raise InvalidParameterError("max_layers must be >= 1")
        if self.n_split_points < 1:
            raise InvalidParameterError("n_split_points must be >= 1")
        if self.min_partition_mass < 0:
            raise InvalidParameterError("min_partition_mass must be >= 0")


@dataclass(frozen=True)
class SplitCandidate:
    attr: int
    value: float


@dataclass(frozen=True)
class LeafNode:
    """Terminal node: label-probability distribution and the training mass
    that reached it."""

    lp: dict
    mass: float

    @property
    def dominant(self) -> str:
        return dominant_label(self.lp)


@dataclass(frozen=True)
class SplitNode:
    attr: int
    threshold: float
    left: "Node"
    right: "Node"


Node = Union[LeafNode, SplitNode]


@dataclass(frozen=True)
class UncertainTree:
    attribute_names: tuple
    label_set: tuple
    root: Node
    config: TreeConfig

    def classify(self, t: UncertainTuple) -> dict:
        return classify(self, t)


def dominant_label(lp: dict) -> str:
    """Label with the highest probability; ties go to the lexicographically
    smallest label."""
    best = max(lp.values())
    return min(label for label, p in lp.items() if p == best)


def predicted_label(lp: dict) -> str:
    return dominant_label(lp)


def _entropy_of(masses: dict, total: float) -> float:
    h = 0.0
    for m in masses.values():
        if m > 0.0:
            p = m / total
            h -= p * math.log2(p)
    return h


def entropy(dataset: Dataset) -> float:
    """Label entropy of the dataset's mass distribution, in bits."""
    masses = label_masses(dataset)
    total = sum(masses.values())
    if total <= 0.0:
        raise EmptyDatasetError("entropy undefined on an empty dataset")
    return _entropy_of(masses, total)


def _partition_label_masses(dataset: Dataset, s: SplitCandidate):
    """Label-mass totals on each side of the candidate, without materializing
    fragment tuples."""
    left = {label: 0.0 for label in dataset.label_set}
    right = {label: 0.0 for label in dataset.label_set}
    for t in dataset.tuples:
        frag_l, frag_r = partition_tuple(t, s.attr, s.value)
        left[t.label] += frag_l.tp
        right[t.label] += frag_r.tp
    return left, right


def _side_stats(dataset: Dataset, s: SplitCandidate, min_mass: float):
    left, right = _partition_label_masses(dataset, s)
    lt = sum(left.values())
    rt = sum(right.values())
    if lt < min_mass or rt < min_mass:
        raise InvalidSplitError(
            f"split at attr {s.attr} value {s.value} leaves an empty partition"
        )
    return left, right, lt, rt


def split_entropy(
    dataset: Dataset, s: SplitCandidate, min_mass: float = MIN_PARTITION_MASS
) -> float:
    """Mass-weighted entropy of the two partitions induced by the candidate."""
    left, right, lt, rt = _side_stats(dataset, s, min_mass)
    total = lt + rt
    return (lt / total) * _entropy_of(left, lt) + (rt / total) * _entropy_of(right, rt)


def split_info(
    dataset: Dataset, s: SplitCandidate, min_mass: float = MIN_PARTITION_MASS
) -> float:
    """Entropy of the partition sizes themselves; normalizes the gain."""
    _, _, lt, rt = _side_stats(dataset, s, min_mass)
    total = lt + rt
    wl, wr = lt / total, rt / total
    return -(wl * math.log2(wl) + wr * math.log2(wr))


def gain_ratio(
    dataset: Dataset, s: SplitCandidate, min_mass: float = MIN_PARTITION_MASS
) -> float:
    """Information gain of the split divided by its split info."""
    left, right, lt, rt = _side_stats(dataset, s, min_mass)
    return _gain_ratio_from(label_masses(dataset), left, right, lt, rt)


def _gain_ratio_from(parent_masses, left, right, lt, rt) -> float:
    total = lt + rt
    parent_h = _entropy_of(parent_masses, sum(parent_masses.values()))
    wl, wr = lt / total, rt / total
    se = wl * _entropy_of(left, lt) + wr * _entropy_of(right, rt)
    si = -(wl * math.log2(wl) + wr * math.log2(wr))
    return (parent_h - se) / si


def gen_split_candidates(dataset: Dataset, n: int) -> list:
    """Uniform interior grid of n candidate thresholds per attribute.

    The grid spans the union of the active boxes at this node; attributes
    whose extent has collapsed contribute no candidates.
    """
    candidates = []
    if not dataset.tuples:
        return candidates
    for attr in range(len(dataset.attribute_names)):
        lo = min(t.active_box[attr][0] for t in dataset.tuples)
        hi = max(t.active_box[attr][1] for t in dataset.tuples)
        if not hi > lo:
            continue
        step = (hi - lo) / (n + 1)
        for i in range(1, n + 1):
            v = lo + i * step
            if lo < v < hi:
                candidates.append(SplitCandidate(attr, v))
    return candidates


def _score_candidate(dataset, masses, cand, min_mass):
    left, right = _partition_label_masses(dataset, cand)
    lt = sum(left.values())
    rt = sum(right.values())
    if lt < min_mass or rt < min_mass:
        return None
    return _gain_ratio_from(masses, left, right, lt, rt)


def _best_split_scored(
    dataset: Dataset,
    candidates: Sequence[SplitCandidate],
    min_mass: float = MIN_PARTITION_MASS,
):
    """(best candidate, its gain ratio) or (None, nan) if nothing admissible.

    Ties break toward the lowest attribute index, then the lowest threshold,
    so the result does not depend on candidate order.
    """
    masses = label_masses(dataset)
    best = None
    best_ratio = -math.inf
    for cand in candidates:
        ratio = _score_candidate(dataset, masses, cand, min_mass)
        if ratio is None:
            continue
        if ratio > best_ratio or (
            ratio == best_ratio and (cand.attr, cand.value) < (best.attr, best.value)
        ):
            best, best_ratio = cand, ratio
    return best, best_ratio


def best_split(
    dataset: Dataset,
    candidates: Sequence[SplitCandidate],
    min_mass: float = MIN_PARTITION_MASS,
) -> Optional[SplitCandidate]:
    """Admissible candidate with the largest gain ratio (None when there is
    no admissible candidate)."""
    cand, _ = _best_split_scored(dataset, candidates, min_mass)
    return cand


def _partition_dataset(dataset: Dataset, s: SplitCandidate):
    left, right = [], []
    for t in dataset.tuples:
        frag_l, frag_r = partition_tuple(t, s.attr, s.value)
        if frag_l.tp > 0.0:
            left.append(frag_l)
        if frag_r.tp > 0.0:
            right.append(frag_r)
    return dataset.replace_tuples(left), dataset.replace_tuples(right)


def build_tree(dataset: Dataset, config: TreeConfig) -> UncertainTree:
    """Grow the tree recursively until purity, candidate exhaustion, or the
    layer cap."""
    if not dataset.tuples:
        raise TreeConstructionError("cannot build a tree from an empty dataset")
    if not dataset.label_set:
        raise TreeConstructionError("dataset declares no labels")
    if dataset_mass(dataset) <= 0.0:
        raise TreeConstructionError("training dataset has zero mass")

    def grow(ds: Dataset, depth: int) -> Node:
        masses = label_masses(ds)
        total = sum(masses.values())
        lp = {label: masses[label] / total for label in ds.label_set}
        leaf = LeafNode(lp, total)
        if depth >= config.max_layers:
            return leaf
        if sum(1 for m in masses.values() if m > 0.0) <= 1:
            return leaf
        candidates = gen_split_candidates(ds, config.n_split_points)
        cand, ratio = _best_split_scored(ds, candidates, config.min_partition_mass)
        if cand is None or ratio <= 0.0:
            return leaf
        left_ds, right_ds = _partition_dataset(ds, cand)
        if not left_ds.tuples or not right_ds.tuples:
            return leaf
        return SplitNode(
            cand.attr, cand.value, grow(left_ds, depth + 1), grow(right_ds, depth + 1)
        )

    return UncertainTree(dataset.attribute_names, dataset.label_set, grow(dataset, 0), config)


def route(tree: UncertainTree, t: UncertainTuple) -> list:
    """(leaf, arriving mass) pairs for one sample: its mass is split at every
    internal node, and each leaf it reaches with positive mass is listed once,
    depth first with the right subtree before the left."""
    reached = []
    stack = [(tree.root, t)]
    while stack:
        node, frag = stack.pop()
        if isinstance(node, LeafNode):
            reached.append((node, frag.tp))
        else:
            frag_l, frag_r = partition_tuple(frag, node.attr, node.threshold)
            if frag_l.tp > 0.0:
                stack.append((node.left, frag_l))
            if frag_r.tp > 0.0:
                stack.append((node.right, frag_r))
    return reached


def classify(tree: UncertainTree, t: UncertainTuple) -> dict:
    """Label-probability vector for one sample: the leaf distributions it
    is routed to, averaged with the arriving masses as weights."""
    if len(t.marginals) != len(tree.attribute_names):
        raise SchemaError(
            f"tuple has {len(t.marginals)} attributes, tree expects "
            f"{len(tree.attribute_names)}"
        )
    if t.tp <= 0.0:
        raise InvalidParameterError("cannot classify a zero-mass tuple")
    acc = {label: 0.0 for label in tree.label_set}
    for leaf, mass in route(tree, t):
        for label, p in leaf.lp.items():
            acc[label] += mass * p
    return {label: v / t.tp for label, v in acc.items()}


def iter_leaves(tree: UncertainTree):
    """Leaves in left-to-right order."""
    out = []

    def walk(node):
        if isinstance(node, LeafNode):
            out.append(node)
        else:
            walk(node.left)
            walk(node.right)

    walk(tree.root)
    return out


def _node_depth(node: Node) -> int:
    if isinstance(node, LeafNode):
        return 0
    return 1 + max(_node_depth(node.left), _node_depth(node.right))


def tree_depth(tree: UncertainTree) -> int:
    return _node_depth(tree.root)


def training_accuracy(tree: UncertainTree, dataset: Dataset) -> float:
    """Mass of training samples whose label matches their leaf's dominant
    label, divided by the number of training samples."""
    n_m = len(dataset.tuples)
    if n_m == 0:
        raise EmptyDatasetError("training accuracy undefined on an empty dataset")
    correct = sum(leaf.lp[leaf.dominant] * leaf.mass for leaf in iter_leaves(tree))
    return correct / n_m


def test_accuracy(tree: UncertainTree, dataset: Dataset) -> float:
    """Fraction of samples whose most probable predicted label matches their
    actual label."""
    if not dataset.tuples:
        raise EmptyDatasetError("test accuracy undefined on an empty dataset")
    correct = sum(
        1 for t in dataset.tuples if predicted_label(classify(tree, t)) == t.label
    )
    return correct / len(dataset.tuples)


def k_fold_cv(dataset: Dataset, k: int, config: TreeConfig):
    """Seeded k-fold cross-validation; returns (mean accuracy, per-fold list)."""
    n = len(dataset.tuples)
    if not 2 <= k <= n:
        raise InvalidParameterError(f"k must be in [2, {n}], got {k}")
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(n)
    folds = np.array_split(order, k)
    accuracies = []
    for fold in folds:
        test_idx = set(int(i) for i in fold)
        train = [dataset.tuples[i] for i in range(n) if i not in test_idx]
        test = [dataset.tuples[int(i)] for i in fold]
        train_ds = Dataset(
            dataset.attribute_names,
            dataset.label_set,
            tuple(train),
            sum(t.tp for t in train),
        )
        test_ds = dataset.replace_tuples(test)
        tree = build_tree(train_ds, config)
        accuracies.append(test_accuracy(tree, test_ds))
    return sum(accuracies) / len(accuracies), accuracies


# --- persistence -------------------------------------------------------------


def _node_to_dict(node: Node):
    if isinstance(node, LeafNode):
        return {"kind": "leaf", "lp": dict(node.lp), "mass": node.mass}
    return {
        "kind": "split",
        "attr": node.attr,
        "threshold": node.threshold,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(data):
    if data["kind"] == "leaf":
        return LeafNode({str(k): float(v) for k, v in data["lp"].items()}, float(data["mass"]))
    return SplitNode(
        int(data["attr"]),
        float(data["threshold"]),
        _node_from_dict(data["left"]),
        _node_from_dict(data["right"]),
    )


def tree_to_dict(tree: UncertainTree) -> dict:
    return {
        "attributes": list(tree.attribute_names),
        "labels": list(tree.label_set),
        "config": {
            "max_layers": tree.config.max_layers,
            "n_split_points": tree.config.n_split_points,
            "min_partition_mass": tree.config.min_partition_mass,
            "seed": tree.config.seed,
        },
        "root": _node_to_dict(tree.root),
    }


def tree_from_dict(data: dict) -> UncertainTree:
    root = _node_from_dict(data["root"])
    cfg = data.get("config")
    if cfg is None:
        config = TreeConfig(max_layers=max(1, _node_depth(root)))
    else:
        config = TreeConfig(
            max_layers=int(cfg["max_layers"]),
            n_split_points=int(cfg.get("n_split_points", 10)),
            min_partition_mass=float(cfg.get("min_partition_mass", MIN_PARTITION_MASS)),
            seed=int(cfg.get("seed", 0)),
        )
    return UncertainTree(tuple(data["attributes"]), tuple(data["labels"]), root, config)


def save_tree(tree: UncertainTree, path) -> None:
    """Write the tree as indented JSON, atomically."""
    with atomic_open(path) as fh:
        json.dump(tree_to_dict(tree), fh, indent=2)
        fh.write("\n")


def load_tree(path) -> UncertainTree:
    with open(path, encoding="utf-8") as fh:
        return tree_from_dict(json.load(fh))

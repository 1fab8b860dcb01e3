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
    IngestionError,
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


def _entropy_of(masses, total: float) -> float:
    h = 0.0
    for m in masses:
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
    return _entropy_of(masses.values(), total)


# --- the array core ------------------------------------------------------------
#
# Growing a tree and scoring splits work on a node's dataset held as arrays,
# with the same floating-point operations, in the same order, as the tuple
# definitions in ``uncertain``: ``math.erf`` for the normal CDF, tuple masses
# multiplied in attribute order from 1.0, label masses added in row order and
# ``math.log2`` in the gain ratio.  Trees therefore come out bit-identical to
# growing them tuple by tuple with ``partition_tuple``.

_SQRT2 = math.sqrt(2.0)
_erf = np.frompyfunc(math.erf, 1, 1)


def _normal_cdf(x, mean, sigma):
    """``uncertain._std_normal_cdf((x - mean) / sigma)``, elementwise."""
    z = (x - mean) / sigma
    return 0.5 * (1.0 + _erf(z / _SQRT2).astype(float))


# Fields of a node's (row, attribute) table: the active box, the box mass,
# the marginal, and the normal CDF at the box bounds (0 for point marginals).
_LO, _HI, _MASS, _MEAN, _SIGMA, _NORM, _CDF_LO, _CDF_HI = range(8)


class _Rows:
    """One node's dataset as arrays: ``table`` is (n rows, k attributes,
    fields), one row per tuple fragment; ``tp`` holds the tuple masses and
    ``label`` the index of each row's label in the label set.

    Rows are grouped by label, each group in dataset order, and
    ``bounds[j]:bounds[j + 1]`` is label j's group: every sum the tree takes
    is per label in row order, so the grouping changes no result.  The
    active box of a continuous marginal lies inside the marginal's interval,
    as ``fresh_tuple`` and ``partition_tuple`` keep it.
    """

    __slots__ = ("table", "tp", "label", "bounds")

    def __init__(self, table, tp, label, n_labels: int):
        self.table, self.tp, self.label = table, tp, label
        self.bounds = np.searchsorted(label, np.arange(n_labels + 1)).tolist()

    def take(self, keep) -> "_Rows":
        """The rows where ``keep`` is true, as a new node."""
        return _Rows(self.table[keep], self.tp[keep], self.label[keep], len(self.bounds) - 1)


def _node_rows(dataset: Dataset) -> _Rows:
    index = {label: j for j, label in enumerate(dataset.label_set)}
    tuples = sorted(dataset.tuples, key=lambda t: index[t.label])
    table = np.zeros((len(tuples), len(dataset.attribute_names), 8))
    for row, t in zip(table, tuples):
        row[:, _LO:_HI + 1] = t.active_box
        row[:, _MASS] = t.box_mass
        row[:, _MEAN:_NORM + 1] = [(m.mean, m.sigma, m.normalizer) for m in t.marginals]
    cont = table[..., _SIGMA] != 0.0
    for bound, cdf in ((_LO, _CDF_LO), (_HI, _CDF_HI)):
        x = table[..., bound][cont]
        table[..., cdf][cont] = _normal_cdf(x, table[..., _MEAN][cont], table[..., _SIGMA][cont])
    return _Rows(
        table,
        np.array([t.tp for t in tuples], dtype=float),
        np.array([index[t.label] for t in tuples], dtype=np.intp),
        len(dataset.label_set),
    )


def _cut(rows: _Rows, attr: int, values):
    """Cut every row's active box on one attribute at each threshold.

    Returns (n, C) arrays: the left and right box masses of the attribute,
    the thresholds clipped to each box and the normal CDF there.  The CDF is
    evaluated only where a threshold falls strictly inside a continuous box;
    at a bound it is the cached one.  Point marginals send their mass left
    when ``mean <= threshold``.
    """
    if not 0 <= attr < rows.table.shape[1]:
        raise IndexError(f"attribute index {attr} out of range")
    col = rows.table[:, attr, :, None]
    a, b, mean, sigma = col[:, _LO], col[:, _HI], col[:, _MEAN], col[:, _SIGMA]
    cdf_a, cdf_b = col[:, _CDF_LO], col[:, _CDF_HI]
    point = sigma == 0.0
    s = np.asarray(values, dtype=float)[None, :]
    sc = np.minimum(np.maximum(s, a), b)
    cdf = np.where(sc >= b, cdf_b, cdf_a)
    inside = (sc > a) & (sc < b) & ~point
    if inside.any():
        r = np.nonzero(inside)[0]
        cdf[inside] = _normal_cdf(sc[inside], mean[r, 0], sigma[r, 0])
    norm = col[:, _NORM]
    left = np.where(sc > a, norm * (cdf - cdf_a), 0.0)
    right = np.where(b > sc, norm * (cdf_b - cdf), 0.0)
    mass = col[:, _MASS]
    goes_left = s >= mean
    left = np.where(point, np.where(goes_left, mass, 0.0), left)
    right = np.where(point, np.where(goes_left, 0.0, mass), right)
    return left, right, sc, cdf


def _fragment_tp(rows: _Rows, attr: int, cut):
    """Tuple masses with attribute ``attr``'s box mass replaced by each column
    of ``cut``: the product over attributes in attribute order from 1.0."""
    mass = rows.table[..., _MASS]
    prefix = np.ones(len(rows.tp))
    for k in range(attr):
        prefix = prefix * mass[:, k]
    tp = prefix[:, None] * cut
    for k in range(attr + 1, mass.shape[1]):
        tp = tp * mass[:, k, None]
    return tp


def _label_sums(rows: _Rows, x):
    """Per-label sums of the rows of ``x``, each in row order from 0.0:
    one array of ``x.shape[1:]`` per label."""
    out = []
    for start, stop in zip(rows.bounds, rows.bounds[1:]):
        if stop > start:
            # + 0.0: a sum that starts from 0.0 never ends at -0.0
            out.append(x[start:stop].cumsum(axis=0)[-1] + 0.0)
        else:
            out.append(np.zeros(x.shape[1:]))
    return out


def _masses(rows: _Rows) -> list:
    """Label masses of the node, as floats in label-set order."""
    return [float(m) for m in _label_sums(rows, rows.tp)]


def _split_stats(rows: _Rows, attr: int, values, min_mass: float) -> list:
    """Score thresholds on one attribute in one broadcast.

    One entry per threshold: (left label masses, right label masses, left
    mass, right mass), or None when a side is lighter than ``min_mass``.
    """
    left, right, _, _ = _cut(rows, attr, values)
    shape = (len(rows.bounds) - 1, len(values))
    lm = np.array(_label_sums(rows, _fragment_tp(rows, attr, left))).reshape(shape)
    rm = np.array(_label_sums(rows, _fragment_tp(rows, attr, right))).reshape(shape)
    stats = []
    for lms, rms in zip(lm.T.tolist(), rm.T.tolist()):
        lt, rt = sum(lms), sum(rms)
        stats.append(None if lt < min_mass or rt < min_mass else (lms, rms, lt, rt))
    return stats


def _partition(rows: _Rows, attr: int, value: float):
    """The (left, right) child nodes of a split: rows of positive fragment
    mass, with the cut attribute's box mass, box bound and CDF updated."""
    left, right, sc, cdf = _cut(rows, attr, [value])
    children = []
    for cut, bound, cdf_bound in ((left, _HI, _CDF_HI), (right, _LO, _CDF_LO)):
        tp = _fragment_tp(rows, attr, cut)[:, 0]
        keep = tp > 0.0
        child = rows.take(keep)
        child.tp = tp[keep]
        col = child.table[:, attr]
        col[:, _MASS] = cut[keep, 0]
        cont = col[:, _SIGMA] != 0.0
        col[cont, bound] = sc[keep, 0][cont]
        col[cont, cdf_bound] = cdf[keep, 0][cont]
        children.append(child)
    return children


def _split_entropy_of(left, right, lt: float, rt: float) -> float:
    total = lt + rt
    return (lt / total) * _entropy_of(left, lt) + (rt / total) * _entropy_of(right, rt)


def _split_info_of(lt: float, rt: float) -> float:
    total = lt + rt
    wl, wr = lt / total, rt / total
    return -(wl * math.log2(wl) + wr * math.log2(wr))


def _side_stats(dataset: Dataset, s: SplitCandidate, min_mass: float):
    stats = _split_stats(_node_rows(dataset), s.attr, [s.value], min_mass)[0]
    if stats is None:
        raise InvalidSplitError(
            f"split at attr {s.attr} value {s.value} leaves an empty partition"
        )
    return stats


def split_entropy(
    dataset: Dataset, s: SplitCandidate, min_mass: float = MIN_PARTITION_MASS
) -> float:
    """Mass-weighted entropy of the two partitions induced by the candidate."""
    return _split_entropy_of(*_side_stats(dataset, s, min_mass))


def split_info(
    dataset: Dataset, s: SplitCandidate, min_mass: float = MIN_PARTITION_MASS
) -> float:
    """Entropy of the partition sizes themselves; normalizes the gain."""
    _, _, lt, rt = _side_stats(dataset, s, min_mass)
    return _split_info_of(lt, rt)


def gain_ratio(
    dataset: Dataset, s: SplitCandidate, min_mass: float = MIN_PARTITION_MASS
) -> float:
    """Information gain of the split divided by its split info."""
    stats = _side_stats(dataset, s, min_mass)
    masses = list(label_masses(dataset).values())
    return _gain_ratio_of(_entropy_of(masses, sum(masses)), stats)


def _gain_ratio_of(parent_h: float, stats) -> float:
    _, _, lt, rt = stats
    return (parent_h - _split_entropy_of(*stats)) / _split_info_of(lt, rt)


def gen_split_candidates(dataset: Dataset, n: int) -> list:
    """Uniform interior grid of n candidate thresholds per attribute.

    The grid spans the union of the active boxes at this node; attributes
    whose extent has collapsed contribute no candidates.
    """
    k = len(dataset.attribute_names)
    n_rows = len(dataset.tuples)
    box = np.array([t.active_box for t in dataset.tuples], dtype=float).reshape(n_rows, k, 2)
    return _candidates(box[..., 0], box[..., 1], n)


def _candidates(lo, hi, n: int) -> list:
    candidates = []
    if not len(lo):
        return candidates
    for attr in range(lo.shape[1]):
        a = float(lo[:, attr].min())
        b = float(hi[:, attr].max())
        if not b > a:
            continue
        step = (b - a) / (n + 1)
        for i in range(1, n + 1):
            v = a + i * step
            if a < v < b:
                candidates.append(SplitCandidate(attr, v))
    return candidates


def _gain_ratios(rows: _Rows, masses, candidates, min_mass: float) -> list:
    """Gain ratio of each candidate (None where inadmissible), scoring each
    attribute's thresholds in one broadcast."""
    parent_h = _entropy_of(masses, sum(masses))
    by_attr = {}
    for i, cand in enumerate(candidates):
        by_attr.setdefault(cand.attr, []).append(i)
    ratios = [None] * len(candidates)
    for attr, idx in by_attr.items():
        stats = _split_stats(rows, attr, [candidates[i].value for i in idx], min_mass)
        for i, st in zip(idx, stats):
            if st is not None:
                ratios[i] = _gain_ratio_of(parent_h, st)
    return ratios


def _best_split_scored(rows: _Rows, masses, candidates, min_mass: float):
    """(best candidate, its gain ratio) or (None, -inf) if nothing admissible.

    Ties break toward the lowest attribute index, then the lowest threshold,
    so the result does not depend on candidate order.
    """
    best = None
    best_ratio = -math.inf
    for cand, ratio in zip(candidates, _gain_ratios(rows, masses, candidates, min_mass)):
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
    rows = _node_rows(dataset)
    cand, _ = _best_split_scored(rows, _masses(rows), candidates, min_mass)
    return cand


def _grow_split(rows: _Rows, masses, depth: int, config: TreeConfig):
    """(candidate, left rows, right rows) for the node's split, or None when
    it stays a leaf."""
    if depth >= config.max_layers:
        return None
    if sum(1 for m in masses if m > 0.0) <= 1:
        return None
    candidates = _candidates(rows.table[..., _LO], rows.table[..., _HI], config.n_split_points)
    cand, ratio = _best_split_scored(rows, masses, candidates, config.min_partition_mass)
    if cand is None or ratio <= 0.0:
        return None
    left, right = _partition(rows, cand.attr, cand.value)
    if not len(left.tp) or not len(right.tp):
        return None
    return cand, left, right


def build_tree(dataset: Dataset, config: TreeConfig) -> UncertainTree:
    """Grow the tree depth first until purity, candidate exhaustion, or the
    layer cap."""
    if not dataset.tuples:
        raise TreeConstructionError("cannot build a tree from an empty dataset")
    if not dataset.label_set:
        raise TreeConstructionError("dataset declares no labels")
    if dataset_mass(dataset) <= 0.0:
        raise TreeConstructionError("training dataset has zero mass")

    plan = []
    stack = [(_node_rows(dataset), 0, None)]
    while stack:
        rows, depth, slot = stack.pop()
        if slot is not None:
            plan[slot[0]][slot[1]] = len(plan)
        masses = _masses(rows)
        split = _grow_split(rows, masses, depth, config)
        if split is None:
            total = sum(masses)
            lp = {label: m / total for label, m in zip(dataset.label_set, masses)}
            plan.append(LeafNode(lp, total))
        else:
            cand, left, right = split
            index = len(plan)
            plan.append([cand.attr, cand.value, None, None])
            stack.append((right, depth + 1, (index, 3)))
            stack.append((left, depth + 1, (index, 2)))
    return UncertainTree(dataset.attribute_names, dataset.label_set, _link(plan), config)


def _link(plan: list) -> Node:
    """Root of a tree given in preorder, each entry a leaf or
    ``[attr, threshold, left index, right index]``."""
    nodes = [None] * len(plan)
    for i in range(len(plan) - 1, -1, -1):
        p = plan[i]
        nodes[i] = p if isinstance(p, LeafNode) else SplitNode(p[0], p[1], nodes[p[2]], nodes[p[3]])
    return nodes[0]


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


def _node_from_dict(data, n_attrs: int, label_set: tuple) -> Node:
    """Rebuild the node tree of ``data``, checking every node on the way:
    its kind, a split's attribute index and threshold, a leaf's lp labels.
    Errors raise ``IngestionError`` naming the node by its path from the
    root."""
    plan = []
    stack = [(data, "root", None)]
    while stack:
        node, where, slot = stack.pop()
        if slot is not None:
            plan[slot[0]][slot[1]] = len(plan)
        kind = node.get("kind") if isinstance(node, dict) else None
        try:
            if kind == "leaf":
                lp = {str(k): float(v) for k, v in node["lp"].items()}
                if set(lp) != set(label_set):
                    raise IngestionError(
                        f"{where}: lp labels {sorted(lp)} differ from the tree's "
                        f"labels {sorted(label_set)}"
                    )
                plan.append(LeafNode(lp, float(node["mass"])))
            elif kind == "split":
                attr, threshold = node["attr"], float(node["threshold"])
                if type(attr) is not int or not 0 <= attr < n_attrs:
                    raise IngestionError(
                        f"{where}: attribute index {attr!r} is not in [0, {n_attrs})"
                    )
                if not math.isfinite(threshold):
                    raise IngestionError(f"{where}: threshold {threshold} is not finite")
                index = len(plan)
                plan.append([attr, threshold, None, None])
                stack.append((node["right"], where + ".right", (index, 3)))
                stack.append((node["left"], where + ".left", (index, 2)))
            else:
                raise IngestionError(
                    f"{where}: node kind must be 'leaf' or 'split', got {kind!r}"
                )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise IngestionError(f"{where}: malformed {kind} node ({exc!r})") from None
    return _link(plan)


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
    """Tree from its ``tree_to_dict`` form; malformed input raises
    ``IngestionError``."""
    try:
        attributes = tuple(str(a) for a in data["attributes"])
        labels = tuple(str(label) for label in data["labels"])
        root = _node_from_dict(data["root"], len(attributes), labels)
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
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise IngestionError(f"malformed tree ({exc!r})") from None
    return UncertainTree(attributes, labels, root, config)


def save_tree(tree: UncertainTree, path) -> None:
    """Write the tree as indented JSON, atomically."""
    with atomic_open(path) as fh:
        json.dump(tree_to_dict(tree), fh, indent=2)
        fh.write("\n")


def load_tree(path) -> UncertainTree:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return tree_from_dict(data)
    except IngestionError as exc:
        raise IngestionError(f"{path}: {exc}") from None

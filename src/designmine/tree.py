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
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .atomic import atomic_open
from .csvtext import read_json
from .errors import (
    EmptyDatasetError,
    IngestionError,
    InvalidParameterError,
    InvalidSplitError,
    SchemaError,
    TreeConstructionError,
)
from .uncertain import (
    _CDF_HI,
    _CDF_LO,
    _HI,
    _LO,
    _MASS,
    _MEAN,
    _NORM,
    _SIGMA,
    Dataset,
    UncertainTuple,
    _elementwise,
    _node_rows,
    _normal_cdf,
    _Rows,
    _total,
    dataset_mass,
    label_masses,
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
    "classify_batch",
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

#: Largest ``max_layers`` that ``build_tree`` accepts, and the deepest tree
#: that ``tree_from_dict`` loads.  Tree walks are loops, but ``save_tree``'s
#: JSON encoder and ``==`` and ``repr`` on trees recurse once or more per
#: level and fail a little above 300 levels.
MAX_LAYERS = 256


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

    @cached_property
    def _flat(self) -> "_Flat":
        return _Flat(self)


def dominant_label(lp: dict) -> str:
    """Label with the highest probability; ties go to the lexicographically
    smallest label."""
    best = max(lp.values())
    return min(label for label, p in lp.items() if p == best)


def predicted_label(lp: dict) -> str:
    return dominant_label(lp)


def _plog2(p):
    """``p * math.log2(p)``, elementwise."""
    return p * _elementwise(math.log2, p)


def _entropy_of(masses, total):
    """Label entropy of label masses (last axis) over their total, in bits:
    ``-p * log2(p)`` subtracted label by label from 0.0 where the mass is
    positive, with ``math.log2``."""
    masses = np.asarray(masses, dtype=float)
    h = np.zeros(masses.shape[:-1])
    total = np.broadcast_to(total, h.shape)
    for m in np.moveaxis(masses, -1, 0):
        pos = m > 0.0
        h[pos] = h[pos] - _plog2(m[pos] / total[pos])
    return h


def entropy(dataset: Dataset) -> float:
    """Label entropy of the dataset's mass distribution, in bits."""
    masses = list(label_masses(dataset).values())
    total = _total(masses)
    if total <= 0.0:
        raise EmptyDatasetError("entropy undefined on an empty dataset")
    return float(_entropy_of(masses, total))


# --- the array core ------------------------------------------------------------
#
# Growing a tree, scoring splits and routing samples work on datasets held as
# arrays, with the same floating-point operations, in the same order, as the
# tuple definitions in ``uncertain``: ``math.erf`` for the normal CDF, tuple
# masses multiplied in attribute order from 1.0, label masses added in row
# order and ``math.log2`` in the gain ratio.  Trees therefore come out
# bit-identical to growing them tuple by tuple with ``partition_tuple``.
#
# Both work one depth at a time: the rows of every node at a depth (the
# frontier) sit in one ``uncertain._Rows``, each tagged with its node, and
# each step is one numpy pass over the whole frontier.  A dataset's rows are
# built once and cached on it (``Dataset._rows``).


def _cut(col, s):
    """Cut every row's active box on one attribute at thresholds ``s``.

    ``col`` is the attribute's (n, fields) table and ``s`` broadcasts to
    (n, C).  Returns (n, C) arrays: the left and right box masses, the
    thresholds clipped to each box and the normal CDF there.  The CDF is
    evaluated only where a threshold falls strictly inside a continuous box;
    at a bound it is the cached one.  Point marginals send their mass left
    when ``mean <= threshold``.  A NaN threshold cuts nothing: both sides
    are 0.
    """
    col = col[..., None]
    a, b, mean, sigma = col[:, _LO], col[:, _HI], col[:, _MEAN], col[:, _SIGMA]
    cdf_a, cdf_b = col[:, _CDF_LO], col[:, _CDF_HI]
    point = sigma == 0.0
    if point.all():  # certain values only: a point's box is its point and its CDF 0
        mass, shape = col[:, _MASS], np.broadcast_shapes(np.shape(s), mean.shape)
        left, right = np.where(s >= mean, mass, 0.0), np.where(s < mean, mass, 0.0)
        return left, right, np.broadcast_to(mean, shape), np.broadcast_to(cdf_b, shape)
    sc = np.minimum(np.maximum(s, a), b)
    above_a, below_b = sc > a, sc < b
    cdf = np.where(below_b, cdf_a, cdf_b)
    inside = above_a & below_b & ~point
    if inside.any():
        r = np.nonzero(inside)[0]
        cdf[inside] = _normal_cdf(sc[inside], mean[r, 0], sigma[r, 0])
    norm = col[:, _NORM]
    left = np.where(above_a, norm * (cdf - cdf_a), 0.0)
    right = np.where(below_b, norm * (cdf_b - cdf), 0.0)
    if point.any():  # a point's box is the point itself, so both sides above are 0 there
        mass = col[:, _MASS]
        left = np.where(point & (s >= mean), mass, left)
        right = np.where(point & (s < mean), mass, right)
    return left, right, sc, cdf


def _fragment_tp(mass, attr, cut):
    """Fragment masses: the product of each row's box masses ``mass`` (n, k),
    in attribute order from 1.0, with attribute ``attr``'s (one index, or one
    per row) replaced by each column of ``cut``."""
    if np.ndim(attr):  # a cut attribute per row: write the cut into a copy of the masses
        m = np.repeat(mass[..., None], cut.shape[1], axis=2)
        m[np.arange(len(m)), attr] = cut
        factors = [m[:, k] for k in range(m.shape[1])]
    else:  # one cut attribute: the factors before it multiply as (n, 1) columns
        factors = [cut if k == attr else mass[:, k, None] for k in range(mass.shape[1])]
    tp = factors[0]
    for factor in factors[1:]:
        tp = tp * factor
    return tp


def _partition(rows: _Rows, attr, value):
    """Cut each row at its own split, ``attr`` and ``value`` holding one per
    row.  Returns ``(side, children)``: the fragments of positive mass
    in row order, left (side 0) before right (side 1), with the cut
    attribute's box mass, box bound and CDF updated (a point's box is its
    point, and its CDF 0, so they stay as they were).  Children keep their
    parent's ``seg``."""
    at = np.arange(len(rows.tp)), attr
    left, right, sc, cdf = _cut(rows.table[at], value[:, None])
    cut = np.concatenate((left, right), axis=1)
    tp = _fragment_tp(rows.table[..., _MASS], attr, cut)
    row, side = (tp > 0.0).nonzero()
    children = rows.take(row)
    children.tp = tp[row, side]
    at = np.arange(len(row)), attr[row]
    children.table[at + (_MASS,)] = cut[row, side]
    children.table[at + (_HI - side,)] = sc[row, 0]
    children.table[at + (_CDF_HI - side,)] = cdf[row, 0]
    return side, children


def _key_sums(key, n_keys: int, x):
    """(n_keys, ...) sums of the rows of ``x`` per ``key``, each added in row
    order from 0.0 (``bincount`` adds its weights one by one, in order)."""
    width = math.prod(x.shape[1:])
    flat = (key[:, None] * width + np.arange(width)).ravel()
    sums = np.bincount(flat, weights=x.ravel(), minlength=n_keys * width)
    return sums.reshape((n_keys,) + x.shape[1:])


def _label_masses(rows: _Rows, n_segs: int, n_labels: int):
    """(nodes x labels) label masses of the frontier."""
    key = rows.seg * n_labels + rows.label
    return _key_sums(key, n_segs * n_labels, rows.tp).reshape(n_segs, n_labels)


def _side_masses(rows: _Rows, n_segs: int, n_labels: int, attr: int, s):
    """(nodes, C, labels) left and right label masses of cutting every row
    on ``attr`` at its thresholds ``s`` (n, C)."""
    cut = np.concatenate(_cut(rows.table[:, attr], s)[:2], axis=1)
    tp = _fragment_tp(rows.table[..., _MASS], attr, cut)
    sums = _key_sums(rows.seg * n_labels + rows.label, n_segs * n_labels, tp)
    both = sums.reshape(n_segs, n_labels, 2, s.shape[1])
    return both[:, :, 0].transpose(0, 2, 1), both[:, :, 1].transpose(0, 2, 1)


def _split_entropy_of(left, right, lt, rt):
    total = lt + rt
    return (lt / total) * _entropy_of(left, lt) + (rt / total) * _entropy_of(right, rt)


def _split_info_of(lt, rt):
    total = lt + rt
    return -(_plog2(lt / total) + _plog2(rt / total))


def _gain_ratio_of(parent_h, left, right, lt, rt):
    return (parent_h - _split_entropy_of(left, right, lt, rt)) / _split_info_of(lt, rt)


def _admissible(lt, rt, min_mass: float):
    """Whether both sides of a split carry mass, at least ``min_mass`` each:
    a side of mass 0 is never admissible, whatever ``min_mass`` is."""
    side = np.minimum(lt, rt)
    return (side > 0.0) & (side >= min_mass)


def _gain_ratios(rows: _Rows, masses, values, valid, min_mass: float):
    """(nodes, k, C) gain ratios of the frontier's candidate thresholds
    ``values`` (where ``valid``), -inf where a split is not admissible.  Each
    attribute is cut once for every node and threshold."""
    n_segs, n_labels = masses.shape
    parent_h = _entropy_of(masses, _total(masses))
    ratios = np.full(values.shape, -np.inf)
    for attr in np.flatnonzero(valid.any(axis=(0, 2))).tolist():
        thresholds = np.where(valid[:, attr], values[:, attr], np.nan)[rows.seg]
        lm, rm = _side_masses(rows, n_segs, n_labels, attr, thresholds)
        lt, rt = _total(lm), _total(rm)
        ok = valid[:, attr] & _admissible(lt, rt, min_mass)
        seg = ok.nonzero()[0]
        ratios[:, attr][ok] = _gain_ratio_of(parent_h[seg], lm[ok], rm[ok], lt[ok], rt[ok])
    return ratios


def _node_stats(dataset: Dataset, s: SplitCandidate, min_mass: float):
    """(parent label masses, left and right label masses, left and right
    mass) of one split of the dataset."""
    rows = dataset._rows
    n_labels = len(dataset.label_set)
    if not 0 <= s.attr < rows.table.shape[1]:
        raise IndexError(f"attribute index {s.attr} out of range")
    lm, rm = _side_masses(rows, 1, n_labels, s.attr, np.full((len(rows.tp), 1), float(s.value)))
    lt, rt = _total(lm[0, 0]), _total(rm[0, 0])
    if not _admissible(lt, rt, min_mass):
        raise InvalidSplitError(
            f"split at attr {s.attr} value {s.value} leaves an empty partition"
        )
    return _label_masses(rows, 1, n_labels)[0], lm[0, 0], rm[0, 0], lt, rt


def split_entropy(
    dataset: Dataset, s: SplitCandidate, min_mass: float = MIN_PARTITION_MASS
) -> float:
    """Mass-weighted entropy of the two partitions induced by the candidate."""
    return float(_split_entropy_of(*_node_stats(dataset, s, min_mass)[1:]))


def split_info(
    dataset: Dataset, s: SplitCandidate, min_mass: float = MIN_PARTITION_MASS
) -> float:
    """Entropy of the partition sizes themselves; normalizes the gain."""
    return float(_split_info_of(*_node_stats(dataset, s, min_mass)[3:]))


def gain_ratio(
    dataset: Dataset, s: SplitCandidate, min_mass: float = MIN_PARTITION_MASS
) -> float:
    """Information gain of the split divided by its split info."""
    masses, *stats = _node_stats(dataset, s, min_mass)
    return float(_gain_ratio_of(_entropy_of(masses, _total(masses)), *stats))


def gen_split_candidates(dataset: Dataset, n: int) -> list:
    """Uniform interior grid of n candidate thresholds per attribute.

    The grid spans the union of the active boxes at this node; attributes
    whose extent has collapsed contribute no candidates.
    """
    table = dataset._rows.table
    if not len(table):
        return []
    values, valid = _grid(table[..., _LO].min(axis=0), table[..., _HI].max(axis=0), n)
    return [SplitCandidate(a, v) for a, v in zip(valid.nonzero()[0].tolist(), values[valid].tolist())]


def _grid(lo, hi, n: int):
    """(..., n) candidate thresholds ``lo + i * (hi - lo) / (n + 1)`` of boxes
    spanning [lo, hi], and whether each falls strictly inside its box."""
    step = (hi - lo) / (n + 1)
    values = lo[..., None] + np.arange(1, n + 1) * step[..., None]
    return values, (lo[..., None] < values) & (values < hi[..., None])


def best_split(
    dataset: Dataset,
    candidates: Sequence[SplitCandidate],
    min_mass: float = MIN_PARTITION_MASS,
) -> Optional[SplitCandidate]:
    """Admissible candidate with the largest gain ratio (None when there is
    no admissible candidate).  Ties break toward the lowest attribute index,
    then the lowest threshold, so the result does not depend on candidate
    order."""
    k = len(dataset.attribute_names)
    if any(not 0 <= c.attr < k for c in candidates):
        raise IndexError(f"attribute index out of range in {[c.attr for c in candidates]}")
    by_attr = [sorted({float(c.value) for c in candidates if c.attr == a}) for a in range(k)]
    width = max(map(len, by_attr), default=0)
    if not width:
        return None
    values, valid = np.zeros((1, k, width)), np.zeros((1, k, width), dtype=bool)
    for attr, vals in enumerate(by_attr):
        values[0, attr, :len(vals)], valid[0, attr, :len(vals)] = vals, True
    rows = dataset._rows
    masses = _label_masses(rows, 1, len(dataset.label_set))
    ratios = _gain_ratios(rows, masses, values, valid, min_mass).ravel()
    best = int(ratios.argmax())
    return None if ratios[best] == -np.inf else SplitCandidate(best // width, float(values.flat[best]))


def _best_splits(rows: _Rows, masses, config: TreeConfig):
    """Best (attribute, threshold, gain ratio) of each frontier node over its
    candidate grid: the largest gain ratio, ties to the lowest attribute,
    then threshold; the ratio is -inf when no candidate is admissible."""
    n_segs, k = len(masses), rows.table.shape[1]
    key = (rows.seg[:, None] * k + np.arange(k)).ravel()
    lo, hi = np.full(n_segs * k, np.inf), np.full(n_segs * k, -np.inf)
    np.minimum.at(lo, key, rows.table[..., _LO].ravel())
    np.maximum.at(hi, key, rows.table[..., _HI].ravel())
    values, valid = _grid(lo.reshape(n_segs, k), hi.reshape(n_segs, k), config.n_split_points)
    ratios = _gain_ratios(rows, masses, values, valid, config.min_partition_mass)
    best = ratios.reshape(n_segs, -1).argmax(axis=1)
    at = np.arange(n_segs), best
    return best // config.n_split_points, values.reshape(n_segs, -1)[at], ratios.reshape(n_segs, -1)[at]


def _select(rows: _Rows, keep) -> _Rows:
    """Rows of the frontier nodes where ``keep``, the nodes renumbered in order."""
    if keep.all():
        return rows
    out = rows.take(keep[rows.seg])
    out.seg = (np.cumsum(keep) - 1)[out.seg]
    return out


def build_tree(dataset: Dataset, config: TreeConfig) -> UncertainTree:
    """Grow the tree until purity, candidate exhaustion, or the layer cap,
    one depth at a time: every node at a depth is scored and split in one
    pass."""
    if config.max_layers > MAX_LAYERS:
        raise InvalidParameterError(
            f"max_layers {config.max_layers} exceeds {MAX_LAYERS}, the deepest tree supported"
        )
    rows = dataset._rows
    if not len(rows):
        raise TreeConstructionError("cannot build a tree from an empty dataset")
    if not dataset.label_set:
        raise TreeConstructionError("dataset declares no labels")
    if dataset_mass(dataset) <= 0.0:
        raise TreeConstructionError("training dataset has zero mass")

    n_labels = len(dataset.label_set)
    plan, slots, depth = [], [None], 0
    while slots:
        masses = _label_masses(rows, len(slots), n_labels)
        split = np.zeros(len(slots), dtype=bool)
        attr, value = np.zeros(len(slots), dtype=np.intp), np.zeros(len(slots))
        if depth < config.max_layers:
            split = (masses > 0.0).sum(axis=1) > 1
        if split.any():
            rows = _select(rows, split)
            attr[split], value[split], ratio = _best_splits(rows, masses[split], config)
            split[split] = ratio > 0.0
            rows = _select(rows, ratio > 0.0)
        if split.any():
            side, rows = _partition(rows, attr[split][rows.seg], value[split][rows.seg])
            rows.seg = 2 * rows.seg + side
            # a node whose cut leaves one side without rows stays a leaf
            both = (np.bincount(rows.seg, minlength=2 * split.sum()).reshape(-1, 2) > 0).all(1)
            split[split] = both
            rows = _select(rows, np.repeat(both, 2))
        next_slots = []
        for i, (slot, m, total) in enumerate(zip(slots, masses.tolist(), _total(masses).tolist())):
            if slot is not None:
                plan[slot[0]][slot[1]] = len(plan)
            if split[i]:
                next_slots += [(len(plan), 2), (len(plan), 3)]
                plan.append([int(attr[i]), float(value[i]), None, None])
            else:
                plan.append(LeafNode({label: x / total for label, x in zip(dataset.label_set, m)}, total))
        slots, depth = next_slots, depth + 1
    return UncertainTree(dataset.attribute_names, dataset.label_set, _link(plan), config)


def _link(plan: list) -> Node:
    """Root of a tree given with parents before children, each entry a leaf
    or ``[attr, threshold, left index, right index]``."""
    nodes = [None] * len(plan)
    for i in range(len(plan) - 1, -1, -1):
        p = plan[i]
        nodes[i] = p if isinstance(p, LeafNode) else SplitNode(p[0], p[1], nodes[p[2]], nodes[p[3]])
    return nodes[0]


class _Flat:
    """A tree's nodes as arrays, in the order ``route`` lists leaves: depth
    first, right subtree before left.  ``child[i]`` is the (left, right)
    index pair of a split node and ``lp[i]`` a leaf's label probabilities in
    label-set order; a leaf's threshold is NaN (a split's is finite)."""

    def __init__(self, tree: "UncertainTree"):
        self.nodes, table, lp, stack = [], [], [], [(tree.root, None)]
        while stack:
            node, slot = stack.pop()
            if slot is not None:
                table[slot[0]][slot[1]] = len(table)
            if isinstance(node, SplitNode):
                stack += [(node.left, (len(table), 0)), (node.right, (len(table), 1))]
                table.append([0, 0, node.attr, node.threshold])
                lp.append([0.0] * len(tree.label_set))
            else:
                table.append([0, 0, 0, math.nan])
                lp.append([node.lp[label] for label in tree.label_set])
            self.nodes.append(node)
        table = np.array(table).reshape(-1, 4)
        self.child, self.attr = table[:, :2].astype(np.intp), table[:, 2].astype(np.intp)
        self.threshold, self.leaf = table[:, 3], np.isnan(table[:, 3])
        self.lp = np.array(lp).reshape(len(table), len(tree.label_set))


#: Samples routed at once.  A depth's frontier holds several fragments of
#: each, so this bounds the routing tables.
ROUTE_BLOCK = 512


def _blocks(tree: UncertainTree, samples):
    """``(block, rows)`` of ``ROUTE_BLOCK`` samples at a time: ``block`` is
    their slice of ``samples``, which are a dataset's rows (``Dataset._rows``)
    or a sequence of tuples, converted here a block at a time.  A row's
    ``pos`` is its index in ``samples``."""
    k = len(tree.attribute_names)
    if isinstance(samples, _Rows) and samples.table.shape[1] != k:
        raise SchemaError(f"rows have {samples.table.shape[1]} attributes, tree expects {k}")
    for start in range(0, len(samples), ROUTE_BLOCK):
        block = slice(start, start + ROUTE_BLOCK)
        rows = samples.take(block) if isinstance(samples, _Rows) else _node_rows(samples[block], k)
        rows.pos = np.arange(start, start + len(rows))
        yield block, rows


def _block_arrivals(flat: _Flat, rows: _Rows):
    """(node, position, mass) arrays of every leaf a block of rows reaches
    with positive mass.  The frontier of each depth is cut in one pass until
    every row sits at a leaf; rows at a leaf before that meet its NaN
    threshold and leave the frontier.  Its frontier tables are freed on
    return, before the caller uses the result."""
    reached = []
    while True:
        at_leaf = flat.leaf[rows.seg]
        reached.append((rows.seg[at_leaf], rows.pos[at_leaf], rows.tp[at_leaf]))
        if at_leaf.all():
            break
        side, rows = _partition(rows, flat.attr[rows.seg], flat.threshold[rows.seg])
        rows.seg = flat.child[rows.seg, side]
    return tuple(np.concatenate(r) for r in zip(*reached))


def route(tree: UncertainTree, tuples: Sequence[UncertainTuple]) -> list:
    """``(leaf, positions, masses)`` for each leaf the batch reaches with
    positive mass, depth first with the right subtree before the left: the
    ascending indices into ``tuples`` (or a dataset's rows) of the samples
    that reach it and their arriving masses.  Labels are not read."""
    if not len(tuples):
        return []
    arrivals = (_block_arrivals(tree._flat, rows) for _, rows in _blocks(tree, tuples))
    node, pos, mass = (np.concatenate(r) for r in zip(*arrivals))
    order = np.lexsort((pos, node))
    node, pos, mass = node[order], pos[order], mass[order]
    starts = np.flatnonzero(np.diff(node, prepend=-1)).tolist()
    nodes = tree._flat.nodes
    return [(nodes[node[a]], pos[a:b], mass[a:b]) for a, b in zip(starts, starts[1:] + [len(node)])]


def classify_batch(tree: UncertainTree, tuples: Sequence[UncertainTuple]) -> np.ndarray:
    """(samples x ``tree.label_set``) label probabilities of ``tuples`` (or a
    dataset's rows): the reached leaves' distributions weighted by arriving
    mass, added leaf by leaf in ``route`` order."""
    lp = np.zeros((len(tuples), len(tree.label_set)))
    for block, rows in _blocks(tree, tuples):
        if (rows.tp <= 0.0).any():
            raise InvalidParameterError("cannot classify a zero-mass tuple")
        node, pos, mass = _block_arrivals(tree._flat, rows)
        order = np.argsort(node, kind="stable")
        weighted = mass[order, None] * tree._flat.lp[node[order]]
        lp[block] = _key_sums(pos[order] - block.start, len(rows), weighted) / rows.tp[:, None]
    return lp


def classify(tree: UncertainTree, t: UncertainTuple) -> dict:
    """Label-probability vector for one sample (``classify_batch`` of one)."""
    return dict(zip(tree.label_set, classify_batch(tree, [t])[0].tolist()))


def iter_leaves(tree: UncertainTree):
    """Leaves in left-to-right order: ``route``'s order, reversed."""
    return [node for node in reversed(tree._flat.nodes) if isinstance(node, LeafNode)]


def _node_depth(node: Node) -> int:
    deepest, stack = 0, [(node, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, LeafNode):
            deepest = max(deepest, depth)
        else:
            stack += [(node.right, depth + 1), (node.left, depth + 1)]
    return deepest


def tree_depth(tree: UncertainTree) -> int:
    return _node_depth(tree.root)


def training_accuracy(tree: UncertainTree, dataset: Dataset) -> float:
    """Mass of training samples whose label matches their leaf's dominant
    label, divided by the number of training samples."""
    n_m = len(dataset.tuples)
    if n_m == 0:
        raise EmptyDatasetError("training accuracy undefined on an empty dataset")
    correct = _total([leaf.lp[leaf.dominant] * leaf.mass for leaf in iter_leaves(tree)])
    return float(correct) / n_m


def test_accuracy(tree: UncertainTree, dataset: Dataset) -> float:
    """Fraction of samples whose most probable predicted label matches their
    actual label (ties go to the lexicographically smallest label)."""
    rows = dataset._rows
    if not len(rows):
        raise EmptyDatasetError("test accuracy undefined on an empty dataset")
    by_name = sorted(range(len(tree.label_set)), key=tree.label_set.__getitem__)
    best = classify_batch(tree, rows)[:, by_name].argmax(axis=1)
    predicted = np.array(tree.label_set)[by_name][best]
    return int((predicted == np.array(dataset.label_set)[rows.label]).sum()) / len(rows)


def k_fold_cv(dataset: Dataset, k: int, config: TreeConfig):
    """Seeded k-fold cross-validation; returns (mean accuracy, per-fold list)."""
    n = len(dataset.tuples)
    if not 2 <= k <= n:
        raise InvalidParameterError(f"k must be in [2, {n}], got {k}")
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(n)
    accuracies = []
    for fold in np.array_split(order, k):
        tree = build_tree(dataset._take(np.setdiff1d(order, fold)), config)
        accuracies.append(test_accuracy(tree, dataset._take(fold)))
    return float(_total(accuracies)) / len(accuracies), accuracies


# --- persistence -------------------------------------------------------------


def _node_to_dict(root: Node) -> dict:
    out = {}
    stack = [(root, out)]
    while stack:
        node, d = stack.pop()
        if isinstance(node, LeafNode):
            d.update(kind="leaf", lp=dict(node.lp), mass=node.mass)
        else:
            d.update(kind="split", attr=node.attr, threshold=node.threshold, left={}, right={})
            stack += [(node.right, d["right"]), (node.left, d["left"])]
    return out


#: How far a loaded leaf's label probabilities may sum from 1.
LP_SUM_TOLERANCE = 1e-9


def _node_from_dict(data, n_attrs: int, label_set: tuple) -> Node:
    """Rebuild the node tree of ``data``, checking every node on the way:
    its kind, a split's attribute index and threshold, a leaf's lp labels
    and values (finite, non-negative, summing to 1) and its mass (finite,
    non-negative).
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
                mass = float(node["mass"])
                if set(lp) != set(label_set):
                    raise IngestionError(
                        f"{where}: lp labels {sorted(lp)} differ from the tree's "
                        f"labels {sorted(label_set)}"
                    )
                if not all(math.isfinite(p) and p >= 0.0 for p in lp.values()):
                    raise IngestionError(f"{where}: lp {lp} has a negative or non-finite value")
                if not abs(sum(lp.values()) - 1.0) <= LP_SUM_TOLERANCE:
                    raise IngestionError(
                        f"{where}: lp sums to {sum(lp.values())!r}, not 1 "
                        f"(tolerance {LP_SUM_TOLERANCE})"
                    )
                if not (math.isfinite(mass) and mass >= 0.0):
                    raise IngestionError(f"{where}: leaf mass {mass} is negative or not finite")
                plan.append(LeafNode(lp, mass))
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
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
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
    """Tree from its ``tree_to_dict`` form; malformed input, and a tree
    deeper than ``MAX_LAYERS``, raise ``IngestionError``."""
    try:
        attributes = tuple(str(a) for a in data["attributes"])
        labels = tuple(str(label) for label in data["labels"])
        root = _node_from_dict(data["root"], len(attributes), labels)
        depth = _node_depth(root)
        if depth > MAX_LAYERS:
            raise IngestionError(
                f"tree is {depth} layers deep, deeper than {MAX_LAYERS}, the deepest supported"
            )
        cfg = data.get("config")
        if cfg is None:
            config = TreeConfig(max_layers=max(1, depth))
        else:
            config = TreeConfig(
                max_layers=int(cfg["max_layers"]),
                n_split_points=int(cfg.get("n_split_points", 10)),
                min_partition_mass=float(cfg.get("min_partition_mass", MIN_PARTITION_MASS)),
                seed=int(cfg.get("seed", 0)),
            )
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError, InvalidParameterError) as exc:
        raise IngestionError(f"malformed tree ({exc!r})") from None
    return UncertainTree(attributes, labels, root, config)


def save_tree(tree: UncertainTree, path) -> None:
    """Write the tree as indented JSON, atomically."""
    with atomic_open(path) as fh:
        json.dump(tree_to_dict(tree), fh, indent=2)
        fh.write("\n")


def load_tree(path) -> UncertainTree:
    data = read_json(path)
    try:
        return tree_from_dict(data)
    except IngestionError as exc:
        raise IngestionError(f"{path}: {exc}") from None

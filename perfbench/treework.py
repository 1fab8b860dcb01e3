"""Outside-in views of a built tree, through the public designmine API only.

``node_datasets`` rebuilds every node's dataset from the training data with
``partition_tuple``, keeping fragments of positive mass, exactly as growing
the tree did.  On top of it sit the work count that makes seeds comparable
and the per-depth replay of split scoring used by the traced run.  The
routing counts give the same kind of work count for screening, from the
support boxes of the routed designs.
"""

from __future__ import annotations

import numpy as np

from designmine import best_split, enumerate_branches, gen_split_candidates, partition_tuple
from designmine.tree import LeafNode, SplitNode
from designmine.uncertain import label_masses

from tracing import NULL


def _split(ds, attr, threshold):
    left, right = [], []
    for t in ds.tuples:
        frag_l, frag_r = partition_tuple(t, attr, threshold)
        if frag_l.tp > 0.0:
            left.append(frag_l)
        if frag_r.tp > 0.0:
            right.append(frag_r)
    return ds.replace_tuples(left), ds.replace_tuples(right)


def node_datasets(tree, dataset, tr=NULL):
    """Yield (node, depth, node dataset) in preorder."""
    stack = [(tree.root, 0, dataset)]
    while stack:
        node, depth, ds = stack.pop()
        yield node, depth, ds
        if isinstance(node, SplitNode):
            with tr.span("tree.partition"):
                left, right = _split(ds, node.attr, node.threshold)
            tr.count("tree.partitioned", len(ds.tuples))
            tr.count("tree.kept", len(left.tuples) + len(right.tuples))
            stack.append((node.right, depth + 1, right))
            stack.append((node.left, depth + 1, left))


def is_scored(tree, depth, ds) -> bool:
    """Whether growing the tree scored split candidates at this node: below
    the layer cap and holding mass of more than one label."""
    if depth >= tree.config.max_layers:
        return False
    return sum(1 for m in label_masses(ds).values() if m > 0.0) > 1


def scoring_work(tree, dataset) -> int:
    """Fragment-candidate pairs scored while growing the tree: one
    ``partition_tuple`` call each, the bulk of ``build_tree``."""
    work = 0
    for node, depth, ds in node_datasets(tree, dataset):
        if is_scored(tree, depth, ds):
            work += len(ds.tuples) * len(gen_split_candidates(ds, tree.config.n_split_points))
    return work


def replay_splits(tree, dataset, tr) -> int:
    """Re-score every scored node with the public ``gen_split_candidates`` and
    ``best_split``, one span per node named by depth, and return the number
    of split nodes where the replay picks another (attr, threshold)."""
    mismatches = 0
    n = tree.config.n_split_points
    for node, depth, ds in node_datasets(tree, dataset, tr):
        tr.count(f"tree.fragments.d{depth}", len(ds.tuples))
        if not is_scored(tree, depth, ds):
            continue
        with tr.span(f"tree.best_split.d{depth}"):
            candidates = gen_split_candidates(ds, n)
            best = best_split(ds, candidates, tree.config.min_partition_mass)
        tr.count(f"tree.candidates.d{depth}", len(candidates))
        if isinstance(node, SplitNode) and (
            best is None or (best.attr, best.value) != (node.attr, node.threshold)
        ):
            mismatches += 1
    return mismatches


def support_boxes(tuples):
    """(lower, upper) arrays of the marginals' intervals, one row per tuple."""
    lo = np.array([[m.lower for m in t.marginals] for t in tuples])
    hi = np.array([[m.upper for m in t.marginals] for t in tuples])
    return lo, hi


def _sides(lo, hi, attr, threshold):
    """Rows whose mass reaches each side of a cut: continuous marginals need
    support on that side; point marginals go left when x <= threshold."""
    a, b = lo[:, attr], hi[:, attr]
    left = (a < threshold) | ((a == b) & (a <= threshold))
    right = b > threshold
    return left, right


def routing_visits(tree, lo, hi) -> int:
    """Split nodes reached by positive-mass fragments, summed over rows: the
    ``partition_tuple`` calls of classifying every row."""
    visits = 0
    stack = [(tree.root, np.ones(len(lo), dtype=bool))]
    while stack:
        node, mask = stack.pop()
        if isinstance(node, LeafNode) or not mask.any():
            continue
        visits += int(mask.sum())
        left, right = _sides(lo, hi, node.attr, node.threshold)
        stack.append((node.left, mask & left))
        stack.append((node.right, mask & right))
    return visits


def ctt_steps(tree, lo, hi, is_target, target_label) -> int:
    """``partition_tuple`` calls of scoring CTT for every target branch: each
    target row walks the branch path until its fragment loses all mass."""
    steps = 0
    for branch in enumerate_branches(tree):
        if branch.dominant != target_label:
            continue
        alive = is_target.copy()
        for attr, rel, threshold in branch.path:
            steps += int(alive.sum())
            left, right = _sides(lo, hi, attr, threshold)
            alive &= left if rel == "<=" else right
    return steps

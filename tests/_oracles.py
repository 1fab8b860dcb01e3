"""Independent reference implementations used to check the library.

Everything here except the CTT path walk, the scalar router and the scalar
tree builder works on exact points and plain counts, deliberately sharing no
code with the package: a certain-data gain-ratio tree (same candidate grid and
tie-break rules), Monte Carlo routing of sampled exact points through a
trained tree, and truncated-Gaussian samplers.  The CTT path walk cuts samples
with the package's ``partition_tuple``; it checks the routing that scores
branches, not the partition itself.  The scalar tree builder and the scalar
router grow a tree and route a sample tuple by tuple with ``partition_tuple``:
they are the definitions the array core of ``designmine.tree`` must reproduce
bit for bit.
"""

import math

import numpy as np
from scipy.special import ndtr, ndtri

from designmine.tree import LeafNode, SplitCandidate, SplitNode, UncertainTree
from designmine.uncertain import dataset_mass, label_masses, partition_tuple


# --- certain-data gain-ratio tree --------------------------------------------


class CLeaf:
    def __init__(self, counts, total):
        self.counts = counts
        self.total = total
        best = max(counts.values())
        self.label = min(k for k, v in counts.items() if v == best)


class CSplit:
    def __init__(self, attr, threshold, left, right):
        self.attr = attr
        self.threshold = threshold
        self.left = left
        self.right = right


def _counts(labels, label_set):
    out = {lab: 0.0 for lab in label_set}
    for lab in labels:
        out[lab] += 1.0
    return out


def _entropy_counts(counts, total):
    h = 0.0
    for c in counts.values():
        if c > 0.0:
            p = c / total
            h -= p * math.log2(p)
    return h


def build_certain_tree(points, labels, label_set, max_layers, n_split_points):
    """Plain C4.5-style binary tree on exact points (x <= s routes left)."""

    def grow(idx, depth):
        counts = _counts([labels[i] for i in idx], label_set)
        total = float(len(idx))
        leaf = CLeaf(counts, total)
        if depth >= max_layers:
            return leaf
        if sum(1 for c in counts.values() if c > 0) <= 1:
            return leaf
        cands = []
        for attr in range(len(points[0])):
            lo = min(points[i][attr] for i in idx)
            hi = max(points[i][attr] for i in idx)
            if not hi > lo:
                continue
            step = (hi - lo) / (n_split_points + 1)
            for i in range(1, n_split_points + 1):
                v = lo + i * step
                if lo < v < hi:
                    cands.append((attr, v))
        parent_h = _entropy_counts(counts, total)
        best, best_ratio = None, -math.inf
        for attr, v in cands:
            left_idx = [i for i in idx if points[i][attr] <= v]
            right_idx = [i for i in idx if points[i][attr] > v]
            if not left_idx or not right_idx:
                continue
            lc = _counts([labels[i] for i in left_idx], label_set)
            rc = _counts([labels[i] for i in right_idx], label_set)
            lt, rt = float(len(left_idx)), float(len(right_idx))
            wl, wr = lt / total, rt / total
            se = wl * _entropy_counts(lc, lt) + wr * _entropy_counts(rc, rt)
            si = -(wl * math.log2(wl) + wr * math.log2(wr))
            ratio = (parent_h - se) / si
            if ratio > best_ratio or (ratio == best_ratio and (attr, v) < best):
                best, best_ratio = (attr, v), ratio
        if best is None or best_ratio <= 0.0:
            return leaf
        attr, v = best
        left_idx = [i for i in idx if points[i][attr] <= v]
        right_idx = [i for i in idx if points[i][attr] > v]
        return CSplit(attr, v, grow(left_idx, depth + 1), grow(right_idx, depth + 1))

    return grow(list(range(len(points))), 0)


def certain_predict(node, x):
    while isinstance(node, CSplit):
        node = node.left if x[node.attr] <= node.threshold else node.right
    return node.label


# --- scalar uncertain-tree builder ------------------------------------------


def _entropy_of(masses, total):
    h = 0.0
    for m in masses.values():
        if m > 0.0:
            p = m / total
            h -= p * math.log2(p)
    return h


def _partition_label_masses(dataset, s):
    left = {label: 0.0 for label in dataset.label_set}
    right = {label: 0.0 for label in dataset.label_set}
    for t in dataset.tuples:
        frag_l, frag_r = partition_tuple(t, s.attr, s.value)
        left[t.label] += frag_l.tp
        right[t.label] += frag_r.tp
    return left, right


def oracle_gain_ratio(dataset, s, min_mass):
    """Gain ratio of one candidate, or None when a side is lighter than
    ``min_mass``."""
    left, right = _partition_label_masses(dataset, s)
    lt = sum(left.values())
    rt = sum(right.values())
    if lt < min_mass or rt < min_mass:
        return None
    parent = label_masses(dataset)
    total = lt + rt
    parent_h = _entropy_of(parent, sum(parent.values()))
    wl, wr = lt / total, rt / total
    se = wl * _entropy_of(left, lt) + wr * _entropy_of(right, rt)
    si = -(wl * math.log2(wl) + wr * math.log2(wr))
    return (parent_h - se) / si


def oracle_candidates(dataset, n):
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


def oracle_best_split_scored(dataset, candidates, min_mass):
    best, best_ratio = None, -math.inf
    for cand in candidates:
        ratio = oracle_gain_ratio(dataset, cand, min_mass)
        if ratio is None:
            continue
        if ratio > best_ratio or (
            ratio == best_ratio and (cand.attr, cand.value) < (best.attr, best.value)
        ):
            best, best_ratio = cand, ratio
    return best, best_ratio


def _partition_dataset(dataset, s):
    left, right = [], []
    for t in dataset.tuples:
        frag_l, frag_r = partition_tuple(t, s.attr, s.value)
        if frag_l.tp > 0.0:
            left.append(frag_l)
        if frag_r.tp > 0.0:
            right.append(frag_r)
    return dataset.replace_tuples(left), dataset.replace_tuples(right)


def oracle_build(dataset, config):
    """Grow the tree recursively, one ``partition_tuple`` call per fragment
    and candidate, with the package's tie-break and stop rules."""

    def grow(ds, depth):
        masses = label_masses(ds)
        total = sum(masses.values())
        lp = {label: masses[label] / total for label in ds.label_set}
        leaf = LeafNode(lp, total)
        if depth >= config.max_layers:
            return leaf
        if sum(1 for m in masses.values() if m > 0.0) <= 1:
            return leaf
        candidates = oracle_candidates(ds, config.n_split_points)
        cand, ratio = oracle_best_split_scored(ds, candidates, config.min_partition_mass)
        if cand is None or ratio <= 0.0:
            return leaf
        left_ds, right_ds = _partition_dataset(ds, cand)
        if not left_ds.tuples or not right_ds.tuples:
            return leaf
        return SplitNode(
            cand.attr, cand.value, grow(left_ds, depth + 1), grow(right_ds, depth + 1)
        )

    return UncertainTree(dataset.attribute_names, dataset.label_set, grow(dataset, 0), config)


# --- scalar router ------------------------------------------------------------


def oracle_route(tree, t):
    """(leaf, arriving mass) pairs for one sample: its mass is cut at every
    split node with ``partition_tuple``, and each leaf it reaches with
    positive mass is listed once, depth first with the right subtree before
    the left."""
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


def oracle_classify(tree, t):
    """The leaf distributions ``oracle_route`` reaches, weighted by the
    arriving masses and summed leaf by leaf, over the sample's mass."""
    acc = {label: 0.0 for label in tree.label_set}
    for leaf, mass in oracle_route(tree, t):
        for label, p in leaf.lp.items():
            acc[label] += mass * p
    return {label: v / t.tp for label, v in acc.items()}


# --- Monte Carlo classification ----------------------------------------------


def sample_marginal(marginal, n, rng):
    """Exact draws from a truncated Gaussian via inverse-CDF sampling."""
    if marginal.sigma == 0.0:
        return np.full(n, marginal.mean)
    za = (marginal.lower - marginal.mean) / marginal.sigma
    zb = (marginal.upper - marginal.mean) / marginal.sigma
    pa, pb = ndtr(za), ndtr(zb)
    u = rng.random(n)
    return marginal.mean + marginal.sigma * ndtri(pa + u * (pb - pa))


def mc_classify(tree: UncertainTree, t, n, rng):
    """Classify n sampled exact points and average their leaf distributions.

    Returns (mean lp vector, standard error vector) ordered by the tree's
    label set.
    """
    X = np.column_stack([sample_marginal(m, n, rng) for m in t.marginals])
    labels = list(tree.label_set)
    lp = np.zeros((n, len(labels)))

    def walk(node, idx):
        if idx.size == 0:
            return
        if isinstance(node, LeafNode):
            lp[idx] = [node.lp[lab] for lab in labels]
            return
        mask = X[idx, node.attr] <= node.threshold
        walk(node.left, idx[mask])
        walk(node.right, idx[~mask])

    walk(tree.root, np.arange(n))
    mean = lp.mean(axis=0)
    se = lp.std(axis=0, ddof=1) / math.sqrt(n)
    return mean, se


# --- CTT by walking one branch's path -----------------------------------------


def path_walk_ctt(branch, d_origin):
    """CTT of one branch: every sample labelled with the branch's dominant
    label is cut down the branch's path alone, and the mass left at its end
    is summed in ``d_origin`` order."""
    target = branch.dominant
    total = dataset_mass(d_origin)
    reached = 0.0
    for t in d_origin.tuples:
        if t.label != target:
            continue
        frag = t
        for attr, rel, threshold in branch.path:
            left, right = partition_tuple(frag, attr, threshold)
            frag = left if rel == "<=" else right
            if frag.tp <= 0.0:
                break
        reached += frag.tp
    return reached / total


# --- random problem generators -----------------------------------------------


def random_certain_problem(rng, max_tuples=50, max_attrs=4):
    """A random labelled point set with box-ish class structure plus noise."""
    n = int(rng.integers(8, max_tuples + 1))
    k = int(rng.integers(1, max_attrs + 1))
    n_labels = int(rng.integers(2, 4))
    label_set = ["a", "b", "c"][:n_labels]
    X = rng.uniform(1.0, 10.0, size=(n, k))
    pivot_attr = int(rng.integers(0, k))
    pivots = np.sort(rng.uniform(2.0, 9.0, size=n_labels - 1))
    labels = []
    for row in X:
        bucket = int(np.searchsorted(pivots, row[pivot_attr]))
        if rng.random() < 0.15:
            bucket = int(rng.integers(0, n_labels))
        labels.append(label_set[bucket])
    return [tuple(map(float, row)) for row in X], labels, label_set

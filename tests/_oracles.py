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
bit for bit.  The row-by-row point CSV reader is the definition the array
reader of ``designmine.morph.load_points`` must reproduce: same ids, same
coordinates, same error messages; the row-by-row dataset CSV reader is the
one ``designmine.uncertain``'s one-pass dataset reader must reproduce.  The
per-design surrogate responder (``oracle_respond``, ``oracle_curve``,
``oracle_histories``) is the definition the design-matrix responder of
``designmine.surrogate`` must reproduce bit for bit: Python float polynomials,
one ``np.linspace`` grid per design, and the metric arithmetic of
``designmine.metrics`` written out for one curve.  The ordered morph sum
(``oracle_apply_morph``) is the definition the blocked ``apply_morph`` must
reproduce bit for bit: Python floats, each node's terms added in order.
"""

import csv
import itertools
import math

import numpy as np
from scipy.special import ndtr, ndtri

from designmine.errors import IngestionError, InvalidParameterError
from designmine.metrics import ForceDeflectionCurve, IntrusionHistories, ResponseRecord
from designmine.morph import tps_kernel
from designmine.tree import LeafNode, SplitCandidate, SplitNode, UncertainTree
from designmine.uncertain import partition_tuple


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


def _loop_sum(values):
    """``values`` added in order from 0.0: the order the package pins, which
    Python's own ``sum`` of floats does not keep from 3.12 on."""
    total = 0.0
    for v in values:
        total += v
    return total


def _label_masses(dataset):
    masses = {label: 0.0 for label in dataset.label_set}
    for t in dataset.tuples:
        masses[t.label] += t.tp
    return masses


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
    ``min_mass`` or has no mass."""
    left, right = _partition_label_masses(dataset, s)
    lt = _loop_sum(left.values())
    rt = _loop_sum(right.values())
    if lt < min_mass or rt < min_mass or lt <= 0.0 or rt <= 0.0:
        return None
    parent = _label_masses(dataset)
    total = lt + rt
    parent_h = _entropy_of(parent, _loop_sum(parent.values()))
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
        masses = _label_masses(ds)
        total = _loop_sum(masses.values())
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
    total = _loop_sum(t.tp for t in d_origin.tuples)
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


# --- row-by-row point CSV reader ---------------------------------------------


def _data_rows(reader):
    """(line number, row) for the non-blank rows after the header: the file
    line the row starts on, one after the last line of the record before it."""
    lineno = reader.line_num + 1
    for row in reader:
        if row and any(c.strip() for c in row):
            yield lineno, row
        lineno = reader.line_num + 1


def oracle_load_points(path):
    """Read an `id,x,y,z` CSV; ids come back verbatim as strings.  Every
    coordinate must be a finite number."""
    ids, coords = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise IngestionError(f"{path}: empty file") from None
        if header != ["id", "x", "y", "z"]:
            raise IngestionError(f"{path}: expected header id,x,y,z, got {','.join(header)}")
        for lineno, row in _data_rows(reader):
            if len(row) != 4:
                raise IngestionError(f"{path}: row {lineno}: expected 4 fields, got {len(row)}")
            ids.append(row[0])
            values = []
            for name, cell in zip(header[1:], row[1:]):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise IngestionError(
                        f"{path}: row {lineno}, column {name!r}: "
                        f"could not parse {cell.strip()!r} as a number"
                    ) from None
            coords.append(values)
    points = np.asarray(coords, dtype=float)
    if not np.isfinite(points).all():
        bad = int(np.flatnonzero(~np.isfinite(points).all(axis=1))[0])
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            lineno, _ = next(itertools.islice(_data_rows(reader), bad, None))
        raise IngestionError(f"{path}: row {lineno}: non-finite coordinate")
    return ids, points


# --- ordered morph sum ----------------------------------------------------------


def oracle_apply_morph(morph, nodes):
    """``apply_morph`` one node at a time in Python floats: each coordinate
    is the node's kernel terms added in control-point order, then its affine
    terms in coordinate order, then the offset.  Distances are
    ``sqrt((dx*dx + dy*dy) + dz*dz)``; the kernel is ``tps_kernel`` of a
    node's distances."""
    nodes = np.asarray(nodes, dtype=float).reshape(-1, 3).tolist()
    original = morph.original.tolist()
    weights = morph.kernel_weights.tolist()
    affine = morph.affine.tolist()
    offset = morph.offset.tolist()
    out = []
    for node in nodes:
        r = []
        for point in original:
            dx, dy, dz = (a - b for a, b in zip(point, node))
            r.append(math.sqrt((dx * dx + dy * dy) + dz * dz))
        kernel = tps_kernel(np.array(r)).tolist()
        row = []
        for c in range(3):
            acc = kernel[0] * weights[0][c]
            for k, w in zip(kernel[1:], weights[1:]):
                acc += k * w[c]
            for x, a in zip(node, affine):
                acc += x * a[c]
            row.append(acc + offset[c])
        out.append(row)
    return np.array(out).reshape(-1, 3)


# --- row-by-row dataset CSV reader -------------------------------------------


def oracle_read_csv(path, expect_label: bool):
    """``(names, rows, labels)`` of a dataset CSV, read row by row."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if expect_label:
            if header[-1] != "label":
                raise IngestionError(f"{path}: last column must be 'label', got {header[-1]!r}")
            names = header[:-1]
        else:
            names = header
        if not names:
            raise IngestionError(f"{path}: no attribute columns")
        if len(set(names)) != len(names):
            raise IngestionError(f"{path}: duplicate attribute names in header")
        rows: list[list[float]] = []
        labels: list[str] = []
        for lineno, row in _data_rows(reader):
            if len(row) != len(header):
                raise IngestionError(
                    f"{path}: row {lineno}: expected {len(header)} fields, got {len(row)}"
                )
            values = []
            for name, cell in zip(names, row):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise IngestionError(
                        f"{path}: row {lineno}, column {name!r}: "
                        f"could not parse {cell.strip()!r} as a number"
                    ) from None
            rows.append(values)
            if expect_label:
                labels.append(row[-1].strip())
    return names, rows, labels


def oracle_load_design_points(path):
    """``(names, rows, labels)`` of a design-point CSV, ``labels`` None when
    the header's last field is not ``label``."""
    with open(path, newline="", encoding="utf-8") as fh:
        header = fh.readline()
    has_label = header.strip().split(",")[-1].strip() == "label"
    names, rows, labels = oracle_read_csv(path, expect_label=has_label)
    return names, rows, (labels if has_label else None)


# --- per-design surrogate responder ------------------------------------------------

_MARKER_WEIGHTS = (0.9, 0.95, 1.05, 1.1)


def _evaluate(poly, x):
    value = poly.const
    for name, c in poly.linear:
        value += c * x[name]
    for name, c in poly.quadratic:
        value += c * x[name] ** 2
    for a, b, c in poly.interactions:
        value += c * x[a] * x[b]
    return value


def _check_inside(comp, x):
    if len(x) != len(comp.variables):
        raise InvalidParameterError(
            f"{comp.name}: expected {len(comp.variables)} variables, got {len(x)}"
        )
    values = {}
    for (name, lo, hi), v in zip(comp.variables, x):
        if not lo <= v <= hi:
            raise InvalidParameterError(
                f"{comp.name}: {name}={v} outside bounds [{lo}, {hi}]"
            )
        values[name] = float(v)
    return values


def oracle_curve(x, comp):
    values = _check_inside(comp, x)
    f_peak = _evaluate(comp.peak, values)
    d = _evaluate(comp.deflection, values)
    if f_peak <= 0 or d <= 0:
        raise InvalidParameterError(
            f"{comp.name}: non-physical curve (peak {f_peak} kN, deflection {d} m)"
        )
    u = np.linspace(0.0, d, comp.curve_points)
    force = f_peak * np.clip(u / (comp.ramp_fraction * d), 0.0, 1.0)
    return ForceDeflectionCurve(u, force)


def oracle_histories(x, comp):
    values = _check_inside(comp, x)
    s_final = _evaluate(comp.intrusion, values)
    if s_final <= 0:
        raise InvalidParameterError(f"{comp.name}: non-physical intrusion {s_final} mm")
    t = np.linspace(0.0, comp.duration_s, comp.history_points)
    tau = t / comp.duration_s
    shape = 3.0 * tau**2 - 2.0 * tau**3
    signals = np.stack([w * s_final * shape for w in _MARKER_WEIGHTS])
    return IntrusionHistories(t, signals)


def oracle_respond(x, comp):
    values = _check_inside(comp, x)
    mass = _evaluate(comp.mass, values)
    if mass <= 0:
        raise InvalidParameterError(f"{comp.name}: non-physical mass {mass} kg")
    curve = oracle_curve(x, comp)
    histories = oracle_histories(x, comp)
    energy = float((np.diff(curve.u) * (curve.force[1:] + curve.force[:-1]) / 2.0).sum())
    d = float(curve.u[-1])
    return ResponseRecord(
        f_p=float(np.max(curve.force)),
        s_p=float(np.max(np.mean(histories.signals, axis=0))),
        mass=mass,
        sea=energy * 1e3 / mass,
        avgstiff={comp.name: energy / (d * d)},
    )

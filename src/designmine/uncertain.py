"""Uncertain design samples: truncated-Gaussian intervals and tuple-probability arithmetic.

A design sample with uncertainty is a hypercube in design space: one bounded
interval per attribute, each carrying a Gaussian density truncated and
renormalized on that interval.  Splitting the hypercube at a threshold sends a
computable fraction of the sample's probability mass to each side, which is
what lets a decision tree train on and classify such samples.

All types here are immutable; every operation returns new values, so anything
in this module can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .csvtext import read_csv, read_json
from .errors import (
    EmptyDatasetError,
    InconsistentCriteriaError,
    IngestionError,
    InvalidParameterError,
    SchemaError,
)

__all__ = [
    "TruncatedGaussianMarginal",
    "UncertainTuple",
    "Dataset",
    "LabelCriteria",
    "make_marginal",
    "interval_marginal",
    "mass_on",
    "fresh_tuple",
    "partition_tuple",
    "dataset_mass",
    "label_probability",
    "label_masses",
    "load_dataset",
    "load_design_points",
    "dataset_from_design",
    "apply_labels",
    "load_criteria",
]


_SQRT2 = math.sqrt(2.0)


def _std_normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / _SQRT2))


def _elementwise(f, x):
    """``f``, a function of one float, applied to each element of ``x``: the
    same call on the same doubles as a Python loop, without the per-element
    numpy overhead of ``np.frompyfunc``."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _normal_cdf(x, mean, sigma):
    """``_std_normal_cdf((x - mean) / sigma)``, elementwise."""
    z = (x - mean) / sigma
    return 0.5 * (1.0 + _elementwise(math.erf, z / _SQRT2))


@dataclass(frozen=True)
class TruncatedGaussianMarginal:
    """Gaussian density restricted to [lower, upper] and scaled to unit mass.

    ``mean`` is the original exact attribute value; ``normalizer`` is the
    coefficient that makes the truncated density integrate to 1 on the
    interval.  A zero-width interval (``sigma == 0``) represents a certain
    value: all mass sits at ``mean``.
    """

    lower: float
    upper: float
    mean: float
    sigma: float
    normalizer: float

    @property
    def is_point(self) -> bool:
        return self.sigma == 0.0

    def pdf(self, x: float) -> float:
        """Density at x (0 outside the interval; undefined for point marginals)."""
        if self.is_point:
            raise InvalidParameterError("point marginal has no density")
        if x < self.lower or x > self.upper:
            return 0.0
        z = (x - self.mean) / self.sigma
        return self.normalizer * math.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))


def make_marginal(mean: float, relative_deviation: float) -> TruncatedGaussianMarginal:
    """Expand an exact value into its uncertain interval.

    The interval spans ``mean*(1-R) .. mean*(1+R)`` (ordered, so negative
    means work), sigma is one sixth of the width so the interval covers three
    standard deviations each side, and the normalizer restores unit mass.
    ``R == 0`` yields a certain point marginal.
    """
    if not math.isfinite(mean):
        raise InvalidParameterError(f"mean must be finite, got {mean}")
    if not 0.0 <= relative_deviation < 1.0:
        raise InvalidParameterError(
            f"relative deviation must be in [0, 1), got {relative_deviation}"
        )
    if relative_deviation == 0.0:
        return TruncatedGaussianMarginal(mean, mean, mean, 0.0, 1.0)
    if mean == 0.0:
        raise InvalidParameterError(
            "mean must be nonzero when relative deviation > 0 (interval would be empty)"
        )
    a = mean * (1.0 - relative_deviation)
    b = mean * (1.0 + relative_deviation)
    lower, upper = (a, b) if a < b else (b, a)
    return interval_marginal(lower, upper, mean)


def interval_marginal(
    lower: float, upper: float, mean: float | None = None
) -> TruncatedGaussianMarginal:
    """Marginal on an explicit interval; mean defaults to the midpoint.

    Sigma follows the three-sigma policy (width / 6) and the normalizer is
    computed so that the truncated density has unit mass whatever the mean's
    position inside the interval.
    """
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise InvalidParameterError(f"interval must be finite, got [{lower}, {upper}]")
    if not upper > lower:
        raise InvalidParameterError(f"need lower < upper, got [{lower}, {upper}]")
    if mean is None:
        mean = 0.5 * (lower + upper)
    if not lower <= mean <= upper:
        raise InvalidParameterError(f"mean {mean} outside interval [{lower}, {upper}]")
    sigma = (upper - lower) / 6.0
    raw = 0.0
    if sigma > 0.0:
        raw = _std_normal_cdf((upper - mean) / sigma) - _std_normal_cdf((lower - mean) / sigma)
    if not raw > 0.0:  # subnormal bounds: sigma or the mass rounds to 0
        raise InvalidParameterError(f"interval [{lower}, {upper}] too narrow for a density")
    return TruncatedGaussianMarginal(lower, upper, mean, sigma, 1.0 / raw)


def mass_on(marginal: TruncatedGaussianMarginal, a: float, b: float) -> float:
    """Probability mass of the marginal on [a, b].

    Bounds are clamped to the marginal's interval, so out-of-range requests
    return 0 rather than raising.  Point marginals put all mass at the mean.
    """
    if a > b:
        raise InvalidParameterError(f"need a <= b, got [{a}, {b}]")
    if marginal.is_point:
        return 1.0 if a <= marginal.mean <= b else 0.0
    lo = max(a, marginal.lower)
    hi = min(b, marginal.upper)
    if hi <= lo:
        return 0.0
    z0 = (lo - marginal.mean) / marginal.sigma
    z1 = (hi - marginal.mean) / marginal.sigma
    return marginal.normalizer * (_std_normal_cdf(z1) - _std_normal_cdf(z0))


@dataclass(frozen=True)
class UncertainTuple:
    """One design sample: marginals, the active sub-box, a label, and its mass.

    ``active_box`` narrows each marginal to the sub-interval still owned by
    this (fragment of a) sample; ``box_mass`` caches the per-attribute mass of
    the active box under the *original* marginal, and ``tp`` is their product
    (the tuple probability).  Fragments produced by splitting keep the
    original marginals untouched.
    """

    id: object
    marginals: tuple[TruncatedGaussianMarginal, ...]
    active_box: tuple[tuple[float, float], ...]
    box_mass: tuple[float, ...]
    label: str
    tp: float


def fresh_tuple(
    tuple_id: object, marginals: Sequence[TruncatedGaussianMarginal], label: str
) -> UncertainTuple:
    """A newly ingested sample: full intervals active, tuple probability 1."""
    marginals = tuple(marginals)
    box = tuple((m.lower, m.upper) for m in marginals)
    mass = tuple(1.0 for _ in marginals)
    return UncertainTuple(tuple_id, marginals, box, mass, label, 1.0)


def _split_attr_mass(
    marginal: TruncatedGaussianMarginal,
    box: tuple[float, float],
    current_mass: float,
    s: float,
) -> tuple[float, float]:
    """Mass of the left/right pieces when the active box is cut at s.

    Point marginals route their whole mass by the certain-data rule
    ``x <= s goes left``; continuous marginals integrate the two pieces.
    """
    if marginal.is_point:
        if s >= marginal.mean:
            return current_mass, 0.0
        return 0.0, current_mass
    a, b = box
    sc = min(max(s, a), b)
    return mass_on(marginal, a, sc), mass_on(marginal, sc, b)


def _replaced_product(masses: Sequence[float], attr: int, value: float) -> float:
    tp = 1.0
    for k, m in enumerate(masses):
        tp *= value if k == attr else m
    return tp


def partition_tuple(
    t: UncertainTuple, attr: int, s: float
) -> tuple[UncertainTuple, UncertainTuple]:
    """Cut a sample's hypercube at threshold s on one attribute.

    Returns the (left, right) fragments with active boxes [a, s] and [s, b]
    (clamped, so a threshold outside the box leaves one side empty).  Labels
    and marginals are inherited; the fragment masses add up to the parent's.
    """
    if not 0 <= attr < len(t.marginals):
        raise IndexError(f"attribute index {attr} out of range")
    marginal = t.marginals[attr]
    a, b = t.active_box[attr]
    m_left, m_right = _split_attr_mass(marginal, (a, b), t.box_mass[attr], s)
    sc = min(max(s, a), b)

    left_box = list(t.active_box)
    right_box = list(t.active_box)
    if not marginal.is_point:
        left_box[attr] = (a, sc)
        right_box[attr] = (sc, b)

    left_mass = list(t.box_mass)
    right_mass = list(t.box_mass)
    left_mass[attr] = m_left
    right_mass[attr] = m_right
    tp_left = _replaced_product(t.box_mass, attr, m_left)
    tp_right = _replaced_product(t.box_mass, attr, m_right)
    left = UncertainTuple(t.id, t.marginals, tuple(left_box), tuple(left_mass), t.label, tp_left)
    right = UncertainTuple(t.id, t.marginals, tuple(right_box), tuple(right_mass), t.label, tp_right)
    return left, right


# --- the tuples as one array ------------------------------------------------------
#
# Library code reads a dataset as rows: one (rows, attributes, fields) float
# table plus the row masses and label indices.  ``tree`` grows trees and
# routes samples on such rows.  The fields of a cell are the active box, the
# box mass, the marginal, and the normal CDF at the box bounds (0 for point
# marginals); a cut writes a left child's upper bound (_HI, _CDF_HI) and a
# right child's lower one (_HI - 1, _CDF_HI - 1).
_LO, _HI, _MASS, _MEAN, _SIGMA, _NORM, _CDF_LO, _CDF_HI = range(8)


def _total(x):
    """Sum over the last axis, added in order from 0.0 as a Python loop adds
    (``cumsum`` adds in order; adding 0.0 turns a -0.0 total into 0.0).
    Python's own ``sum`` of floats compensates from 3.12 on, so every sum
    whose order is pinned goes through here."""
    x = np.asarray(x, dtype=float)
    if not x.shape[-1]:
        return np.zeros(x.shape[:-1])
    return 0.0 + np.cumsum(x, axis=-1)[..., -1]


class _Rows:
    """Tuple fragments as arrays: ``table`` is (n rows, k attributes, fields);
    ``tp`` holds the fragment masses, ``label`` the index of each row's label
    in the label set, ``pos`` its index in the input and ``seg`` the node it
    sits at: a frontier node while growing, a tree node index while routing.

    The rows of each node stay in input order, which is the order every sum
    over them is taken in.  The active box of a continuous marginal lies
    inside the marginal's interval, as ``fresh_tuple`` and ``partition_tuple``
    keep it.
    """

    __slots__ = ("table", "tp", "label", "pos", "seg")

    def __init__(self, table, tp, label, pos, seg):
        self.table, self.tp, self.label, self.pos, self.seg = table, tp, label, pos, seg

    @classmethod
    def at_root(cls, table, tp, label) -> "_Rows":
        """Rows at node 0 in positions 0, 1, ..., every array read-only, so
        the rows can be shared: growth and routing take before they write.
        The node tags are one 0 broadcast, which allocates nothing."""
        arrays = (table, tp, label, np.arange(len(tp)), np.broadcast_to(np.intp(0), (len(tp),)))
        for a in arrays:
            a.flags.writeable = False
        return cls(*arrays)

    def __len__(self) -> int:
        return len(self.tp)

    def take(self, index) -> "_Rows":
        return _Rows(
            self.table[index], self.tp[index], self.label[index], self.pos[index], self.seg[index]
        )


def _node_rows(tuples, k: int, label_set=()) -> _Rows:
    """Read-only rows of ``tuples`` with ``k`` attributes at node 0, labels
    indexed in ``label_set`` (without a label set, labels are not read).  The
    first six fields of the table are read into one flat list, then the CDFs
    of the continuous cells are computed."""
    for t in tuples:
        if len(t.marginals) != k:
            raise SchemaError(f"tuple {t.id!r} has {len(t.marginals)} attributes, tree expects {k}")
    flat = [
        x
        for t in tuples
        for m, (lo, hi), mass in zip(t.marginals, t.active_box, t.box_mass)
        for x in (lo, hi, mass, m.mean, m.sigma, m.normalizer)
    ]
    table = np.zeros((len(tuples), k, 8))
    table[..., :_CDF_LO] = np.reshape(np.array(flat, dtype=float), (len(tuples), k, _CDF_LO))
    cont = table[..., _SIGMA] != 0.0
    bounds = table[..., _LO:_HI + 1][cont]
    table[..., _CDF_LO:_CDF_HI + 1][cont] = _normal_cdf(
        bounds, table[..., _MEAN, None][cont], table[..., _SIGMA, None][cont]
    )
    index = {label: j for j, label in enumerate(label_set)}
    label = np.array([index[t.label] if index else 0 for t in tuples], dtype=np.intp)
    tp = np.array([t.tp for t in tuples], dtype=float)
    return _Rows.at_root(table, tp, label)


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of uncertain tuples over named attributes.

    ``tuples`` is the public view; library code reads the dataset's rows
    (``_rows``), built from the tuples once and cached.  ``origin_mass``
    remembers the mass of the root training dataset so that coverage metrics
    computed on sub-datasets keep a fixed denominator.
    """

    attribute_names: tuple[str, ...]
    label_set: tuple[str, ...]
    tuples: tuple[UncertainTuple, ...]
    origin_mass: float

    def __post_init__(self):
        k = len(self.attribute_names)
        known = set(self.label_set)
        for t in self.tuples:
            if len(t.marginals) != k:
                raise InvalidParameterError(
                    f"tuple {t.id!r} has {len(t.marginals)} marginals, expected {k}"
                )
            if t.label not in known:
                raise InvalidParameterError(
                    f"tuple {t.id!r} has label {t.label!r} outside the label set"
                )

    @cached_property
    def _rows(self) -> _Rows:
        """The tuples' read-only rows, labels indexed in the label set;
        ``dataset_from_design`` fills them as it builds the tuples."""
        return _node_rows(self.tuples, len(self.attribute_names), self.label_set)

    def replace_tuples(self, tuples: Iterable[UncertainTuple]) -> "Dataset":
        """Same schema and origin mass, different tuples (used when splitting)."""
        return Dataset(self.attribute_names, self.label_set, tuple(tuples), self.origin_mass)

    def _take(self, index) -> "Dataset":
        """``replace_tuples`` with the tuples at ``index`` (an integer array),
        in that order, the rows taken from these."""
        ds = self.replace_tuples([self.tuples[i] for i in index.tolist()])
        rows = self._rows
        vars(ds)["_rows"] = _Rows.at_root(rows.table[index], rows.tp[index], rows.label[index])
        return ds


def dataset_mass(dataset: Dataset) -> float:
    """Total tuple-probability mass (the size of an uncertain dataset)."""
    return float(_total(dataset._rows.tp))


def label_masses(dataset: Dataset) -> dict[str, float]:
    """Mass per label, with every label of the label set present (possibly 0),
    each added in row order from 0.0 (``bincount`` adds its weights in order)."""
    rows = dataset._rows
    masses = np.bincount(rows.label, weights=rows.tp, minlength=len(dataset.label_set))
    return dict(zip(dataset.label_set, masses.tolist()))


def label_probability(dataset: Dataset, label: str) -> float:
    """Share of the dataset's mass carrying the given label."""
    total = dataset_mass(dataset)
    if total <= 0.0:
        raise EmptyDatasetError("label probability undefined on an empty dataset")
    return label_masses(dataset)[label] / total


def dataset_from_design(
    attribute_names: Sequence[str],
    rows: Sequence[Sequence[float]],
    labels: Sequence[str],
    uncertainty: float,
    label_set: Sequence[str] | None = None,
) -> Dataset:
    """Build a fresh dataset from exact design rows plus labels.

    Each exact value is expanded to a truncated-Gaussian marginal with
    relative deviation ``uncertainty`` (0 keeps the data certain).  Tuple ids
    are 1-based row numbers.

    The marginals of all cells are computed at once, in ``make_marginal``'s
    operation order, and the dataset keeps them as its rows.  Rows that are not
    one float array, and cells ``make_marginal`` rejects, are built cell by
    cell with ``make_marginal``, which raises its error for the first bad
    cell.
    """
    if len(rows) != len(labels):
        raise InvalidParameterError("rows and labels must have equal length")
    values = _float_rows(rows)
    table = None if values is None else _fresh_table(values, uncertainty)
    if table is None:
        tuples = [
            fresh_tuple(i, [make_marginal(float(v), uncertainty) for v in row], label)
            for i, (row, label) in enumerate(zip(rows, labels), start=1)
        ]
    else:
        tuples = _fresh_tuples(table, labels, uncertainty == 0.0)
    label_set = tuple(sorted(set(labels) if label_set is None else label_set))
    tp = np.ones(len(tuples))
    ds = Dataset(tuple(attribute_names), label_set, tuple(tuples), float(_total(tp)))
    if table is not None:
        index = {label: j for j, label in enumerate(label_set)}
        label = np.array([index[label] for label in labels], dtype=np.intp)
        vars(ds)["_rows"] = _Rows.at_root(table, tp, label)  # the slot ``cached_property`` fills
    return ds


def _float_rows(rows):
    """``rows`` as an (n, k) float array when they are one: a 2-D float array,
    or equal-length rows of Python floats; otherwise None."""
    if isinstance(rows, np.ndarray):
        return rows if rows.dtype == float and rows.ndim == 2 else None
    if not all(type(v) is float for row in rows for v in row):
        return None
    try:
        values = np.array(rows, dtype=float)
    except ValueError:  # rows of different lengths
        return None
    return values if values.ndim == 2 else None


def _fresh_table(values, uncertainty: float):
    """The table of the fresh tuples ``make_marginal`` and ``fresh_tuple``
    make of ``values``, each field computed as they compute it; None when a
    cell is one ``make_marginal`` rejects."""
    if not (0.0 <= uncertainty < 1.0 and np.isfinite(values).all()):
        return None
    table = np.zeros(values.shape + (8,))
    table[..., _MASS] = 1.0
    table[..., _MEAN] = values
    if uncertainty == 0.0:
        table[..., _LO] = table[..., _HI] = values
        table[..., _NORM] = 1.0
        return table
    with np.errstate(all="ignore"):
        a = values * (1.0 - uncertainty)
        b = values * (1.0 + uncertainty)
        lower, upper = np.where(a < b, a, b), np.where(a < b, b, a)
        sigma = (upper - lower) / 6.0
        ok = (values != 0.0) & np.isfinite(lower) & np.isfinite(upper) & (lower < upper)
        if not (ok & (lower <= values) & (values <= upper) & (sigma > 0.0)).all():
            return None
        cdf_lo, cdf_hi = _normal_cdf(lower, values, sigma), _normal_cdf(upper, values, sigma)
        raw = cdf_hi - cdf_lo
        if not (raw > 0.0).all():
            return None
    table[..., _LO], table[..., _HI], table[..., _SIGMA] = lower, upper, sigma
    table[..., _NORM] = 1.0 / raw
    table[..., _CDF_LO], table[..., _CDF_HI] = cdf_lo, cdf_hi
    return table


def _fresh_tuples(table, labels, point: bool) -> list:
    """The tuples of a ``_fresh_table``, one row at a time: ids 1, 2, ...,
    full boxes and unit masses, as ``fresh_tuple`` makes them."""
    ones = (1.0,) * table.shape[1]
    tuples = []
    for i, label in enumerate(labels):
        if point:
            marginals = tuple([
                TruncatedGaussianMarginal(v, v, v, 0.0, 1.0) for v in table[i, :, _MEAN].tolist()
            ])
        else:
            marginals = tuple([
                TruncatedGaussianMarginal(c[_LO], c[_HI], c[_MEAN], c[_SIGMA], c[_NORM])
                for c in table[i].tolist()
            ])
        box = tuple([(m.lower, m.upper) for m in marginals])
        tuples.append(UncertainTuple(i + 1, marginals, box, ones, label, 1.0))
    return tuples


def load_dataset(
    path, uncertainty: float, label_set: Sequence[str] | None = None
) -> Dataset:
    """Read a labelled dataset CSV (``attr1,...,attrK,label`` header).

    Exact values are expanded to marginals via ``make_marginal``; a label
    outside a declared label set, and a cell ``make_marginal`` rejects, are
    errors naming the file line and column.
    """
    names, values, labels, lines = _read_csv(path, expect_label=True)
    if label_set is not None:
        declared = set(label_set)
        for line, label in zip(lines, labels):
            if label not in declared:
                raise IngestionError(
                    f"{path}: row {line}, column 'label': label {label!r} "
                    f"not in declared label set {sorted(declared)}"
                )
    return _file_dataset(path, names, values, labels, lines, uncertainty, label_set)


def _file_dataset(path, names, values, labels, lines, uncertainty: float, label_set=None) -> Dataset:
    """``dataset_from_design`` of cells read from ``path``; a cell
    ``make_marginal`` rejects raises ``IngestionError`` naming the file and,
    through ``_bad_cell``, its row and column."""
    try:
        return dataset_from_design(names, values, labels, uncertainty, label_set)
    except InvalidParameterError as exc:
        raise IngestionError(f"{path}: {_bad_cell(names, values, lines, uncertainty)}{exc}") from exc


def _bad_cell(names, values, lines, uncertainty: float) -> str:
    """``"row N, column 'a': "`` of the first cell ``make_marginal`` rejects
    at a valid ``uncertainty``, or ``""``."""
    if not 0.0 <= uncertainty < 1.0:
        return ""
    for line, row in zip(lines, values.tolist()):
        for name, value in zip(names, row):
            try:
                make_marginal(value, uncertainty)
            except InvalidParameterError:
                return f"row {line}, column {name!r}: "
    return ""


def load_design_points(path):
    """Read a design-point CSV (dataset format, label column optional).

    Returns ``(attribute_names, rows, labels)`` with ``labels`` None when the
    file has no label column.
    """
    names, values, labels, _ = _read_csv(path, expect_label=None)
    return names, values.tolist(), labels


def _read_csv(path, expect_label: bool | None):
    """``(attribute names, (rows, attributes) float array, labels, file
    lines)`` of a dataset CSV, with a last column 'label' when
    ``expect_label`` is True, or when it is None and the header ends in one.
    ``labels`` is None without a label column."""

    def header_rule(fields):
        labelled = fields[-1:] == ["label"] if expect_label is None else expect_label
        if labelled and fields[-1:] != ["label"]:
            raise IngestionError(f"last column must be 'label', got {(fields or [''])[-1]!r}")
        names = fields[:-1] if labelled else fields
        if not names:
            raise IngestionError("no attribute columns")
        if len(set(names)) != len(names):
            raise IngestionError("duplicate attribute names in header")
        return -1 if labelled else None

    header, labels, values, lines = read_csv(path, header_rule)
    if labels is None:
        return header, values, None, lines
    return header[:-1], values, [label.strip() for label in labels], lines


# --- threshold labelling ----------------------------------------------------

_OPS = {
    "<": lambda x, v: x < v,
    "<=": lambda x, v: x <= v,
    ">": lambda x, v: x > v,
    ">=": lambda x, v: x >= v,
}


@dataclass(frozen=True)
class LabelCriteria:
    """Threshold rules that sort response records into good/poor/fallback.

    ``good`` predicates must *all* hold for the good label; *any* ``poor``
    predicate assigns the poor label (good wins when both would, which the
    construction-time disjointness check rules out); everything else gets the
    fallback label.  Each predicate is ``(response_name, op, value)`` with op
    one of ``< <= > >=``.
    """

    good: tuple[tuple[str, str, float], ...]
    poor: tuple[tuple[str, str, float], ...]
    good_label: str = "g"
    poor_label: str = "p"
    fallback_label: str = "m"

    def __post_init__(self):
        for name, op, _ in self.good + self.poor:
            if op not in _OPS:
                raise InvalidParameterError(f"unknown comparison {op!r} for {name!r}")
        _check_disjoint(self.good, self.poor)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(sorted({self.good_label, self.poor_label, self.fallback_label}))

    @property
    def response_names(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for name, _, _ in self.good + self.poor:
            seen.setdefault(name)
        return tuple(seen)


def _region(op: str, value: float):
    # (lo, lo_closed, hi, hi_closed) for the set {x : x op value}
    if op == "<":
        return (-math.inf, False, value, False)
    if op == "<=":
        return (-math.inf, False, value, True)
    if op == ">":
        return (value, False, math.inf, False)
    return (value, True, math.inf, False)


def _intersect(r1, r2):
    lo, lo_c = max((r1[0], not r1[1]), (r2[0], not r2[1]))
    lo_c = not lo_c
    hi, hi_c = min((r1[2], r1[3]), (r2[2], r2[3]))
    return (lo, lo_c, hi, hi_c)


def _nonempty(r) -> bool:
    lo, lo_c, hi, hi_c = r
    return lo < hi or (lo == hi and lo_c and hi_c)


def _check_disjoint(good, poor):
    good_by_name: dict[str, tuple] = {}
    for name, op, value in good:
        region = _region(op, value)
        if name in good_by_name:
            region = _intersect(good_by_name[name], region)
        good_by_name[name] = region
    for name, op, value in poor:
        if name not in good_by_name:
            raise InconsistentCriteriaError(
                f"poor threshold on {name!r} has no good threshold keeping it disjoint"
            )
        if _nonempty(_intersect(good_by_name[name], _region(op, value))):
            raise InconsistentCriteriaError(
                f"good and poor regions overlap for response {name!r} "
                f"(misordered thresholds)"
            )


def _lookup(record, name: str) -> float:
    if isinstance(record, Mapping):
        if name not in record:
            raise InvalidParameterError(f"response {name!r} missing from record")
        return record[name]
    getter = getattr(record, "value", None)
    if getter is None:
        raise InvalidParameterError(f"cannot read response {name!r} from {type(record).__name__}")
    return getter(name)


def apply_labels(responses: Sequence, criteria: LabelCriteria) -> list[str]:
    """Label each response record: good if all good thresholds hold, poor if
    any poor threshold fires, fallback otherwise."""
    out = []
    for record in responses:
        if all(_OPS[op](_lookup(record, name), value) for name, op, value in criteria.good):
            out.append(criteria.good_label)
        elif any(_OPS[op](_lookup(record, name), value) for name, op, value in criteria.poor):
            out.append(criteria.poor_label)
        else:
            out.append(criteria.fallback_label)
    return out


def load_criteria(source) -> LabelCriteria:
    """Build criteria from a JSON file path or an already-parsed dict."""
    is_path = isinstance(source, (str, bytes)) or hasattr(source, "__fspath__")
    data = read_json(source) if is_path else source
    try:
        labels = data.get("labels", {})
        return LabelCriteria(
            good=tuple((n, op, float(v)) for n, op, v in data["good"]),
            poor=tuple((n, op, float(v)) for n, op, v in data["poor"]),
            good_label=labels.get("good", "g"),
            poor_label=labels.get("poor", "p"),
            fallback_label=labels.get("fallback", "m"),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise IngestionError(f"malformed labelling criteria: {exc}") from exc

"""Tests for the uncertain-sample data model and labelling."""

import math

import numpy as np
import pytest
from scipy import integrate

from designmine.errors import (
    EmptyDatasetError,
    InconsistentCriteriaError,
    IngestionError,
    InvalidParameterError,
)
from designmine.uncertain import (
    Dataset,
    LabelCriteria,
    apply_labels,
    dataset_from_design,
    dataset_mass,
    fresh_tuple,
    interval_marginal,
    label_probability,
    load_dataset,
    load_design_points,
    make_marginal,
    mass_on,
    partition_tuple,
)


def quad_mass(marginal, a, b):
    """Independent adaptive-quadrature oracle for interval mass."""
    lo = max(a, marginal.lower)
    hi = min(b, marginal.upper)
    if hi <= lo:
        return 0.0

    def raw(x):
        z = (x - marginal.mean) / marginal.sigma
        return math.exp(-0.5 * z * z) / (marginal.sigma * math.sqrt(2 * math.pi))

    total, _ = integrate.quad(raw, marginal.lower, marginal.upper, epsabs=1e-13, epsrel=1e-13)
    part, _ = integrate.quad(raw, lo, hi, epsabs=1e-13, epsrel=1e-13)
    return part / total


# --- marginals ---------------------------------------------------------------


def test_make_marginal_paper_interval():
    m = make_marginal(2.0, 0.1)
    assert m.lower == pytest.approx(1.8)
    assert m.upper == pytest.approx(2.2)
    assert m.sigma == pytest.approx(0.4 / 6.0)
    assert m.normalizer == pytest.approx(1.0 / math.erf(3.0 / math.sqrt(2.0)), abs=1e-12)
    assert m.normalizer == pytest.approx(1.0027, abs=1e-4)


def test_make_marginal_zero_deviation_is_point():
    m = make_marginal(5.0, 0.0)
    assert m.is_point
    assert m.lower == m.upper == m.mean == 5.0
    assert mass_on(m, 4.9, 5.1) == 1.0
    assert mass_on(m, 5.1, 6.0) == 0.0


def test_make_marginal_negative_mean_orders_interval():
    m = make_marginal(-10.0, 0.1)
    assert (m.lower, m.upper) == (-11.0, -9.0)
    assert m.lower <= m.mean <= m.upper


def test_make_marginal_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        make_marginal(0.0, 0.1)
    with pytest.raises(InvalidParameterError):
        make_marginal(1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        make_marginal(1.0, -0.2)
    with pytest.raises(InvalidParameterError):
        make_marginal(float("nan"), 0.0)
    with pytest.raises(InvalidParameterError):
        make_marginal(float("inf"), 0.1)


def test_mass_on_full_interval_is_one():
    m = interval_marginal(0.0, 10.0)
    assert mass_on(m, 0.0, 10.0) == pytest.approx(1.0, abs=1e-12)
    assert mass_on(m, -5.0, 15.0) == pytest.approx(1.0, abs=1e-12)


def test_mass_on_symmetry_about_mean():
    m = interval_marginal(0.0, 10.0)
    assert mass_on(m, 0.0, 5.0) == pytest.approx(0.5, abs=1e-12)


def test_mass_on_matches_quadrature_oracle():
    m = interval_marginal(0.0, 10.0)
    # value frozen from the adaptive-quadrature oracle
    assert quad_mass(m, 0.0, 7.0) == pytest.approx(0.885972376480842, abs=1e-10)
    assert mass_on(m, 0.0, 7.0) == pytest.approx(0.885972376480842, abs=1e-10)


def test_mass_on_random_marginals_match_quadrature():
    rng = np.random.default_rng(42)
    for _ in range(25):
        mean = rng.uniform(-20.0, 20.0)
        if abs(mean) < 1e-3:
            mean = 1.0
        m = make_marginal(mean, rng.uniform(0.01, 0.5))
        a = rng.uniform(m.lower - 1.0, m.upper)
        b = a + rng.uniform(0.0, m.upper - a + 1.0)
        assert mass_on(m, a, b) == pytest.approx(quad_mass(m, a, b), abs=1e-9)


def test_mass_on_misses_interval():
    m = interval_marginal(0.0, 10.0)
    assert mass_on(m, 11.0, 12.0) == 0.0
    assert mass_on(m, -3.0, -1.0) == 0.0
    with pytest.raises(InvalidParameterError):
        mass_on(m, 2.0, 1.0)


def test_mass_on_monotone_in_upper_bound():
    m = interval_marginal(0.0, 10.0)
    values = [mass_on(m, 0.0, b) for b in np.linspace(0.0, 10.0, 50)]
    assert all(b2 >= b1 for b1, b2 in zip(values, values[1:]))


def test_mass_on_monte_carlo_agreement():
    """Rejection-sampled draws land in [a, b] at the analytic rate (4 SE)."""
    rng = np.random.default_rng(7)
    n = 10**6
    for _ in range(3):
        mean = rng.uniform(1.0, 10.0)
        m = make_marginal(mean, rng.uniform(0.05, 0.4))
        draws = np.empty(0)
        while draws.size < n:
            batch = rng.normal(m.mean, m.sigma, size=int(1.2 * n))
            batch = batch[(batch >= m.lower) & (batch <= m.upper)]
            draws = np.concatenate([draws, batch])
        draws = draws[:n]
        a = rng.uniform(m.lower, m.upper)
        b = rng.uniform(a, m.upper)
        p = mass_on(m, a, b)
        frac = np.mean((draws >= a) & (draws <= b))
        se = math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(frac - p) <= 4 * se


# --- tuples and partitioning -------------------------------------------------


def sample_tuple(label="g"):
    return fresh_tuple("t1", [interval_marginal(0.0, 10.0), interval_marginal(2.0, 4.0)], label)


def test_fresh_tuple_full_box_unit_mass():
    t = sample_tuple()
    assert t.tp == 1.0
    assert t.active_box == ((0.0, 10.0), (2.0, 4.0))


def test_partition_symmetric_split_halves_mass():
    t = sample_tuple()
    left, right = partition_tuple(t, 0, 5.0)
    assert left.tp == pytest.approx(0.5, abs=1e-12)
    assert right.tp == pytest.approx(0.5, abs=1e-12)
    assert left.label == right.label == t.label
    assert left.active_box[1] == t.active_box[1]


def test_partition_at_lower_bound_is_empty_left():
    t = sample_tuple()
    left, right = partition_tuple(t, 0, 0.0)
    assert left.tp == 0.0
    assert right.tp == pytest.approx(t.tp, abs=1e-12)


def test_partition_quadrature_value():
    t = fresh_tuple("t", [interval_marginal(0.0, 10.0)], "g")
    left, right = partition_tuple(t, 0, 7.0)
    assert left.tp == pytest.approx(0.885972376480842, abs=1e-10)
    assert right.tp == pytest.approx(1.0 - 0.885972376480842, abs=1e-10)


def test_partition_bad_attribute_index():
    with pytest.raises(IndexError):
        partition_tuple(sample_tuple(), 5, 1.0)


def test_partition_mass_conservation_random_sequences():
    """Any split sequence conserves the original tuple probability."""
    rng = np.random.default_rng(123)
    for _ in range(200):
        k = rng.integers(1, 5)
        marginals = [make_marginal(rng.uniform(0.5, 10.0), rng.uniform(0.0, 0.4)) for _ in range(k)]
        fragments = [fresh_tuple(0, marginals, "g")]
        for _ in range(rng.integers(1, 7)):
            attr = int(rng.integers(0, k))
            lo, hi = marginals[attr].lower, marginals[attr].upper
            s = rng.uniform(lo - 0.2 * (hi - lo + 0.1), hi + 0.2 * (hi - lo + 0.1))
            target = fragments.pop(int(rng.integers(0, len(fragments))))
            fragments.extend(partition_tuple(target, attr, s))
        assert sum(f.tp for f in fragments) == pytest.approx(1.0, abs=1e-10)


def test_partition_tp_equals_marginal_product():
    rng = np.random.default_rng(5)
    for _ in range(50):
        marginals = [make_marginal(rng.uniform(1.0, 10.0), rng.uniform(0.05, 0.4)) for _ in range(3)]
        t = fresh_tuple(0, marginals, "g")
        for _ in range(4):
            attr = int(rng.integers(0, 3))
            a, b = t.active_box[attr]
            t, _ = partition_tuple(t, attr, rng.uniform(a, b))
        expected = 1.0
        for m, (a, b) in zip(t.marginals, t.active_box):
            expected *= mass_on(m, a, b)
        assert t.tp == pytest.approx(expected, abs=1e-10)


def test_partition_degenerate_routes_like_certain_comparison():
    """R = 0 behaves as the indicator of x <= s."""
    t = fresh_tuple("c", [make_marginal(3.0, 0.0)], "g")
    left, right = partition_tuple(t, 0, 3.0)
    assert (left.tp, right.tp) == (1.0, 0.0)
    left, right = partition_tuple(t, 0, 2.999)
    assert (left.tp, right.tp) == (0.0, 1.0)
    left, right = partition_tuple(t, 0, 3.001)
    assert (left.tp, right.tp) == (1.0, 0.0)


# --- datasets ----------------------------------------------------------------


def three_fresh(labels=("g", "g", "p")):
    rows = [[1.0, 5.0], [2.0, 6.0], [3.0, 7.0]]
    return dataset_from_design(["a", "b"], rows, list(labels), 0.1)


def test_dataset_mass_counts_fresh_tuples():
    ds = three_fresh()
    assert dataset_mass(ds) == pytest.approx(3.0, abs=1e-12)
    empty = ds.replace_tuples([])
    assert dataset_mass(empty) == 0.0


def test_dataset_mass_conserved_after_splits():
    ds = three_fresh()
    pieces = []
    for t in ds.tuples:
        l, r = partition_tuple(t, 0, 2.05)
        pieces.extend(partition_tuple(l, 1, 5.5))
        pieces.append(r)
    assert sum(p.tp for p in pieces) == pytest.approx(3.0, abs=1e-10)


def test_label_probability_basic_cases():
    ds = three_fresh(("g", "g", "g"))
    assert label_probability(ds, "g") == 1.0
    ds = dataset_from_design(["a"], [[1.0], [2.0], [3.0], [4.0]], ["g", "g", "p", "p"], 0.0)
    assert label_probability(ds, "g") == 0.5
    assert label_probability(ds, "p") == 0.5


def test_label_probability_fractional_masses():
    base = dataset_from_design(["a"], [[1.0], [2.0], [3.0]], ["g", "g", "p"], 0.1)
    scaled = []
    for t, frac in zip(base.tuples, (0.3, 0.2, 0.5)):
        mass = (frac,)
        scaled.append(type(t)(t.id, t.marginals, t.active_box, mass, t.label, frac))
    ds = base.replace_tuples(scaled)
    assert label_probability(ds, "g") == pytest.approx(0.5, abs=1e-12)
    assert label_probability(ds, "p") == pytest.approx(0.5, abs=1e-12)


def test_label_probability_sums_to_one():
    ds = three_fresh()
    total = sum(label_probability(ds, lab) for lab in ds.label_set)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_label_probability_empty_dataset_errors():
    ds = three_fresh().replace_tuples([])
    with pytest.raises(EmptyDatasetError):
        label_probability(ds, "g")


# --- CSV ingestion -----------------------------------------------------------


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_load_dataset_point_masses(tmp_path):
    p = write_csv(tmp_path / "d.csv", "a,b,label\n1,5,g\n2,6,g\n3,7,p\n")
    ds = load_dataset(p, 0.0)
    assert len(ds.tuples) == 3
    assert all(t.tp == 1.0 for t in ds.tuples)
    assert all(m.is_point for t in ds.tuples for m in t.marginals)
    assert ds.label_set == ("g", "p")


def test_load_dataset_uncertainty_widens_intervals(tmp_path):
    p = write_csv(tmp_path / "d.csv", "a,b,label\n1,5,g\n2,6,g\n3,7,p\n")
    ds = load_dataset(p, 0.1)
    assert [t.label for t in ds.tuples] == ["g", "g", "p"]
    for t in ds.tuples:
        for m in t.marginals:
            assert (m.upper - m.lower) / 2 == pytest.approx(0.1 * abs(m.mean))


def test_load_dataset_unknown_label(tmp_path):
    p = write_csv(tmp_path / "d.csv", "a,label\n1,g\n2,x\n")
    with pytest.raises(IngestionError, match="row 3"):
        load_dataset(p, 0.0, label_set=["g", "p"])


@pytest.mark.parametrize(
    "text, row",
    [
        ("a,label\n\n1.0,x\n", 3),
        ("a,label\r\n\r\n1.0,g\r\n  \r\n2.0,x\r\n", 5),
        ('a,label\n"1.0",g\n\n"2.0","x"\n', 4),  # quoted: read by the row reader
        ("a,label\r1.0,g\r\r2.0,x\r", 4),  # bare CRs: read by the row reader
    ],
)
def test_load_dataset_names_the_file_row_of_an_undeclared_label(tmp_path, text, row):
    p = tmp_path / "d.csv"
    p.write_bytes(text.encode("utf-8"))
    with pytest.raises(IngestionError) as err:
        load_dataset(p, 0.0, label_set=["g", "p"])
    assert str(err.value) == (
        f"{p}: row {row}, column 'label': label 'x' not in declared label set ['g', 'p']"
    )


@pytest.mark.parametrize(
    "text, row",
    [
        ("a,b,label\n1.0,2.0,g\n\n3.0,0.0,p\n", 4),
        ("a,b,label\r\n\r\n1.0,2.0,g\r\n3.0,0.0,p\r\n", 4),
        ('a,b,label\n"1.0",2.0,g\n\n\n3.0,"0.0",p\n', 5),  # quoted: read by the row reader
    ],
)
def test_load_dataset_names_the_file_row_and_column_of_a_cell_it_cannot_widen(tmp_path, text, row):
    p = tmp_path / "zero.csv"
    p.write_bytes(text.encode("utf-8"))
    with pytest.raises(IngestionError) as err:
        load_dataset(p, 0.1)
    assert str(err.value) == (
        f"{p}: row {row}, column 'b': "
        "mean must be nonzero when relative deviation > 0 (interval would be empty)"
    )
    with pytest.raises(IngestionError) as err:  # a bad deviation is not a cell's fault
        load_dataset(p, 1.5)
    assert str(err.value) == f"{p}: relative deviation must be in [0, 1), got 1.5"


def test_load_dataset_malformed_row(tmp_path):
    p = write_csv(tmp_path / "d.csv", "a,b,label\n1,zap,g\n")
    with pytest.raises(IngestionError, match="column 'b'"):
        load_dataset(p, 0.0)
    p2 = write_csv(tmp_path / "e.csv", "a,b,label\n1,g\n")
    with pytest.raises(IngestionError, match="row 2"):
        load_dataset(p2, 0.0)


def test_load_design_points_with_and_without_label(tmp_path):
    p = write_csv(tmp_path / "d.csv", "a,b\n1,5\n2,6\n")
    names, rows, labels = load_design_points(p)
    assert names == ["a", "b"] and labels is None and rows == [[1.0, 5.0], [2.0, 6.0]]
    q = write_csv(tmp_path / "e.csv", "a,b,label\n1,5,g\n")
    names, rows, labels = load_design_points(q)
    assert labels == ["g"]


# --- labelling criteria ------------------------------------------------------


def system_criteria():
    return LabelCriteria(
        good=(("F_p", "<", 800.0), ("S_p", "<", 220.0), ("M", "<", 27.0)),
        poor=(("F_p", ">=", 800.0), ("S_p", ">", 260.0), ("M", ">", 28.0)),
    )


def p2_criteria():
    return LabelCriteria(
        good=(("SEA", ">=", 20500.0), ("M", "<=", 0.95)),
        poor=(("SEA", "<", 19500.0), ("M", ">", 1.0)),
    )


def test_apply_labels_system_thresholds():
    labels = apply_labels([{"F_p": 700.0, "S_p": 200.0, "M": 26.0}], system_criteria())
    assert labels == ["g"]


def test_apply_labels_component_thresholds():
    crit = p2_criteria()
    assert apply_labels([{"SEA": 21000.0, "M": 0.9}], crit) == ["g"]
    assert apply_labels([{"SEA": 20000.0, "M": 0.97}], crit) == ["m"]
    assert apply_labels([{"SEA": 19000.0, "M": 0.9}], crit) == ["p"]
    assert apply_labels([{"SEA": 21000.0, "M": 1.2}], crit) == ["p"]


def test_criteria_reject_overlapping_regions():
    with pytest.raises(InconsistentCriteriaError):
        LabelCriteria(good=(("F_p", "<", 900.0),), poor=(("F_p", ">=", 800.0),))
    with pytest.raises(InconsistentCriteriaError):
        LabelCriteria(good=(("SEA", ">=", 100.0),), poor=(("M", ">", 1.0),))


def test_apply_labels_missing_response_errors():
    with pytest.raises(InvalidParameterError):
        apply_labels([{"F_p": 700.0}], system_criteria())

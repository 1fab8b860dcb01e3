"""Tests for Latin hypercube sampling over boxes and rule subspaces."""

import numpy as np
import pytest

from designmine.doe import (
    SamplingPlan,
    lhs,
    lhs_in_rule,
    sample_count_heuristic,
    save_samples,
)
from designmine.errors import InvalidParameterError
from designmine.rules import Rule, branch_to_rule, enumerate_branches
from designmine.tree import SplitNode, TreeConfig, build_tree
from designmine.uncertain import dataset_from_design, load_design_points


def stratified(col, lo, hi, n):
    """Audit: sorting the column must give exactly one value per stratum."""
    edges = lo + (hi - lo) * np.arange(n + 1) / n
    idx = np.clip(np.searchsorted(edges, np.sort(col), side="right") - 1, 0, n - 1)
    return np.array_equal(idx, np.arange(n))


def test_lhs_single_sample_inside_bounds():
    x = lhs(SamplingPlan(((0.0, 1.0), (-5.0, 5.0)), 1, seed=3))
    assert x.shape == (1, 2)
    assert 0.0 <= x[0, 0] <= 1.0 and -5.0 <= x[0, 1] <= 5.0


def test_lhs_system_doe_shape():
    bounds = tuple((1.0, 3.0) for _ in range(8))
    x = lhs(SamplingPlan(bounds, 150, seed=0))
    assert x.shape == (150, 8)
    assert np.all(x >= 1.0) and np.all(x <= 3.0)


def test_lhs_stratification_audit():
    rng = np.random.default_rng(5)
    for seed in range(5):
        k = int(rng.integers(1, 6))
        n = int(rng.integers(2, 40))
        bounds = tuple(sorted(rng.uniform(-10, 10, 2)) for _ in range(k))
        x = lhs(SamplingPlan(tuple((lo, hi) for lo, hi in bounds), n, seed=seed))
        for j, (lo, hi) in enumerate(bounds):
            assert stratified(x[:, j], lo, hi, n)


def test_lhs_deterministic_per_seed():
    plan = SamplingPlan(((0.0, 1.0), (2.0, 3.0)), 25, seed=11)
    assert np.array_equal(lhs(plan), lhs(plan))
    other = SamplingPlan(((0.0, 1.0), (2.0, 3.0)), 25, seed=12)
    assert not np.array_equal(lhs(plan), lhs(other))


def test_lhs_invalid_bounds():
    with pytest.raises(InvalidParameterError):
        SamplingPlan(((1.0, 1.0),), 5)
    with pytest.raises(InvalidParameterError):
        SamplingPlan(((0.0, 1.0),), 0)


def test_lhs_in_rule_matches_plain_lhs_on_global_box():
    rule = Rule(("a", "b"), (0.0, 2.0), (1.0, 3.0), "g", 1.0, 0.5, "b1")
    direct = lhs(SamplingPlan(((0.0, 1.0), (2.0, 3.0)), 20, seed=4))
    via_rule = lhs_in_rule(rule, 20, seed=4)
    assert np.array_equal(direct, via_rule)


def test_lhs_in_rule_stays_in_box():
    rule = Rule(("T4", "d"), (1.5, -0.095), (1.81, 5.0), "g", 0.9, 0.2, "b3")
    x = lhs_in_rule(rule, 20, seed=9)
    assert x.shape == (20, 2)
    for j, (lo, hi) in enumerate(zip(rule.lower, rule.upper)):
        assert np.all(x[:, j] >= lo) and np.all(x[:, j] <= hi)
        assert stratified(x[:, j], lo, hi, 20)


def test_lhs_in_rule_samples_route_to_source_branch():
    rng = np.random.default_rng(2)
    rows = np.column_stack([rng.uniform(1.0, 3.0, 120), rng.uniform(0.0, 10.0, 120)])
    labels = ["g" if r[0] <= 2.0 else "p" for r in rows]
    ds = dataset_from_design(["t", "u"], rows.tolist(), labels, 0.05)
    tree = build_tree(ds, TreeConfig(max_layers=3))
    bounds = [(1.0, 3.0), (0.0, 10.0)]
    for branch in enumerate_branches(tree):
        rule = branch_to_rule(branch, ds.attribute_names, bounds)
        samples = lhs_in_rule(rule, 50, seed=7)
        for x in samples:
            node = tree.root
            while isinstance(node, SplitNode):
                node = node.left if x[node.attr] <= node.threshold else node.right
            assert node is branch.leaf


def test_sample_count_heuristic():
    assert sample_count_heuristic(8) == 24
    assert sample_count_heuristic(1) == 3
    assert sample_count_heuristic(10) == 30
    with pytest.raises(InvalidParameterError):
        sample_count_heuristic(0)


def test_save_samples_round_trip(tmp_path):
    x = lhs(SamplingPlan(((0.0, 1.0), (5.0, 9.0)), 12, seed=1))
    path = tmp_path / "doe.csv"
    save_samples(path, ["a", "b"], x)
    names, rows, labels = load_design_points(path)
    assert names == ["a", "b"] and labels is None
    assert np.array_equal(np.asarray(rows), x)
    text = path.read_bytes()
    assert b"\r" not in text and text.count(b"\n") == 13
    # Files written with CRLF line endings read the same.
    path.write_bytes(text.replace(b"\n", b"\r\n"))
    assert load_design_points(path) == (names, rows, labels)

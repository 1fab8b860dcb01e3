"""Tests for branch enumeration, rule boxes, CTT scoring, and screening."""

import math

import numpy as np
import pytest

from designmine.errors import (
    InconsistentBranchError,
    InvalidParameterError,
    SelectionError,
)
from designmine.rules import (
    Branch,
    BranchScore,
    PipelineConfig,
    branch_ctt,
    branch_to_rule,
    enumerate_branches,
    rule_from_payload,
    rules_payload,
    score_branches,
    screen_designs,
    select_branch,
)
from designmine.tree import (
    UncertainTree,
    LeafNode,
    SplitNode,
    TreeConfig,
    build_tree,
    classify,
)
from designmine.uncertain import (
    dataset_from_design,
    dataset_mass,
    fresh_tuple,
    label_probability,
    make_marginal,
)

from _oracles import mc_classify, path_walk_ctt, random_certain_problem, sample_marginal


def leaf(g, other=0.0, label2="p", mass=1.0):
    return LeafNode({"g": g, label2: other}, mass)


def valve_dataset(n=200, seed=0, uncertainty=0.0):
    """Synthetic two-threshold problem: LR iff P_e <= 1 and Tk > 2."""
    rng = np.random.default_rng(seed)
    rows = np.column_stack(
        [
            rng.uniform(1.0, 3.0, n),   # Tk
            rng.uniform(5.0, 15.0, n),  # D_e (irrelevant)
            rng.uniform(0.2, 2.0, n),   # P_e
        ]
    )
    labels = ["LR" if (p <= 1.0 and tk > 2.0) else "HR" for tk, _, p in rows]
    return dataset_from_design(["Tk", "D_e", "P_e"], rows.tolist(), labels, uncertainty)


def route_certain(tree, x):
    node = tree.root
    while isinstance(node, SplitNode):
        node = node.left if x[node.attr] <= node.threshold else node.right
    return node


# --- enumeration ---------------------------------------------------------------


def test_single_leaf_tree_one_branch():
    tree = UncertainTree(("x",), ("g",), LeafNode({"g": 1.0}, 5.0), TreeConfig(max_layers=1))
    branches = enumerate_branches(tree)
    assert len(branches) == 1
    assert branches[0].id == "b1" and branches[0].path == ()


def test_pipeline_tree_has_three_branches():
    ds = valve_dataset()
    tree = build_tree(ds, TreeConfig(max_layers=2))
    branches = enumerate_branches(tree)
    assert [b.id for b in branches][: len(branches)] == [f"b{i+1}" for i in range(len(branches))]
    assert len(branches) == 3


def test_branch_count_equals_leaf_count():
    rng = np.random.default_rng(6)
    for _ in range(5):
        points, labels, _ = random_certain_problem(rng)
        ds = dataset_from_design([f"x{i}" for i in range(len(points[0]))], points, labels, 0.05)
        tree = build_tree(ds, TreeConfig(max_layers=4))
        from designmine.tree import iter_leaves

        assert len(enumerate_branches(tree)) == len(iter_leaves(tree))


# --- rule boxes ------------------------------------------------------------------


def test_rule_from_empty_path_keeps_global_bounds():
    b = Branch("b1", (), leaf(1.0))
    rule = branch_to_rule(b, ["x"], [(0.0, 10.0)])
    assert rule.box() == {"x": (0.0, 10.0)}


def test_rule_tightens_upper_bound():
    b = Branch("b1", ((0, "<=", 1.81),), leaf(1.0))
    rule = branch_to_rule(b, ["T4"], [(1.5, 2.5)])
    assert rule.box() == {"T4": (1.5, 1.81)}


def test_rule_interval_intersection():
    b = Branch("b1", ((0, ">", 3.0), (0, "<=", 7.0)), leaf(1.0))
    rule = branch_to_rule(b, ["x"], [(0.0, 10.0)])
    assert rule.box() == {"x": (3.0, 7.0)}


def test_rule_empty_intersection_errors():
    b = Branch("b1", ((0, ">", 7.0), (0, "<=", 3.0)), leaf(1.0))
    with pytest.raises(InconsistentBranchError):
        branch_to_rule(b, ["x"], [(0.0, 10.0)])


def test_every_branch_of_random_trees_yields_a_rule():
    """Paths are internally consistent, so against the data extent every
    branch intersects to a non-empty box."""
    rng = np.random.default_rng(44)
    for _ in range(10):
        points, labels, _ = random_certain_problem(rng)
        names = [f"x{i}" for i in range(len(points[0]))]
        ds = dataset_from_design(names, points, labels, float(rng.uniform(0.0, 0.15)))
        tree = build_tree(ds, TreeConfig(max_layers=4))
        bounds = [
            (
                min(t.marginals[a].lower for t in ds.tuples),
                max(t.marginals[a].upper for t in ds.tuples),
            )
            for a in range(len(names))
        ]
        for branch in enumerate_branches(tree):
            rule = branch_to_rule(branch, names, bounds)
            assert all(lo < hi for lo, hi in zip(rule.lower, rule.upper))


# --- CTT --------------------------------------------------------------------------


def test_ctt_single_leaf_pure():
    ds = dataset_from_design(["x"], [[1.0], [2.0]], ["g", "g"], 0.0)
    tree = build_tree(ds, TreeConfig(max_layers=3))
    (branch,) = enumerate_branches(tree)
    assert branch_ctt(tree, branch, ds) == pytest.approx(1.0, abs=1e-12)


def test_ctt_direct_ratio():
    rows = [[float(i)] for i in range(1, 11)]
    labels = ["g"] * 4 + ["p"] * 6
    ds = dataset_from_design(["x"], rows, labels, 0.0)
    tree = build_tree(ds, TreeConfig(max_layers=1))
    g_branch = next(b for b in enumerate_branches(tree) if b.dominant == "g")
    assert branch_ctt(tree, g_branch, ds) == pytest.approx(0.4, abs=1e-12)


def test_ctt_matches_monte_carlo_routing():
    ds = valve_dataset(n=120, seed=3, uncertainty=0.1)
    tree = build_tree(ds, TreeConfig(max_layers=3))
    rng = np.random.default_rng(17)
    m = 20_000
    for branch in enumerate_branches(tree):
        target = branch.dominant
        reached_fracs = []
        for t in ds.tuples:
            if t.label != target:
                continue
            X = np.column_stack([sample_marginal(mg, m, rng) for mg in t.marginals])
            inside = np.ones(m, dtype=bool)
            for attr, rel, thr in branch.path:
                inside &= (X[:, attr] <= thr) if rel == "<=" else (X[:, attr] > thr)
            reached_fracs.append(inside.mean())
        total = dataset_mass(ds)
        mc = sum(reached_fracs) / total
        se = math.sqrt(sum(f * (1 - f) / m for f in reached_fracs)) / total
        assert abs(branch_ctt(tree, branch, ds) - mc) <= 3 * max(se, 1e-9)


def test_ctt_bounded_by_label_probability():
    rng = np.random.default_rng(8)
    for _ in range(10):
        points, labels, _ = random_certain_problem(rng)
        ds = dataset_from_design(
            [f"x{i}" for i in range(len(points[0]))], points, labels, 0.08
        )
        tree = build_tree(ds, TreeConfig(max_layers=3))
        per_label = {}
        for b in enumerate_branches(tree):
            ctt = branch_ctt(tree, b, ds)
            assert -1e-9 <= ctt <= label_probability(ds, b.dominant) + 1e-9
            per_label[b.dominant] = per_label.get(b.dominant, 0.0) + ctt
        for label, total in per_label.items():
            assert total <= label_probability(ds, label) + 1e-9


def test_ctt_equals_path_walk_bit_for_bit():
    """Routing each sample once gives exactly the CTT of walking each
    branch's path, certain and uncertain, on the training set and on other
    data scored against the same tree (the `rules --data` case)."""
    rng = np.random.default_rng(21)
    for uncertainty in (0.0, 0.05, 0.12):
        for _ in range(5):
            points, labels, label_set = random_certain_problem(rng)
            names = [f"x{i}" for i in range(len(points[0]))]
            train = dataset_from_design(names, points, labels, uncertainty)
            tree = build_tree(train, TreeConfig(max_layers=4))
            rows = rng.uniform(0.0, 11.0, size=(30, len(names))).tolist()
            other_labels = [label_set[int(i)] for i in rng.integers(0, len(label_set), 30)]
            other = dataset_from_design(names, rows, other_labels, uncertainty, label_set)
            branches = enumerate_branches(tree)
            for d_origin in (train, other):
                expected = [path_walk_ctt(b, d_origin) for b in branches]
                assert [s.ctt for s in score_branches(tree, d_origin)] == expected
                assert [branch_ctt(tree, b, d_origin) for b in branches] == expected
                for label in label_set:
                    assert [s.ctt for s in score_branches(tree, d_origin, label)] == [
                        ctt for b, ctt in zip(branches, expected) if b.dominant == label
                    ]


# --- selection ---------------------------------------------------------------------


def test_select_single_qualifying_branch():
    s = BranchScore(Branch("b1", (), leaf(0.9, 0.1)), 0.9, 0.3)
    assert select_branch([s], "g", 0.85) is s


def test_select_prefers_higher_ctt():
    s1 = BranchScore(Branch("b1", (), leaf(0.90, 0.10)), 0.90, 0.10)
    s2 = BranchScore(Branch("b2", (), leaf(0.87, 0.13)), 0.87, 0.20)
    assert select_branch([s1, s2], "g", 0.85) is s2


def test_select_tie_breaks():
    s1 = BranchScore(Branch("b2", (), leaf(0.90, 0.10)), 0.90, 0.20)
    s2 = BranchScore(Branch("b1", (), leaf(0.90, 0.10)), 0.90, 0.20)
    assert select_branch([s1, s2], "g", 0.85).branch.id == "b1"
    s3 = BranchScore(Branch("b3", (), leaf(0.95, 0.05)), 0.95, 0.20)
    assert select_branch([s1, s3], "g", 0.85) is s3


def test_select_no_qualifying_branch():
    s = BranchScore(Branch("b1", (), leaf(0.5, 0.5)), 0.5, 0.9)
    with pytest.raises(SelectionError):
        select_branch([s], "g", 0.85)


def test_select_matches_exhaustive_scan_and_permutation_invariant():
    rng = np.random.default_rng(30)
    ds = valve_dataset(n=150, seed=5, uncertainty=0.08)
    tree = build_tree(ds, TreeConfig(max_layers=4))
    scores = score_branches(tree, ds, "LR")
    assert scores, "expected at least one LR branch"
    theta = 0.6
    chosen = select_branch(scores, "LR", theta)
    qualifying = [s for s in scores if s.branch.lp["LR"] >= theta]
    best = max(
        qualifying, key=lambda s: (s.ctt, s.branch.lp["LR"], -s.branch.number)
    )
    assert chosen is best
    for _ in range(5):
        perm = list(scores)
        rng.shuffle(perm)
        assert select_branch(perm, "LR", theta).branch.id == chosen.branch.id


# --- screening ----------------------------------------------------------------------


def test_screen_orders_by_id_when_tied():
    ds = dataset_from_design(["x"], [[1.0], [2.0], [9.0]], ["g", "g", "p"], 0.0)
    tree = build_tree(ds, TreeConfig(max_layers=2))
    designs = [
        fresh_tuple(i, [make_marginal(v, 0.0)], "g") for i, v in ((1, 1.5), (2, 1.2), (3, 2.0))
    ]
    out = screen_designs(tree, designs, "g", 3)
    assert [d.id for d in out] == [1, 2, 3]
    assert [d.rank for d in out] == [1, 2, 3]


def test_screen_top_k_largest_lp():
    ds = valve_dataset(n=150, seed=1, uncertainty=0.05)
    tree = build_tree(ds, TreeConfig(max_layers=3))
    rng = np.random.default_rng(2)
    designs = []
    for i in range(20):
        row = [rng.uniform(1.0, 3.0), rng.uniform(5.0, 15.0), rng.uniform(0.2, 2.0)]
        designs.append(fresh_tuple(i + 1, [make_marginal(v, 0.1) for v in row], "LR"))
    top = screen_designs(tree, designs, "LR", 10)
    assert len(top) == 10
    all_lp = sorted((classify(tree, d)["LR"] for d in designs), reverse=True)
    top_lp = [d.lp["LR"] for d in top]
    assert top_lp == pytest.approx(all_lp[:10])
    assert top_lp == sorted(top_lp, reverse=True)
    with pytest.raises(InvalidParameterError):
        screen_designs(tree, designs, "LR", 21)


def test_screen_ranking_agrees_with_monte_carlo():
    ds = valve_dataset(n=150, seed=9, uncertainty=0.08)
    tree = build_tree(ds, TreeConfig(max_layers=3))
    rng = np.random.default_rng(4)
    designs = []
    for i in range(8):
        row = [rng.uniform(1.2, 2.8), rng.uniform(6.0, 14.0), rng.uniform(0.3, 1.9)]
        designs.append(fresh_tuple(i + 1, [make_marginal(v, 0.1) for v in row], "LR"))
    ranked = screen_designs(tree, designs, "LR", 8)
    mc = {}
    for d in designs:
        mean, se = mc_classify(tree, d, 50_000, rng)
        idx = list(tree.label_set).index("LR")
        mc[d.id] = (mean[idx], se[idx])
    for a, b in zip(ranked, ranked[1:]):
        gap_se = 3 * (mc[a.id][1] + mc[b.id][1])
        if mc[a.id][0] - mc[b.id][0] < -gap_se:
            pytest.fail(f"screening rank disagrees with Monte Carlo beyond noise: {a.id} vs {b.id}")


# --- structural invariants ------------------------------------------------------------


def test_branch_masses_sum_to_training_mass():
    ds = valve_dataset(n=100, seed=12, uncertainty=0.1)
    tree = build_tree(ds, TreeConfig(max_layers=4))
    total = sum(b.mass for b in enumerate_branches(tree))
    assert total == pytest.approx(dataset_mass(ds), abs=1e-9)


def test_rule_boxes_cover_global_bounds():
    ds = valve_dataset(n=120, seed=13, uncertainty=0.05)
    tree = build_tree(ds, TreeConfig(max_layers=4))
    bounds = [(1.0, 3.0), (5.0, 15.0), (0.1, 2.2)]
    rules = [
        branch_to_rule(b, ds.attribute_names, bounds) for b in enumerate_branches(tree)
    ]
    for attr in range(3):
        intervals = sorted((r.lower[attr], r.upper[attr]) for r in rules)
        assert intervals[0][0] == bounds[attr][0]
        assert max(hi for _, hi in intervals) == bounds[attr][1]
        reach = intervals[0][1]
        for lo, hi in intervals[1:]:
            assert lo <= reach
            reach = max(reach, hi)
        assert reach == bounds[attr][1]


def test_certain_point_inside_rule_box_routes_to_leaf():
    ds = valve_dataset(n=150, seed=14, uncertainty=0.05)
    tree = build_tree(ds, TreeConfig(max_layers=4))
    bounds = [(1.0, 3.0), (5.0, 15.0), (0.1, 2.2)]
    rng = np.random.default_rng(15)
    for b in enumerate_branches(tree):
        rule = branch_to_rule(b, ds.attribute_names, bounds)
        for _ in range(20):
            x = [rng.uniform(lo + 1e-9, hi - 1e-9) for lo, hi in zip(rule.lower, rule.upper)]
            assert route_certain(tree, x) is b.leaf
            t = fresh_tuple(0, [make_marginal(v, 0.0) for v in x], b.dominant)
            assert classify(tree, t) == b.lp


# --- payload round trip -----------------------------------------------------------------


def test_rules_payload_round_trip(tmp_path):
    ds = valve_dataset(n=150, seed=20, uncertainty=0.05)
    tree = build_tree(ds, TreeConfig(max_layers=3))
    bounds = [(1.0, 3.0), (5.0, 15.0), (0.2, 2.0)]
    payload = rules_payload(tree, ds, bounds, "LR", 0.7)
    assert payload["target"] == "LR" and payload["selected"].startswith("b")
    assert all({"id", "acc", "ctt", "box"} <= set(entry) for entry in payload["branches"])
    rule = rule_from_payload(payload)
    assert rule.branch_id == payload["selected"]
    assert rule.label == "LR"
    with pytest.raises(InvalidParameterError):
        rule_from_payload(payload, "b999")


def test_pipeline_config_validation():
    with pytest.raises(InvalidParameterError):
        PipelineConfig(("x",), (1.0,), (0.5,))
    with pytest.raises(InvalidParameterError):
        PipelineConfig(("x",), (0.0,), (1.0,), lp_threshold=0.0)

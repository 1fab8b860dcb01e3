"""Tests for uncertain-data tree construction, scoring, and classification."""

import os
import stat

import numpy as np
import pytest

from designmine.errors import (
    EmptyDatasetError,
    IngestionError,
    InvalidParameterError,
    InvalidSplitError,
    SchemaError,
    TreeConstructionError,
)
from designmine.tree import (
    UncertainTree,
    LeafNode,
    SplitCandidate,
    SplitNode,
    TreeConfig,
    best_split,
    build_tree,
    classify,
    entropy,
    gain_ratio,
    gen_split_candidates,
    iter_leaves,
    k_fold_cv,
    load_tree,
    predicted_label,
    save_tree,
    split_entropy,
    split_info,
    test_accuracy as holdout_accuracy,
    training_accuracy,
    tree_depth,
    tree_from_dict,
    tree_to_dict,
)
from designmine.uncertain import (
    dataset_from_design,
    dataset_mass,
    fresh_tuple,
    interval_marginal,
    make_marginal,
)

from _oracles import (
    build_certain_tree,
    certain_predict,
    mc_classify,
    random_certain_problem,
)

# Worked 4-sample set: x = 1..4, labels g,g,p,p, no uncertainty.
WORKED = dataset_from_design(["x"], [[1.0], [2.0], [3.0], [4.0]], ["g", "g", "p", "p"], 0.0)

# Frozen hand-arithmetic values for the worked set.
SPLIT_ENTROPY_15 = 0.6887218755408672
SPLIT_INFO_2575 = 0.8112781244591328
GAIN_RATIO_15 = 0.3836885465963443


def certain(rows, labels, names=None):
    names = names or [f"x{i}" for i in range(len(rows[0]))]
    return dataset_from_design(names, rows, labels, 0.0)


# --- entropy and split scores -------------------------------------------------


def test_entropy_pure_and_uniform():
    assert entropy(certain([[1.0], [2.0]], ["g", "g"])) == 0.0
    assert entropy(certain([[1.0], [2.0]], ["g", "p"])) == pytest.approx(1.0, abs=1e-12)


def test_entropy_mixed_masses():
    ds = certain([[1.0], [2.0], [3.0], [4.0]], ["g", "m", "p", "p"])
    assert entropy(ds) == pytest.approx(1.5, abs=1e-12)


def test_entropy_empty_dataset():
    with pytest.raises(EmptyDatasetError):
        entropy(WORKED.replace_tuples([]))


def test_split_entropy_pure_partitions():
    assert split_entropy(WORKED, SplitCandidate(0, 2.5)) == pytest.approx(0.0, abs=1e-12)


def test_split_entropy_no_information():
    ds = certain([[1.0], [2.0], [3.0], [4.0]], ["g", "p", "g", "p"])
    s = SplitCandidate(0, 2.5)
    assert split_entropy(ds, s) == pytest.approx(entropy(ds), abs=1e-12)


def test_split_entropy_hand_value():
    assert split_entropy(WORKED, SplitCandidate(0, 1.5)) == pytest.approx(
        SPLIT_ENTROPY_15, abs=1e-12
    )


def test_split_info_values():
    assert split_info(WORKED, SplitCandidate(0, 2.5)) == pytest.approx(1.0, abs=1e-12)
    assert split_info(WORKED, SplitCandidate(0, 1.5)) == pytest.approx(
        SPLIT_INFO_2575, abs=1e-12
    )


def test_split_info_rejects_empty_partition():
    with pytest.raises(InvalidSplitError):
        split_info(WORKED, SplitCandidate(0, 0.5))


def test_zero_mass_side_is_never_admissible():
    """A side of mass 0 is inadmissible even with ``min_mass`` 0."""
    s = SplitCandidate(0, 0.05)
    for score in (gain_ratio, split_entropy, split_info):
        with pytest.raises(InvalidSplitError):
            score(WORKED, s, 0.0)
    assert best_split(WORKED, [s], 0.0) is None
    assert best_split(WORKED, [s, SplitCandidate(0, 2.5)], 0.0) == SplitCandidate(0, 2.5)


def test_build_tree_with_zero_min_partition_mass():
    ds = dataset_from_design(["x", "y"], [[1.0, 4.0], [2.0, 3.0], [3.0, 2.0], [4.0, 1.0]], ["g", "g", "p", "p"], 0.1)
    tree = build_tree(ds, TreeConfig(max_layers=4, min_partition_mass=0.0))
    assert isinstance(tree.root, SplitNode)
    for leaf in iter_leaves(tree):
        assert sum(leaf.lp.values()) == pytest.approx(1.0, abs=1e-12)
    zero = build_tree(WORKED, TreeConfig(max_layers=4, min_partition_mass=0.0))
    assert zero.root == build_tree(WORKED, TreeConfig(max_layers=4)).root


def test_gain_ratio_values():
    assert gain_ratio(WORKED, SplitCandidate(0, 2.5)) == pytest.approx(1.0, abs=1e-12)
    assert gain_ratio(WORKED, SplitCandidate(0, 1.5)) == pytest.approx(
        GAIN_RATIO_15, abs=1e-12
    )


def test_gain_ratio_no_information_split():
    ds = certain([[1.0], [2.0], [3.0], [4.0]], ["g", "p", "g", "p"])
    assert gain_ratio(ds, SplitCandidate(0, 2.5)) == pytest.approx(0.0, abs=1e-12)


# --- candidate generation and selection ---------------------------------------


def test_gen_split_candidates_grid():
    ds = WORKED.replace_tuples([fresh_tuple(1, [interval_marginal(0.0, 10.0)], "g")])
    cands = gen_split_candidates(ds, 4)
    assert [c.value for c in cands] == pytest.approx([2.0, 4.0, 6.0, 8.0])
    assert len(gen_split_candidates(ds, 10)) == 10


def test_gen_split_candidates_constant_attribute():
    ds = certain([[1.0, 7.0], [2.0, 7.0]], ["g", "p"])
    cands = gen_split_candidates(ds, 5)
    assert all(c.attr == 0 for c in cands)


def test_best_split_single_candidate():
    s = SplitCandidate(0, 2.5)
    assert best_split(WORKED, [s]) == s


def test_best_split_tie_prefers_lowest_attribute():
    ds = certain([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]], ["g", "g", "p", "p"])
    cands = [SplitCandidate(1, 2.5), SplitCandidate(0, 2.5)]
    assert best_split(ds, cands) == SplitCandidate(0, 2.5)


def test_best_split_exhaustive_grid():
    cands = [SplitCandidate(0, v) for v in (1.5, 2.5, 3.5)]
    ratios = [gain_ratio(WORKED, c) for c in cands]
    assert best_split(WORKED, cands).value == cands[int(np.argmax(ratios))].value == 2.5


def test_best_split_none_when_inadmissible():
    assert best_split(WORKED, [SplitCandidate(0, 0.5)]) is None
    assert best_split(WORKED, []) is None


# --- construction --------------------------------------------------------------


def test_build_tree_pure_dataset_single_leaf():
    ds = certain([[1.0], [2.0]], ["g", "g"])
    tree = build_tree(ds, TreeConfig(max_layers=4))
    assert isinstance(tree.root, LeafNode)
    assert tree.root.lp == {"g": 1.0}


def test_build_tree_worked_set():
    tree = build_tree(WORKED, TreeConfig(max_layers=4))
    root = tree.root
    assert isinstance(root, SplitNode)
    assert root.attr == 0 and 2.0 < root.threshold < 3.0
    assert isinstance(root.left, LeafNode) and root.left.lp["g"] == 1.0
    assert isinstance(root.right, LeafNode) and root.right.lp["p"] == 1.0


def test_build_tree_empty_dataset_errors():
    with pytest.raises(TreeConstructionError):
        build_tree(WORKED.replace_tuples([]), TreeConfig(max_layers=2))


def test_build_tree_zero_gain_terminates_as_leaf():
    """Every candidate split leaves both sides with the parent distribution,
    so the root must stay a leaf."""
    ds = certain([[1.0], [1.0], [2.0], [2.0]], ["g", "p", "g", "p"])
    tree = build_tree(ds, TreeConfig(max_layers=5))
    assert isinstance(tree.root, LeafNode)
    assert tree.root.lp == {"g": 0.5, "p": 0.5}


def test_build_tree_respects_depth_cap():
    rng = np.random.default_rng(0)
    for _ in range(5):
        points, labels, label_set = random_certain_problem(rng)
        ds = dataset_from_design(
            [f"x{i}" for i in range(len(points[0]))], points, labels, 0.05
        )
        for cap in (1, 2, 3):
            tree = build_tree(ds, TreeConfig(max_layers=cap))
            assert tree_depth(tree) <= cap


def test_build_tree_mass_reaches_leaves():
    rng = np.random.default_rng(1)
    for _ in range(5):
        points, labels, _ = random_certain_problem(rng)
        ds = dataset_from_design(
            [f"x{i}" for i in range(len(points[0]))], points, labels, 0.1
        )
        tree = build_tree(ds, TreeConfig(max_layers=4))
        leaf_mass = sum(leaf.mass for leaf in iter_leaves(tree))
        assert leaf_mass == pytest.approx(dataset_mass(ds), abs=1e-10)
        for leaf in iter_leaves(tree):
            assert sum(leaf.lp.values()) == pytest.approx(1.0, abs=1e-12)
            assert leaf.mass > 0


def test_build_tree_deterministic():
    rng = np.random.default_rng(2)
    points, labels, _ = random_certain_problem(rng)
    ds = dataset_from_design([f"x{i}" for i in range(len(points[0]))], points, labels, 0.1)
    t1 = build_tree(ds, TreeConfig(max_layers=5))
    t2 = build_tree(ds, TreeConfig(max_layers=5))
    assert tree_to_dict(t1) == tree_to_dict(t2)


# --- classification ------------------------------------------------------------


def manual_tree():
    root = SplitNode(
        0,
        5.0,
        LeafNode({"g": 1.0, "p": 0.0}, 1.0),
        LeafNode({"g": 0.0, "p": 1.0}, 1.0),
    )
    return UncertainTree(("x",), ("g", "p"), root, TreeConfig(max_layers=1))


def test_classify_certain_tuple_pure_leaf():
    t = fresh_tuple(1, [interval_marginal(2.0, 2.0 + 1e-9)], "g")
    lp = classify(manual_tree(), t)
    assert lp["g"] == pytest.approx(1.0, abs=1e-12)


def test_classify_symmetric_tuple_splits_evenly():
    t = fresh_tuple(1, [interval_marginal(0.0, 10.0)], "g")
    lp = classify(manual_tree(), t)
    assert lp["g"] == pytest.approx(0.5, abs=1e-12)
    assert lp["p"] == pytest.approx(0.5, abs=1e-12)
    assert sum(lp.values()) == pytest.approx(1.0, abs=1e-10)


def test_classify_schema_mismatch():
    t = fresh_tuple(1, [interval_marginal(0, 1), interval_marginal(0, 1)], "g")
    with pytest.raises(SchemaError):
        classify(manual_tree(), t)


def test_classify_matches_monte_carlo():
    rng = np.random.default_rng(11)
    points, labels, _ = random_certain_problem(rng)
    names = [f"x{i}" for i in range(len(points[0]))]
    ds = dataset_from_design(names, points, labels, 0.1)
    tree = build_tree(ds, TreeConfig(max_layers=3))
    for _ in range(3):
        x = rng.uniform(2.0, 9.0, size=len(names))
        t = fresh_tuple(0, [interval_marginal(v * 0.85, v * 1.15) for v in x], labels[0])
        lp = classify(tree, t)
        mean, se = mc_classify(tree, t, 100_000, rng)
        for j, lab in enumerate(tree.label_set):
            assert abs(lp[lab] - mean[j]) <= 3 * max(se[j], 1e-12)


# --- accuracies -----------------------------------------------------------------


def test_training_accuracy_pure_tree():
    tree = build_tree(WORKED, TreeConfig(max_layers=4))
    assert training_accuracy(tree, WORKED) == pytest.approx(1.0, abs=1e-12)


def test_training_accuracy_single_leaf():
    ds = certain([[1.0], [2.0], [3.0]], ["g", "g", "p"])
    tree = UncertainTree(
        ("x",), ("g", "p"), LeafNode({"g": 2 / 3, "p": 1 / 3}, 3.0), TreeConfig(max_layers=1)
    )
    assert training_accuracy(tree, ds) == pytest.approx(2 / 3, abs=1e-12)


def test_test_accuracy_perfect_and_zero():
    tree = build_tree(WORKED, TreeConfig(max_layers=4))
    assert holdout_accuracy(tree, WORKED) == 1.0
    wrong = certain([[1.0]], ["p"])
    assert holdout_accuracy(tree, wrong) == 0.0


def test_test_accuracy_matches_manual_argmax():
    rng = np.random.default_rng(4)
    points, labels, _ = random_certain_problem(rng)
    names = [f"x{i}" for i in range(len(points[0]))]
    ds = dataset_from_design(names, points, labels, 0.05)
    tree = build_tree(ds, TreeConfig(max_layers=3))
    manual = sum(
        1 for t in ds.tuples if predicted_label(classify(tree, t)) == t.label
    ) / len(ds.tuples)
    assert holdout_accuracy(tree, ds) == manual


# --- cross-validation ------------------------------------------------------------


def test_k_fold_leave_one_out():
    ds = certain([[1.0], [2.0], [3.0], [4.0], [5.0]], ["g", "g", "p", "p", "p"])
    mean, folds = k_fold_cv(ds, 5, TreeConfig(max_layers=3, seed=1))
    assert len(folds) == 5
    assert mean == pytest.approx(sum(folds) / 5)


def test_k_fold_150_samples_fold_sizes():
    rng = np.random.default_rng(9)
    rows = rng.uniform(1.0, 10.0, size=(150, 2)).tolist()
    labels = ["g" if r[0] < 5 else "p" for r in rows]
    ds = dataset_from_design(["a", "b"], rows, labels, 0.0)
    mean, folds = k_fold_cv(ds, 5, TreeConfig(max_layers=3, seed=0))
    assert len(folds) == 5
    assert 0.0 <= mean <= 1.0


def test_k_fold_deterministic():
    ds = certain([[float(i)] for i in range(12)], ["g"] * 6 + ["p"] * 6)
    cfg = TreeConfig(max_layers=2, seed=42)
    assert k_fold_cv(ds, 3, cfg) == k_fold_cv(ds, 3, cfg)


def test_k_fold_bad_k():
    ds = certain([[1.0], [2.0]], ["g", "p"])
    with pytest.raises(InvalidParameterError):
        k_fold_cv(ds, 1, TreeConfig(max_layers=2))
    with pytest.raises(InvalidParameterError):
        k_fold_cv(ds, 3, TreeConfig(max_layers=2))


# --- certain-data reduction -----------------------------------------------------


def test_certain_data_matches_oracle_tree():
    """R = 0 training and prediction coincide with a plain gain-ratio tree."""
    rng = np.random.default_rng(21)
    for _ in range(5):
        points, labels, label_set = random_certain_problem(rng)
        names = [f"x{i}" for i in range(len(points[0]))]
        ds = dataset_from_design(names, points, labels, 0.0)
        cfg = TreeConfig(max_layers=4)
        tree = build_tree(ds, cfg)
        oracle = build_certain_tree(points, labels, label_set, 4, cfg.n_split_points)
        queries = [tuple(map(float, row)) for row in rng.uniform(0.5, 10.5, size=(40, len(names)))]
        for q in queries + points:
            t = fresh_tuple(0, [make_marginal(v, 0.0) for v in q], labels[0])
            assert predicted_label(classify(tree, t)) == certain_predict(oracle, q)


# --- persistence -----------------------------------------------------------------


def test_tree_json_round_trip(tmp_path):
    rng = np.random.default_rng(33)
    points, labels, _ = random_certain_problem(rng)
    names = [f"x{i}" for i in range(len(points[0]))]
    ds = dataset_from_design(names, points, labels, 0.1)
    tree = build_tree(ds, TreeConfig(max_layers=4))
    path = tmp_path / "tree.json"
    save_tree(tree, path)
    loaded = load_tree(path)
    assert tree_to_dict(loaded) == tree_to_dict(tree)
    assert loaded == tree


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_save_tree_mode_follows_umask(tmp_path, umask, mode):
    path = tmp_path / "tree.json"
    old = os.umask(umask)
    try:
        save_tree(build_tree(WORKED, TreeConfig(max_layers=2)), path)
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == mode


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["root"].update(kind="branch"), "root: node kind"),
        (lambda d: d["root"].update(attr=-1), "root: attribute index -1"),
        (lambda d: d["root"].update(threshold=float("inf")), "root: threshold inf"),
        (lambda d: d["root"]["left"]["lp"].pop("g"), "root.left: lp labels"),
        (lambda d: d["root"]["right"].pop("mass"), "root.right: malformed leaf"),
        (lambda d: d.pop("labels"), "malformed tree"),
        (lambda d: d["root"]["left"]["lp"].update(g=1.5, p=-0.5), "root.left: lp .* negative"),
        (lambda d: d["root"]["left"]["lp"].update(p=float("nan")), "root.left: lp .* non-finite"),
        (lambda d: d["root"]["right"]["lp"].update(g=0.5), "root.right: lp sums to 1.5, not 1"),
        (lambda d: d["root"]["right"]["lp"].update(g=2e-9), r"root.right: lp sums to 1\.000000002"),
        (lambda d: d["root"]["right"].update(mass=-1.0), "root.right: leaf mass -1.0"),
        (lambda d: d["root"]["left"].update(mass=float("inf")), "root.left: leaf mass inf"),
    ],
)
def test_tree_from_dict_rejects_malformed_nodes(edit, message):
    data = tree_to_dict(build_tree(WORKED, TreeConfig(max_layers=2)))
    edit(data)
    with pytest.raises(IngestionError, match=message):
        tree_from_dict(data)


def test_tree_from_dict_accepts_lp_within_tolerance():
    data = tree_to_dict(build_tree(WORKED, TreeConfig(max_layers=2)))
    data["root"]["right"]["lp"].update(g=5e-10)
    assert tree_from_dict(data).root.right.lp == {"g": 5e-10, "p": 1.0}

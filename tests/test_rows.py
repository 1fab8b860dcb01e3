"""Property tests of a dataset's rows: the one form the library reads.

A dataset's rows hold its tuples' cell table, masses and label indices.
Whichever way the dataset was made (from tuples, by ``dataset_from_design``,
or as a cross-validation fold taken by index), its rows must equal the rows
converted from its tuples bit for bit, and the sums over them must be the
sums over the tuples added in order.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from designmine.tree import (
    TreeConfig,
    build_tree,
    iter_leaves,
    k_fold_cv,
    test_accuracy as accuracy_on,
    tree_from_dict,
    tree_to_dict,
)
from designmine.uncertain import (
    Dataset,
    _node_rows,
    dataset_from_design,
    dataset_mass,
    fresh_tuple,
    label_masses,
    make_marginal,
    partition_tuple,
)

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def in_order(values):
    total = 0.0
    for v in values:
        total += v
    return total


def assert_same_rows(got, expected):
    assert got.table.tobytes() == expected.table.tobytes()
    assert got.tp.tobytes() == expected.tp.tobytes()
    assert got.label.tolist() == expected.label.tolist()
    assert got.pos.tolist() == expected.pos.tolist() == list(range(len(expected.tp)))
    assert got.seg.tolist() == [0] * len(expected.tp)
    for a in (got.table, got.tp, got.label, got.pos, got.seg):
        assert not a.flags.writeable


@st.composite
def fragment_datasets(draw):
    """A dataset of fresh tuples and of fragments cut from them by random
    ``partition_tuple`` sequences, zero-mass fragments included."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(0, 8))
    label_set = ("g", "m", "p")
    tuples = []
    for i in range(n):
        means = draw(st.lists(st.floats(0.5, 10.0), min_size=k, max_size=k))
        uncertainty = draw(st.sampled_from([0.0, 0.05, 0.3]))
        label = draw(st.sampled_from(label_set))
        pieces = [fresh_tuple(i + 1, [make_marginal(m, uncertainty) for m in means], label)]
        for _ in range(draw(st.integers(0, 4))):
            piece = pieces.pop(draw(st.integers(0, len(pieces) - 1)))
            attr = draw(st.integers(0, k - 1))
            lo, hi = piece.marginals[attr].lower, piece.marginals[attr].upper
            pieces.extend(partition_tuple(piece, attr, draw(st.floats(lo - 0.5, hi + 0.5))))
        tuples.extend(pieces)
    names = tuple(f"x{j}" for j in range(k))
    return Dataset(names, label_set, tuple(tuples), float(n))


@PROPERTY
@given(fragment_datasets(), st.data())
def test_rows_of_tuples_sum_in_order_and_conserve_mass_across_splits(ds, data):
    k = len(ds.attribute_names)
    assert_same_rows(ds._rows, _node_rows(ds.tuples, k, ds.label_set))
    assert dataset_mass(ds) == in_order(t.tp for t in ds.tuples)
    assert label_masses(ds) == {
        label: in_order(t.tp for t in ds.tuples if t.label == label) for label in ds.label_set
    }
    attr = data.draw(st.integers(0, k - 1))
    s = data.draw(st.floats(0.0, 11.0))
    halves = [partition_tuple(t, attr, s) for t in ds.tuples]
    left = ds.replace_tuples(f for f, _ in halves)
    right = ds.replace_tuples(f for _, f in halves)
    assert math.isclose(dataset_mass(left) + dataset_mass(right), dataset_mass(ds), abs_tol=1e-9)
    for label, mass in label_masses(ds).items():
        split = label_masses(left)[label] + label_masses(right)[label]
        assert math.isclose(split, mass, abs_tol=1e-9)


@PROPERTY
@given(
    st.integers(1, 3),
    st.lists(st.tuples(st.floats(0.5, 10.0), st.sampled_from("gmp")), min_size=1, max_size=12),
    st.sampled_from([0.0, 0.1]),
    st.data(),
)
def test_rows_of_designs_and_of_taken_rows_equal_the_rows_of_their_tuples(k, cells, uncertainty, data):
    rows = [[v * (j - 1) or v for j in range(k)] for v, _ in cells]
    labels = [label for _, label in cells]
    ds = dataset_from_design([f"x{j}" for j in range(k)], rows, labels, uncertainty, ("g", "m", "p"))
    assert "_rows" in vars(ds)
    assert_same_rows(ds._rows, _node_rows(ds.tuples, k, ds.label_set))
    assert ds.origin_mass == dataset_mass(ds) == in_order(t.tp for t in ds.tuples)
    index = np.array(data.draw(st.permutations(range(len(cells)))), dtype=np.intp)
    index = index[: data.draw(st.integers(0, len(index)))]
    taken = ds._take(index)
    assert taken.tuples == tuple(ds.tuples[i] for i in index.tolist())
    assert_same_rows(taken._rows, _node_rows(taken.tuples, k, ds.label_set))


def fold_loop(dataset, k, config):
    """Cross-validation as it was written before folds were taken by index,
    its mean added in order."""
    n = len(dataset.tuples)
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
            in_order(t.tp for t in train),
        )
        test_ds = dataset.replace_tuples(test)
        tree = build_tree(train_ds, config)
        accuracies.append(accuracy_on(tree, test_ds))
    return in_order(accuracies) / len(accuracies), accuracies


def random_design(seed, n=60, k=3):
    rng = np.random.default_rng(seed)
    values = rng.uniform(1.0, 9.0, (n, k))
    labels = ["g" if v[0] + v[1] > 10.0 else ("p" if v[2] > 6.0 else "m") for v in values]
    return values, labels


def test_k_fold_cv_equals_the_fold_loop_over_tuples():
    for seed in range(3):
        values, labels = random_design(seed)
        for uncertainty in (0.0, 0.1):
            ds = dataset_from_design(["a", "b", "c"], values, labels, uncertainty)
            config = TreeConfig(max_layers=4, n_split_points=6, seed=seed)
            assert k_fold_cv(ds, 5, config) == fold_loop(ds, 5, config)


def test_leaf_lp_sums_to_one_after_a_json_round_trip():
    for seed in range(4):
        values, labels = random_design(seed, n=80)
        ds = dataset_from_design(["a", "b", "c"], values, labels, 0.1 * (seed % 2))
        tree = build_tree(ds, TreeConfig(max_layers=5, n_split_points=8))
        again = tree_from_dict(tree_to_dict(tree))
        assert tree_to_dict(again) == tree_to_dict(tree)
        for leaf in iter_leaves(again):
            assert math.isclose(in_order(leaf.lp.values()), 1.0, abs_tol=1e-12)

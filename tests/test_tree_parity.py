"""The array core of ``designmine.tree`` against the scalar references.

Trees, best splits and gain ratios must equal, bit for bit, what growing the
tree tuple by tuple with ``partition_tuple`` gives (``_oracles.oracle_build``),
and routing and classifying a batch must equal routing each sample alone
(``_oracles.oracle_route``).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from designmine.cli import bundled_surrogate_text
from designmine.doe import SamplingPlan, lhs
from designmine.pipeline import run_component
from designmine.surrogate import load_surrogate
from designmine.tree import (
    ROUTE_BLOCK,
    SplitCandidate,
    TreeConfig,
    best_split,
    build_tree,
    classify,
    classify_batch,
    gain_ratio,
    gen_split_candidates,
    iter_leaves,
    route,
    tree_to_dict,
)
from designmine.uncertain import (
    Dataset,
    dataset_mass,
    fresh_tuple,
    make_marginal,
    partition_tuple,
)

from _oracles import (
    oracle_best_split_scored,
    oracle_build,
    oracle_candidates,
    oracle_classify,
    oracle_gain_ratio,
    oracle_route,
)

PARITY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

# Relative deviations per cell: 0 gives a point marginal, so columns mix
# certain and uncertain values.
DEVIATIONS = st.sampled_from([0.0, 0.0, 0.05, 0.2])
# Few distinct values, so thresholds tie, attributes collapse and boxes touch.
MEANS = st.one_of(st.integers(1, 6).map(float), st.floats(0.5, 10.0))


@st.composite
def datasets(draw):
    """1-4 attributes, 2-3 labels (not all of them present), mixed point and
    interval marginals; sometimes every tuple is first cut once, so the root
    holds fragments with narrowed boxes and masses below 1."""
    k = draw(st.integers(1, 4))
    label_set = ("a", "b", "c")[: draw(st.integers(2, 3))]
    n = draw(st.integers(1, 24))
    used = draw(st.sampled_from([label_set, label_set[:1], label_set[1:]]))
    tuples = []
    for i in range(n):
        marginals = [make_marginal(draw(MEANS), draw(DEVIATIONS)) for _ in range(k)]
        tuples.append(fresh_tuple(i + 1, marginals, draw(st.sampled_from(used))))
    if draw(st.booleans()):
        attr = draw(st.integers(0, k - 1))
        s = draw(st.floats(0.0, 11.0))
        cut = [partition_tuple(t, attr, s)[draw(st.integers(0, 1))] for t in tuples]
        tuples = [t for t in cut if t.tp > 0.0] or tuples
    names = tuple(f"x{j}" for j in range(k))
    return Dataset(names, label_set, tuple(tuples), sum(t.tp for t in tuples))


CONFIGS = st.builds(
    TreeConfig,
    max_layers=st.integers(1, 4),
    n_split_points=st.integers(1, 6),
    min_partition_mass=st.sampled_from([1e-6, 0.05]),
)


@PARITY
@given(datasets(), CONFIGS)
def test_build_tree_equals_scalar_reference(ds, config):
    tree = build_tree(ds, config)
    assert tree_to_dict(tree) == tree_to_dict(oracle_build(ds, config))
    leaf_mass = sum(leaf.mass for leaf in iter_leaves(tree))
    assert leaf_mass == pytest.approx(dataset_mass(ds), rel=1e-9)


@PARITY
@given(datasets(), st.data())
def test_best_split_and_gain_ratio_equal_scalar_reference(ds, data):
    k = len(ds.attribute_names)
    candidates = oracle_candidates(ds, data.draw(st.integers(1, 6)))
    # thresholds anywhere, including outside every box and on point values
    thresholds = st.one_of(st.floats(-1.0, 12.0), st.integers(0, 7).map(float))
    candidates += data.draw(
        st.lists(st.builds(SplitCandidate, st.integers(0, k - 1), thresholds), max_size=6)
    )
    assert gen_split_candidates(ds, 3) == oracle_candidates(ds, 3)
    min_mass = data.draw(st.sampled_from([1e-6, 0.05]))
    expected, _ = oracle_best_split_scored(ds, candidates, min_mass)
    shuffled = data.draw(st.permutations(candidates))
    assert best_split(ds, shuffled, min_mass) == expected
    for cand in candidates:
        ratio = oracle_gain_ratio(ds, cand, min_mass)
        if ratio is not None:
            assert gain_ratio(ds, cand, min_mass) == ratio


def test_seed7_demo_component_equals_scalar_reference():
    """The first component of ``designmine demo --seed 7``: n = 150, R = 0.1."""
    comp = load_surrogate(json.loads(bundled_surrogate_text())).components[0]
    result = run_component(comp, seed=7 * 1000)
    oracle = oracle_build(result.dataset, result.tree.config)
    assert tree_to_dict(result.tree) == tree_to_dict(oracle)


@st.composite
def designs(draw, k, label_set):
    """A sample to route: point and interval marginals, the intervals wide
    enough to straddle thresholds, a label inside or outside the tree's label
    set, and sometimes cut once first, so its box is narrowed and its mass
    below 1."""
    marginals = [make_marginal(draw(MEANS), draw(st.sampled_from([0.0, 0.3, 0.6]))) for _ in range(k)]
    t = fresh_tuple(draw(st.integers(1, 99)), marginals, draw(st.sampled_from(label_set + ("z",))))
    attr = draw(st.integers(0, k - 1))
    m = marginals[attr]
    if draw(st.booleans()) and not m.is_point:
        frags = partition_tuple(t, attr, draw(st.floats(m.lower, m.upper)))
        t = draw(st.sampled_from([f for f in frags if f.tp > 0.0]))
    return t


# Batch sizes on both sides of the block ``classify_batch`` routes at once.
BATCH_SIZES = st.one_of(
    st.integers(1, 9),
    st.sampled_from([ROUTE_BLOCK - 1, ROUTE_BLOCK, ROUTE_BLOCK + 1, 2 * ROUTE_BLOCK + 3]),
)


@PARITY
@given(datasets(), CONFIGS, st.data())
def test_route_and_classify_equal_scalar_reference(ds, config, data):
    """A batch of samples, the same few repeated, routed and classified at
    once equals each sample routed and classified alone; its arriving masses
    add up to its mass and its label probabilities to 1."""
    tree = build_tree(ds, config)
    pool = data.draw(st.lists(designs(len(ds.attribute_names), ds.label_set), min_size=1, max_size=6))
    batch = [pool[i % len(pool)] for i in range(data.draw(BATCH_SIZES))]
    expected = [[(id(leaf), m) for leaf, m in oracle_route(tree, t)] for t in pool]
    expected_lp = [oracle_classify(tree, t) for t in pool]

    reached = [[] for _ in batch]
    for leaf, pos, mass in route(tree, batch):
        assert len(pos) and (np.diff(pos) > 0).all()
        for i, m in zip(pos.tolist(), mass.tolist()):
            reached[i].append((id(leaf), m))
    for i, row in enumerate(reached):
        assert row == expected[i % len(pool)]
        assert sum(m for _, m in row) == pytest.approx(batch[i].tp, rel=1e-12)

    for i, row in enumerate(classify_batch(tree, batch).tolist()):
        assert dict(zip(tree.label_set, row)) == expected_lp[i % len(pool)]
        assert sum(row) == pytest.approx(1.0, rel=1e-12)
    assert [classify(tree, t) for t in pool] == expected_lp


def test_seed7_demo_component_classifies_like_scalar_reference():
    """Candidates of the seed-7 demo's first component, more than one block
    of them, classified in one batch and one at a time."""
    comp = load_surrogate(json.loads(bundled_surrogate_text())).components[0]
    tree = run_component(comp, seed=7 * 1000).tree
    rows = lhs(SamplingPlan(tuple(comp.bounds()), ROUTE_BLOCK + 300, 7))
    batch = [fresh_tuple(i, [make_marginal(v, 0.1) for v in row], "g") for i, row in enumerate(rows)]
    lp = classify_batch(tree, batch).tolist()
    assert [dict(zip(tree.label_set, row)) for row in lp] == [oracle_classify(tree, t) for t in batch]

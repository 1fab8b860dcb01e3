"""The four workloads: input generation, one timed pass, the correctness
gate, and the work count that puts different seeds on one scale.

Inputs come from the seed alone: Latin hypercube samples over the bundled
surrogate spec, labelled by the surrogate and written with the stdlib.  A
pass sees only those inputs.  Each pass takes a tracer; untraced passes get
``tracing.NULL``.
"""

from __future__ import annotations

import csv
import json
import math
import os
from importlib import resources

import numpy as np

from designmine import (
    ControlPointSet,
    SamplingPlan,
    TreeConfig,
    apply_labels,
    apply_morph,
    build_tree,
    dataset_from_design,
    enumerate_branches,
    fit_morph,
    fresh_tuple,
    lhs,
    lhs_in_rule,
    load_dataset,
    load_surrogate,
    load_tree,
    make_marginal,
    recombine,
    rules_payload,
    run_demo,
    screen_designs,
    surrogate_respond,
    test_accuracy,
    training_accuracy,
)
from designmine.errors import SelectionError
from designmine.morph import load_points, save_points
from designmine.pipeline import ComponentResult
from designmine.rules import rule_from_payload
from designmine.tree import iter_leaves, tree_depth, tree_to_dict
from designmine.uncertain import dataset_mass, load_design_points

import treework
from tracing import NULL

#: The seed of the north-star run (`designmine demo --seed 7`); stored
#: summaries are compared at this seed.
DEFAULT_SEED = 7
TARGET = "g"
LP_THRESHOLD = 0.85
TOP_K = 10
TOL = 1e-9

#: train-certain and screen mine the first bundled component.
COMPONENT = 0


def bundled_spec():
    text = resources.files("designmine").joinpath("data/demo_surrogate.json").read_text(
        encoding="utf-8"
    )
    return load_surrogate(json.loads(text))


def _labelled(comp, n, seed, tr=NULL):
    with tr.span("doe.lhs"):
        design = lhs(SamplingPlan(tuple(comp.bounds()), n, seed))
    tr.count("doe.samples", n)
    with tr.span("surrogate.respond"):
        records = [surrogate_respond(x, comp) for x in design]
    tr.count("surrogate.responses", n)
    with tr.span("uncertain.apply_labels"):
        labels = apply_labels(records, comp.criteria)
    return design, labels


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _dataset_rows(design, labels):
    return ([repr(float(v)) for v in row] + [label] for row, label in zip(design, labels))


def _fresh_tuples(rows, uncertainty):
    return [
        fresh_tuple(i + 1, [make_marginal(v, uncertainty) for v in row], TARGET)
        for i, row in enumerate(rows)
    ]


# --- correctness gate ------------------------------------------------------------


def _tree_errors(tree, dataset, where):
    errors = []
    for leaf in iter_leaves(tree):
        if abs(sum(leaf.lp.values()) - 1.0) > TOL:
            errors.append(f"{where}: leaf lp sums to {sum(leaf.lp.values())!r}")
            break
    leaf_mass = sum(leaf.mass for leaf in iter_leaves(tree))
    total = dataset_mass(dataset)
    if abs(leaf_mass - total) > TOL * max(1.0, total):
        errors.append(f"{where}: leaf masses sum to {leaf_mass!r}, dataset mass {total!r}")
    return errors


def _payload_errors(payload, bounds, ctt_limit, where):
    """Boxes inside the bounds and ordered; CTT within ``ctt_limit(entry)``."""
    errors = []
    if payload["selected"] not in {b["id"] for b in payload["branches"]}:
        errors.append(f"{where}: selected branch {payload['selected']} not among kept branches")
    for entry in payload["branches"]:
        for (lo, hi), (blo, bhi) in zip(entry["box"].values(), bounds):
            if not blo <= lo < hi <= bhi:
                errors.append(f"{where}: box of {entry['id']} leaves the bounds")
        if entry["ctt"] > ctt_limit(entry) + TOL:
            errors.append(f"{where}: CTT of {entry['id']} exceeds its target share")
    return errors


def _ranking_errors(ranked, where):
    errors = []
    keys = [(-d.lp[TARGET], d.id) for d in ranked]
    if keys != sorted(keys) or [d.rank for d in ranked] != list(range(1, len(ranked) + 1)):
        errors.append(f"{where}: screened ranking is not sorted")
    if any(abs(sum(d.lp.values()) - 1.0) > TOL for d in ranked):
        errors.append(f"{where}: a screened lp vector does not sum to 1")
    return errors


def _training_share(dataset):
    origin = dataset.origin_mass
    return lambda entry: entry["acc"] * entry["mass"] / origin


def _tree_summary(tree, payload):
    splits = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if hasattr(node, "attr"):
            splits.append([node.attr, node.threshold])
            stack += [node.right, node.left]
    leaves = len(iter_leaves(tree))
    return {
        "selected": payload["selected"],
        "nodes": 2 * leaves - 1,
        "leaves": leaves,
        "depth": tree_depth(tree),
        "splits": splits,
    }


def _same(a, b) -> bool:
    """Structural equality with floats compared to a relative 1e-9."""
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) and math.isclose(
            a, b, rel_tol=TOL, abs_tol=1e-12
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def summary_errors(summary, expected, where):
    """Differences between a pass summary and the stored one, by key."""
    if _same(summary, expected):
        return []
    keys = sorted(k for k in set(summary) | set(expected) if not _same(summary.get(k), expected.get(k)))
    return [f"{where}: summary differs from the stored one in {', '.join(keys) or 'structure'}"]


# --- workloads -------------------------------------------------------------------


class Demo:
    """`run_demo` on the bundled spec at library defaults: 3 components x 150
    samples, R = 0.1, 9 layers, 10 splits, 20 candidates, 20 systems.  Deep,
    small uncertain nodes: per-node overhead dominates."""

    name = "demo"

    def setup(self, seed, workdir):
        return {"spec": bundled_spec(), "seed": seed}

    def run(self, inputs, tr):
        spec, seed = inputs["spec"], inputs["seed"]
        if tr is NULL:
            return run_demo(spec, seed=seed)
        # Traced: the stages of each `run_component`, called one by one with
        # the seeds `run_demo` derives, so every stage gets its own span.
        results = []
        for index, comp in enumerate(spec.components):
            with tr.span("pipeline.run_component"):
                results.append(self._component(comp, seed * 1000 + index * 10, tr))
        with tr.span("pipeline.recombine"):
            systems = recombine(results, 20, seed * 1000 + 777)
        return results, systems

    @staticmethod
    def _component(comp, seed, tr):
        bounds = tuple(comp.bounds())
        design, labels = _labelled(comp, 150, seed, tr)
        with tr.span("uncertain.dataset_from_design"):
            dataset = dataset_from_design(
                comp.variable_names, design.tolist(), labels, 0.1, comp.criteria.labels
            )
        tr.count("uncertain.rows", len(dataset.tuples))
        with tr.span("tree.build_tree"):
            tree = build_tree(dataset, TreeConfig(max_layers=9, n_split_points=10, seed=seed))
        with tr.span("rules.rules_payload"):
            payload = rules_payload(tree, dataset, bounds, TARGET, LP_THRESHOLD)
            rule = rule_from_payload(payload)
        _count_rules(tr, tree, payload)
        with tr.span("doe.lhs"):
            candidates = lhs_in_rule(rule, 20, seed + 1)
        tr.count("doe.samples", len(candidates))
        with tr.span("uncertain.fresh_tuples"):
            tuples = _fresh_tuples(candidates, 0.1)
        with tr.span("rules.screen_designs"):
            ranked = screen_designs(tree, tuples, TARGET, len(tuples))
        tr.count("rules.screened", len(tuples))
        with tr.span("tree.training_accuracy"):
            accuracy = training_accuracy(tree, dataset)
        _count_tree(tr, tree)
        return ComponentResult(
            component=comp,
            design_matrix=design,
            labels=labels,
            dataset=dataset,
            tree=tree,
            train_accuracy=accuracy,
            rules=payload,
            rule=rule,
            candidates=candidates,
            ranked=ranked,
            finals=ranked[:TOP_K],
        )

    def check(self, inputs, out):
        results, systems = out
        errors = []
        for res in results:
            where = f"demo/{res.component.name}"
            bounds = res.component.bounds()
            errors += _tree_errors(res.tree, res.dataset, where)
            errors += _payload_errors(res.rules, bounds, _training_share(res.dataset), where)
            if not all(res.rule.contains(x) for x in res.candidates):
                errors.append(f"{where}: a rule-box sample lies outside its box")
            lo, hi = np.array(bounds).T
            if not ((res.design_matrix >= lo) & (res.design_matrix <= hi)).all():
                errors.append(f"{where}: a training sample lies outside the bounds")
            errors += _ranking_errors(res.ranked, where)
        if len(systems) != 20:
            errors.append(f"demo: {len(systems)} system designs, expected 20")
        return errors

    def summary(self, inputs, out):
        results, _ = out
        return {
            res.component.name: dict(
                _tree_summary(res.tree, res.rules),
                top_k=[d.id for d in res.finals],
                train_accuracy=res.train_accuracy,
            )
            for res in results
        }

    def same_outputs(self, a, b):
        """The traced stage-by-stage replay against `run_demo`: rules payload,
        ranked ids and lp vectors, finals, and the recombined systems."""
        (ra, sa), (rb, sb) = a, b
        for x, y in zip(ra, rb):
            if x.rules != y.rules or x.ranked != y.ranked or x.finals != y.finals:
                return False
        return len(ra) == len(rb) and [s.variables for s in sa] == [s.variables for s in sb]

    def work(self, inputs, out):
        results, _ = out
        return sum(treework.scoring_work(r.tree, r.dataset) for r in results)

    def replay(self, inputs, out, tr):
        results, _ = out
        return sum(treework.replay_splits(r.tree, r.dataset, tr) for r in results)


class TrainCertain:
    """The CLI `train` + `rules` path at R = 0 on a 2400-row labelled CSV:
    large certain nodes at shallow depths, no fragment multiplication."""

    name = "train-certain"
    n_rows = 2400

    def setup(self, seed, workdir):
        comp = bundled_spec().components[COMPONENT]
        design, labels = _labelled(comp, self.n_rows, seed * 1000 + 1)
        path = os.path.join(workdir, "train.csv")
        _write_csv(path, list(comp.variable_names) + ["label"], _dataset_rows(design, labels))
        return {"comp": comp, "data": path}

    def run(self, inputs, tr):
        comp = inputs["comp"]
        with tr.span("uncertain.load_dataset"):
            dataset = load_dataset(inputs["data"], 0.0)
        tr.count("uncertain.rows", len(dataset.tuples))
        with tr.span("tree.build_tree"):
            tree = build_tree(dataset, TreeConfig(max_layers=9, n_split_points=10))
        with tr.span("rules.rules_payload"):
            payload = rules_payload(tree, dataset, comp.bounds(), TARGET, LP_THRESHOLD)
        _count_rules(tr, tree, payload)
        with tr.span("tree.training_accuracy"):
            accuracy = training_accuracy(tree, dataset)
        _count_tree(tr, tree)
        return dataset, tree, payload, accuracy

    def check(self, inputs, out):
        dataset, tree, payload, accuracy = out
        where = "train-certain"
        errors = _tree_errors(tree, dataset, where)
        errors += _payload_errors(payload, inputs["comp"].bounds(), _training_share(dataset), where)
        if len(dataset.tuples) != self.n_rows or not 0.0 <= accuracy <= 1.0:
            errors.append(f"{where}: {len(dataset.tuples)} rows, accuracy {accuracy!r}")
        return errors

    def summary(self, inputs, out):
        dataset, tree, payload, accuracy = out
        return dict(_tree_summary(tree, payload), train_accuracy=accuracy)

    def work(self, inputs, out):
        dataset, tree, _, _ = out
        return treework.scoring_work(tree, dataset)

    def replay(self, inputs, out, tr):
        dataset, tree, _, _ = out
        return treework.replay_splits(tree, dataset, tr)


class Screen:
    """Routing and reads: load a stored n = 150, R = 0.1 tree, score its rules
    and accuracy on a 2000-row held-out CSV, and screen 10 000 candidates."""

    name = "screen"
    n_heldout = 2000
    n_designs = 10000

    def setup(self, seed, workdir):
        comp = bundled_spec().components[COMPONENT]
        # The pass mines a rule, so the stored tree needs a branch that
        # qualifies; a few training seeds in 40 give none (selection then
        # rightly raises), and set-up moves on to the next training sample.
        for attempt in range(10):
            design, labels = _labelled(comp, 150, seed * 1000 + 1 + 10 * attempt)
            train = dataset_from_design(
                comp.variable_names, design.tolist(), labels, 0.1, comp.criteria.labels
            )
            tree = build_tree(train, TreeConfig(max_layers=9, n_split_points=10))
            try:
                rules_payload(tree, train, comp.bounds(), TARGET, LP_THRESHOLD)
                break
            except SelectionError:
                continue
        paths = {name: os.path.join(workdir, name) for name in ("tree.json", "heldout.csv", "designs.csv")}
        with open(paths["tree.json"], "w", encoding="utf-8") as fh:
            json.dump(tree_to_dict(tree), fh)
        design, labels = _labelled(comp, self.n_heldout, seed * 1000 + 2)
        _write_csv(paths["heldout.csv"], list(comp.variable_names) + ["label"], _dataset_rows(design, labels))
        designs = lhs(SamplingPlan(tuple(comp.bounds()), self.n_designs, seed * 1000 + 3))
        _write_csv(paths["designs.csv"], comp.variable_names, ([repr(float(v)) for v in row] for row in designs))
        return {"comp": comp, "train": train, **paths}

    def run(self, inputs, tr):
        comp = inputs["comp"]
        with tr.span("tree.load_tree"):
            tree = load_tree(inputs["tree.json"])
        with tr.span("uncertain.load_dataset"):
            heldout = load_dataset(inputs["heldout.csv"], 0.1, comp.criteria.labels)
        tr.count("uncertain.rows", len(heldout.tuples))
        with tr.span("rules.rules_payload"):
            payload = rules_payload(tree, heldout, comp.bounds(), TARGET, LP_THRESHOLD)
        _count_rules(tr, tree, payload)
        with tr.span("tree.test_accuracy"):
            accuracy = test_accuracy(tree, heldout)
        with tr.span("uncertain.load_design_points"):
            _, rows, _ = load_design_points(inputs["designs.csv"])
        tr.count("uncertain.rows", len(rows))
        with tr.span("uncertain.fresh_tuples"):
            designs = _fresh_tuples(rows, 0.1)
        with tr.span("rules.screen_designs"):
            ranked = screen_designs(tree, designs, TARGET, TOP_K)
        tr.count("rules.screened", len(designs))
        _count_tree(tr, tree)
        return tree, heldout, payload, accuracy, designs, ranked

    def check(self, inputs, out):
        tree, heldout, payload, accuracy, designs, ranked = out
        where = "screen"
        errors = _tree_errors(tree, inputs["train"], where)
        # On held-out data CTT is bounded by the target share of that data.
        target = sum(t.tp for t in heldout.tuples if t.label == TARGET) / dataset_mass(heldout)
        errors += _payload_errors(payload, inputs["comp"].bounds(), lambda entry: target, where)
        errors += _ranking_errors(ranked, where)
        # A sorted top-k can still be the wrong k: classify every 50th design
        # and check that none left out beats the last one kept.
        kept = {d.id for d in ranked}
        floor = ranked[-1].lp[TARGET]
        if any(
            tree.classify(t)[TARGET] > floor + TOL for t in designs[::50] if t.id not in kept
        ):
            errors.append(f"{where}: a design outside the screened top {TOP_K} ranks higher")
        if len(designs) != self.n_designs or len(ranked) != TOP_K or not 0.0 <= accuracy <= 1.0:
            errors.append(f"{where}: {len(designs)} designs, {len(ranked)} screened, accuracy {accuracy!r}")
        return errors

    def summary(self, inputs, out):
        tree, heldout, payload, accuracy, designs, ranked = out
        return dict(_tree_summary(tree, payload), top_k=[d.id for d in ranked], test_accuracy=accuracy)

    #: Reading a row and building its tuple costs about as much as this many
    #: routing steps: the intercept over the slope of pass time against
    #: routing steps, fitted over 30 runs on the reference machine.
    ROW_STEPS = 7

    def work(self, inputs, out):
        tree, heldout, _, _, designs, _ = out
        lo, hi = treework.support_boxes(heldout.tuples)
        is_target = np.array([t.label == TARGET for t in heldout.tuples])
        work = treework.routing_visits(tree, lo, hi)
        work += treework.ctt_steps(tree, lo, hi, is_target, TARGET)
        lo, hi = treework.support_boxes(designs)
        work += treework.routing_visits(tree, lo, hi)
        return work + self.ROW_STEPS * (len(heldout.tuples) + len(designs))

    def replay(self, inputs, out, tr):
        """Classify every held-out row and design one call at a time, and
        check the results against `test_accuracy` and `screen_designs`."""
        tree, heldout, _, accuracy, designs, ranked = out
        with tr.span("tree.classify"):
            held = [tree.classify(t) for t in heldout.tuples]
            screened = [tree.classify(t) for t in designs]
        tr.count("tree.classified", len(held) + len(screened))
        mismatches = 0
        hits = sum(1 for t, lp in zip(heldout.tuples, held) if max(sorted(lp), key=lp.get) == t.label)
        if hits / len(held) != accuracy:
            mismatches += 1
        order = sorted(range(len(designs)), key=lambda i: (-screened[i][TARGET], designs[i].id))
        if [designs[i].id for i in order[:TOP_K]] != [d.id for d in ranked]:
            mismatches += 1
        return mismatches


class Morph:
    """Thin-plate-spline morph of 200 000 nodes by 30 control points, read
    from and written to point CSVs: I/O-bound, the largest memory peak."""

    name = "morph"
    n_control = 30
    n_nodes = 200_000

    def setup(self, seed, workdir):
        box = ((0.0, 100.0),) * 3
        original = lhs(SamplingPlan(box, self.n_control, seed * 1000 + 1))
        nodes = lhs(SamplingPlan(box, self.n_nodes, seed * 1000 + 2))
        rng = np.random.default_rng(seed * 1000 + 3)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=3)
        displaced = original + 2.0 * np.sin(original[:, [1, 2, 0]] / 25.0 + phase)
        paths = {}
        for name, prefix, points in (
            ("original.csv", "c", original),
            ("displaced.csv", "c", displaced),
            ("nodes.csv", "n", nodes),
        ):
            paths[name] = os.path.join(workdir, name)
            _write_csv(
                paths[name],
                ["id", "x", "y", "z"],
                ([f"{prefix}{i}"] + [repr(float(v)) for v in row] for i, row in enumerate(points, 1)),
            )
        paths["out"] = os.path.join(workdir, "morphed.csv")
        return paths

    def run(self, inputs, tr):
        with tr.span("morph.load_points"):
            ids_o, original = load_points(inputs["original.csv"])
            ids_d, displaced = load_points(inputs["displaced.csv"])
            ids_n, nodes = load_points(inputs["nodes.csv"])
        tr.count("morph.bytes_read", sum(os.path.getsize(inputs[k]) for k in ("original.csv", "displaced.csv", "nodes.csv")))
        tr.count("morph.nodes", len(ids_n))
        with tr.span("morph.fit_morph"):
            morph = fit_morph(ControlPointSet(original, displaced))
        with tr.span("morph.apply_morph"):
            moved = apply_morph(morph, nodes)
        m, n = len(nodes), len(original)
        tr.count("morph.apply_bytes_computed", 8 * m * n)
        # cdist 3 sub + 3 mul + 2 add + sqrt, kernel mul + log + mul, then the
        # m x n x 3 kernel product and the m x 3 x 3 affine product plus offset.
        tr.count("morph.apply_flops_computed", m * n * (9 + 3 + 6) + m * (18 + 3))
        with tr.span("morph.save_points"):
            save_points(inputs["out"], ids_n, moved)
        tr.count("morph.bytes_written", os.path.getsize(inputs["out"]))
        return ids_o, ids_d, original, displaced, morph, moved

    def check(self, inputs, out):
        ids_o, ids_d, original, displaced, morph, moved = out
        errors = []
        if ids_o != ids_d:
            errors.append("morph: control point ids differ")
        if not np.allclose(apply_morph(morph, original), displaced, rtol=0.0, atol=1e-6):
            errors.append("morph: the fitted map misses the displaced control points")
        if moved.shape != (self.n_nodes, 3) or not np.isfinite(moved).all():
            errors.append(f"morph: moved nodes have shape {moved.shape} or are not finite")
        with open(inputs["out"], encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        if lines != self.n_nodes + 1:
            errors.append(f"morph: output has {lines} lines, expected {self.n_nodes + 1}")
        return errors

    def summary(self, inputs, out):
        moved = out[-1]
        return {"nodes": len(moved), "sums": moved.sum(axis=0).tolist(), "first": moved[0].tolist()}

    def work(self, inputs, out):
        return self.n_nodes * self.n_control

    def replay(self, inputs, out, tr):
        return 0


def _count_tree(tr, tree):
    leaves = len(iter_leaves(tree))
    tr.count("tree.leaves", leaves)
    tr.count("tree.nodes", 2 * leaves - 1)
    tr.maximum("tree.depth", tree_depth(tree))


def _count_rules(tr, tree, payload):
    tr.count("rules.branches", len(payload["branches"]))
    tr.count("rules.target_branches", sum(1 for b in enumerate_branches(tree) if b.dominant == TARGET))


WORKLOADS = {w.name: w for w in (Demo(), TrainCertain(), Screen(), Morph())}

"""Command-line front end: train, rules, sample, screen, classify, metrics,
morph, cv, and demo.

Every command that writes an output file also writes a sibling
``<file>.manifest.json`` recording the command, flags, input digests, seed,
tool version, and timestamp.  Outputs themselves contain no timestamps, so a
rerun with the same inputs and seed reproduces them byte for byte.  Exit
codes: 0 ok, 2 input/ingestion, 3 tree construction, 4 rule selection,
5 numeric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from importlib import resources

import numpy as np

from . import __version__
from .atomic import atomic_open
from .doe import GENERATOR, SamplingPlan, lhs, sample_count_heuristic, save_samples
from .errors import (
    ConditioningError,
    DesignMineError,
    EmptyDatasetError,
    InconsistentCriteriaError,
    IngestionError,
    InvalidParameterError,
    InvalidSplitError,
    SchemaError,
    SelectionError,
    TreeConstructionError,
)
from .metrics import avgstiff, load_curve, load_histories, peak_force, peak_intrusion, sea, total_mass
from .morph import ControlPointSet, apply_morph, fit_morph, load_points, save_points
from .pipeline import run_demo
from .rules import rule_from_payload, rules_payload, screen_designs
from .surrogate import load_surrogate
from .tree import (
    TreeConfig,
    build_tree,
    classify_batch,
    k_fold_cv,
    load_tree,
    save_tree,
    training_accuracy,
)
from .uncertain import fresh_tuple, load_dataset, load_design_points, make_marginal


# --- output plumbing ----------------------------------------------------------


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()


class Run:
    """Collects flags and input digests; stamps a manifest next to each
    output it writes."""

    def __init__(self, command: str, args: argparse.Namespace):
        self.command = command
        self.flags = {
            k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None
        }
        self.inputs: dict = {}
        self.seed = getattr(args, "seed", None)

    def add_input(self, path) -> None:
        self.inputs[str(path)] = _sha256(path)

    def write(self, path, text: str) -> None:
        with atomic_open(path) as fh:
            fh.write(text)
        self.stamp(path)

    def stamp(self, path) -> None:
        """Write the manifest of an output that is already in place."""
        manifest = {
            "command": self.command,
            "version": __version__,
            "flags": {k: str(v) for k, v in self.flags.items()},
            "inputs": dict(self.inputs),
            "output": os.path.basename(str(path)),
            "output_digest": _sha256(path),
            "seed": self.seed,
            "generator": GENERATOR,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
        with atomic_open(str(path) + ".manifest.json") as fh:
            fh.write(json.dumps(manifest, indent=2) + "\n")


def _fmt(value: float) -> str:
    return repr(float(value))


def _lp_columns(label_set) -> list:
    # Table layout: label columns in reverse-sorted order (p, m, g).
    return sorted(label_set, reverse=True)


def _screen_csv(label_set, rows) -> str:
    labels = _lp_columns(label_set)
    lines = ["id," + ",".join(f"lp_{lab}" for lab in labels) + ",rank"]
    for r in rows:
        lines.append(
            ",".join([str(r.id)] + [_fmt(r.lp[lab]) for lab in labels] + [str(r.rank)])
        )
    return "\n".join(lines) + "\n"


def _dataset_csv(names, rows, labels) -> str:
    lines = [",".join(list(names) + ["label"])]
    for row, label in zip(np.asarray(rows), labels):
        lines.append(",".join([_fmt(v) for v in row] + [label]))
    return "\n".join(lines) + "\n"


def _load_bounds_file(path, attribute_names):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return [(float(data[name][0]), float(data[name][1])) for name in attribute_names]
    except KeyError as exc:
        raise IngestionError(f"{path}: missing bounds for attribute {exc}") from exc


def _data_extent_bounds(dataset):
    bounds = []
    for attr in range(len(dataset.attribute_names)):
        lo = min(t.marginals[attr].lower for t in dataset.tuples)
        hi = max(t.marginals[attr].upper for t in dataset.tuples)
        bounds.append((lo, hi))
    return bounds


def _design_tuples(path, uncertainty, expected_names=None, label="g"):
    names, rows, _ = load_design_points(path)
    if expected_names is not None and list(expected_names) != list(names):
        raise SchemaError(
            f"{path}: columns {names} do not match expected attributes {list(expected_names)}"
        )
    return names, rows, [
        fresh_tuple(i + 1, [make_marginal(v, uncertainty) for v in row], label)
        for i, row in enumerate(rows)
    ]


# --- commands -------------------------------------------------------------------


def cmd_train(args) -> int:
    run = Run("train", args)
    run.add_input(args.data)
    dataset = load_dataset(args.data, args.uncertainty)
    config = TreeConfig(
        max_layers=args.max_layers, n_split_points=args.splits, seed=args.seed
    )
    tree = build_tree(dataset, config)
    accuracy = training_accuracy(tree, dataset)
    save_tree(tree, args.out)
    run.stamp(args.out)
    print(f"training accuracy: {accuracy:.6f}")
    print(f"tree written to {args.out}")
    return 0


def cmd_rules(args) -> int:
    run = Run("rules", args)
    run.add_input(args.tree)
    run.add_input(args.data)
    tree = load_tree(args.tree)
    dataset = load_dataset(args.data, args.uncertainty)
    if dataset.attribute_names != tree.attribute_names:
        raise SchemaError("dataset attributes do not match the tree")
    if args.bounds:
        run.add_input(args.bounds)
        bounds = _load_bounds_file(args.bounds, tree.attribute_names)
    else:
        bounds = _data_extent_bounds(dataset)
    payload = rules_payload(tree, dataset, bounds, args.label, args.min_lp)
    run.write(args.out, json.dumps(payload, indent=2) + "\n")
    print(f"{'id':>5} {'acc':>8} {'ctt':>8} {'mass':>8}")
    for entry in payload["branches"]:
        print(
            f"{entry['id']:>5} {entry['acc']:>8.4f} {entry['ctt']:>8.4f} {entry['mass']:>8.3f}"
        )
    print(f"selected: {payload['selected']}")
    return 0


def cmd_sample(args) -> int:
    run = Run("sample", args)
    if args.rules:
        run.add_input(args.rules)
        with open(args.rules, encoding="utf-8") as fh:
            payload = json.load(fh)
        try:
            rule = rule_from_payload(payload, args.branch)
        except (IngestionError, InvalidParameterError) as exc:
            raise type(exc)(f"{args.rules}: {exc}") from None
        names = list(rule.attribute_names)
        bounds = list(zip(rule.lower, rule.upper))
    elif args.bounds:
        run.add_input(args.bounds)
        with open(args.bounds, encoding="utf-8") as fh:
            data = json.load(fh)
        names = list(data.keys())
        bounds = [(float(v[0]), float(v[1])) for v in data.values()]
    else:
        raise InvalidParameterError("provide --rules or --bounds to define the box")
    samples = lhs(SamplingPlan(tuple(bounds), args.n, args.seed))
    save_samples(args.out, names, samples)
    run.stamp(args.out)
    print(f"advisory minimum sample count (3k) for k={len(names)}: {sample_count_heuristic(len(names))}")
    print(f"{args.n} samples written to {args.out}")
    return 0


def cmd_screen(args) -> int:
    run = Run("screen", args)
    run.add_input(args.tree)
    run.add_input(args.designs)
    tree = load_tree(args.tree)
    _, _, tuples = _design_tuples(
        args.designs, args.uncertainty, tree.attribute_names, args.label
    )
    screened = screen_designs(tree, tuples, args.label, args.top)
    run.write(args.out, _screen_csv(tree.label_set, screened))
    print(f"top {args.top} of {len(tuples)} designs written to {args.out}")
    print(f"best lp({args.label}) = {screened[0].lp[args.label]:.4f} (design {screened[0].id})")
    return 0


def cmd_classify(args) -> int:
    run = Run("classify", args)
    run.add_input(args.tree)
    run.add_input(args.data)
    tree = load_tree(args.tree)
    _, _, tuples = _design_tuples(args.data, args.uncertainty, tree.attribute_names)
    labels = _lp_columns(tree.label_set)
    lp = classify_batch(tree, tuples)[:, [tree.label_set.index(lab) for lab in labels]]
    lines = ["id," + ",".join(f"lp_{lab}" for lab in labels)]
    lines += [",".join([str(t.id)] + [_fmt(v) for v in row]) for t, row in zip(tuples, lp.tolist())]
    run.write(args.out, "\n".join(lines) + "\n")
    print(f"{len(tuples)} classifications written to {args.out}")
    return 0


def cmd_metrics(args) -> int:
    run = Run("metrics", args)
    out: dict = {}
    if args.curve:
        run.add_input(args.curve)
        curve = load_curve(args.curve)
        out["avgstiff_kN_per_m"] = avgstiff(curve)
        out["F_p_kN"] = peak_force(curve.force)
        if args.mass is not None:
            out["SEA_J_per_kg"] = sea(curve, args.mass)
    if args.histories:
        run.add_input(args.histories)
        out["S_p_mm"] = peak_intrusion(load_histories(args.histories))
    if args.masses:
        parts = [float(v) for v in args.masses.split(",") if v.strip()]
        out["M_kg"] = total_mass(parts)
    if not out:
        raise InvalidParameterError("nothing to compute: pass --curve, --histories, or --masses")
    run.write(args.out, json.dumps(out, indent=2) + "\n")
    for key, value in out.items():
        print(f"{key} = {value:.6g}")
    return 0


def cmd_morph(args) -> int:
    run = Run("morph", args)
    for path in (args.original, args.displaced, args.nodes):
        run.add_input(path)
    ids_o, original = load_points(args.original)
    ids_d, displaced = load_points(args.displaced)
    if ids_o != ids_d:
        raise IngestionError("original and displaced control point ids do not match")
    ids_n, nodes = load_points(args.nodes)
    morph = fit_morph(ControlPointSet(original, displaced), args.regularization)
    moved = apply_morph(morph, nodes)
    save_points(args.out, ids_n, moved)
    run.stamp(args.out)
    print(f"condition estimate: {morph.condition:.3e}")
    print(f"{len(ids_n)} nodes morphed to {args.out}")
    return 0


def cmd_cv(args) -> int:
    run = Run("cv", args)
    run.add_input(args.data)
    dataset = load_dataset(args.data, args.uncertainty)
    config = TreeConfig(
        max_layers=args.max_layers, n_split_points=args.splits, seed=args.seed
    )
    mean, folds = k_fold_cv(dataset, args.k, config)
    print(f"{args.k}-fold cross-validation accuracy: {mean:.6f}")
    for i, acc in enumerate(folds, start=1):
        print(f"  fold {i}: {acc:.6f}")
    if args.out:
        run.write(
            args.out,
            json.dumps({"k": args.k, "mean_accuracy": mean, "folds": folds}, indent=2) + "\n",
        )
    return 0


def bundled_surrogate_text() -> str:
    return resources.files("designmine").joinpath("data/demo_surrogate.json").read_text(
        encoding="utf-8"
    )


def cmd_demo(args) -> int:
    run = Run("demo", args)
    if args.spec:
        run.add_input(args.spec)
        spec = load_surrogate(args.spec)
    else:
        spec = load_surrogate(json.loads(bundled_surrogate_text()))
    os.makedirs(args.out, exist_ok=True)
    results, systems = run_demo(
        spec,
        n_train=args.n_train,
        uncertainty=args.uncertainty,
        max_layers=args.max_layers,
        n_split_points=args.splits,
        lp_threshold=args.min_lp,
        target_label=args.label,
        n_subspace=args.n_subspace,
        top_k=args.top,
        n_system=args.n_system,
        seed=args.seed,
    )
    join = lambda name: os.path.join(args.out, name)
    for res in results:
        comp = res.component
        run.write(
            join(f"{comp.name}_data.csv"),
            _dataset_csv(comp.variable_names, res.design_matrix, res.labels),
        )
        save_tree(res.tree, join(f"{comp.name}_tree.json"))
        run.stamp(join(f"{comp.name}_tree.json"))
        run.write(join(f"{comp.name}_rules.json"), json.dumps(res.rules, indent=2) + "\n")
        save_samples(join(f"{comp.name}_samples.csv"), comp.variable_names, res.candidates)
        run.stamp(join(f"{comp.name}_samples.csv"))
        run.write(join(f"{comp.name}_candidates.csv"), _screen_csv(res.tree.label_set, res.ranked))
        run.write(join(f"{comp.name}_screened.csv"), _screen_csv(res.tree.label_set, res.finals))
        print(
            f"{comp.name}: training accuracy {res.train_accuracy:.4f}, "
            f"rule {res.rules['selected']} "
            f"(acc {res.rule.acc:.4f}, ctt {res.rule.ctt:.4f}), "
            f"best screened lp({args.label}) {res.finals[0].lp[args.label]:.4f}"
        )
    header = ["id"]
    for res in results:
        header.append(f"{res.component.name}_choice")
    var_names = [n for res in results for n in res.component.variable_names]
    header += var_names
    for res in results:
        header += [f"{res.component.name}_SEA", f"{res.component.name}_M"]
    header.append("total_mass")
    lines = [",".join(header)]
    for system in systems:
        row = [str(system.id)]
        row += [str(system.choices[res.component.name]) for res in results]
        row += [_fmt(system.variables[n]) for n in var_names]
        for res in results:
            resp = system.responses[res.component.name]
            row += [_fmt(resp["SEA"]), _fmt(resp["M"])]
        row.append(_fmt(system.total_mass))
        lines.append(",".join(row))
    run.write(join("system_designs.csv"), "\n".join(lines) + "\n")
    masses = [s.total_mass for s in systems]
    print(
        f"{len(systems)} recombined system designs written "
        f"(total mass {min(masses):.3f}..{max(masses):.3f} kg)"
    )
    return 0


# --- parser ----------------------------------------------------------------------


def _add_tree_flags(p, default_layers=6):
    p.add_argument("--uncertainty", type=float, default=0.0, help="relative deviation R")
    p.add_argument("--max-layers", type=int, default=default_layers, help="tree depth cap")
    p.add_argument("--splits", type=int, default=10, help="candidate thresholds per attribute")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="designmine",
        description="Decision-tree design mining for uncertain data",
    )
    parser.add_argument("--version", action="version", version=f"designmine {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="build a tree from a labelled dataset CSV")
    p.add_argument("--data", required=True)
    _add_tree_flags(p)
    p.add_argument("--out", required=True, help="tree JSON output")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("rules", help="extract and select design rules from a tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--data", required=True, help="training dataset CSV")
    p.add_argument("--uncertainty", type=float, default=0.0)
    p.add_argument("--label", default="g", help="target label")
    p.add_argument("--min-lp", type=float, default=0.85, help="purity threshold")
    p.add_argument("--bounds", help="optional JSON of global bounds per attribute")
    p.add_argument("--out", required=True, help="rules JSON output")
    p.set_defaults(func=cmd_rules)

    p = sub.add_parser("sample", help="Latin hypercube sample a box")
    p.add_argument("--rules", help="rules JSON; samples the selected branch box")
    p.add_argument("--branch", help="branch id override when using --rules")
    p.add_argument("--bounds", help="JSON of bounds per variable")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="samples CSV output")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("screen", help="rank designs by predicted label probability")
    p.add_argument("--tree", required=True)
    p.add_argument("--designs", required=True, help="design CSV (dataset format, no label)")
    p.add_argument("--uncertainty", type=float, default=0.0)
    p.add_argument("--label", default="g")
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("classify", help="label-probability vectors for designs")
    p.add_argument("--tree", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--uncertainty", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("metrics", help="crash response metrics from curve data")
    p.add_argument("--curve", help="u_m,F_kN CSV")
    p.add_argument("--mass", type=float, help="component mass (kg) for SEA")
    p.add_argument("--histories", help="t_s,s1_mm..s4_mm CSV for intrusion")
    p.add_argument("--masses", help="comma list of component masses for the total")
    p.add_argument("--out", required=True, help="metrics JSON output")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("morph", help="fit control-point morph and move a node cloud")
    p.add_argument("--original", required=True, help="id,x,y,z CSV of original MCPs")
    p.add_argument("--displaced", required=True, help="id,x,y,z CSV of displaced MCPs")
    p.add_argument("--nodes", required=True, help="id,x,y,z CSV of nodes to move")
    p.add_argument("--regularization", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_morph)

    p = sub.add_parser("cv", help="k-fold cross-validation accuracy")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, default=5)
    _add_tree_flags(p)
    p.add_argument("--out", help="optional JSON output")
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("demo", help="full pipeline on a surrogate spec")
    p.add_argument("--spec", help="surrogate spec JSON (bundled demo when omitted)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-train", type=int, default=150)
    p.add_argument("--uncertainty", type=float, default=0.1)
    p.add_argument("--max-layers", type=int, default=9)
    p.add_argument("--splits", type=int, default=10)
    p.add_argument("--label", default="g")
    p.add_argument("--min-lp", type=float, default=0.85)
    p.add_argument("--n-subspace", type=int, default=20)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--n-system", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_demo)

    return parser


_EXIT_CODES = (
    (SelectionError, 4),
    ((TreeConstructionError, EmptyDatasetError), 3),
    ((ConditioningError, InvalidSplitError, FloatingPointError), 5),
    (
        (
            IngestionError,
            InvalidParameterError,
            InconsistentCriteriaError,
            SchemaError,
            OSError,
            json.JSONDecodeError,
        ),
        2,
    ),
    (DesignMineError, 5),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single reporting point for exit codes
        for types, code in _EXIT_CODES:
            if isinstance(exc, types):
                message = str(exc).replace("\n", " ")
                print(f"error[{type(exc).__name__}]: {message}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())

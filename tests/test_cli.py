"""End-to-end tests of the command-line interface and its exit codes."""

import hashlib
import json

import numpy as np
import pytest

from designmine.cli import bundled_surrogate_text, main
from designmine.errors import IngestionError
from designmine.rules import enumerate_branches
from designmine.tree import (
    MAX_LAYERS,
    LeafNode,
    SplitNode,
    TreeConfig,
    UncertainTree,
    build_tree,
    classify,
    iter_leaves,
    load_tree,
    tree_depth,
    tree_from_dict,
    tree_to_dict,
)
from designmine.uncertain import fresh_tuple, load_dataset, make_marginal


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def dataset_csv(tmp_path):
    rng = np.random.default_rng(0)
    rows = np.column_stack([rng.uniform(1.0, 3.0, 80), rng.uniform(0.0, 10.0, 80)])
    labels = ["g" if (t <= 2.0 and u > 4.0) else ("p" if t > 2.5 else "m") for t, u in rows]
    lines = ["t,u,label"] + [f"{float(t)!r},{float(u)!r},{lab}" for (t, u), lab in zip(rows, labels)]
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def manifest_of(path):
    return json.loads((path.parent / (path.name + ".manifest.json")).read_text())


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- train ---------------------------------------------------------------------


def test_train_writes_tree_and_manifest(dataset_csv, tmp_path, capsys):
    out = tmp_path / "tree.json"
    assert run("train", "--data", str(dataset_csv), "--uncertainty", "0.05",
               "--max-layers", "4", "--out", str(out)) == 0
    assert "training accuracy" in capsys.readouterr().out
    tree = json.loads(out.read_text())
    assert tree["attributes"] == ["t", "u"]
    assert tree["root"]["kind"] == "split"
    manifest = manifest_of(out)
    assert manifest["command"] == "train"
    assert str(dataset_csv) in manifest["inputs"]
    assert manifest["inputs"][str(dataset_csv)].startswith("sha256:")


def test_train_missing_file_exits_2(tmp_path, capsys):
    assert run("train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "t.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[") and err.count("\n") == 1


def test_train_malformed_csv_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,label\n1,zap,g\n", encoding="utf-8")
    assert run("train", "--data", str(bad), "--out", str(tmp_path / "t.json")) == 2


def test_train_empty_dataset_exits_3(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("a,b,label\n", encoding="utf-8")
    assert run("train", "--data", str(empty), "--out", str(tmp_path / "t.json")) == 3


# --- rules ----------------------------------------------------------------------


def trained_tree(dataset_csv, tmp_path):
    out = tmp_path / "tree.json"
    assert run("train", "--data", str(dataset_csv), "--uncertainty", "0.05",
               "--max-layers", "4", "--out", str(out)) == 0
    return out


def test_rules_selects_branch(dataset_csv, tmp_path, capsys):
    tree = trained_tree(dataset_csv, tmp_path)
    out = tmp_path / "rules.json"
    assert run("rules", "--tree", str(tree), "--data", str(dataset_csv),
               "--uncertainty", "0.05", "--label", "g", "--min-lp", "0.8",
               "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["selected"].startswith("b")
    assert payload["theta"] == 0.8
    assert "selected:" in capsys.readouterr().out


def test_rules_impossible_threshold_exits_4(dataset_csv, tmp_path):
    tree = trained_tree(dataset_csv, tmp_path)
    assert run("rules", "--tree", str(tree), "--data", str(dataset_csv),
               "--uncertainty", "0.05", "--min-lp", "1.01",
               "--out", str(tmp_path / "r.json")) == 4


def test_rules_empty_dataset_exits_3(dataset_csv, tmp_path, capsys):
    tree = trained_tree(dataset_csv, tmp_path)
    empty = tmp_path / "empty.csv"
    empty.write_text("t,u,label\n", encoding="utf-8")
    bounds = tmp_path / "bounds.json"
    bounds.write_text(json.dumps({"t": [1.0, 3.0], "u": [0.0, 10.0]}), encoding="utf-8")
    assert run("rules", "--tree", str(tree), "--data", str(empty), "--bounds", str(bounds),
               "--out", str(tmp_path / "r.json")) == 3
    assert capsys.readouterr().err.startswith("error[EmptyDatasetError]")
    assert run("rules", "--tree", str(tree), "--data", str(empty), "--out", str(tmp_path / "r.json")) == 3
    assert capsys.readouterr().err.startswith("error[EmptyDatasetError]")


def test_rules_with_bounds_file(dataset_csv, tmp_path):
    tree = trained_tree(dataset_csv, tmp_path)
    bounds = tmp_path / "bounds.json"
    bounds.write_text(json.dumps({"t": [1.0, 3.0], "u": [0.0, 10.0]}), encoding="utf-8")
    out = tmp_path / "rules.json"
    assert run("rules", "--tree", str(tree), "--data", str(dataset_csv),
               "--uncertainty", "0.05", "--min-lp", "0.8", "--bounds", str(bounds),
               "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    for entry in payload["branches"]:
        for name, (lo, hi) in entry["box"].items():
            glo, ghi = {"t": (1.0, 3.0), "u": (0.0, 10.0)}[name]
            assert glo <= lo < hi <= ghi


# --- sample ----------------------------------------------------------------------


def test_sample_from_rules(dataset_csv, tmp_path, capsys):
    tree = trained_tree(dataset_csv, tmp_path)
    rules = tmp_path / "rules.json"
    run("rules", "--tree", str(tree), "--data", str(dataset_csv),
        "--uncertainty", "0.05", "--min-lp", "0.8", "--out", str(rules))
    out = tmp_path / "doe.csv"
    assert run("sample", "--rules", str(rules), "--n", "20", "--seed", "3",
               "--out", str(out)) == 0
    assert "advisory minimum sample count" in capsys.readouterr().out
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,u" and len(lines) == 21
    payload = json.loads(rules.read_text())
    box = next(b["box"] for b in payload["branches"] if b["id"] == payload["selected"])
    for line in lines[1:]:
        t, u = (float(v) for v in line.split(","))
        assert box["t"][0] <= t <= box["t"][1]
        assert box["u"][0] <= u <= box["u"][1]


def test_sample_from_bounds_deterministic(tmp_path):
    bounds = tmp_path / "b.json"
    bounds.write_text(json.dumps({"x": [0.0, 1.0], "y": [5.0, 9.0]}), encoding="utf-8")
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert run("sample", "--bounds", str(bounds), "--n", "15", "--seed", "9", "--out", str(out1)) == 0
    assert run("sample", "--bounds", str(bounds), "--n", "15", "--seed", "9", "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert sha256_of(out1) == "bcf648efa5670da9fd84983f8f659e153c1c3a0a1bf616694aaacd64f12e4a10"


# Bounds files that are not an object of [lo, hi] pairs of finite numbers.
BAD_BOUNDS = [
    ([[1.0, 3.0], [0.0, 10.0]], "bounds must be a JSON object"),
    ({"t": 5, "u": [0.0, 10.0]}, "bounds of 't' are 5,"),
    ({"t": [1.0], "u": [0.0, 10.0]}, "bounds of 't' are [1.0],"),
    ({"t": [1.0, "3"], "u": [0.0, 10.0]}, "bounds of 't'"),
    ({"t": [1.0, float("inf")], "u": [0.0, 10.0]}, "bounds of 't'"),
    ({"t": [1.0, 3.0], "u": [True, 10.0]}, "bounds of 'u'"),
]


@pytest.mark.parametrize("data, message", BAD_BOUNDS)
def test_sample_malformed_bounds_exits_2(tmp_path, capsys, data, message):
    bounds = tmp_path / "b.json"
    bounds.write_text(json.dumps(data), encoding="utf-8")
    assert run("sample", "--bounds", str(bounds), "--n", "5", "--out", str(tmp_path / "s.csv")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error[IngestionError]: {bounds}: ") and message in err


@pytest.mark.parametrize(
    "data, message", BAD_BOUNDS + [({"t": [1.0, 3.0]}, "missing bounds for attribute 'u'")]
)
def test_rules_malformed_bounds_exits_2(dataset_csv, tmp_path, capsys, data, message):
    tree = trained_tree(dataset_csv, tmp_path)
    bounds = tmp_path / "b.json"
    bounds.write_text(json.dumps(data), encoding="utf-8")
    assert run("rules", "--tree", str(tree), "--data", str(dataset_csv), "--bounds", str(bounds),
               "--out", str(tmp_path / "r.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error[IngestionError]: {bounds}: ") and message in err


@pytest.mark.parametrize(
    "edit, where",
    [
        (lambda p: p.pop("selected"), "'selected'"),
        (lambda p: p.update(selected="b99"), "'b99'"),
        (lambda p: p["branches"][0].update(box={"t": [1.0, "x"], "u": [0.0, 1.0]}), "box of 't'"),
        (lambda p: p["branches"][0].update(box={"t": [2.0, 1.0], "u": [0.0, 1.0]}), "empty interval"),
        (lambda p: p["branches"][0].update(box=[1.0, 2.0]), "'box'"),
    ],
    ids=["no-selected", "unknown-selected", "non-number", "reversed", "box-not-object"],
)
def test_sample_malformed_rules_exits_2(tmp_path, capsys, edit, where):
    payload = {
        "target": "g",
        "theta": 0.8,
        "branches": [{"id": "b1", "acc": 0.9, "ctt": 0.3, "mass": 5.0,
                      "box": {"t": [1.0, 2.0], "u": [4.0, 10.0]}}],
        "selected": "b1",
    }
    edit(payload)
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps(payload), encoding="utf-8")
    assert run("sample", "--rules", str(rules), "--out", str(tmp_path / "s.csv")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error[IngestionError]: {rules}: ") and err.count("\n") == 1
    assert where in err


def test_sample_unknown_branch_exits_2(dataset_csv, tmp_path, capsys):
    tree = trained_tree(dataset_csv, tmp_path)
    rules = tmp_path / "rules.json"
    run("rules", "--tree", str(tree), "--data", str(dataset_csv),
        "--uncertainty", "0.05", "--min-lp", "0.8", "--out", str(rules))
    assert run("sample", "--rules", str(rules), "--branch", "b999",
               "--out", str(tmp_path / "s.csv")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error[InvalidParameterError]: {rules}: ") and "'b999'" in err


def test_sample_requires_box_source(tmp_path):
    assert run("sample", "--n", "5", "--out", str(tmp_path / "s.csv")) == 2


# --- screen and classify ----------------------------------------------------------


def test_screen_and_classify(dataset_csv, tmp_path):
    tree = trained_tree(dataset_csv, tmp_path)
    designs = tmp_path / "designs.csv"
    rng = np.random.default_rng(5)
    rows = np.column_stack([rng.uniform(1.0, 3.0, 20), rng.uniform(0.0, 10.0, 20)])
    designs.write_text(
        "t,u\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in rows) + "\n", encoding="utf-8"
    )
    screened = tmp_path / "screened.csv"
    assert run("screen", "--tree", str(tree), "--designs", str(designs),
               "--uncertainty", "0.05", "--top", "10", "--out", str(screened)) == 0
    lines = screened.read_text().strip().splitlines()
    assert lines[0] == "id,lp_p,lp_m,lp_g,rank"
    assert len(lines) == 11
    lp_g = [float(l.split(",")[3]) for l in lines[1:]]
    assert lp_g == sorted(lp_g, reverse=True)
    assert [int(l.split(",")[4]) for l in lines[1:]] == list(range(1, 11))

    lp_out = tmp_path / "lp.csv"
    assert run("classify", "--tree", str(tree), "--data", str(designs),
               "--uncertainty", "0.05", "--out", str(lp_out)) == 0
    clines = lp_out.read_text().strip().splitlines()
    assert clines[0] == "id,lp_p,lp_m,lp_g"
    assert len(clines) == 21
    for line in clines[1:]:
        parts = line.split(",")
        assert abs(sum(float(v) for v in parts[1:]) - 1.0) < 1e-9
    assert sha256_of(screened) == "07a47991f9695bfce147dba9bb1ffe0fac954d974ad82a89e79adaa44c23dddd"
    assert sha256_of(lp_out) == "0626e9216590402efd427654b05c267b529c28f6a11a13313cda7d2ebd675d1d"


def test_screen_unknown_label_exits_2(dataset_csv, tmp_path, capsys):
    tree = trained_tree(dataset_csv, tmp_path)
    assert run("screen", "--tree", str(tree), "--designs", str(dataset_csv), "--label", "X",
               "--top", "3", "--out", str(tmp_path / "s.csv")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[InvalidParameterError]") and "'X'" in err
    assert "['g', 'm', 'p']" in err


def test_screen_schema_mismatch_exits_2(dataset_csv, tmp_path):
    tree = trained_tree(dataset_csv, tmp_path)
    wrong = tmp_path / "wrong.csv"
    wrong.write_text("a,b\n1,2\n", encoding="utf-8")
    assert run("screen", "--tree", str(tree), "--designs", str(wrong),
               "--out", str(tmp_path / "s.csv")) == 2


def classify_with_edited_tree(dataset_csv, tmp_path, edit):
    tree = trained_tree(dataset_csv, tmp_path)
    data = json.loads(tree.read_text())
    edit(data)
    tree.write_text(json.dumps(data), encoding="utf-8")
    return run("classify", "--tree", str(tree), "--data", str(dataset_csv),
               "--out", str(tmp_path / "lp.csv"))


def test_classify_tree_node_without_kind_exits_2(dataset_csv, tmp_path, capsys):
    code = classify_with_edited_tree(dataset_csv, tmp_path, lambda d: d["root"].pop("kind"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error[IngestionError]") and "tree.json: root:" in err


def test_classify_tree_attr_out_of_range_exits_2(dataset_csv, tmp_path, capsys):
    code = classify_with_edited_tree(
        dataset_csv, tmp_path, lambda d: d["root"]["left"].update(attr=9)
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error[IngestionError]") and "root.left: attribute index 9" in err


def leftmost_leaf(data):
    """The leftmost leaf of a tree dict and its node path."""
    node, where = data["root"], "root"
    while node["kind"] == "split":
        node, where = node["left"], where + ".left"
    return node, where


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda leaf: leaf["lp"].update({k: 0.5 for k in leaf["lp"]}), "lp sums to 1.5, not 1"),
        (lambda leaf: leaf.update(mass=-1.0), "leaf mass -1.0 is negative"),
    ],
)
def test_classify_tree_with_bad_leaf_exits_2(dataset_csv, tmp_path, capsys, edit, message):
    paths = []

    def edit_leaf(data):
        leaf, where = leftmost_leaf(data)
        edit(leaf)
        paths.append(where)

    assert classify_with_edited_tree(dataset_csv, tmp_path, edit_leaf) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[IngestionError]") and f"{paths[0]}: {message}" in err


def test_classify_deeply_nested_tree_exits_2(dataset_csv, tmp_path, capsys):
    leaf = json.dumps({"kind": "leaf", "lp": {"g": 1.0, "m": 0.0, "p": 0.0}, "mass": 1.0})
    split = '{"kind": "split", "attr": 0, "threshold": 2.0, "left": '
    root = split * 1500 + leaf + (', "right": ' + leaf + "}") * 1500
    tree = tmp_path / "deep.json"
    tree.write_text('{"attributes": ["t", "u"], "labels": ["g", "m", "p"], "root": ' + root + "}",
                    encoding="utf-8")
    assert run("classify", "--tree", str(tree), "--data", str(dataset_csv),
               "--out", str(tmp_path / "lp.csv")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error[IngestionError]: {tree}: ") and err.count("\n") == 1

    # The same 1500-deep chain, built in memory, and every walk over it is a
    # loop: no RecursionError.  Loading its dict is refused by depth.
    chain = leaf_node = LeafNode({"g": 1.0, "m": 0.0, "p": 0.0}, 1.0)
    for _ in range(1500):
        chain = SplitNode(0, 2.0, chain, leaf_node)
    deep = UncertainTree(("t", "u"), ("g", "m", "p"), chain, TreeConfig(max_layers=1500))
    assert tree_depth(deep) == 1500
    assert len(iter_leaves(deep)) == len(enumerate_branches(deep)) == 1501
    sample = fresh_tuple(1, [make_marginal(2.0, 0.1), make_marginal(5.0, 0.1)], "g")
    assert classify(deep, sample) == {"g": 1.0, "m": 0.0, "p": 0.0}
    with pytest.raises(IngestionError, match=f"tree is 1500 layers deep, deeper than {MAX_LAYERS}"):
        tree_from_dict(tree_to_dict(deep))


@pytest.mark.parametrize("with_config", [False, True])
def test_a_tree_deeper_than_max_layers_is_refused_at_load(dataset_csv, tmp_path, capsys, with_config):
    """A 900-deep tree JSON (shallow enough for ``json`` to parse) would load,
    but ``==`` and ``repr`` on it raise ``RecursionError``: ``load_tree``
    refuses it, and ``classify`` exits 2."""
    leaf = json.dumps({"kind": "leaf", "lp": {"g": 1.0, "m": 0.0, "p": 0.0}, "mass": 1.0})
    split = '{"kind": "split", "attr": 0, "threshold": 2.0, "left": '
    root = split * 900 + leaf + (', "right": ' + leaf + "}") * 900
    config = ', "config": {"max_layers": 900}' if with_config else ""
    tree = tmp_path / "deep.json"
    tree.write_text('{"attributes": ["t", "u"], "labels": ["g", "m", "p"], "root": ' + root + config + "}",
                    encoding="utf-8")
    message = f"{tree}: tree is 900 layers deep, deeper than {MAX_LAYERS}, the deepest supported"
    with pytest.raises(IngestionError) as info:
        load_tree(tree)
    assert str(info.value) == message
    assert run("classify", "--tree", str(tree), "--data", str(dataset_csv),
               "--out", str(tmp_path / "lp.csv")) == 2
    assert capsys.readouterr().err == f"error[IngestionError]: {message}\n"


def test_train_at_the_depth_cap_round_trips_and_one_layer_more_exits_2(tmp_path, capsys):
    # x = 2**-i with alternating labels: each split peels off one sample, so
    # the tree is a chain as deep as the cap allows.
    data = tmp_path / "chain.csv"
    rows = [f"{2.0**-i!r},{'gp'[i % 2]}" for i in range(MAX_LAYERS + 20)]
    data.write_text("x,label\n" + "\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "tree.json"
    assert run("train", "--data", str(data), "--max-layers", str(MAX_LAYERS), "--splits", "1",
               "--out", str(out)) == 0
    grown = build_tree(load_dataset(data, 0.0), TreeConfig(max_layers=MAX_LAYERS, n_split_points=1))
    assert tree_depth(grown) == MAX_LAYERS
    assert load_tree(out) == grown
    capsys.readouterr()
    assert run("train", "--data", str(data), "--max-layers", str(MAX_LAYERS + 1), "--splits", "1",
               "--out", str(tmp_path / "deeper.json")) == 2
    assert capsys.readouterr().err == (
        f"error[InvalidParameterError]: max_layers {MAX_LAYERS + 1} exceeds {MAX_LAYERS}, "
        "the deepest tree supported\n"
    )
    assert not (tmp_path / "deeper.json").exists()


# --- metrics -----------------------------------------------------------------------


def test_metrics_command(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    curve.write_text(
        "u_m,F_kN\n" + "\n".join(f"{float(u)!r},10.0" for u in np.linspace(0, 0.1, 11)) + "\n",
        encoding="utf-8",
    )
    hist = tmp_path / "hist.csv"
    hist.write_text(
        "t_s,s1_mm,s2_mm,s3_mm,s4_mm\n0.0,1,2,3,4\n0.05,1,2,3,4\n", encoding="utf-8"
    )
    out = tmp_path / "metrics.json"
    assert run("metrics", "--curve", str(curve), "--mass", "0.5",
               "--histories", str(hist), "--masses", "1,1,1", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["avgstiff_kN_per_m"] == pytest.approx(100.0)
    assert data["SEA_J_per_kg"] == pytest.approx(2000.0)
    assert data["F_p_kN"] == pytest.approx(10.0)
    assert data["S_p_mm"] == pytest.approx(2.5)
    assert data["M_kg"] == pytest.approx(3.0)
    assert run("metrics", "--out", str(tmp_path / "m2.json")) == 2


CURVE = "u_m,F_kN\n"
HISTORIES = "t_s,s1_mm,s2_mm,s3_mm,s4_mm\n"


@pytest.mark.parametrize(
    "flag, text, message",
    [
        ("--curve", CURVE + "0,nan\n0.1,5\n", "row 2: non-finite value"),
        ("--curve", CURVE + "0,1\n\n0.1,-inf\n", "row 4: non-finite value"),
        ("--histories", HISTORIES + "0,1,2,3,4\n0.05,1,2,inf,4\n", "row 3: non-finite value"),
        ("--curve", CURVE + "0,1\n0.2,2\n0.1,3\n", "deflection must be strictly increasing"),
        ("--curve", CURVE + "0.1,1\n0.2,2\n", "deflection must start at 0"),
        ("--histories", HISTORIES + "0,1,2,3,4\n0,1,2,3,4\n", "time grid must be 1-d and strictly increasing"),
    ],
)
def test_metrics_rejects_curves_and_histories_naming_the_file(tmp_path, capsys, flag, text, message):
    path = tmp_path / "in.csv"
    path.write_text(text, encoding="utf-8")
    assert run("metrics", flag, str(path), "--mass", "1.0", "--out", str(tmp_path / "m.json")) == 2
    assert capsys.readouterr().err == f"error[IngestionError]: {path}: {message}\n"
    assert not (tmp_path / "m.json").exists()


# --- morph -------------------------------------------------------------------------


def write_points(path, ids, coords):
    lines = ["id,x,y,z"] + [
        ",".join([i] + [repr(float(v)) for v in row]) for i, row in zip(ids, coords)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_morph_command(tmp_path, capsys):
    rng = np.random.default_rng(1)
    original = rng.uniform(-5, 5, size=(8, 3))
    v = np.array([1.0, 2.0, -0.5])
    ids = [f"p{i}" for i in range(8)]
    write_points(tmp_path / "orig.csv", ids, original)
    write_points(tmp_path / "disp.csv", ids, original + v)
    nodes = rng.uniform(-5, 5, size=(12, 3))
    write_points(tmp_path / "nodes.csv", [f"n{i}" for i in range(12)], nodes)
    out = tmp_path / "morphed.csv"
    assert run("morph", "--original", str(tmp_path / "orig.csv"),
               "--displaced", str(tmp_path / "disp.csv"),
               "--nodes", str(tmp_path / "nodes.csv"), "--out", str(out)) == 0
    assert "condition estimate" in capsys.readouterr().out
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "id,x,y,z"
    moved = np.array([[float(v) for v in l.split(",")[1:]] for l in lines[1:]])
    assert np.allclose(moved, nodes + v, atol=1e-8)
    assert [l.split(",")[0] for l in lines[1:]] == [f"n{i}" for i in range(12)]
    # Pinned to the ordered per-node sum of ``apply_morph``; against the
    # earlier BLAS product every coordinate here moved by at most 3.6e-15.
    assert sha256_of(out) == "9070ce39023cb0f1bf2555f8ed07d739663f59a9da28a9d06ddedb22a458a1da"


def test_morph_coplanar_exits_5(tmp_path):
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.5, 0.5, 0]], dtype=float)
    ids = [str(i) for i in range(5)]
    write_points(tmp_path / "o.csv", ids, pts)
    write_points(tmp_path / "d.csv", ids, pts)
    write_points(tmp_path / "n.csv", ["a"], np.array([[0.2, 0.2, 0.0]]))
    assert run("morph", "--original", str(tmp_path / "o.csv"),
               "--displaced", str(tmp_path / "d.csv"),
               "--nodes", str(tmp_path / "n.csv"), "--out", str(tmp_path / "x.csv")) == 5


def test_morph_id_mismatch_exits_2(tmp_path, capsys):
    pts = np.random.default_rng(2).uniform(-1, 1, size=(5, 3))
    o, d = tmp_path / "o.csv", tmp_path / "d.csv"
    write_points(o, ["1", "2", "3", "4", "5"], pts)
    write_points(d, ["1", "2", "3", "4", "9"], pts)
    write_points(tmp_path / "n.csv", ["a"], np.array([[0.0, 0.0, 0.0]]))
    argv = ["morph", "--original", str(o), "--displaced", str(d),
            "--nodes", str(tmp_path / "n.csv"), "--out", str(tmp_path / "x.csv")]
    assert run(*argv) == 2
    assert capsys.readouterr().err == (
        "error[IngestionError]: original and displaced control point ids do not match at "
        f"point 5: {o} row 6 has id '5', {d} row 6 has id '9'\n"
    )
    write_points(d, ["1", "2", "3", "4"], pts[:4])
    assert run(*argv) == 2
    assert capsys.readouterr().err == (
        "error[IngestionError]: original and displaced control point ids do not match at "
        f"point 5: {o} row 6 has id '5', {d} ends after 4 points\n"
    )


# --- input that is not UTF-8 --------------------------------------------------------


def break_row(path, row):
    """Put a byte that is not UTF-8 (0xE9, Latin-1 e-acute) at the start of
    a 1-based row of a text file."""
    lines = path.read_bytes().split(b"\n")
    lines[row - 1] = b"\xe9" + lines[row - 1]
    path.write_bytes(b"\n".join(lines))


def assert_exits_2_naming(code, capsys, path, row):
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error[IngestionError]: ")
    assert f"{path}: row {row}: byte 0xe9 is not valid UTF-8" in err


def test_train_on_a_csv_that_is_not_utf8_exits_2(dataset_csv, tmp_path, capsys):
    break_row(dataset_csv, 3)
    code = run("train", "--data", str(dataset_csv), "--out", str(tmp_path / "t.json"))
    assert_exits_2_naming(code, capsys, dataset_csv, 3)


@pytest.mark.parametrize("command, flag", [("screen", "--designs"), ("classify", "--data")])
def test_screen_and_classify_on_designs_that_are_not_utf8_exit_2(
    dataset_csv, tmp_path, capsys, command, flag
):
    tree = trained_tree(dataset_csv, tmp_path)
    designs = tmp_path / "designs.csv"
    designs.write_text("t,u\n1.5,2.0\n2.5,8.0\n", encoding="utf-8")
    break_row(designs, 3)
    capsys.readouterr()
    code = run(command, "--tree", str(tree), flag, str(designs), "--out", str(tmp_path / "o.csv"))
    assert_exits_2_naming(code, capsys, designs, 3)


@pytest.mark.parametrize("command, flag", [("screen", "--designs"), ("classify", "--data")])
@pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
def test_screen_and_classify_name_the_row_of_a_non_finite_design_value(
    dataset_csv, tmp_path, capsys, command, flag, value
):
    tree = trained_tree(dataset_csv, tmp_path)
    designs = tmp_path / "designs.csv"
    designs.write_text(f"t,u\n1.5,2.0\n\n2.5,{value}\n", encoding="utf-8")
    capsys.readouterr()
    assert run(command, "--tree", str(tree), flag, str(designs), "--out", str(tmp_path / "o.csv")) == 2
    assert capsys.readouterr().err == f"error[IngestionError]: {designs}: row 4: non-finite value\n"


def test_morph_on_points_that_are_not_utf8_exits_2(tmp_path, capsys):
    pts = np.random.default_rng(2).uniform(-1, 1, size=(5, 3))
    ids = ["1", "2", "3", "4", "5"]
    write_points(tmp_path / "o.csv", ids, pts)
    write_points(tmp_path / "d.csv", ids, pts)
    write_points(tmp_path / "n.csv", ["a", "b"], pts[:2])
    break_row(tmp_path / "n.csv", 2)
    code = run("morph", "--original", str(tmp_path / "o.csv"),
               "--displaced", str(tmp_path / "d.csv"),
               "--nodes", str(tmp_path / "n.csv"), "--out", str(tmp_path / "x.csv"))
    assert_exits_2_naming(code, capsys, tmp_path / "n.csv", 2)


@pytest.mark.parametrize("flag", ["--curve", "--histories"])
def test_metrics_on_a_csv_that_is_not_utf8_exits_2(tmp_path, capsys, flag):
    path = tmp_path / "in.csv"
    if flag == "--curve":
        path.write_text("u_m,F_kN\n0.0,1.0\n0.1,2.0\n", encoding="utf-8")
    else:
        path.write_text(
            "t_s,s1_mm,s2_mm,s3_mm,s4_mm\n0.0,1,2,3,4\n0.05,1,2,3,4\n", encoding="utf-8"
        )
    break_row(path, 2)
    code = run("metrics", flag, str(path), "--out", str(tmp_path / "m.json"))
    assert_exits_2_naming(code, capsys, path, 2)


# --- JSON inputs ---------------------------------------------------------------------


def json_flag_run(flag, dataset_csv, tmp_path, bad):
    """Run the command that reads ``flag``'s JSON file, with ``bad`` as that
    file and every other input valid."""
    tree = trained_tree(dataset_csv, tmp_path)
    out = str(tmp_path / "out")
    if flag == "--tree":
        return run("classify", "--tree", str(bad), "--data", str(dataset_csv), "--out", out)
    if flag == "--bounds":
        return run("rules", "--tree", str(tree), "--data", str(dataset_csv),
                   "--bounds", str(bad), "--out", out)
    if flag == "--rules":
        return run("sample", "--rules", str(bad), "--out", out)
    return run("demo", "--spec", str(bad), "--n-train", "20", "--out", out)


VALID_JSON = {
    "--tree": lambda dataset_csv, tmp_path: trained_tree(dataset_csv, tmp_path).read_bytes(),
    "--bounds": lambda *_: json.dumps({"t": [1.0, 3.0], "u": [0.0, 10.0]}).encode(),
    "--rules": lambda *_: json.dumps(
        {"target": "g", "selected": "b1", "branches": [
            {"id": "b1", "acc": 1.0, "ctt": 0.5, "box": {"t": [1.0, 2.0]}}]}
    ).encode(),
    "--spec": lambda *_: bundled_surrogate_text().encode("utf-8"),
}


@pytest.mark.parametrize("flag", ["--tree", "--bounds", "--rules", "--spec"])
@pytest.mark.parametrize("damage", ["byte", "truncated"])
def test_json_inputs_that_do_not_decode_or_parse_exit_2(dataset_csv, tmp_path, capsys, flag, damage):
    data = VALID_JSON[flag](dataset_csv, tmp_path)
    bad = tmp_path / "bad.json"
    if damage == "byte":
        lines = data.split(b"\n")
        lines[-1] = b"\xe9" + lines[-1]
        bad.write_bytes(b"\n".join(lines))
        message = f"{bad}: row {len(lines)}: byte 0xe9 is not valid UTF-8"
    else:
        bad.write_bytes(data[: len(data) // 2])
        message = f"{bad}: not valid JSON ("
    capsys.readouterr()
    assert json_flag_run(flag, dataset_csv, tmp_path, bad) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    assert err.startswith(f"error[IngestionError]: {message}")


def test_a_spec_with_a_list_where_an_object_goes_exits_2(tmp_path, capsys):
    spec = json.loads(bundled_surrogate_text())
    spec["components"][0]["responses"] = []
    bad = tmp_path / "spec.json"
    bad.write_text(json.dumps(spec), encoding="utf-8")
    assert run("demo", "--spec", str(bad), "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith(f"error[IngestionError]: {bad}: malformed surrogate")


@pytest.mark.parametrize(
    "terms, variable",
    [
        ({"linear": {"T2": 0.2, "Q9": 0.1}}, "Q9"),
        ({"quadratic": {"Q9": 0.1}}, "Q9"),
        ({"interactions": [["T2", "Q8", 0.1]]}, "Q8"),
    ],
)
def test_a_spec_whose_response_names_an_undeclared_variable_exits_2(tmp_path, capsys, terms, variable):
    spec = json.loads(bundled_surrogate_text())
    spec["components"][0]["responses"]["peak_force"].update(terms)
    bad = tmp_path / "spec.json"
    bad.write_text(json.dumps(spec), encoding="utf-8")
    assert run("demo", "--spec", str(bad), "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == (
        f"error[IngestionError]: {bad}: component 'P2': response 'peak_force' names undeclared variable {variable!r}\n"
    )


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda c: c["responses"]["mass"].update(const=float("nan")),
         "response 'mass' has a coefficient that is not finite"),
        (lambda c: c["responses"]["intrusion"]["linear"].update(T2=float("inf")),
         "response 'intrusion' has a coefficient that is not finite"),
        (lambda c: c["responses"].pop("deflection"), "response 'deflection' is missing"),
        (lambda c: c["variables"][1].update(upper=float("inf")),
         "variable 'T3' has bounds [1.0, inf], must be finite with lower < upper"),
        (lambda c: c["variables"][1].update(lower=2.0),
         "variable 'T3' has bounds [2.0, 2.0], must be finite with lower < upper"),
    ],
)
def test_a_spec_the_responder_cannot_use_names_the_file_and_component(tmp_path, capsys, edit, message):
    spec = json.loads(bundled_surrogate_text())
    edit(spec["components"][0])
    bad = tmp_path / "spec.json"
    bad.write_text(json.dumps(spec), encoding="utf-8")
    assert run("demo", "--spec", str(bad), "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"error[IngestionError]: {bad}: component 'P2': {message}\n"


def test_a_spec_with_criteria_that_are_not_an_object_exits_2(tmp_path, capsys):
    """A string is not taken for the name of a criteria file."""
    spec = json.loads(bundled_surrogate_text())
    spec["components"][0]["criteria"] = "criteria.json"
    bad = tmp_path / "spec.json"
    bad.write_text(json.dumps(spec), encoding="utf-8")
    assert run("demo", "--spec", str(bad), "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == (
        f"error[IngestionError]: {bad}: malformed surrogate component: criteria must be an object, got str\n"
    )


@pytest.mark.parametrize(
    "section, field, value, rule",
    [
        ("curve", "ramp_fraction", -1.0, "in (0, 1]"),
        ("curve", "ramp_fraction", 0.0, "in (0, 1]"),
        ("curve", "ramp_fraction", 1.5, "in (0, 1]"),
        ("curve", "points", 1, "at least 2"),
        ("histories", "points", 1, "at least 2"),
        ("histories", "duration_s", 0.0, "finite and positive"),
        ("histories", "duration_s", float("nan"), "finite and positive"),
        ("histories", "duration_s", float("inf"), "finite and positive"),
    ],
)
def test_a_spec_with_grids_the_responder_cannot_use_exits_2(tmp_path, capsys, section, field, value, rule):
    spec = json.loads(bundled_surrogate_text())
    spec["components"][1][section] = {field: value}
    bad = tmp_path / "spec.json"
    bad.write_text(json.dumps(spec), encoding="utf-8")
    assert run("demo", "--spec", str(bad), "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == (
        f"error[IngestionError]: {bad}: component 'P3': {section}.{field} is {value}, must be {rule}\n"
    )
    assert not (tmp_path / "out").exists()


def test_train_names_the_row_and_column_of_a_cell_it_cannot_widen(tmp_path, capsys):
    path = tmp_path / "zero.csv"
    path.write_text("a,b,label\n1.0,2.0,g\n\n3.0,0.0,p\n", encoding="utf-8")
    assert run("train", "--data", str(path), "--uncertainty", "0.1", "--out", str(tmp_path / "t.json")) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"error[IngestionError]: {path}: row 4, column 'b': mean must be nonzero")


@pytest.mark.parametrize("command, flag", [("screen", "--designs"), ("classify", "--data")])
def test_screen_and_classify_name_the_row_and_column_of_a_design_value_they_cannot_widen(
    dataset_csv, tmp_path, capsys, command, flag
):
    tree = trained_tree(dataset_csv, tmp_path)
    designs = tmp_path / "zero.csv"
    designs.write_text("t,u\n1.5,2.0\n\n2.5,0.0\n", encoding="utf-8")
    capsys.readouterr()
    argv = [command, "--tree", str(tree), flag, str(designs), "--uncertainty", "0.1",
            "--out", str(tmp_path / "o.csv")]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    assert err.startswith(
        f"error[IngestionError]: {designs}: row 4, column 'u': mean must be nonzero when relative deviation > 0"
    )


def test_train_on_a_csv_with_a_blank_first_line_exits_2(tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text("\na,label\n1.0,g\n", encoding="utf-8")
    assert run("train", "--data", str(path), "--out", str(tmp_path / "t.json")) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "last column must be 'label', got ''" in err


# --- cv ---------------------------------------------------------------------------


def test_cv_command(dataset_csv, tmp_path, capsys):
    out = tmp_path / "cv.json"
    assert run("cv", "--data", str(dataset_csv), "--k", "5", "--uncertainty", "0.05",
               "--max-layers", "3", "--seed", "1", "--out", str(out)) == 0
    text = capsys.readouterr().out
    assert "5-fold cross-validation accuracy" in text
    data = json.loads(out.read_text())
    assert data["k"] == 5 and len(data["folds"]) == 5


def test_cv_bad_k_exits_2(dataset_csv, tmp_path):
    assert run("cv", "--data", str(dataset_csv), "--k", "1") == 2


# --- demo --------------------------------------------------------------------------

#: SHA-256 of every demo output (manifests aside, as they carry a timestamp).
DEMO_DIGESTS = {
    "P2_candidates.csv": "cf37717a02a88ac6faba590fd5318a1a8d56a3986df167ac0b866978944b3f4e",
    "P2_data.csv": "89f5cbd7edf2608f38f141c3c4c09bb77be5001b302b98eca5e0b49a9d0e186c",
    "P2_rules.json": "757de6d7219aaae81822b43096af79e3000c4faa967b15223d6e73069d318c8a",
    "P2_samples.csv": "bc160a93265b73e3ba10235edadb86ad1e842d6713c11e62fe29d6b6be4a4dc0",
    "P2_screened.csv": "aa6460ea44109043d549f4ec90d6e6abebba090e7504d1ec3d0b27decdd69455",
    "P2_tree.json": "4cb44edbe531f770e4a06b9e6c666cb2065c52b8e02f7c28a2df6378d7cb47db",
    "P3_candidates.csv": "bb64d53c876ea4179cd6928a965f61a6d1d5a2d9185accfc07cb54524b12c4cc",
    "P3_data.csv": "8694c228dda927a4cfcd1f7dd4b52425d8e81e66080e8c8587712e29aa0e289a",
    "P3_rules.json": "62f31b226f965e8da43e90d9349805a878a1a5b0f7608ddb4f8a421bd8b39b66",
    "P3_samples.csv": "043c112aeedd116386d4812e685dfcfb83796c2750f5b2595eb0b480db509708",
    "P3_screened.csv": "6371851378c6b7ac145fc4c06a12749d72d08983ba1d81380b45b1c5d4a48b59",
    "P3_tree.json": "53384535512d4b148e4498d319de62786942185e287c4dc060f7320177c1c193",
    "P4_candidates.csv": "41f949cab0b08c02ab93a250d911b27e32579b73ef0f68a3dbca6d7a8c220935",
    "P4_data.csv": "eade753678bff49a4ed6c2ab412f3a437d26f5d1bd713b632069c721b55db647",
    "P4_rules.json": "9ecc082db75882423eaa0f3e43c52bd35129e1b6d2d053d98731b38316464e53",
    "P4_samples.csv": "df9ec2b9d0a5ff72340e0579146efd90476a022c510c0dab651a3d63d75414d2",
    "P4_screened.csv": "a20ee7d94909b924d33ff1f2d595fb3d9bed14859972135a123cd55550e413a4",
    "P4_tree.json": "7626826554d7e364f6b534b0f93e1107fb86ea91f5b1cbd589e84bc43056dff0",
    "system_designs.csv": "bb33c25813d088d668a3a69757135256882e04ed3eb8ddc0a7ff0ed3fc165bef",
}


def test_demo_small_run_deterministic(tmp_path):
    args = ["demo", "--seed", "3", "--n-train", "60", "--max-layers", "5",
            "--n-subspace", "12", "--top", "6", "--n-system", "8", "--min-lp", "0.7"]
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    assert run(*args, "--out", str(out1)) == 0
    assert run(*args, "--out", str(out2)) == 0
    names = sorted(p.name for p in out1.iterdir() if not p.name.endswith(".manifest.json"))
    assert names
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert {name: sha256_of(out1 / name) for name in names} == DEMO_DIGESTS
    system = (out1 / "system_designs.csv").read_text().strip().splitlines()
    assert len(system) == 9
    for comp in ("P2", "P3", "P4"):
        manifest = manifest_of(out1 / f"{comp}_tree.json")
        assert manifest["command"] == "demo"
        assert manifest["seed"] == 3


#: SHA-256 of every output of ``designmine demo --seed 7`` at the command's
#: defaults (manifests aside): the DOE responses and labels, trees, rules,
#: candidates and the recombined systems' SEA and mass.
DEMO_SEED7_DIGESTS = {
    "P2_candidates.csv": "ae5a4dcf2d16e8a5735d9215936f966bd151ae4deef5317278007456628a7d90",
    "P2_data.csv": "293fe24e7ea9c62b07337a76b1fc6e8ee8ef0a4e4bdd5fa9898f9d0ff00af531",
    "P2_rules.json": "6bcf96c3f8ab4cc4a924b852bc310e9b3f4497f060a98a44dbed398600a1fc17",
    "P2_samples.csv": "88f2e6efb2fc7f87c77211306bbcfd685e109d6ec21540f4525bb482940e8897",
    "P2_screened.csv": "c9f0ed00d25f3a26f5f913e9b2756d7aa19374fc3771892ffc7aa004cc95d77a",
    "P2_tree.json": "40d47268a35a3ca53e4b89b9a602619478a00374ad4bd3cbce0513fe7d8c2ff5",
    "P3_candidates.csv": "9b60142f1696b992d56b25fca96d2d22435c96903dd757706cccd99b94f0acaa",
    "P3_data.csv": "f1c34f3eac4f4cb0d009413c84b859bc65e79c8fb0d9ddd18c97dcc1328853a6",
    "P3_rules.json": "45a32cb25718825e84a9fb1db778ca07301970890b1299692b1834549871c2a7",
    "P3_samples.csv": "9aecf85d3bb46c53f6f40ba96e0e08072eefd6a32885027aabffda465d5e86cd",
    "P3_screened.csv": "5c017826df046f716b57f4d95207de879dbe039d3a33d1211adc2fa9a5abfb03",
    "P3_tree.json": "47e4242e86581e82ba1b70cd9bec506f1fb1af58dce60b4bf8fe8a5a838b61ce",
    "P4_candidates.csv": "723cd683ef500de30ca34693c74cdab2ace77f40be9b52315faa9c608d7183df",
    "P4_data.csv": "8e0088ce81160c5e75d2e460b42086b914f8e7a16a2f7a4c260ee62ee5f52d93",
    "P4_rules.json": "31314b74461858b64dde5aa7829250113a4e65e6de03514e55a66548da49a8e9",
    "P4_samples.csv": "96a1ba5f09d4847249b142486efe57202d754f8f05e3930847ca5dcfe8b818f3",
    "P4_screened.csv": "222f476c62175f18bd22d53aeda588d71dca76b43f31a3e76575a90304f085c5",
    "P4_tree.json": "1ea2303950795f8c6e73d57939ba8b9114647bd201301c96affcd7cd7b257d66",
    "system_designs.csv": "80c36f231bd0d925ec05fd07a26f34e6ffaaa4a3a94f6b1c6b5503c17abc2ee4",
}


def test_demo_seed7_outputs_are_pinned(tmp_path):
    out = tmp_path / "demo"
    assert run("demo", "--seed", "7", "--out", str(out)) == 0
    names = sorted(p.name for p in out.iterdir() if not p.name.endswith(".manifest.json"))
    assert {name: sha256_of(out / name) for name in names} == DEMO_SEED7_DIGESTS


def test_demo_inconsistent_criteria_exits_2(tmp_path, capsys):
    spec = json.loads(bundled_surrogate_text())
    p2 = next(c for c in spec["components"] if c["name"] == "P2")
    p2["criteria"]["poor"] = [
        ["SEA", ">", value] if name == "SEA" else [name, op, value]
        for name, op, value in p2["criteria"]["poor"]
    ]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec), encoding="utf-8")
    assert run("demo", "--spec", str(bad), "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error[InconsistentCriteriaError]: {bad}: component 'P2': ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_demo_whose_surrogate_overflows_exits_5(tmp_path, capsys):
    """A squared design value past the float range raises ``OverflowError``
    in the responder (Python's ``**``): a numerical failure, exit 5."""
    spec = json.loads(bundled_surrogate_text())
    p2 = next(c for c in spec["components"] if c["name"] == "P2")
    p2["variables"] = [
        dict(p, lower=1e200, upper=2e200) if p["name"] == "P2_y1" else p for p in p2["variables"]
    ]
    bad = tmp_path / "spec.json"
    bad.write_text(json.dumps(spec), encoding="utf-8")
    assert run("demo", "--spec", str(bad), "--n-train", "20", "--out", str(tmp_path / "out")) == 5
    err = capsys.readouterr().err
    assert err.startswith("error[OverflowError]: ") and err.count("\n") == 1
    assert "Traceback" not in err

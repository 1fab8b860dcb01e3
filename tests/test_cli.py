"""End-to-end tests of the command-line interface and its exit codes."""

import hashlib
import json

import numpy as np
import pytest

from designmine.cli import bundled_surrogate_text, main


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
    assert sha256_of(out) == "62f8770a890c6ea58e780e2f2c86feef07f273d7a2ef9ae28f528933e5c95579"


def test_morph_coplanar_exits_5(tmp_path):
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.5, 0.5, 0]], dtype=float)
    ids = [str(i) for i in range(5)]
    write_points(tmp_path / "o.csv", ids, pts)
    write_points(tmp_path / "d.csv", ids, pts)
    write_points(tmp_path / "n.csv", ["a"], np.array([[0.2, 0.2, 0.0]]))
    assert run("morph", "--original", str(tmp_path / "o.csv"),
               "--displaced", str(tmp_path / "d.csv"),
               "--nodes", str(tmp_path / "n.csv"), "--out", str(tmp_path / "x.csv")) == 5


def test_morph_id_mismatch_exits_2(tmp_path):
    pts = np.random.default_rng(2).uniform(-1, 1, size=(5, 3))
    write_points(tmp_path / "o.csv", ["1", "2", "3", "4", "5"], pts)
    write_points(tmp_path / "d.csv", ["1", "2", "3", "4", "9"], pts)
    write_points(tmp_path / "n.csv", ["a"], np.array([[0.0, 0.0, 0.0]]))
    assert run("morph", "--original", str(tmp_path / "o.csv"),
               "--displaced", str(tmp_path / "d.csv"),
               "--nodes", str(tmp_path / "n.csv"), "--out", str(tmp_path / "x.csv")) == 2


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
    assert err.startswith("error[InconsistentCriteriaError]") and err.count("\n") == 1
    assert "Traceback" not in err

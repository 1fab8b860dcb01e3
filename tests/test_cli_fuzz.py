"""Seeded fuzzing of the command line's CSV and JSON inputs.

Each CSV case damages one CSV input of ``train``, ``screen``, ``classify``,
``metrics`` or ``morph`` in one way and runs the command in process: the run
must end in exit 0 or 2 with at most one line on stderr, never in an
exception that escapes ``main`` (a traceback on the command line).  The one
other documented exit seen here is 3, for a dataset cut down to its header:
a tree cannot be grown from no samples.  Every command but ``train`` names
the damaged file in each error, and ``screen``, ``classify`` and ``metrics``
reject every non-finite value.

Each JSON case mutates one value of a surrogate spec (``demo --spec``) or a
stored tree (``classify --tree``): it deletes a key or list item, puts a
value of another type in its place, or puts NaN or an infinity there.  The
run must end in a documented exit code with one line on stderr, and a file
its loader rejects must be named in the error.
"""

import copy
import csv
import json
import math
import random

import numpy as np
import pytest

from designmine.cli import bundled_surrogate_text, main
from designmine.errors import DesignMineError
from designmine.surrogate import load_surrogate
from designmine.tree import load_tree

SEEDS = (0, 1)
KINDS = ("truncate", "drop", "duplicate", "non-finite", "header", "newline", "oversized", "nul", "not-utf8")


def csv_text(header, rows):
    return "\n".join([header] + [",".join(map(str, row)) for row in rows]) + "\n"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid inputs for every command, and a tree trained on the dataset."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(5)
    t, u = rng.uniform(1.0, 3.0, 30).tolist(), rng.uniform(0.0, 10.0, 30).tolist()
    labels = ["g" if (a <= 2.0 and b > 4.0) else ("p" if a > 2.5 else "m") for a, b in zip(t, u)]
    designs = np.column_stack([rng.uniform(1.0, 3.0, 12), rng.uniform(0.0, 10.0, 12)]).tolist()
    deflection = np.linspace(0.0, 0.2, 8).tolist()
    cube = [(x, y, z) for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
    texts = {
        "data.csv": csv_text("t,u,label", [(repr(a), repr(b), lab) for a, b, lab in zip(t, u, labels)]),
        "designs.csv": csv_text("t,u", [(repr(a), repr(b)) for a, b in designs]),
        "curve.csv": csv_text("u_m,F_kN", [(repr(x), repr(50.0 + 100.0 * x)) for x in deflection]),
        "histories.csv": csv_text(
            "t_s,s1_mm,s2_mm,s3_mm,s4_mm", [(repr(s), s, 2 * s, 3 * s, 4 * s) for s in deflection]
        ),
        "original.csv": csv_text("id,x,y,z", [(f"c{i}", *p) for i, p in enumerate(cube)]),
        "displaced.csv": csv_text(
            "id,x,y,z", [(f"c{i}", x + 0.1 * y, y, z + 0.05 * x) for i, (x, y, z) in enumerate(cube)]
        ),
        "nodes.csv": csv_text("id,x,y,z", [(f"n{i}", i / 10, 0.5, 1 - i / 10) for i in range(11)]),
    }
    for name, text in texts.items():
        (root / name).write_text(text, encoding="utf-8")
    assert main(["train", "--data", str(root / "data.csv"), "--max-layers", "4",
                 "--out", str(root / "tree.json")]) == 0
    return root, texts


def commands(root, slot, damaged):
    """The command line that reads ``damaged`` in place of input ``slot``."""
    path = {name: str(root / name) for name in (
        "data.csv", "designs.csv", "curve.csv", "histories.csv", "original.csv", "displaced.csv", "nodes.csv"
    )}
    path[slot] = str(damaged)
    out = str(root / "out")
    tree = str(root / "tree.json")
    return {
        "data.csv": ["train", "--data", path["data.csv"], "--max-layers", "4", "--out", out],
        "designs.csv": ["screen", "--tree", tree, "--designs", path["designs.csv"], "--top", "3", "--out", out],
        "classify": ["classify", "--tree", tree, "--data", path["designs.csv"], "--out", out],
        "curve.csv": ["metrics", "--curve", path["curve.csv"], "--mass", "2.0", "--out", out],
        "histories.csv": ["metrics", "--histories", path["histories.csv"], "--out", out],
        "morph": ["morph", "--original", path["original.csv"], "--displaced", path["displaced.csv"],
                  "--nodes", path["nodes.csv"], "--out", out],
    }


SLOTS = [
    ("data.csv", "data.csv"),
    ("designs.csv", "designs.csv"),
    ("designs.csv", "classify"),
    ("curve.csv", "curve.csv"),
    ("histories.csv", "histories.csv"),
    ("original.csv", "morph"),
    ("displaced.csv", "morph"),
    ("nodes.csv", "morph"),
]


def damage(text, kind, rng):
    """``text`` with one fault of the given kind, as bytes."""
    if kind == "truncate":
        return text[: rng.randrange(1, len(text))].encode("utf-8")
    lines = text.split("\n")
    at = rng.randrange(1, len(lines) - 1) if kind != "header" else 0
    fields = lines[at].split(",")
    col = rng.randrange(len(fields))
    if kind == "drop":
        del fields[col]
    elif kind == "duplicate":
        fields.insert(col, fields[col])
    elif kind == "non-finite":
        fields[col] = rng.choice(["nan", "inf", "-Infinity", "1e400"])
    elif kind == "header":
        fields[col] = rng.choice(["", "label", "x", fields[col].upper(), fields[col] + " 2"])
    elif kind == "newline":
        fields[col] = '"' + rng.choice(["\n", "1\n", "\n1.5", "a\nb"]) + '"'
    elif kind == "oversized":
        fields[col] = "9" * (csv.field_size_limit() + 1)
    elif kind == "nul":
        fields[col] = fields[col] + "\0"
    lines[at] = ",".join(fields)
    data = "\n".join(lines).encode("utf-8")
    if kind == "not-utf8":
        cut = sum(len(line) + 1 for line in lines[:at]) + rng.randrange(len(lines[at]) + 1)
        data = data[:cut] + b"\xe9" + data[cut:]
    return data


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("slot, command", SLOTS)
def test_damaged_csv_inputs_exit_0_or_2(inputs, tmp_path, capsys, slot, command, kind):
    root, texts = inputs
    for seed in SEEDS:
        rng = random.Random(f"{slot}-{command}-{kind}-{seed}")
        damaged = tmp_path / slot
        damaged.write_bytes(damage(texts[slot], kind, rng))
        code = main(commands(root, slot, damaged)[command])
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == (code != 0)
        if code == 3:
            assert err == "error[TreeConstructionError]: cannot build a tree from an empty dataset\n"
        else:
            assert code in (0, 2), (seed, err)
        if command != "data.csv" and code == 2:
            assert str(damaged) in err, (seed, err)
        if command in ("designs.csv", "classify", "curve.csv", "histories.csv") and kind == "non-finite":
            assert code == 2, (seed, err)


JSON_KINDS = ("delete", "type", "non-finite")
JSON_SEEDS = range(20)
OTHER_TYPES = ("x", 1.5, -3, 0, True, None, [], {}, [1, 2], {"a": 1})


def json_spots(value, at=()):
    """The path of every value below the top of a JSON document."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield at + (key,)
        yield from json_spots(item, at + (key,))


def mutate_json(doc, kind, rng):
    """A copy of ``doc`` with one value deleted, or replaced by a value of
    another type or by a non-finite number."""
    doc = copy.deepcopy(doc)
    spot = rng.choice(list(json_spots(doc)))
    parent = doc
    for key in spot[:-1]:
        parent = parent[key]
    if kind == "delete":
        del parent[spot[-1]]
    elif kind == "type":
        parent[spot[-1]] = rng.choice([v for v in OTHER_TYPES if type(v) is not type(parent[spot[-1]])])
    else:
        parent[spot[-1]] = rng.choice([math.nan, math.inf, -math.inf])
    return doc


JSON_SLOTS = {
    "--spec": (
        load_surrogate,
        lambda root, path: ["demo", "--spec", path, "--n-train", "20", "--n-system", "5", "--out", str(root / "demo")],
    ),
    "--tree": (
        load_tree,
        lambda root, path: ["classify", "--tree", path, "--data", str(root / "designs.csv"), "--out", str(root / "out")],
    ),
}


@pytest.mark.parametrize("kind", JSON_KINDS)
@pytest.mark.parametrize("slot", sorted(JSON_SLOTS))
def test_damaged_json_inputs_exit_with_a_documented_code(inputs, tmp_path, capsys, slot, kind):
    root, _ = inputs
    loader, command = JSON_SLOTS[slot]
    text = bundled_surrogate_text() if slot == "--spec" else (root / "tree.json").read_text(encoding="utf-8")
    damaged = tmp_path / "damaged.json"
    for seed in JSON_SEEDS:
        rng = random.Random(f"{slot}-{kind}-{seed}")
        damaged.write_text(json.dumps(mutate_json(json.loads(text), kind, rng)), encoding="utf-8")
        try:
            loader(damaged)
            refused = None
        except DesignMineError as exc:
            refused = exc
        code = main(command(root, str(damaged)))
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == (code != 0), (seed, err)
        assert code in (0, 2, 3, 4, 5), (seed, err)
        if refused is not None:
            assert code == 2 and str(damaged) in str(refused) and str(damaged) in err, (seed, err)

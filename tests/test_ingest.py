"""Dataset ingestion against the row-by-row and cell-by-cell references.

The one-pass dataset CSV reader must read every file as the ``csv`` row
reader (``_oracles.oracle_read_csv``) reads it, with the same error messages,
except where that reader let a Python error out: a blank first line, and
bytes that are not UTF-8.  ``dataset_from_design`` must build the tuples
``make_marginal`` and ``fresh_tuple`` build, bit for bit, with a cached table
equal to the one ``tree`` builds from those tuples, and raise their errors.
"""

import csv
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from designmine import csvtext
from designmine import uncertain as uncertain_module
from designmine.errors import IngestionError, InvalidParameterError
from designmine.metrics import load_curve, load_histories
from designmine.morph import load_points
from designmine.tree import TreeConfig, build_tree, tree_to_dict
from designmine.tree import test_accuracy as accuracy_on
from designmine.uncertain import (
    Dataset,
    _node_rows,
    dataset_from_design,
    fresh_tuple,
    load_dataset,
    load_design_points,
    make_marginal,
)

from _oracles import oracle_load_design_points, oracle_load_points, oracle_read_csv

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


# --- the dataset CSV reader --------------------------------------------------------


def outcome(read, path):
    """``(names, (rows, attributes) array, labels)`` a reader makes of a file,
    or its error message, with every warning raised as an error.  The
    reference's error on a blank first line becomes the package's message."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            names, rows, labels = read(path)
        except IngestionError as exc:
            return str(exc)
        except csv.Error as exc:  # the row reader lets the csv module's errors out
            return exc
        except IndexError:  # the row reader on a blank first line
            return f"{path}: last column must be 'label', got ''"
    return names, np.asarray(rows, dtype=float).reshape(len(rows), len(names)), labels


def read_dataset_csv(path, expect_label):
    names, values, labels, _ = uncertain_module._read_csv(path, expect_label)
    return names, values, labels or []


def assert_reads_like_oracle(path, expect_label):
    got = outcome(lambda p: read_dataset_csv(p, expect_label), path)
    points = outcome(load_design_points, path)
    try:
        path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        # The reference decodes as it reads, so it may stop at a bad row
        # before the bad byte; the package decodes first.
        data = path.read_bytes()[: exc.start]
        row = 1 + data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")
        assert got == points == f"{path}: row {row}: byte 0x{exc.object[exc.start]:02x} is not valid UTF-8"
        return
    assert_same(outcome(lambda p: oracle_read_csv(p, expect_label), path), got)
    assert_same(outcome(oracle_load_design_points, path), points)


def assert_same(expected, got):
    if isinstance(expected, str):
        assert got == expected
        return
    if isinstance(expected, csv.Error):  # NUL before Python 3.11: the package names the file and line
        assert isinstance(got, str) and re.fullmatch(rf".*: row \d+: {re.escape(str(expected))}", got)
        return
    assert not isinstance(got, str), got
    assert got[0] == expected[0] and got[2] == expected[2]
    assert got[1].shape == expected[1].shape
    assert np.array_equal(got[1], expected[1], equal_nan=True)
    assert np.array_equal(np.signbit(got[1]), np.signbit(expected[1]))


def test_plain_dataset_files_take_the_one_pass_path(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(
        "a, b ,label\r\n"
        "0.1,-0.0, g \r\n"
        "\r\n"
        "   \r\n"
        " +1 ,5e-324,p q\r\n"
        "1E5,\t2.5e-310,\r\n"
        ".5,5.,m".encode("utf-8")
    )
    with mock.patch.object(csvtext, "split_rows", side_effect=AssertionError("row path")):
        names, values, labels = read_dataset_csv(path, expect_label=True)
    assert_reads_like_oracle(path, expect_label=True)
    assert names == ["a", "b"] and labels == ["g", "p q", "", "m"]
    assert values.tolist() == [[0.1, -0.0], [1.0, 5e-324], [1e5, 2.5e-310], [0.5, 5.0]]


@pytest.mark.parametrize(
    "body",
    [
        '"1,5",2,g\n3,4,"p ""q"""\n',  # quoted fields
        "1,2,g\r3,4,p\r",  # bare CR line ends
        "1,2,g\r\n3,4,p\r\n",
        "1_0,2,g\n",  # float() reads underscores, numpy does not
        "1,2,g\n,,\n , , \n3,4,p\n",  # rows of empty fields are blank
        "1\x1c,2,g\n",  # whitespace to numpy, not to float()
        "1,2,g,\n",  # a fourth, empty field
        "1,2\n3,4,p,q\n",  # two and four fields: the right comma total
        "1,2,3\n",  # a number where the label goes
        "\xa01,2 ,g\n",  # unicode whitespace around numbers
        "١,2,g\n",  # a non-ASCII digit float() reads
        "1,nan,g\n2,inf,p\n",
        "1,1e400,g\n",
        "1,2,g\n3,x,p\n",
        "1,2,g\x00\n",
        "",
        "1,2,g\n",
    ],
)
def test_odd_dataset_files_read_as_the_row_reader_reads_them(tmp_path, body):
    path = tmp_path / "data.csv"
    headers = ("a,b,label\n", " a , b ,label \r\n", "a,b\n", "a,a,label\n", "label\n", "\n", "a,b,c\n")
    for header in headers:
        path.write_bytes((header + body).encode("utf-8"))
        for expect_label in (True, False):
            assert_reads_like_oracle(path, expect_label)
    path.write_bytes(b"")
    assert_reads_like_oracle(path, expect_label=True)


CURVE_RULE = csvtext.exact_header("u_m", "F_kN")


def read_curve_by(split):
    """``load_curve``'s reading through one of ``read_csv``'s two paths."""

    def read(path):
        try:
            header, _, values, _ = split(csvtext.read_text(path), CURVE_RULE)
        except IngestionError as exc:
            raise IngestionError(f"{path}: {exc}") from None
        return header, values, []

    return read


@pytest.mark.parametrize(
    "body, plain",
    [
        ('"0",1\n"1,5",2\n', False),  # quoted fields
        ("0,1\r1,2\r", False),  # bare CR line ends
        ("0,1\r\n\r\n1,2\r\n", True),
        ("0,1\n\n  \n1,2\n\n", True),  # blank lines
        ("0,1_0\n", False),  # float() reads underscores, numpy does not
        ("0,1\n,\n , \n1,2\n", False),  # rows of empty fields are blank
        ("0,1\x1c\n", False),  # whitespace to numpy, not to float()
        ("0,1,\n", False),  # a third, empty field
        ("0\n1,2,3\n", False),  # one and three fields: the right comma total
        ("\xa00,\t1 \n", True),  # whitespace around numbers
        ("\u0660,1\n", False),  # a non-ASCII digit float() reads
        ("0,nan\n1,-inf\n", True),
        ("0,1e400\n", True),
        ("0,1\n1,x\n", False),
        ("0,1\x00\n", False),
        ('"0\n",1\n\n1,x\n', False),  # a quoted line break before a bad number
        ("", False),
    ],
)
def test_odd_curve_files_read_as_the_row_reader_reads_them(tmp_path, body, plain):
    """Under a curve header, the plain path (where it takes the file) and the
    row path each read a file as the row reference reads it."""
    path = tmp_path / "curve.csv"
    for header in ("u_m,F_kN\n", " u_m , F_kN \r\n"):
        path.write_bytes((header + body).encode("utf-8"))
        expected = outcome(lambda p: oracle_read_csv(p, expect_label=False), path)
        assert_same(expected, outcome(read_curve_by(csvtext.split_rows), path))
        if plain:
            assert_same(expected, outcome(read_curve_by(csvtext.split_plain), path))
        else:
            assert csvtext.split_plain(csvtext.read_text(path), CURVE_RULE) is None
        if not isinstance(expected, tuple):  # the reference's error is load_curve's
            with pytest.raises(IngestionError) as exc:
                load_curve(path)
            assert_same(expected, str(exc.value))


def test_dataset_fields_over_the_csv_limit_read_as_the_row_reader_reads_them(tmp_path):
    """A field longer than ``csv.field_size_limit()``, which the row reader
    rejects with ``csv.Error``, is an ``IngestionError`` naming the file and
    the line its record starts on, in the dataset, point and curve formats."""
    big = "9" * (csv.field_size_limit() + 1)
    cases = [
        ("a,label\n1,g\n", f'"2\n",{big}\n', 3, lambda p: oracle_read_csv(p, True), lambda p: load_dataset(p, 0.0)),
        (f"a,{big}\n", "", 1, lambda p: oracle_read_csv(p, False), load_design_points),
        ("id,x,y,z\n", f"{big},1,2,3\n", 2, oracle_load_points, load_points),
        ("u_m,F_kN\n0,1\n\n", f"1,{big}\n", 4, lambda p: oracle_read_csv(p, False), load_curve),
    ]
    for header, body, line, oracle, load in cases:
        path = tmp_path / "data.csv"
        path.write_text(header + body, encoding="utf-8")
        with pytest.raises(csv.Error) as expected:
            oracle(path)
        with pytest.raises(IngestionError) as got:
            load(path)
        assert str(got.value) == f"{path}: row {line}: {expected.value}"


@pytest.mark.parametrize(
    "data, row",
    [(b"a,label\n1,\xe9\n", 2), (b"\xff", 1), (b"a,label\r\n1,g\r\n\r\n2,g\xe9\r\n", 4), (b"a\r1\r\xc3", 3)],
)
def test_bytes_that_are_not_utf8_name_the_file_and_row(tmp_path, data, row):
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    message = rf"data\.csv: row {row}: byte 0x[0-9a-f]{{2}} is not valid UTF-8"
    with pytest.raises(IngestionError, match=message):
        load_dataset(path, 0.0)
    with pytest.raises(IngestionError, match=rf"data\.csv: row {row}: "):
        load_design_points(path)


LOADERS = {
    "dataset": lambda p: load_dataset(p, 0.0, ["g", "p"]),
    "widened": lambda p: load_dataset(p, 0.1),
    "design": load_design_points,
    "point": load_points,
    "curve": load_curve,
    "histories": load_histories,
}


@pytest.mark.parametrize(
    "kind, text, message",
    [
        ("dataset", 'a,label\n"1\n",g\n2,x\n', "row 4, column 'label': label 'x' not in declared label set ['g', 'p']"),
        ("widened", 'a,label\n"1\n",g\n0,g\n',
         "row 4, column 'a': mean must be nonzero when relative deviation > 0 (interval would be empty)"),
        ("design", 'a,b\n"1\n",2\n3,x\n', "row 4, column 'b': could not parse 'x' as a number"),
        ("point", 'id,x,y,z\n"a\nb",1,2,3\nc,1,nan,3\n', "row 4: non-finite coordinate"),
        ("curve", 'u_m,F_kN\n"0\n",1\n1,x\n', "row 4, column 'F_kN': could not parse 'x' as a number"),
        ("histories", 't_s,s1_mm,s2_mm,s3_mm,s4_mm\n"0\n",1,2,3,4\n1,2,3\n', "row 4: expected 5 fields, got 3"),
    ],
    ids=["dataset-label", "dataset-widen", "design", "point", "curve", "histories"],
)
def test_errors_name_the_file_line_after_a_quoted_line_break(tmp_path, kind, text, message):
    path = tmp_path / "in.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(IngestionError) as exc:
        LOADERS[kind](path)
    assert str(exc.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "kind, data",
    [
        pytest.param("dataset", b"a,label\n1,g\n", id="dataset"),
        pytest.param("dataset", b'a,label\n"1",g\n', id="dataset-quoted"),
        pytest.param("dataset", b"a,label\n1,x\n", id="dataset-label"),
        pytest.param("dataset", b'a,label\n"1",x\n', id="dataset-quoted-label"),
        pytest.param("dataset", b"a,b\n1,g\n", id="dataset-header"),
        pytest.param("dataset", b"a,label\n1,g,3\n", id="dataset-fields"),
        pytest.param("dataset", b"a,label\n1\x1c,g\n", id="dataset-number"),
        pytest.param("dataset", b"a,label\n" + b"9" * (csv.field_size_limit() + 1) + b",g\n", id="dataset-csv-limit"),
        pytest.param("dataset", b"a,label\n1,g\xe9\n", id="dataset-not-utf8"),
        pytest.param("widened", b"a,label\n0,g\n", id="dataset-widen"),
        pytest.param("widened", b'a,label\n"0",g\n', id="dataset-quoted-widen"),
        pytest.param("design", b"a,b\n1,2\n", id="design"),
        pytest.param("design", b"a,b,label\n1,2,g\r3,4,p\r", id="design-bare-cr"),
        pytest.param("design", b"a,b\n1,x\n", id="design-number"),
        pytest.param("point", b"id,x,y,z\na,1,2,3\n", id="point"),
        pytest.param("point", b'id,x,y,z\n"a",1,2,3\n', id="point-quoted"),
        pytest.param("point", b"id,x,y,z\na,1,2,nan\n", id="point-non-finite"),
        pytest.param("point", b'id,x,y,z\n"a",1,2,nan\n', id="point-quoted-non-finite"),
        pytest.param("point", b"id,x,y,z\na,1,2\n", id="point-fields"),
        pytest.param("point", b"id,x,y\na,1,2\n", id="point-header"),
        pytest.param("curve", b"u_m,F_kN\n0,1\n1,2\n", id="curve"),
        pytest.param("curve", b'u_m,F_kN\n0,1\n"1",2\n', id="curve-quoted"),
        pytest.param("curve", b"u_m,F_kN\n0,1\n1,x\n", id="curve-number"),
        pytest.param("histories", b"t_s,s1_mm,s2_mm,s3_mm,s4_mm\n0,1,2,3,4\n1,2,3,4,5\n", id="histories"),
        pytest.param("histories", b't_s,s1_mm,s2_mm,s3_mm,s4_mm\n0,1,2,3,4\n"1",2,3,4,5\n', id="histories-quoted"),
    ],
)
def test_every_csv_load_opens_its_file_once(tmp_path, kind, data):
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    with mock.patch("builtins.open", wraps=open) as opened:
        try:
            LOADERS[kind](path)
        except (IngestionError, InvalidParameterError):
            pass
    assert [call.args[0] for call in opened.call_args_list].count(path) == 1


NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(1e-3, 1e3).map("{:e}".format),
    st.integers(-(10**6), 10**6).map("{:+d}".format),
    st.sampled_from(["1_0", " 1.5", "2.5 ", "\t3\t", "-0.0", "5e-324", "2.5e-320", "1E5", ".5", "5."]),
)
BAD_NUMBERS = {
    "nan": ["nan", "NaN", "-nan"],
    "inf": ["inf", "-Infinity", "1e400"],
    "bad": ["abc", "1.2.3", "", "--1", "0x10"],
}
LABELS = st.sampled_from(["g", "p", " m ", "", "#", "\xe9", " ", "a b", "q,r", 'say "x"', "1.5"])
HEADERS = st.sampled_from(["a,label", "a,b,label", " a , b , label ", "a,b", "a,a,label", "label", ""])
BLANK_ROWS = st.sampled_from(["", "  ", "\t", ",,", " , , "])


def csv_field(text, quote):
    if quote or "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def dataset_files(draw):
    """Bytes of a dataset CSV: odd headers, number forms, labels, blank
    rows and line ends, at most one malformed row, and sometimes a byte that
    is not UTF-8."""
    header = draw(HEADERS)
    k = max(1, len(header.split(",")) - 1)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        numbers = draw(st.lists(NUMBERS, min_size=k, max_size=k))
        cells = [csv_field(v, draw(st.booleans()) and draw(st.booleans())) for v in numbers]
        rows.append(cells + [csv_field(draw(LABELS), draw(st.booleans()))])
    mutation = draw(st.sampled_from(["none", "nan", "inf", "bad", "short", "long", "header-only"]))
    if mutation == "header-only":
        rows = []
    elif rows and mutation != "none":
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if mutation == "short":
            del row[draw(st.integers(0, len(row) - 1))]
        elif mutation == "long":
            row.append(draw(NUMBERS))
        else:
            row[draw(st.integers(0, k - 1))] = draw(st.sampled_from(BAD_NUMBERS[mutation]))
    lines = [header] + [",".join(row) for row in rows]
    for at, blank in draw(st.lists(st.tuples(st.integers(1, len(lines)), BLANK_ROWS), max_size=3)):
        lines.insert(at, blank)
    data = [line.encode("utf-8") for line in lines]
    if draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(0, len(data) - 1))
        data[at] += draw(st.sampled_from([b"\xe9", b"\xff", b"\xc3"]))
    end = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    out = end.join(data)
    return out + end if draw(st.booleans()) else out


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("datasets")


@PROPERTY
@given(dataset_files(), st.booleans())
def test_dataset_reader_matches_the_row_reader(scratch, data, expect_label):
    path = scratch / "data.csv"
    path.write_bytes(data)
    assert_reads_like_oracle(path, expect_label)


# --- dataset_from_design ---------------------------------------------------------------


def reference_dataset(names, rows, labels, uncertainty, label_set=None):
    """``dataset_from_design`` cell by cell: ``make_marginal`` and
    ``fresh_tuple`` on each row."""
    if len(rows) != len(labels):
        raise InvalidParameterError("rows and labels must have equal length")
    tuples = tuple(
        fresh_tuple(i, [make_marginal(float(v), uncertainty) for v in row], label)
        for i, (row, label) in enumerate(zip(rows, labels), start=1)
    )
    label_set = sorted(set(labels) if label_set is None else label_set)
    return Dataset(tuple(names), tuple(label_set), tuples, sum(t.tp for t in tuples))


def built(build, *args):
    try:
        return build(*args)
    except Exception as exc:  # noqa: BLE001 - the reference's errors, whatever they are
        return type(exc), str(exc)


def assert_builds_like_reference(names, rows, labels, uncertainty, label_set=None):
    expected = built(reference_dataset, names, rows, labels, uncertainty, label_set)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = built(dataset_from_design, names, rows, labels, uncertainty, label_set)
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert got == expected
    assert repr(got.tuples) == repr(expected.tuples)  # repr tells -0.0 from 0.0
    k = len(names)
    table = _node_rows(expected.tuples, k, expected.label_set).table
    assert got._rows.table.tobytes() == table.tobytes()
    assert not got._rows.table.flags.writeable


MEANS = st.one_of(
    st.floats(0.5, 10.0),
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2e-308, 1e308, -1e308, 1.7e308, math.inf, math.nan]),
)
DEVIATIONS = st.sampled_from([0.0, 0.0, 0.05, 0.1, 0.5, 0.99, 1.0, -0.1, math.nan])


@PROPERTY
@given(st.integers(1, 4), st.integers(0, 6), DEVIATIONS, st.data())
def test_dataset_from_design_equals_cell_by_cell_reference(k, n, uncertainty, data):
    finite = data.draw(st.booleans())
    means = st.floats(-1e6, 1e6).filter(bool) if finite else MEANS
    rows = [data.draw(st.lists(means, min_size=k, max_size=k)) for _ in range(n)]
    labels = [data.draw(st.sampled_from("gpm")) for _ in range(n)]
    names = [f"x{j}" for j in range(k)]
    label_set = data.draw(st.sampled_from([None, ("g", "m", "p"), ("g",)]))
    form = data.draw(st.sampled_from(["list", "array", "ints", "ragged"]))
    if form == "array":
        rows = np.array(rows, dtype=float).reshape(n, k)
    elif form == "ints" and n:
        rows[0][0] = int(rows[0][0]) if math.isfinite(rows[0][0]) else "1.5"
    elif form == "ragged" and n:
        rows[-1] = rows[-1] + [1.0]
    assert_builds_like_reference(names, rows, labels, uncertainty, label_set)


@pytest.mark.parametrize("uncertainty", [0.0, 0.1])
@pytest.mark.parametrize(
    "value", [-2.5, 5e-324, -5e-324, 1e-320, 2.2e-308, 1e308, -1.7e308, 0.0, -0.0, math.inf, -math.inf, math.nan]
)
def test_dataset_from_design_edge_values(value, uncertainty):
    rows = [[1.0, 2.0], [3.0, value], [value, -4.0]]
    assert_builds_like_reference(["a", "b"], rows, ["g", "p", "g"], uncertainty)
    assert_builds_like_reference(["a", "b"], np.array(rows), ["g", "p", "g"], uncertainty)


def test_dataset_from_design_rejects_what_the_reference_rejects():
    assert_builds_like_reference(["a"], [[1.0], [2.0]], ["g"], 0.1)
    assert_builds_like_reference(["a", "b"], [[1.0, 2.0]], ["x"], 0.0, ("g",))
    assert_builds_like_reference(["a"], [[1.0, 2.0]], ["g"], 0.0)
    assert_builds_like_reference(["a"], [], [], 0.1)


def test_loaded_dataset_keeps_its_table_and_trains_on_it(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.uniform(1.0, 9.0, (60, 3))
    labels = ["g" if v[0] + v[1] > 10.0 else "p" for v in values]
    path = tmp_path / "data.csv"
    lines = ["a,b,c,label"] + [",".join(map(repr, v.tolist())) + f",{lab}" for v, lab in zip(values, labels)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for uncertainty in (0.0, 0.1):
        ds = load_dataset(path, uncertainty)
        assert "_rows" in vars(ds)
        same = Dataset(ds.attribute_names, ds.label_set, ds.tuples, ds.origin_mass)
        assert "_rows" not in vars(same)
        assert ds._rows.table.tobytes() == same._rows.table.tobytes()
        config = TreeConfig(max_layers=4, n_split_points=5)
        assert tree_to_dict(build_tree(ds, config)) == tree_to_dict(build_tree(same, config))
        tree = build_tree(ds, config)
        assert accuracy_on(tree, ds) == accuracy_on(tree, same)

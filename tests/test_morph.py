"""Tests for thin-plate-spline morphing."""

import csv
import io
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import designmine

from _oracles import oracle_apply_morph, oracle_load_points
from designmine import csvtext
from designmine import morph as morph_module
from designmine.errors import ConditioningError, IngestionError, InvalidParameterError
from designmine.morph import (
    ControlPointSet,
    apply_morph,
    fit_morph,
    load_points,
    save_points,
    tps_kernel,
)


def random_cps(rng, n, scale=10.0):
    original = rng.uniform(-scale, scale, size=(n, 3))
    displaced = original + rng.uniform(-0.2 * scale, 0.2 * scale, size=(n, 3))
    return ControlPointSet(original, displaced)


def bbox_diagonal(points):
    return float(np.linalg.norm(points.max(axis=0) - points.min(axis=0)))


def oracle_solve(cps):
    """Independent fit: build the blocks with separate code and invert
    explicitly."""
    x = cps.original
    n = x.shape[0]
    d = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(-1))
    a = np.zeros((n, n))
    nz = d > 0
    a[nz] = d[nz] ** 2 * np.log(d[nz])
    b = np.concatenate([np.ones((n, 1)), x], axis=1)
    m = np.block([[a, b], [b.T, np.zeros((4, 4))]])
    rhs = np.concatenate([cps.displaced, np.zeros((4, 3))], axis=0)
    return np.linalg.inv(m) @ rhs


# --- kernel -------------------------------------------------------------------


def where_kernel(r):
    """The kernel as ``np.where`` defines it: ``r * r * ln(r)`` where r > 0,
    and 0 elsewhere."""
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(r > 0.0, r * r * np.log(np.where(r > 0.0, r, 1.0)), 0.0)


def test_tps_kernel_special_values():
    assert tps_kernel(0.0) == 0.0
    assert tps_kernel(1.0) == 0.0
    assert tps_kernel(math.e) == pytest.approx(math.e**2, rel=1e-12)
    r = np.array(
        [0.0, -0.0, -2.0, -1e-300, -np.inf, np.nan, np.inf, 1e-300, 5e-324, 0.5, 1.0, math.e, 1e150]
    )
    before = r.copy()
    out, expected = tps_kernel(r), where_kernel(r)
    assert np.array_equal(out, expected)
    assert np.array_equal(np.signbit(out), np.signbit(expected))
    assert np.array_equal(r, before, equal_nan=True)  # the input is not overwritten
    for v, e in zip(r.tolist(), expected.tolist()):
        k = tps_kernel(v)
        assert type(k) is float and k == e and math.copysign(1.0, k) == math.copysign(1.0, e)
    assert tps_kernel(np.nan) == 0.0 and tps_kernel(-np.inf) == 0.0 and tps_kernel(-3.0) == 0.0
    assert tps_kernel(np.inf) == np.inf
    assert math.copysign(1.0, tps_kernel(1e-300)) == -1.0  # r * r underflows to 0, times ln r < 0


def test_tps_kernel_vectorized():
    r = np.array([0.0, 1.0, 2.0])
    out = tps_kernel(r)
    assert out[0] == 0.0 and out[1] == 0.0
    assert out[2] == pytest.approx(4.0 * math.log(2.0))


# --- fit ----------------------------------------------------------------------


def test_identity_fit():
    rng = np.random.default_rng(1)
    original = rng.uniform(-5, 5, size=(8, 3))
    morph = fit_morph(ControlPointSet(original, original.copy()))
    assert np.max(np.abs(morph.kernel_weights)) < 1e-9
    assert np.allclose(morph.affine, np.eye(3), atol=1e-9)
    assert np.max(np.abs(morph.offset)) < 1e-8
    nodes = rng.uniform(-5, 5, size=(40, 3))
    assert np.allclose(apply_morph(morph, nodes), nodes, atol=1e-8)


def test_translation_fit():
    rng = np.random.default_rng(2)
    original = rng.uniform(-5, 5, size=(10, 3))
    v = np.array([1.5, -2.0, 0.75])
    morph = fit_morph(ControlPointSet(original, original + v))
    assert np.max(np.abs(morph.kernel_weights)) < 1e-9
    assert np.allclose(morph.affine, np.eye(3), atol=1e-9)
    assert np.allclose(morph.offset, v, atol=1e-9)
    nodes = rng.uniform(-10, 10, size=(25, 3))
    assert np.allclose(apply_morph(morph, nodes), nodes + v, atol=1e-8)


def test_affine_reproduction():
    rng = np.random.default_rng(3)
    original = rng.uniform(-4, 4, size=(12, 3))
    L = rng.uniform(-1, 1, size=(3, 3)) + np.eye(3)
    t = rng.uniform(-2, 2, size=3)
    morph = fit_morph(ControlPointSet(original, original @ L + t))
    nodes = rng.uniform(-6, 6, size=(30, 3))
    expected = nodes @ L + t
    scale = np.max(np.abs(expected)) + 1.0
    assert np.max(np.abs(apply_morph(morph, nodes) - expected)) / scale < 1e-8


def test_interpolation_on_random_sets():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(4, 51))
        cps = random_cps(rng, n)
        morph = fit_morph(cps)
        out = apply_morph(morph, cps.original)
        tol = 1e-8 * bbox_diagonal(cps.original)
        assert np.max(np.linalg.norm(out - cps.displaced, axis=1)) < tol


def test_side_conditions():
    rng = np.random.default_rng(5)
    cps = random_cps(rng, 20)
    morph = fit_morph(cps)
    b = np.concatenate([np.ones((20, 1)), cps.original], axis=1)
    assert np.max(np.abs(b.T @ morph.kernel_weights)) < 1e-8


def test_fit_matches_explicit_inverse_oracle():
    rng = np.random.default_rng(6)
    for n in (5, 12, 30):
        cps = random_cps(rng, n)
        morph = fit_morph(cps)
        sol = oracle_solve(cps)
        assert np.max(np.abs(morph.kernel_weights - sol[:n])) < 1e-8
        assert np.max(np.abs(morph.offset - sol[n])) < 1e-8
        assert np.max(np.abs(morph.affine - sol[n + 1 :])) < 1e-8


def test_fit_deterministic():
    rng = np.random.default_rng(7)
    cps = random_cps(rng, 15)
    m1 = fit_morph(cps)
    m2 = fit_morph(cps)
    assert np.array_equal(m1.kernel_weights, m2.kernel_weights)
    assert np.array_equal(m1.affine, m2.affine)
    assert np.array_equal(m1.offset, m2.offset)


def test_duplicate_points_error():
    original = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 0, 0]], dtype=float)
    with pytest.raises(ConditioningError):
        fit_morph(ControlPointSet(original, original))


def test_coplanar_points_error_reports_condition():
    original = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.5, 0.5, 0]], dtype=float
    )
    with pytest.raises(ConditioningError, match="condition"):
        fit_morph(ControlPointSet(original, original))


def test_regularized_fit_still_interpolates():
    rng = np.random.default_rng(8)
    cps = random_cps(rng, 10)
    morph = fit_morph(cps, regularization=1e-10)
    out = apply_morph(morph, cps.original)
    assert np.max(np.abs(out - cps.displaced)) < 1e-6 * bbox_diagonal(cps.original)


def test_control_point_set_validation():
    with pytest.raises(InvalidParameterError):
        ControlPointSet(np.zeros((3, 3)), np.zeros((3, 3)))
    with pytest.raises(InvalidParameterError):
        ControlPointSet(np.zeros((5, 2)), np.zeros((5, 2)))
    with pytest.raises(InvalidParameterError):
        ControlPointSet(np.zeros((5, 3)), np.zeros((4, 3)))


# --- the lifted-patch example ----------------------------------------------------


def test_lifted_patch_bump():
    """A gently warped 5-point shell patch with its middle control point
    lifted morphs a node grid into a smooth centred bump."""
    original = np.array(
        [
            [-1.0, -1.0, 0.00],
            [1.0, -1.0, 0.08],
            [-1.0, 1.0, 0.05],
            [1.0, 1.0, 0.01],
            [0.0, 0.0, 0.02],
        ]
    )
    displaced = original.copy()
    displaced[4, 2] += 1.0
    morph = fit_morph(ControlPointSet(original, displaced))
    assert np.max(np.abs(morph.kernel_weights)) > 0.1  # not an affine shear

    g = np.linspace(-1.0, 1.0, 21)
    gx, gy = np.meshgrid(g, g)
    zs = 0.035 + 0.01 * gx.ravel() - 0.005 * gy.ravel() - 0.02 * gx.ravel() * gy.ravel()
    nodes = np.column_stack([gx.ravel(), gy.ravel(), zs])
    out = apply_morph(morph, nodes)

    z = out[:, 2].reshape(21, 21)
    assert (10, 10) == np.unravel_index(z.argmax(), z.shape)
    assert z[10, 10] > z[0, 0] + 0.5
    assert z[10, 10] > z[10, 15] > z[10, 20]  # monotone decay toward the edge
    assert np.max(np.abs(np.diff(z, axis=0))) < 0.2  # no oscillation spikes

    # independent re-evaluation of the interpolant
    d = np.sqrt(((nodes[:, None, :] - original[None, :, :]) ** 2).sum(-1))
    k = np.zeros_like(d)
    nz = d > 0
    k[nz] = d[nz] ** 2 * np.log(d[nz])
    expected = (
        k @ morph.kernel_weights
        + np.concatenate([np.ones((nodes.shape[0], 1)), nodes], axis=1)
        @ np.concatenate([morph.offset[None, :], morph.affine], axis=0)
    )
    assert np.allclose(out, expected, atol=1e-10)


# --- blocked apply -----------------------------------------------------------------

B = morph_module.BLOCK_ROWS


@pytest.mark.parametrize("m", [0, 1, B - 1, B, B + 1, 2 * B + 3])
def test_apply_morph_in_blocks_equals_the_one_shot_product(m):
    """Nodes are morphed a block of rows at a time: every bit is the ordered
    sum the oracle takes over the whole cloud in one shot, also at control
    points (r = 0) and across block edges."""
    rng = np.random.default_rng(m)
    morph = fit_morph(random_cps(rng, 30))
    nodes = rng.uniform(-12.0, 12.0, size=(m, 3))
    nodes[: min(m, 5)] = morph.original[: min(m, 5)]
    out = apply_morph(morph, nodes)
    assert out.shape == (m, 3)
    assert np.array_equal(out, oracle_apply_morph(morph, nodes))


def test_apply_morph_does_not_depend_on_the_block_size():
    rng = np.random.default_rng(11)
    morph = fit_morph(random_cps(rng, 30))
    nodes = rng.uniform(-12.0, 12.0, size=(3 * B + 5, 3))
    expected = apply_morph(morph, nodes)
    for rows in (1, 7, 1000, 8192, 4 * B):
        with mock.patch.object(morph_module, "BLOCK_ROWS", rows):
            assert np.array_equal(apply_morph(morph, nodes), expected), rows


@pytest.mark.parametrize("n, rows", [(6, [4, 4, 3]), (32, [4, 4, 3]), (40, [3, 3, 3, 2]), (200, [1] * 11)])
def test_many_control_points_take_fewer_rows_per_block(n, rows):
    """A block holds at most ``32 * BLOCK_ROWS`` kernel cells (one row at
    the least), however many control points there are."""
    rng = np.random.default_rng(n)
    morph = fit_morph(random_cps(rng, n))
    nodes = rng.uniform(-12.0, 12.0, size=(11, 3))
    distances = morph_module._distances
    shapes = []

    def recording_distances(x, y):
        shapes.append((len(x), len(y)))
        return distances(x, y)

    with mock.patch.object(morph_module, "BLOCK_ROWS", 4), \
            mock.patch.object(morph_module, "_distances", recording_distances):
        out = apply_morph(morph, nodes)
    assert shapes == [(n, r) for r in rows]
    assert np.array_equal(out, oracle_apply_morph(morph, nodes))


@pytest.mark.parametrize("seed", range(4))
def test_distances_equal_scipy_cdist_bit_for_bit(seed):
    from scipy.spatial.distance import cdist

    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-150, 150, size=(1, 3))
    x = rng.standard_normal((40, 3)) * scale
    y = rng.standard_normal((500, 3)) * scale
    y[:5] = x[:5]
    y[5:10] = -x[5:10]
    assert np.array_equal(morph_module._distances(x, y), cdist(x, y))
    assert np.array_equal(morph_module._distances(y, x), cdist(x, y).T)
    assert np.array_equal(morph_module._distances(x, x), cdist(x, x))


#: tracemalloc peak of ``save_points`` on the 50 000 rows below before it
#: wrote in blocks, when it held every row's text at once.
UNBLOCKED_SAVE_PEAK = 17.2e6


def test_apply_and_save_run_in_bounded_memory(tmp_path):
    """tracemalloc counts numpy's buffers, so these peaks are exact and do
    not depend on timing.  ``apply_morph`` holds its output plus one block's
    distances, kernel and sums, far below one (m x n) kernel table;
    ``save_points`` holds one block of row text."""
    rng = np.random.default_rng(5)
    morph = fit_morph(random_cps(rng, 30))
    nodes = rng.uniform(-10.0, 10.0, size=(50_000, 3))
    ids = [f"n{i}" for i in range(len(nodes))]
    tracemalloc.start()
    try:
        moved = apply_morph(morph, nodes)
        apply_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        save_points(tmp_path / "out.csv", ids, moved)
        save_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    table = len(nodes) * 30 * 8
    assert apply_peak < 0.5 * table
    assert save_peak < UNBLOCKED_SAVE_PEAK / 4


# --- point CSV IO ------------------------------------------------------------------


def test_point_csv_round_trip(tmp_path):
    ids = ["001", "7", "node a", "x"]
    coords = np.array([[0.1, 0.2, 0.3], [1, 2, 3], [-1, -2, -3], [9.25, 0.5, 1e-7]])
    path = tmp_path / "pts.csv"
    save_points(path, ids, coords)
    rids, rcoords = load_points(path)
    assert rids == ids
    assert np.array_equal(rcoords, coords)
    save_points(tmp_path / "again.csv", rids, rcoords)
    text = path.read_bytes()
    assert text == (tmp_path / "again.csv").read_bytes()
    assert b"\r" not in text and text.count(b"\n") == 5
    # Files written with CRLF line endings read the same.
    path.write_bytes(text.replace(b"\n", b"\r\n"))
    crlf_ids, crlf_coords = load_points(path)
    assert crlf_ids == ids and np.array_equal(crlf_coords, coords)


def test_point_csv_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n", encoding="utf-8")
    with pytest.raises(IngestionError):
        load_points(bad)
    bad2 = tmp_path / "bad2.csv"
    bad2.write_text("id,x,y,z\n1,a,b,c\n", encoding="utf-8")
    with pytest.raises(IngestionError):
        load_points(bad2)


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_point_csv_rejects_non_finite(tmp_path, value):
    path = tmp_path / "pts.csv"
    path.write_text(f"id,x,y,z\n1,1,2,3\n\n2,1,2,{value}\n", encoding="utf-8")
    with pytest.raises(IngestionError, match=r"pts\.csv: row 4: non-finite"):
        load_points(path)


def test_point_csv_row_number_of_errors_counts_blank_lines(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_bytes(b"id,x,y,z\r\n1,1,2,3\r\n\r\n  \r\n2,1,2\r\n")
    with pytest.raises(IngestionError, match=r"pts\.csv: row 5: expected 4 fields, got 3"):
        load_points(path)
    path.write_bytes(b"id,x,y,z\n1,1,2,3\n2,1,x,3\n")
    with pytest.raises(IngestionError, match=r"pts\.csv: row 3, column 'y': could not parse 'x' as a number"):
        load_points(path)


def test_plain_files_take_the_array_path(tmp_path):
    """A file with no quote and no bare CR is parsed by ``np.loadtxt`` in one
    call, and reads exactly as the row-by-row reader reads it."""
    path = tmp_path / "pts.csv"
    path.write_bytes(
        "id,x,y,z\r\n"
        "n#1,0.1,-0.0,5e-324\r\n"
        "\r\n"
        "   \r\n"
        "n\u20282, +1 ,\t2.5e-310,1E5\r\n"
        ",1,2,3\r\n"
        " spaced id ,-7,.5,5.".encode("utf-8")
    )
    expected_ids, expected = oracle_load_points(path)
    with mock.patch.object(csvtext, "split_rows", side_effect=AssertionError("row path")):
        ids, points = load_points(path)
    assert ids == expected_ids == ["n#1", "n\u20282", "", " spaced id "]
    assert np.array_equal(points, expected)
    assert np.array_equal(np.signbit(points), np.signbit(expected))
    assert load_points(path)[0] == expected_ids


@pytest.mark.parametrize(
    "body",
    [
        '"q,uoted",1,2,3\n"a ""b""",4,5,6\n',  # quoted ids
        "a\r1,2,3\rb,4,5,6\r",  # bare CR line ends
        "a\rb,1,2,3\n",  # a bare CR inside an unquoted id
        "a,1,2\r,3\n",  # a bare CR after a coordinate
        "a,1_0,2,3\n",  # float() accepts underscores, numpy does not
        "a,1,2,3\n,,,\n b , 4 ,5,6\n",  # a row of empty fields is blank
        "a,1\x1c,2,3\n",  # whitespace to numpy, not to float()
        "a,1,2,3,\n",  # a fifth, empty field
        "a,1,2\nb,1,2,3,4\n",  # three and five fields
        "a,1,2,3\n\xa0,\u2028,\t, \n",  # fields of unicode whitespace
        "a,\u0661,2,3\n",  # a non-ASCII digit float() reads
        "a,1,2,3\nb,nan,2,3\n",
        "a,1,2,1e400\n",
        "",
        "a,1,2,3\n",
    ],
)
def test_odd_point_files_read_as_the_row_reader_reads_them(tmp_path, body):
    path = tmp_path / "pts.csv"
    for header in ("id,x,y,z\n", " id , x,y ,z\r\n", "id,x,y\n", "\n"):
        path.write_bytes((header + body).encode("utf-8"))
        assert_reads_like_oracle(path)
    path.write_bytes(b"")
    assert_reads_like_oracle(path)


def test_point_csv_fields_over_the_csv_limit_read_as_the_row_reader_reads_them(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("id,x,y,z\n" + "a" * (csv.field_size_limit() + 1) + ",1,2,3\n", encoding="utf-8")
    with pytest.raises(csv.Error) as exc:
        oracle_load_points(path)
    with pytest.raises(IngestionError) as got:
        load_points(path)
    assert str(got.value) == f"{path}: row 2: {exc.value}"


def outcome(loader, path):
    """What a reader makes of a file: (ids, points) or its error message,
    with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return loader(path)
        except IngestionError as exc:
            return str(exc)


#: Block sizes for ``csvtext.split_plain``: a line per block, a few lines
#: per block, and the whole of every small file in one block.
BLOCK_SIZES = (1, 7, 64, csvtext.BLOCK_BYTES)


def assert_same_points(expected, got):
    if isinstance(expected, str):
        assert got == expected
        return
    assert not isinstance(got, str), got
    assert got[0] == expected[0]
    assert got[1].shape == expected[1].shape
    assert np.array_equal(got[1], expected[1])
    assert np.array_equal(np.signbit(got[1]), np.signbit(expected[1]))


def assert_reads_like_oracle(path):
    """``load_points`` reads the file as the row reference does, at every
    size in ``BLOCK_SIZES``."""
    expected = outcome(oracle_load_points, path)
    for size in BLOCK_SIZES:
        with mock.patch.object(csvtext, "BLOCK_BYTES", size):
            assert_same_points(expected, outcome(load_points, path))


PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
ID_CHARS = st.sampled_from(["a", "7", " ", "#", ",", '"', "\r", "\u2028", "\xe9", "\t", "\u20ac", "\U0001f600"])
TOKENS = st.one_of(
    FINITE.map(repr),
    FINITE.map("{:e}".format),
    st.integers(-(10**6), 10**6).map("{:+d}".format),
    st.sampled_from(["1_0", " 1.5", "2.5 ", "\t3\t", "-0.0", "5e-324", "2.5e-320", "1E5", ".5", "5."]),
)
BAD_TOKENS = {
    "nan": ["nan", "NaN", "-nan"],
    "inf": ["inf", "-Infinity", "1e400"],
    "bad": ["abc", "1.2.3", "", "--1", "0x10"],
}
BLANK_ROWS = st.sampled_from(["", "  ", "\t", ",,,", " , , , "])


def csv_id(text, quote):
    if quote or "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def point_files(draw):
    """Text of a point CSV: odd ids (characters of 1 to 4 UTF-8 bytes among
    them), number forms, blank and whitespace-only rows, LF, CRLF or bare CR
    line ends with or without a last one, and at most one malformed row."""
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        ident = csv_id(draw(st.text(ID_CHARS, max_size=4)), draw(st.booleans()))
        rows.append([ident] + draw(st.lists(TOKENS, min_size=3, max_size=3)))
    mutation = draw(st.sampled_from(["none", "nan", "inf", "bad", "short", "long", "header-only"]))
    if mutation == "header-only":
        rows = []
    elif rows and mutation != "none":
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if mutation == "short":
            del row[draw(st.integers(1, 3))]
        elif mutation == "long":
            row.append(draw(TOKENS))
        else:
            row[draw(st.integers(1, 3))] = draw(st.sampled_from(BAD_TOKENS[mutation]))
    lines = [",".join(row) for row in rows]
    for at, blank in draw(st.lists(st.tuples(st.integers(0, len(lines)), BLANK_ROWS), max_size=3)):
        lines.insert(at, blank)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(["id,x,y,z"] + lines)
    return text + end if draw(st.booleans()) else text


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("points")


@PROPERTY
@given(point_files())
def test_load_points_matches_the_row_reader(scratch, text):
    path = scratch / "pts.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_reads_like_oracle(path)


def point_rows_bytes(n):
    return "".join(f"n{i},{i},{i / 7!r},-{i}\n" for i in range(n)).encode("utf-8")


@pytest.mark.parametrize(
    "fault, message",
    [
        pytest.param(b'"n,250",1,2,3', None, id="quote"),
        pytest.param(b"n250\r,1,2,3", None, id="bare-cr"),
        pytest.param(b"n250,1,2", "row 252: expected 4 fields, got 3", id="short"),
        pytest.param(b"n250,1,x,3", "row 252, column 'y': could not parse 'x' as a number", id="number"),
        pytest.param(b"n250\xe9,1,2,3", "row 252: byte 0xe9 is not valid UTF-8", id="not-utf8"),
    ],
)
def test_a_fault_in_a_later_block_reads_as_the_whole_file_does(tmp_path, fault, message):
    """A line that sends the file to the row reader, found blocks after the
    first, gives the row reader's result or error with its row, and the file
    is still opened once: the reader goes back to the start on its handle."""
    lines = point_rows_bytes(300).split(b"\n")
    lines[250] = fault
    data = b"id,x,y,z\n" + b"\n".join(lines)
    assert data.index(fault) > 4 * 1024
    path = tmp_path / "pts.csv"
    path.write_bytes(data)
    with mock.patch.object(csvtext, "BLOCK_BYTES", 1024), mock.patch("builtins.open", wraps=open) as opened:
        got = outcome(load_points, path)
    assert [call.args[0] for call in opened.call_args_list].count(path) == 1
    if message is None:
        assert_same_points(outcome(oracle_load_points, path), got)
    else:
        assert got == f"{path}: {message}"
        if b"\xe9" not in fault:
            assert outcome(oracle_load_points, path) == got


def test_load_points_holds_one_block_besides_what_it_returns(tmp_path):
    """Reading 50 000 points, tracemalloc's peak stays below twice what the
    reader returns (ids and coordinates): the file's text, its split lines
    and a CRLF copy are never held whole."""
    path = tmp_path / "pts.csv"
    path.write_bytes(b"id,x,y,z\n" + point_rows_bytes(50_000))
    load_points(path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ids, points = load_points(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ids) == len(points) == 50_000
    assert peak - before < 2 * (kept - before)


def csv_writer_bytes(ids, coords):
    """The point CSV ``csv.writer`` writes, row by row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "x", "y", "z"])
    for i, row in zip(ids, coords):
        writer.writerow([i] + [repr(float(v)) for v in row])
    return buf.getvalue().encode("utf-8")


COORDS = st.one_of(FINITE, st.sampled_from([-0.0, 5e-324, 1e308, -1e308, 1.0, -3.0, 2.0**53]))
POINT_ROWS = st.lists(st.tuples(COORDS, COORDS, COORDS), min_size=1, max_size=8)


@PROPERTY
@given(st.data(), POINT_ROWS)
def test_save_points_writes_the_csv_writer_bytes(scratch, data, rows):
    ids = data.draw(
        st.lists(st.text(st.characters(codec="utf-8", exclude_characters="\r\x00")),
                 min_size=len(rows), max_size=len(rows))
    )
    path = scratch / "out.csv"
    with mock.patch.object(morph_module, "BLOCK_ROWS", data.draw(st.sampled_from([2, 3]))):
        save_points(path, ids, np.array(rows))
    assert path.read_bytes() == csv_writer_bytes(ids, rows)


def test_save_points_over_several_blocks_writes_the_csv_writer_bytes(tmp_path):
    """Rows are written ``BLOCK_ROWS`` at a time; ids may come from any
    iterable, a generator too, and none is lost at a block edge."""
    rng = np.random.default_rng(3)
    m = 2 * B + 3
    coords = rng.standard_normal((m, 3)) * 10.0 ** rng.integers(-300, 300, size=(m, 3))
    coords[0] = [-0.0, 5e-324, 2.0**53]
    ids = [f"n{i}" if i % 5 else f'n,"{i}"' for i in range(m)]
    save_points(tmp_path / "list.csv", ids, coords)
    save_points(tmp_path / "gen.csv", (i for i in ids), coords)
    expected = csv_writer_bytes(ids, coords)
    assert (tmp_path / "list.csv").read_bytes() == expected
    assert (tmp_path / "gen.csv").read_bytes() == expected


@PROPERTY
@given(st.data(), POINT_ROWS)
def test_every_id_save_points_writes_reads_back(scratch, data, rows):
    ids = data.draw(
        st.lists(st.text(st.characters(codec="utf-8", exclude_characters="\x00")),
                 min_size=len(rows), max_size=len(rows))
    )
    coords = np.array(rows)
    path = scratch / "round.csv"
    with mock.patch.object(morph_module, "BLOCK_ROWS", data.draw(st.sampled_from([2, 3]))):
        save_points(path, ids, coords)
    rids, rcoords = load_points(path)
    assert rids == ids
    assert np.array_equal(rcoords, coords)
    assert np.array_equal(np.signbit(rcoords), np.signbit(coords))


def test_ids_with_a_bare_cr_read_back(tmp_path):
    path = tmp_path / "pts.csv"
    save_points(path, ["a\rb", "c"], np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
    assert path.read_bytes() == b'id,x,y,z\n"a\rb",1.0,2.0,3.0\nc,4.0,5.0,6.0\n'
    assert load_points(path)[0] == ["a\rb", "c"]


def test_importing_the_package_does_not_load_scipy():
    """designmine needs numpy alone: importing it and its CLI does not load
    scipy."""
    src = os.path.dirname(os.path.dirname(designmine.__file__))
    code = "import sys, designmine, designmine.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_the_morph_command_does_not_load_scipy(tmp_path):
    rng = np.random.default_rng(9)
    original = rng.uniform(-5.0, 5.0, size=(10, 3))
    ids = [f"c{i}" for i in range(10)]
    save_points(tmp_path / "o.csv", ids, original)
    save_points(tmp_path / "d.csv", ids, original + rng.uniform(-0.5, 0.5, size=(10, 3)))
    save_points(tmp_path / "n.csv", ["a", "b"], rng.uniform(-5.0, 5.0, size=(2, 3)))
    argv = ["morph", "--original", str(tmp_path / "o.csv"), "--displaced", str(tmp_path / "d.csv"),
            "--nodes", str(tmp_path / "n.csv"), "--out", str(tmp_path / "m.csv")]
    code = f"import sys; from designmine.cli import main; print(main({argv!r}), 'scipy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(designmine.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "0 False"
    assert len(load_points(tmp_path / "m.csv")[0]) == 2

"""Tests for thin-plate-spline morphing."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import designmine

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


def test_tps_kernel_special_values():
    assert tps_kernel(0.0) == 0.0
    assert tps_kernel(1.0) == 0.0
    assert tps_kernel(math.e) == pytest.approx(math.e**2, rel=1e-12)


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


def test_importing_the_package_does_not_load_scipy():
    """scipy is imported by the morph functions that use it, so importing
    designmine and its CLI (every command but ``morph``) does not load it."""
    src = os.path.dirname(os.path.dirname(designmine.__file__))
    code = "import sys, designmine, designmine.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"

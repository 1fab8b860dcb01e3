"""Thin-plate-spline morphing from displaced control points to node clouds.

A morph is fitted by interpolating the control-point displacement field with
the kernel r^2 * ln(r) plus an affine part, solving the standard saddle-point
system whose side conditions keep the kernel weights orthogonal to the affine
space.  The fitted map then moves arbitrary node coordinates.  Natural
logarithm throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atomic import atomic_open
from .csvtext import exact_header, read_csv, require_finite
from .errors import ConditioningError, IngestionError, InvalidParameterError

__all__ = [
    "ControlPointSet",
    "MorphMap",
    "tps_kernel",
    "fit_morph",
    "apply_morph",
    "load_points",
    "load_control_points",
    "save_points",
]

#: Condition numbers beyond this are treated as numerically singular.
CONDITION_LIMIT = 1e12

#: Relative residual allowed for the fitted linear system.
RESIDUAL_LIMIT = 1e-8

_POINT_HEADER = exact_header("id", "x", "y", "z", text_column=0)

#: Node rows morphed or written at once, so the temporaries of
#: ``apply_morph`` and ``save_points`` do not grow with the node count.
#: ``apply_morph`` takes fewer rows past 32 control points: a block's kernel
#: rows hold at most ``32 * BLOCK_ROWS`` floats (1 MiB).
BLOCK_ROWS = 4096


def tps_kernel(r):
    """r^2 * ln(r), continued with 0 where r is not positive (0, negative or
    NaN).  Accepts scalars or arrays."""
    out = _tps_kernel_inplace(np.array(r, dtype=float))
    if out.ndim == 0:
        return float(out)
    return out


def _tps_kernel_inplace(r):
    """``tps_kernel`` of a float array the caller owns, which is overwritten
    with its square: ``(r * r) * ln(r)`` where r > 0 and 0 elsewhere, with no
    float temporary besides the result."""
    pos = r > 0.0
    out = np.zeros_like(r)
    np.log(r, out=out, where=pos)
    r *= r
    np.multiply(r, out, out=out, where=pos)
    return out


@dataclass(frozen=True)
class ControlPointSet:
    """Original and displaced coordinates of the morphing control points."""

    original: np.ndarray
    displaced: np.ndarray

    def __post_init__(self):
        orig = np.asarray(self.original, dtype=float)
        disp = np.asarray(self.displaced, dtype=float)
        object.__setattr__(self, "original", orig)
        object.__setattr__(self, "displaced", disp)
        if orig.ndim != 2 or orig.shape[1] != 3:
            raise InvalidParameterError("control points must be an n-by-3 array")
        if disp.shape != orig.shape:
            raise InvalidParameterError("original and displaced shapes differ")
        if orig.shape[0] < 4:
            raise InvalidParameterError("need at least 4 control points")


@dataclass(frozen=True, eq=False)
class MorphMap:
    """Fitted morphing coefficients: kernel weights (n-by-3), the 3-by-3
    affine block, the constant offset, the original control points, and the
    condition estimate of the solved system."""

    kernel_weights: np.ndarray
    affine: np.ndarray
    offset: np.ndarray
    original: np.ndarray
    condition: float


def _distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``x`` and those of ``y``, a
    (len(x) x len(y)) array: ``sqrt((dx*dx + dy*dy) + dz*dz)``, the
    coordinates added in order, as ``scipy.spatial.distance.cdist`` adds
    them."""
    d = np.subtract.outer(x[:, 0], y[:, 0])
    d *= d
    for c in (1, 2):
        diff = np.subtract.outer(x[:, c], y[:, c])
        diff *= diff
        d += diff
    return np.sqrt(d, out=d)


def _system_matrix(original: np.ndarray, r: np.ndarray, regularization: float):
    """The saddle-point matrix of control points whose distances are ``r``
    (overwritten)."""
    n = original.shape[0]
    a = _tps_kernel_inplace(r)
    if regularization:
        a = a + regularization * np.eye(n)
    b = np.hstack([np.ones((n, 1)), original])
    m = np.zeros((n + 4, n + 4))
    m[:n, :n] = a
    m[:n, n:] = b
    m[n:, :n] = b.T
    return m


def fit_morph(cps: ControlPointSet, regularization: float = 0.0) -> MorphMap:
    """Solve the saddle-point system mapping original control points onto the
    displaced ones, by LU with partial pivoting (``np.linalg.solve``).

    Raises a conditioning error (with the condition estimate) for duplicate
    or coplanar-degenerate control points; a small ``regularization`` added to
    the kernel block can rescue near-degenerate layouts.
    """
    original = cps.original
    n = original.shape[0]
    r = _distances(original, original)
    if r[np.triu_indices(n, 1)].min() == 0.0:
        raise ConditioningError("duplicate control points make the system singular")
    m = _system_matrix(original, r, regularization)
    condition = float(np.linalg.cond(m))
    if not np.isfinite(condition) or condition > CONDITION_LIMIT:
        raise ConditioningError(
            f"morphing system is singular or ill-conditioned "
            f"(condition estimate {condition:.3e}); duplicate or coplanar "
            f"control points, or try a small regularization"
        )
    rhs = np.zeros((n + 4, 3))
    rhs[:n] = cps.displaced
    sol = np.linalg.solve(m, rhs)
    residual = np.linalg.norm(m @ sol - rhs) / max(np.linalg.norm(rhs), 1.0)
    if residual > RESIDUAL_LIMIT:
        raise ConditioningError(
            f"solver residual {residual:.3e} exceeds {RESIDUAL_LIMIT:.0e} "
            f"(condition estimate {condition:.3e})"
        )
    return MorphMap(
        kernel_weights=sol[:n],
        affine=sol[n + 1 :],
        offset=sol[n],
        original=original,
        condition=condition,
    )


def apply_morph(morph: MorphMap, nodes) -> np.ndarray:
    """Morphed coordinates of a node cloud (m-by-3).

    Evaluated at the original control points this reproduces the displaced
    control points to solver tolerance.  Each coordinate of a node is the sum
    of its kernel terms in control-point order, then its affine terms in
    coordinate order, then the offset, one ordered numpy add at a time.  So
    a node's output depends on that node alone, not on how many rows a block
    holds or on BLAS, and no (m x n) kernel table is kept: a block's kernel
    is built (control points x rows), one control point's row contiguous.
    """
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    if nodes.shape[1] != 3:
        raise InvalidParameterError("nodes must be an m-by-3 array")
    m, n = len(nodes), len(morph.original)
    weights = morph.kernel_weights[:, :, None]
    affine = morph.affine[:, :, None]
    offset = morph.offset[:, None]
    step = max(1, 32 * BLOCK_ROWS // max(n, 32))
    out = np.empty((m, 3))
    for start in range(0, m, step):
        block = nodes[start : start + step]
        kt = _tps_kernel_inplace(_distances(morph.original, block))
        acc = kt[0] * weights[0]
        term = np.empty_like(acc)
        for j in range(1, n):
            acc += np.multiply(kt[j], weights[j], out=term)
        for a in range(3):
            acc += np.multiply(block[:, a], affine[a], out=term)
        acc += offset
        out[start : start + step] = acc.T
    return out


def _read_points(path):
    """``load_points`` of a file, and the line each point is on."""
    _, ids, points, lines = read_csv(path, _POINT_HEADER)
    if not ids:  # an empty (0,) array, which ControlPointSet and apply_morph reject
        return ids, np.asarray([], dtype=float), lines
    require_finite(path, points, lines, "coordinate")
    return ids, points, lines


def load_points(path):
    """Read an `id,x,y,z` CSV; ids come back verbatim as strings.  Every
    coordinate must be a finite number."""
    ids, points, _ = _read_points(path)
    return ids, points


def load_control_points(original, displaced) -> ControlPointSet:
    """The control points of two `id,x,y,z` CSVs that list the same ids in
    the same order: their positions before and after the displacement.  Ids
    that differ raise ``IngestionError`` naming both files and the rows of
    the first difference."""
    ids_o, points_o, lines_o = _read_points(original)
    ids_d, points_d, lines_d = _read_points(displaced)
    if ids_o != ids_d:
        pairs = zip(ids_o, ids_d)
        at = next((i for i, (a, b) in enumerate(pairs) if a != b), min(len(ids_o), len(ids_d)))
        where = ", ".join(
            f"{path} row {lines[at]} has id {ids[at]!r}" if at < len(ids) else f"{path} ends after {at} points"
            for path, ids, lines in ((original, ids_o, lines_o), (displaced, ids_d, lines_d))
        )
        raise IngestionError(
            f"original and displaced control point ids do not match at point {at + 1}: {where}"
        )
    return ControlPointSet(points_o, points_d)


def _csv_field(text: str) -> str:
    """``text`` as one CSV field: quoted, with its quotes doubled, when it
    holds a comma, a quote, a CR or an LF."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def save_points(path, ids, coords) -> None:
    """Write an `id,x,y,z` CSV preserving ids and row order; coordinates are
    written with ``repr``, so they read back exactly.  ``ids`` may be any
    iterable; rows are formatted ``BLOCK_ROWS`` at a time."""
    fields = map(_csv_field, map(str, ids))
    coords = np.asarray(coords, dtype=float)
    with atomic_open(path) as fh:
        fh.write("id,x,y,z\n")
        for start in range(0, len(coords), BLOCK_ROWS):
            # rows first: zip stops on them without taking an id it drops
            rows = zip(coords[start : start + BLOCK_ROWS].tolist(), fields)
            fh.write("".join([f"{i},{x!r},{y!r},{z!r}\n" for (x, y, z), i in rows]))

"""Crashworthiness response metrics from curve and time-history data.

Works in fixed units: deflection in m, force in kN, intrusion in mm, mass in
kg, time in s, energy in J.  Integrals use the trapezoidal rule on the
samples as given (no interpolation beyond linear).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .csvtext import exact_header, read_csv, require_finite
from .errors import IngestionError, InvalidParameterError
from .uncertain import _total

__all__ = [
    "ForceDeflectionCurve",
    "IntrusionHistories",
    "ResponseRecord",
    "avgstiff",
    "peak_force",
    "peak_intrusion",
    "total_mass",
    "sea",
    "load_curve",
    "load_histories",
]


@dataclass(frozen=True)
class ForceDeflectionCurve:
    """Sampled crush response: deflection u (m, strictly increasing from 0)
    against force (kN)."""

    u: np.ndarray
    force: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        f = np.asarray(self.force, dtype=float)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "force", f)
        if u.ndim != 1 or f.shape != u.shape or u.size < 2:
            raise InvalidParameterError("curve needs matching 1-d u/force arrays, >= 2 samples")
        if u[0] != 0.0:
            raise InvalidParameterError("deflection must start at 0")
        if not np.all(np.diff(u) > 0):
            raise InvalidParameterError("deflection must be strictly increasing")

    @property
    def final_deflection(self) -> float:
        return float(self.u[-1])

    def absorbed_energy(self) -> float:
        """Area under the curve in kJ (kN * m)."""
        return float(_absorbed_energy(self.u, self.force))


@dataclass(frozen=True)
class IntrusionHistories:
    """Four marker displacement signals (mm) on a common time grid (s)."""

    t: np.ndarray
    signals: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        s = np.asarray(self.signals, dtype=float)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "signals", s)
        if t.ndim != 1 or not np.all(np.diff(t) > 0):
            raise InvalidParameterError("time grid must be 1-d and strictly increasing")
        if s.shape != (4, t.size):
            raise InvalidParameterError("need exactly four signals on the time grid")


@dataclass(frozen=True)
class ResponseRecord:
    """Objective values for one design.

    ``avgstiff`` maps component names to their average stiffness (kN/m); the
    scalar responses are peak crush force (kN), peak averaged intrusion (mm),
    total mass (kg), and specific energy absorption (J/kg).
    """

    f_p: float
    s_p: float
    mass: float
    sea: float
    avgstiff: dict

    def __post_init__(self):
        values = [self.f_p, self.s_p, self.mass, self.sea, *self.avgstiff.values()]
        if not all(map(math.isfinite, values)):
            raise InvalidParameterError("response values must be finite")
        if self.mass <= 0:
            raise InvalidParameterError("mass must be positive")

    def value(self, name: str) -> float:
        """Look up a response by its labelling-criteria name."""
        flat = {"F_p": self.f_p, "S_p": self.s_p, "M": self.mass, "SEA": self.sea}
        if name in flat:
            return flat[name]
        if name.startswith("avgstiff(") and name.endswith(")"):
            component = name[len("avgstiff(") : -1]
            if component in self.avgstiff:
                return self.avgstiff[component]
        raise InvalidParameterError(f"response {name!r} missing from record")


# --- the metric arithmetic, on one curve or on a batch of them ------------------------
#
# Each kernel works along the last axis, so the surrogate responder evaluates
# a whole design matrix with the same expressions the scalar metrics use.


def _absorbed_energy(u, force):
    """Area under each curve along the last axis, in kJ, by the trapezoid
    rule in ``np.trapezoid``'s operation order (numpy < 2 has no
    ``trapezoid``).  Each curve's terms are summed as a 1-D array of their
    own: ``sum(axis=-1)`` over a 2-D batch can add in another order (it does
    for a column-major one), and an area would then depend on its batch."""
    terms = np.diff(u) * (force[..., 1:] + force[..., :-1]) / 2.0
    sums = [row.sum() for row in terms.reshape(-1, terms.shape[-1])]
    return np.array(sums).reshape(terms.shape[:-1])


def _avgstiff(energy, final_deflection):
    return energy / (final_deflection * final_deflection)


def _sea(energy, mass):
    return energy * 1e3 / mass


def _peak_intrusion(signals):
    """Peak over time of the four-marker average, markers on the first axis."""
    return np.max(np.mean(signals, axis=0), axis=-1)


def avgstiff(curve: ForceDeflectionCurve) -> float:
    """Mean crush force over final deflection (kN/m): the curve integral
    divided by the squared final deflection."""
    d = curve.final_deflection
    if d <= 0:
        raise InvalidParameterError("degenerate curve: final deflection is zero")
    return _avgstiff(curve.absorbed_energy(), d)


def peak_force(forces: Sequence[float]) -> float:
    """Largest sampled force (kN) of a crush history."""
    forces = np.asarray(forces, dtype=float)
    if forces.size == 0:
        raise InvalidParameterError("empty force history")
    return float(np.max(forces))


def peak_intrusion(histories: IntrusionHistories) -> float:
    """Maximum over time of the four-marker average intrusion (mm)."""
    return float(_peak_intrusion(histories.signals))


def total_mass(masses: Sequence[float]) -> float:
    """Summed component masses (kg)."""
    if len(masses) == 0:
        raise InvalidParameterError("no component masses given")
    return float(_total(masses))


def sea(curve: ForceDeflectionCurve, mass: float) -> float:
    """Specific energy absorption (J/kg): absorbed energy per unit mass."""
    if mass <= 0:
        raise InvalidParameterError("mass must be positive")
    return _sea(curve.absorbed_energy(), mass)


def _read_finite(path, *header):
    """The number columns of a CSV with exactly ``header``, every value finite."""
    _, _, values, lines = read_csv(path, exact_header(*header))
    require_finite(path, values, lines, "value")
    return values


def load_curve(path) -> ForceDeflectionCurve:
    """Read a `u_m,F_kN` CSV.  A value that is not finite, or a curve that is
    not a valid ``ForceDeflectionCurve``, raises ``IngestionError`` naming
    the file."""
    values = _read_finite(path, "u_m", "F_kN")
    try:
        return ForceDeflectionCurve(values[:, 0], values[:, 1])
    except InvalidParameterError as exc:
        raise IngestionError(f"{path}: {exc}") from None


def load_histories(path) -> IntrusionHistories:
    """Read a `t_s,s1_mm,s2_mm,s3_mm,s4_mm` CSV.  A value that is not
    finite, or histories that are not valid ``IntrusionHistories``, raise
    ``IngestionError`` naming the file."""
    values = _read_finite(path, "t_s", "s1_mm", "s2_mm", "s3_mm", "s4_mm")
    try:
        return IntrusionHistories(values[:, 0], values[:, 1:].T.copy())
    except InvalidParameterError as exc:
        raise IngestionError(f"{path}: {exc}") from None

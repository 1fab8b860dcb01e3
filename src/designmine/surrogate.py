"""Analytic surrogate responder for exercising the pipeline at desk scale.

A surrogate spec declares, per component, the design variables with bounds,
smooth polynomial models (quadratics plus pairwise interactions) for the
physical quantities mass, peak force, final deflection, and intrusion, and
the labelling thresholds.  From those the responder synthesizes a
force-deflection curve and intrusion histories and derives all response
metrics through the same operations used on measured data, so responses are
deterministic functions of the design vector.  The responder evaluates a
whole design matrix in one pass, and a design's record is bit for bit the
one it gets evaluated alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .csvtext import read_json
from .errors import DesignMineError, IngestionError, InvalidParameterError
from .metrics import (
    ForceDeflectionCurve,
    IntrusionHistories,
    ResponseRecord,
    _absorbed_energy,
    _avgstiff,
    _peak_intrusion,
    _sea,
)
from .uncertain import LabelCriteria, load_criteria

__all__ = [
    "Polynomial",
    "ComponentSpec",
    "SurrogateSpec",
    "load_surrogate",
    "surrogate_curve",
    "surrogate_histories",
    "surrogate_respond",
    "surrogate_responses",
]

_MARKER_WEIGHTS = np.array([[0.9], [0.95], [1.05], [1.1]])


@dataclass(frozen=True)
class Polynomial:
    """const + sum(linear) + sum(quadratic) + sum(pairwise interactions)."""

    const: float = 0.0
    linear: tuple = ()
    quadratic: tuple = ()
    interactions: tuple = ()

    def evaluate(self, columns: Mapping[str, list], n: int) -> list:
        """The value at each of ``n`` designs, from the designs' columns of
        floats by variable name.  Each design's value is the sum of its terms
        in declaration order in Python float arithmetic: a square is
        ``v ** 2`` (libm ``pow``), which can differ in the last bit from the
        ``v * v`` numpy computes for ``a ** 2``."""
        value = [self.const] * n
        for name, c in self.linear:
            value = [v + c * x for v, x in zip(value, columns[name])]
        for name, c in self.quadratic:
            value = [v + c * x**2 for v, x in zip(value, columns[name])]
        for a, b, c in self.interactions:
            value = [v + c * xa * xb for v, xa, xb in zip(value, columns[a], columns[b])]
        return value


@dataclass(frozen=True)
class ComponentSpec:
    """One component's design problem: variables, response models, labelling."""

    name: str
    variables: tuple  # (name, lower, upper) triples
    mass: Polynomial
    peak: Polynomial
    deflection: Polynomial
    intrusion: Polynomial
    criteria: LabelCriteria
    curve_points: int = 65
    ramp_fraction: float = 0.25
    history_points: int = 40
    duration_s: float = 0.09

    @property
    def variable_names(self) -> tuple:
        return tuple(name for name, _, _ in self.variables)

    def bounds(self) -> list:
        return [(lo, hi) for _, lo, hi in self.variables]


@dataclass(frozen=True)
class SurrogateSpec:
    name: str
    version: int
    components: tuple

    def component(self, name: str) -> ComponentSpec:
        for comp in self.components:
            if comp.name == name:
                return comp
        raise InvalidParameterError(f"no component {name!r} in surrogate {self.name!r}")


# --- the responder: one pass over a design matrix, one design per row -------------

#: The checks of the responder: the polynomials each reads, and its message
#: for a design where one of them is not positive.
_CHECKS = {
    "mass": (("mass",), "non-physical mass {} kg"),
    "curve": (("peak", "deflection"), "non-physical curve (peak {} kN, deflection {} m)"),
    "intrusion": (("intrusion",), "non-physical intrusion {} mm"),
}


def _columns(comp: ComponentSpec, design) -> dict:
    """Each variable's column of a design matrix, by name, as floats.  A
    matrix of the wrong width, or a value outside its variable's bounds,
    raises ``InvalidParameterError`` for the first such row."""
    x = np.asarray(design, dtype=float)
    if x.ndim != 2 or x.shape[1] != len(comp.variables):
        raise InvalidParameterError(
            f"{comp.name}: expected {len(comp.variables)} variables, got {x.shape[-1]}"
        )
    for row in x.tolist():
        for (name, lo, hi), v in zip(comp.variables, row):
            if not lo <= v <= hi:
                raise InvalidParameterError(f"{comp.name}: {name}={v} outside bounds [{lo}, {hi}]")
    return dict(zip(comp.variable_names, x.T.tolist()))


def _physical(comp: ComponentSpec, design, checks) -> dict:
    """The polynomials that ``checks`` read, by name, each an array over the
    rows of a design matrix.  The first row where one of them is not
    positive raises ``InvalidParameterError`` with the message of the first
    check it fails."""
    columns = _columns(comp, design)
    n = len(design)
    names = [name for check in checks for name in _CHECKS[check][0]]
    values = np.array([getattr(comp, name).evaluate(columns, n) for name in names])
    bad = values <= 0
    if bad.any():
        row = dict(zip(names, values[:, bad.any(axis=0).argmax()].tolist()))
        for check in checks:
            polynomials, message = _CHECKS[check]
            if any(row[name] <= 0 for name in polynomials):
                found = message.format(*(row[name] for name in polynomials))
                raise InvalidParameterError(f"{comp.name}: {found}")
    return dict(zip(names, values))


def _grid(stop, points: int):
    """``np.linspace(0, stop, points)`` along a new last axis, for a scalar
    or an array of ``stop`` values: numpy's arithmetic (point i is i times
    ``stop / (points - 1)``, the last one exactly ``stop``) without its
    per-call cost."""
    stop = np.asarray(stop, dtype=float)[..., None]
    grid = np.arange(points) * (stop / (points - 1))
    grid[..., -1:] = stop
    return grid


def _curves(comp: ComponentSpec, f_peak, d):
    """(n, points) deflection and force grids of ramp-plateau crush curves:
    the force rises linearly to its peak over the first ``ramp_fraction`` of
    the deflection, then holds."""
    u = _grid(d, comp.curve_points)
    force = f_peak[:, None] * np.clip(u / (comp.ramp_fraction * d)[:, None], 0.0, 1.0)
    return u, force


def _histories(comp: ComponentSpec, s_final):
    """The time grid and (4, n, points) intrusion signals: per design, four
    smoothstep marker signals rising to weighted copies of its intrusion
    value, whose four-marker average peaks at exactly that value."""
    t = _grid(comp.duration_s, comp.history_points)
    tau = t / comp.duration_s
    shape = 3.0 * tau**2 - 2.0 * tau**3
    return t, (_MARKER_WEIGHTS * s_final)[:, :, None] * shape


def surrogate_responses(design, comp: ComponentSpec) -> list:
    """One response record per row of a design matrix, derived from the
    designs' synthetic curves and histories through the standard metric
    arithmetic.  A record depends on its own row only."""
    values = _physical(comp, design, ("mass", "curve", "intrusion"))
    mass, d = values["mass"], values["deflection"]
    u, force = _curves(comp, values["peak"], d)
    _, signals = _histories(comp, values["intrusion"])
    energy = _absorbed_energy(u, force)
    rows = zip(
        force.max(axis=1).tolist(),
        _peak_intrusion(signals).tolist(),
        mass.tolist(),
        _sea(energy, mass).tolist(),
        _avgstiff(energy, d).tolist(),
    )
    return [
        ResponseRecord(f_p=f_p, s_p=s_p, mass=m, sea=e, avgstiff={comp.name: k})
        for f_p, s_p, m, e, k in rows
    ]


def surrogate_respond(x: Sequence[float], comp: ComponentSpec) -> ResponseRecord:
    """Full response record for one design vector: ``surrogate_responses``
    of a one-row design matrix."""
    return surrogate_responses([x], comp)[0]


def surrogate_curve(x: Sequence[float], comp: ComponentSpec) -> ForceDeflectionCurve:
    """The ramp-plateau crush curve of one design vector."""
    values = _physical(comp, [x], ("curve",))
    u, force = _curves(comp, values["peak"], values["deflection"])
    return ForceDeflectionCurve(u[0], force[0])


def surrogate_histories(x: Sequence[float], comp: ComponentSpec) -> IntrusionHistories:
    """The four marker intrusion histories of one design vector."""
    t, signals = _histories(comp, _physical(comp, [x], ("intrusion",))["intrusion"])
    return IntrusionHistories(t, signals[:, 0])


# --- spec file parsing --------------------------------------------------------


#: The polynomials of a component: its field and the key of ``responses``.
_RESPONSES = (
    ("mass", "mass"), ("peak", "peak_force"), ("deflection", "deflection"), ("intrusion", "intrusion")
)


def _polynomial(data, where: str) -> Polynomial:
    if data is None:
        raise IngestionError(f"{where} is missing")
    return Polynomial(
        const=float(data.get("const", 0.0)),
        linear=tuple((str(k), float(v)) for k, v in data.get("linear", {}).items()),
        quadratic=tuple((str(k), float(v)) for k, v in data.get("quadratic", {}).items()),
        interactions=tuple(
            (str(a), str(b), float(c)) for a, b, c in data.get("interactions", [])
        ),
    )


def _check_model(comp: ComponentSpec, origin: str) -> None:
    """Finite, ordered variable bounds, responses with finite coefficients
    whose terms read only declared variables, and criteria that name only
    responses the responder gives."""
    where = f"{origin}component {comp.name!r}"
    for name, lo, hi in comp.variables:
        if not -np.inf < lo < hi < np.inf:
            raise IngestionError(
                f"{where}: variable {name!r} has bounds [{lo}, {hi}], must be finite with lower < upper"
            )
    declared = set(comp.variable_names)
    for field, key in _RESPONSES:
        poly = getattr(comp, field)
        names = [t[0] for t in poly.linear + poly.quadratic] + [n for t in poly.interactions for n in t[:2]]
        for name in names:
            if name not in declared:
                raise IngestionError(f"{where}: response {key!r} names undeclared variable {name!r}")
        coefficients = [poly.const] + [t[-1] for t in poly.linear + poly.quadratic + poly.interactions]
        if not np.isfinite(coefficients).all():
            raise IngestionError(f"{where}: response {key!r} has a coefficient that is not finite")
    given = ("F_p", "S_p", "M", "SEA", f"avgstiff({comp.name})")
    for name in comp.criteria.response_names:
        if name not in given:
            raise IngestionError(
                f"{where}: criteria name response {name!r}, not one the responder gives ({', '.join(given)})"
            )


def _check_grids(comp: ComponentSpec, origin: str) -> None:
    """The curve and histories settings the responder's grids rely on."""
    for field, value, ok, rule in (
        ("curve.ramp_fraction", comp.ramp_fraction, 0.0 < comp.ramp_fraction <= 1.0, "in (0, 1]"),
        ("curve.points", comp.curve_points, comp.curve_points >= 2, "at least 2"),
        ("histories.points", comp.history_points, comp.history_points >= 2, "at least 2"),
        ("histories.duration_s", comp.duration_s, 0.0 < comp.duration_s < np.inf, "finite and positive"),
    ):
        if not ok:
            raise IngestionError(f"{origin}component {comp.name!r}: {field} is {value}, must be {rule}")


def _component(data, origin: str) -> ComponentSpec:
    try:
        variables = tuple(
            (str(v["name"]), float(v["lower"]), float(v["upper"]))
            for v in data["variables"]
        )
        responses = data["responses"]
        curve = data.get("curve", {})
        histories = data.get("histories", {})
        name = str(data["name"])
        where = f"{origin}component {name!r}"
        if not isinstance(data["criteria"], dict):  # a string would be read as a criteria file
            raise TypeError(f"criteria must be an object, got {type(data['criteria']).__name__}")
        try:
            criteria = load_criteria(data["criteria"])
        except DesignMineError as exc:  # keeps the criteria error's type, and so its exit code
            raise type(exc)(f"{where}: {exc}") from exc
        comp = ComponentSpec(
            name=name,
            variables=variables,
            **{
                field: _polynomial(responses.get(key), f"{where}: response {key!r}")
                for field, key in _RESPONSES
            },
            criteria=criteria,
            curve_points=int(curve.get("points", 65)),
            ramp_fraction=float(curve.get("ramp_fraction", 0.25)),
            history_points=int(histories.get("points", 40)),
            duration_s=float(histories.get("duration_s", 0.09)),
        )
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise IngestionError(f"{origin}malformed surrogate component: {exc}") from exc
    _check_model(comp, origin)
    _check_grids(comp, origin)
    return comp


def load_surrogate(source) -> SurrogateSpec:
    """Read a surrogate spec from a JSON file path or a parsed dict.  A spec
    the responder cannot use (a malformed component, a response term on an
    undeclared variable, a coefficient or bound that is not finite, criteria
    on a response it does not give, curve or histories settings out of
    range) raises ``IngestionError`` naming the file, and the component and
    field where there is one."""
    is_path = isinstance(source, (str, bytes)) or hasattr(source, "__fspath__")
    data = read_json(source) if is_path else source
    origin = f"{source}: " if is_path else ""
    try:
        return SurrogateSpec(
            name=str(data["name"]),
            version=int(data.get("version", 1)),
            components=tuple(_component(c, origin) for c in data["components"]),
        )
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise IngestionError(f"{origin}malformed surrogate spec: {exc}") from exc

"""Analytic surrogate responder for exercising the pipeline at desk scale.

A surrogate spec declares, per component, the design variables with bounds,
smooth polynomial models (quadratics plus pairwise interactions) for the
physical quantities mass, peak force, final deflection, and intrusion, and
the labelling thresholds.  From those the responder synthesizes a
force-deflection curve and intrusion histories and derives all response
metrics through the same operations used on measured data, so responses are
deterministic functions of the design vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .csvtext import read_json
from .errors import IngestionError, InvalidParameterError
from .metrics import (
    ForceDeflectionCurve,
    IntrusionHistories,
    ResponseRecord,
    avgstiff,
    peak_force,
    peak_intrusion,
    sea,
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
]

_MARKER_WEIGHTS = (0.9, 0.95, 1.05, 1.1)


@dataclass(frozen=True)
class Polynomial:
    """const + sum(linear) + sum(quadratic) + sum(pairwise interactions)."""

    const: float = 0.0
    linear: tuple = ()
    quadratic: tuple = ()
    interactions: tuple = ()

    def evaluate(self, x: Mapping[str, float]) -> float:
        value = self.const
        for name, c in self.linear:
            value += c * x[name]
        for name, c in self.quadratic:
            value += c * x[name] ** 2
        for a, b, c in self.interactions:
            value += c * x[a] * x[b]
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

    def check_inside(self, x: Sequence[float]) -> dict:
        if len(x) != len(self.variables):
            raise InvalidParameterError(
                f"{self.name}: expected {len(self.variables)} variables, got {len(x)}"
            )
        values = {}
        for (name, lo, hi), v in zip(self.variables, x):
            if not lo <= v <= hi:
                raise InvalidParameterError(
                    f"{self.name}: {name}={v} outside bounds [{lo}, {hi}]"
                )
            values[name] = float(v)
        return values


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


def surrogate_curve(x: Sequence[float], comp: ComponentSpec) -> ForceDeflectionCurve:
    """Ramp-plateau crush curve: force rises linearly to its peak over the
    first ``ramp_fraction`` of the deflection, then holds."""
    values = comp.check_inside(x)
    f_peak = comp.peak.evaluate(values)
    d = comp.deflection.evaluate(values)
    if f_peak <= 0 or d <= 0:
        raise InvalidParameterError(
            f"{comp.name}: non-physical curve (peak {f_peak} kN, deflection {d} m)"
        )
    u = np.linspace(0.0, d, comp.curve_points)
    force = f_peak * np.clip(u / (comp.ramp_fraction * d), 0.0, 1.0)
    return ForceDeflectionCurve(u, force)


def surrogate_histories(x: Sequence[float], comp: ComponentSpec) -> IntrusionHistories:
    """Four smoothstep marker signals rising to weighted copies of the
    intrusion value; their four-marker average peaks at exactly that value."""
    values = comp.check_inside(x)
    s_final = comp.intrusion.evaluate(values)
    if s_final <= 0:
        raise InvalidParameterError(f"{comp.name}: non-physical intrusion {s_final} mm")
    t = np.linspace(0.0, comp.duration_s, comp.history_points)
    tau = t / comp.duration_s
    shape = 3.0 * tau**2 - 2.0 * tau**3
    signals = np.stack([w * s_final * shape for w in _MARKER_WEIGHTS])
    return IntrusionHistories(t, signals)


def surrogate_respond(x: Sequence[float], comp: ComponentSpec) -> ResponseRecord:
    """Full response record for one design vector, derived from the synthetic
    curve and histories through the standard metric operations."""
    values = comp.check_inside(x)
    mass = comp.mass.evaluate(values)
    if mass <= 0:
        raise InvalidParameterError(f"{comp.name}: non-physical mass {mass} kg")
    curve = surrogate_curve(x, comp)
    histories = surrogate_histories(x, comp)
    return ResponseRecord(
        f_p=peak_force(curve.force),
        s_p=peak_intrusion(histories),
        mass=mass,
        sea=sea(curve, mass),
        avgstiff={comp.name: avgstiff(curve)},
    )


# --- spec file parsing --------------------------------------------------------


def _polynomial(data) -> Polynomial:
    if data is None:
        raise IngestionError("missing polynomial definition")
    return Polynomial(
        const=float(data.get("const", 0.0)),
        linear=tuple((str(k), float(v)) for k, v in data.get("linear", {}).items()),
        quadratic=tuple((str(k), float(v)) for k, v in data.get("quadratic", {}).items()),
        interactions=tuple(
            (str(a), str(b), float(c)) for a, b, c in data.get("interactions", [])
        ),
    )


def _component(data) -> ComponentSpec:
    try:
        variables = tuple(
            (str(v["name"]), float(v["lower"]), float(v["upper"]))
            for v in data["variables"]
        )
        responses = data["responses"]
        curve = data.get("curve", {})
        histories = data.get("histories", {})
        return ComponentSpec(
            name=str(data["name"]),
            variables=variables,
            mass=_polynomial(responses.get("mass")),
            peak=_polynomial(responses.get("peak_force")),
            deflection=_polynomial(responses.get("deflection")),
            intrusion=_polynomial(responses.get("intrusion")),
            criteria=load_criteria(data["criteria"]),
            curve_points=int(curve.get("points", 65)),
            ramp_fraction=float(curve.get("ramp_fraction", 0.25)),
            history_points=int(histories.get("points", 40)),
            duration_s=float(histories.get("duration_s", 0.09)),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise IngestionError(f"malformed surrogate component: {exc}") from exc


def load_surrogate(source) -> SurrogateSpec:
    """Read a surrogate spec from a JSON file path or a parsed dict."""
    is_path = isinstance(source, (str, bytes)) or hasattr(source, "__fspath__")
    data = read_json(source) if is_path else source
    try:
        return SurrogateSpec(
            name=str(data["name"]),
            version=int(data.get("version", 1)),
            components=tuple(_component(c) for c in data["components"]),
        )
    except (AttributeError, KeyError, TypeError) as exc:
        raise IngestionError(f"malformed surrogate spec: {exc}") from exc

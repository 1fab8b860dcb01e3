"""The surrogate responder over a design matrix against the per-design
reference (``_oracles.oracle_respond``): records, curves and histories equal
bit for bit, in a batch and one design at a time, and the same errors."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from designmine.cli import bundled_surrogate_text
from designmine.doe import SamplingPlan, lhs
from designmine.errors import InvalidParameterError
from designmine.metrics import _absorbed_energy
from designmine.surrogate import (
    load_surrogate,
    surrogate_curve,
    surrogate_histories,
    surrogate_respond,
    surrogate_responses,
)

from _oracles import oracle_curve, oracle_histories, oracle_respond
from test_metrics import MINI_SPEC, quadratic_spec

PARITY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

CRITERIA = {"good": [["M", "<=", 2.0]], "poor": [["M", ">", 3.0]]}


def component(variables, responses, **settings_):
    """The one component of a spec built from its variables and responses."""
    data = {
        "name": "X",
        "variables": [{"name": n, "lower": lo, "upper": hi} for n, lo, hi in variables],
        "responses": responses,
        "criteria": CRITERIA,
        **settings_,
    }
    return load_surrogate({"name": "test", "components": [data]}).components[0]


#: Mass is the square of ``a``; interaction terms; a square of ``b``, which
#: crosses zero; curve and histories settings away from their defaults.
COUPLED = component(
    [("a", 1.0, 2.0), ("b", -1.0, 1.0)],
    {
        "mass": {"quadratic": {"a": 1.0}},
        "peak_force": {
            "const": 30.0, "linear": {"a": 5.0}, "quadratic": {"b": -2.0},
            "interactions": [["a", "b", 1.5]],
        },
        "deflection": {"const": 0.1, "linear": {"a": 0.05}, "interactions": [["a", "b", 0.01]]},
        "intrusion": {"const": 20.0, "quadratic": {"b": 3.0}},
    },
    curve={"points": 9, "ramp_fraction": 1.0},
    histories={"points": 2, "duration_s": 0.05},
)

#: Mass is not positive for a < -0.5, the peak force for a > 0.5 and the
#: intrusion for b < -0.5.
FRAGILE = component(
    [("a", -1.0, 1.0), ("b", -1.0, 1.0)],
    {
        "mass": {"const": 1.0, "linear": {"a": 2.0}},
        "peak_force": {"const": 10.0, "linear": {"a": -20.0}},
        "deflection": {"const": 0.1},
        "intrusion": {"const": 5.0, "linear": {"b": 10.0}},
    },
)

BUNDLED = load_surrogate(json.loads(bundled_surrogate_text())).components
COMPONENTS = (*BUNDLED, load_surrogate(MINI_SPEC).components[0], quadratic_spec().components[0], COUPLED)


@st.composite
def designs(draw):
    """A component and 1-40 designs inside its bounds, bounds included."""
    comp = draw(st.sampled_from(COMPONENTS))
    row = st.tuples(*(st.floats(lo, hi) for lo, hi in comp.bounds()))
    return comp, np.array(draw(st.lists(row, min_size=1, max_size=40)))


@PARITY
@given(designs())
def test_batch_one_row_and_reference_are_equal(case):
    comp, design = case
    expected = [oracle_respond(x, comp) for x in design]
    assert surrogate_responses(design, comp) == expected
    assert [surrogate_respond(x, comp) for x in design] == expected
    curve, reference = surrogate_curve(design[0], comp), oracle_curve(design[0], comp)
    assert np.array_equal(curve.u, reference.u) and np.array_equal(curve.force, reference.force)
    histories, reference = surrogate_histories(design[0], comp), oracle_histories(design[0], comp)
    assert np.array_equal(histories.t, reference.t)
    assert np.array_equal(histories.signals, reference.signals)


def test_a_square_is_pythons_pow_not_a_product():
    """COUPLED's mass is a**2 exactly; pick an ``a`` whose ``a ** 2`` (libm
    ``pow``) and ``a * a`` differ (about one draw in a thousand), so numpy's
    ``a ** 2`` would move it."""
    a = next(v for v in np.random.default_rng(0).uniform(1.0, 2.0, 100_000).tolist() if v**2 != v * v)
    design = np.array([[a, 0.5], [1.5, -0.25]])
    records = surrogate_responses(design, COUPLED)
    assert records[0].mass == a**2 != a * a
    assert records == [oracle_respond(x, COUPLED) for x in design]


def test_each_area_is_summed_as_its_own_row():
    """The curves of the seed-7 demo's first DOE, laid out column-major (as
    ``np.linspace(0, d, points, axis=1)`` leaves them): ``sum(axis=1)`` adds
    their trapezoid terms in another order than each curve alone, and an
    area must not depend on the layout of the batch it is in."""
    comp = BUNDLED[0]
    design = lhs(SamplingPlan(tuple(comp.bounds()), 150, 7000))
    curves = [oracle_curve(x, comp) for x in design]
    alone = [float((np.diff(c.u) * (c.force[1:] + c.force[:-1]) / 2.0).sum()) for c in curves]
    u, force = (np.asfortranarray([getattr(c, name) for c in curves]) for name in ("u", "force"))
    terms = np.diff(u) * (force[:, 1:] + force[:, :-1]) / 2.0
    assert (terms.sum(axis=1) != alone).any()
    assert _absorbed_energy(u, force).tolist() == alone
    assert surrogate_responses(design, comp) == [oracle_respond(x, comp) for x in design]


def error_of(call):
    """The message ``call()`` raises, or None."""
    try:
        call()
    except InvalidParameterError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize(
    "x",
    [[-0.9, 0.0], [0.9, 0.0], [0.0, -0.9], [-0.9, -0.9], [0.9, -0.9], [1.5, 0.0], [0.0, float("nan")],
     [0.0, 0.0, 0.0], [0.0, 0.0]],
)
def test_one_design_fails_as_the_reference_does(x):
    """Non-physical mass, curve and intrusion, in the reference's order of
    checks; a value outside its bounds or NaN; a vector of the wrong length."""
    for respond, reference in (
        (surrogate_respond, oracle_respond),
        (surrogate_curve, oracle_curve),
        (surrogate_histories, oracle_histories),
    ):
        assert error_of(lambda: respond(x, FRAGILE)) == error_of(lambda: reference(x, FRAGILE))


def test_a_batch_fails_at_its_first_failing_design():
    design = [[0.0, 0.0], [0.9, -0.9], [-0.9, 0.0]]
    expected = error_of(lambda: oracle_respond(design[1], FRAGILE))
    assert expected and error_of(lambda: surrogate_responses(design, FRAGILE)) == expected

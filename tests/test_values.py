"""The value types and the readers every caller input goes through.

Seven value types share one frozen base: equality and hashing from one key,
copy, deepcopy and pickle.  Every number handed to a constructor, to the
scalar operations or to the points writer is read by one reader per kind
(a real, a count, an array), and whatever it cannot read is a typed error.
"""

import copy
import math
import pickle
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from helpers import EQUALITY_ORACLES
from hypothesis import event, given, settings
from hypothesis import strategies as st

from tropikit import (
    MAXPLUS,
    MINPLUS,
    GenPolynomial,
    Graph,
    IntervalMatrix,
    IntervalValue,
    Polytope,
    SampledFunction,
    SemiringMatrix,
    TropikitError,
    add,
    deformed_add,
    deformed_spec,
    interval_adjacency,
    leq,
    mul,
)
from tropikit.fileio import format_points

INF = math.inf

# --- copy, deepcopy and pickle ----------------------------------------------------

VALUES = {
    "SemiringMatrix": lambda: SemiringMatrix([[1.0, -0.0], [INF, 2.5]], MINPLUS),
    "IntervalValue": lambda: IntervalValue(3.0, 1.0, MINPLUS),
    "IntervalMatrix": lambda: IntervalMatrix.from_numeric([[1.0, INF]], [[2.0, 0.5]], MINPLUS),
    "Graph": lambda: Graph(3, [(0, 1, 2.5), (2, 0, -1.0)]),
    "SampledFunction": lambda: SampledFunction(-1.0, 0.5, [0.0, -INF, 2.0], "maxplus"),
    "GenPolynomial": lambda: GenPolynomial(2, [(1.5, (1, 2)), (-2, ("1/2", 0))]),
    "Polytope": lambda: Polytope(2, [(0, 0), (2, 0), (0, "3/2"), (1, "1/2")]),
}
# a spec holds lambdas, so only the values without one are pickled
PICKLED = ("Graph", "SampledFunction", "GenPolynomial", "Polytope")


def _arrays(x):
    """Every array a value holds, nested values included."""
    for name in type(x).__slots__:
        field = getattr(x, name)
        if isinstance(field, np.ndarray):
            yield field
        elif isinstance(field, (SemiringMatrix, IntervalMatrix)):
            yield from _arrays(field)


@pytest.mark.parametrize("name", list(VALUES))
def test_copies_are_equal_frozen_values(name):
    x = VALUES[name]()
    copies = [copy.copy(x), copy.deepcopy(x)]
    if name in PICKLED:
        copies.append(pickle.loads(pickle.dumps(x)))
    for c in copies:
        assert type(c) is type(x) and c == x and repr(c) == repr(x)
        if name != "Polytope":  # unhashable: equal polytopes may list other points
            assert hash(c) == hash(x)
        assert all(not a.flags.writeable for a in _arrays(c))
        with pytest.raises(FrozenInstanceError):
            setattr(c, type(x).__slots__[0], None)


def test_deepcopy_does_not_share_arrays():
    x = VALUES["SemiringMatrix"]()
    assert not np.shares_memory(copy.deepcopy(x).data, x.data)


# --- equality and hashing against the parent's rules -------------------------------

_POOL = [0.0, -0.0, 1.0, 2.5, -3.0]


def _matrix(draw, spec):
    rows, cols = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    pool = st.sampled_from(_POOL + [spec.zero])
    return np.array([draw(pool) for _ in range(rows * cols)]).reshape(rows, cols)


@st.composite
def _semiring_matrix(draw):
    spec = draw(st.sampled_from([MINPLUS, MAXPLUS]))
    return SemiringMatrix(_matrix(draw, spec), spec)


@st.composite
def _interval_value(draw):
    spec = draw(st.sampled_from([MINPLUS, MAXPLUS]))
    pool = st.sampled_from(_POOL + [spec.zero])
    return IntervalValue.from_numeric(draw(pool), draw(pool), spec)


@st.composite
def _interval_matrix(draw):
    a = _matrix(draw, MINPLUS)
    b = np.array([draw(st.sampled_from(_POOL + [INF])) for _ in range(a.size)]).reshape(a.shape)
    return IntervalMatrix.from_numeric(a, b, MINPLUS)


@st.composite
def _graph(draw):
    n = draw(st.integers(1, 2))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from(_POOL))
    return Graph(n, draw(st.lists(edge, max_size=2)))


@st.composite
def _sampled_function(draw):
    convention = draw(st.sampled_from(["maxplus", "minplus"]))
    values = draw(st.lists(st.sampled_from(_POOL), min_size=1, max_size=2))
    return SampledFunction(draw(st.sampled_from([0.0, -0.0, 1.0])), draw(st.sampled_from([1, 0.5])),
                           values, convention)


@st.composite
def _gen_polynomial(draw):
    n = draw(st.integers(1, 2))
    exps = draw(st.lists(st.tuples(*[st.sampled_from([0, 1, "1/2"])] * n), min_size=1, max_size=2,
                         unique_by=lambda d: tuple(map(str, d))))
    coefs = st.sampled_from([1, 1.0, -2.5, 3])
    return GenPolynomial(n, [(draw(coefs), d) for d in exps])


_MAKERS = {
    SemiringMatrix: _semiring_matrix(),
    IntervalValue: _interval_value(),
    IntervalMatrix: _interval_matrix(),
    Graph: _graph(),
    SampledFunction: _sampled_function(),
    GenPolynomial: _gen_polynomial(),
}


@pytest.mark.parametrize("kind", list(_MAKERS), ids=[k.__name__ for k in _MAKERS])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_equality_and_hashing_are_the_parents(kind, data):
    # small pools make equal pairs common; -0.0 and 0.0 are one value
    x = data.draw(_MAKERS[kind])
    y = data.draw(st.one_of(st.just(copy.copy(x)), _MAKERS[kind]))
    eq, hash_ = EQUALITY_ORACLES[kind]
    event("equal" if eq(x, y) else "unequal")
    assert (x == y) is eq(x, y) and (x != y) is (not eq(x, y))
    assert hash(x) == hash_(x) and hash(y) == hash_(y)
    others = [data.draw(make) for k, make in _MAKERS.items() if k is not kind]
    for other in [None, 1.0, "x", kind, *others]:  # another type is never equal
        assert (x == other) is False and (x != other) is True


# --- junk at every entry point ----------------------------------------------------

_SCALAR_JUNK = st.one_of(
    st.text(max_size=4),
    st.none(),
    st.booleans(),
    st.integers(2**63, 2**80),
    st.just(10**400),
    st.complex_numbers(max_magnitude=10),
    st.builds(object),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)
# numbers only inside lists: a bare one may be a valid count, and a large
# valid count would be allocated
_LEAF = st.one_of(st.floats(), st.integers(-3, 3), _SCALAR_JUNK)
JUNK = st.one_of(
    _SCALAR_JUNK,
    st.lists(st.recursive(_LEAF, lambda inner: st.lists(inner, max_size=3), max_leaves=6),
             max_size=3),  # nested, often ragged
    st.sampled_from([[[1.0], [1.0, 2.0]], [[1.0, 2.0], 3.0], [(0, 1)], [(0, 1, 2.0, 3.0, 4.0)], [[]], []]),
)

_S = SemiringMatrix([[1.0]], MINPLUS)
# entry point -> its valid arguments; each call replaces one of them by junk
ENTRY_POINTS = {
    "SemiringMatrix": (SemiringMatrix, ([[1.0, 2.0]], MINPLUS), 1),
    "SemiringMatrix.zeros": (SemiringMatrix.zeros, (2, 3, MINPLUS), 2),
    "SemiringMatrix.identity": (SemiringMatrix.identity, (2, MAXPLUS), 1),
    "IntervalValue": (IntervalValue, (1.0, 2.0, MAXPLUS), 2),
    "IntervalValue.from_numeric": (IntervalValue.from_numeric, (2.0, 1.0, MAXPLUS), 2),
    "IntervalValue.contains": (IntervalValue(1.0, 2.0, MAXPLUS).contains, (1.5,), 1),
    "IntervalMatrix": (IntervalMatrix, (_S, _S), 2),
    "IntervalMatrix.from_arrays": (IntervalMatrix.from_arrays, ([[1.0]], [[0.5]], MINPLUS), 2),
    "IntervalMatrix.from_numeric": (IntervalMatrix.from_numeric, ([[1.0]], [[0.5]], MINPLUS), 2),
    "Graph": (Graph, (3, [(0, 1, 1.0)]), 2),
    "SampledFunction": (SampledFunction, (0.0, 1.0, [0.0, 1.0], "minplus"), 4),
    "GenPolynomial": (GenPolynomial, (2, [(1.0, (1, 0)), (-2, ("1/2", 3))]), 2),
    "GenPolynomial.term": (lambda c, d: GenPolynomial(2, [(c, d)]), (1.0, (1, 2)), 2),
    "Polytope": (Polytope, (2, [(0, 0), (1, "1/2")]), 2),
    "Polytope.point": (lambda p: Polytope(2, [(0, 0), p]), ((1, 2),), 1),
    "add": (add, (1.0, 2.0, MINPLUS), 2),
    "mul": (mul, (1.0, 2.0, MAXPLUS), 2),
    "leq": (leq, (1.0, 2.0, MINPLUS), 2),
    "interval_adjacency": (interval_adjacency, (3, [(0, 1, 1.0, 2.0)], MINPLUS), 2),
    "deformed_add": (deformed_add, (0.0, 1.0, 0.5), 3),
    "deformed_spec": (deformed_spec, (0.5,), 1),
    "format_points": (format_points, ([[0.0, 1.0]],), 1),
}


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_junk_is_a_value_or_a_typed_error(name, data):
    call, args, junkable = ENTRY_POINTS[name]
    args = list(args)
    at = data.draw(st.integers(0, junkable - 1))
    args[at] = data.draw(JUNK)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(*args)
        except TropikitError as e:
            event(type(e).__name__)
            return
    event("value")


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_entry_points_take_their_valid_arguments(name):
    call, args, _ = ENTRY_POINTS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(*args)

"""Idempotent semirings on the extended reals and the deformation of addition.

Every instance is a :class:`SemiringSpec` describing the carrier set, the two
operations, and the neutral elements.  The built-in instances are

* ``bool``      ({0, 1}, or, and)
* ``maxplus``   (R u {-inf}, max, +), zero = -inf, one = 0
* ``minplus``   (R u {+inf}, min, +), zero = +inf, one = 0
* ``maxmin``    (R u {-inf, +inf}, max, min), zero = -inf, one = +inf
* ``nonneg``    (R+, +, *), the classical reference point; not idempotent
* ``deformed:<h>``  (R u {-inf}, add_h, +) for h > 0: the interpolating family
  whose h -> 0 limit is maxplus and whose h = 1 member is classical addition
  carried through the logarithm

Operations of the built-in specs accept floats or numpy arrays.  Values are
plain float64; -0.0 is normalized to +0.0 so equality can be bitwise.
"""

from __future__ import annotations

import math
import reprlib
import sys
from contextlib import contextmanager
from dataclasses import FrozenInstanceError, dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NotIdempotent, OutOfMemory, ShapeMismatch, SpecMismatch

NEG_INF = float("-inf")
POS_INF = float("inf")


class _Frozen:
    """Base of the value types.  __init__ validates its arguments and sets
    the fields through _set; afterwards assignment or deletion raises
    FrozenInstanceError.  Two values are equal, and hash alike, when they
    have the same type and the same _key(); copy, deepcopy and pickle
    restore the fields through _set, and a copied array read-only again."""

    __slots__ = ()

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __setstate__(self, state):  # (None, {slot: value}), from object.__reduce_ex__
        for value in state[1].values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        self._set(**state[1])

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


_REPR = reprlib.Repr()
_REPR.maxlevel, _REPR.maxstring, _REPR.maxother = 2, 40, 40
_SHORT = 80


def _short(x) -> str:
    """repr(x) for an error message, at most _SHORT characters: reprlib cuts
    each long part, and the whole is cut after it.  An int too long for
    repr (past sys.get_int_max_str_digits) is named by its type."""
    try:
        r = _REPR.repr(x)
    except ValueError:
        r = f"<{type(x).__name__} too long to print>"
    return r if len(r) <= _SHORT else r[:_SHORT - 3] + "..."


def _real(x, what: str) -> float:
    """float(x), or DomainError for a bool, as _count refuses one, and for
    a value float cannot read."""
    if not isinstance(x, (bool, np.bool_)):
        try:
            return float(x)
        except (TypeError, ValueError, OverflowError):
            pass
    raise DomainError(f"cannot read {what} {_short(x)} as a real")


def _positive_finite(x, what: str) -> float:
    """_real(x), if it is positive and finite; else DomainError."""
    x = _real(x, what)
    if 0 < x <= sys.float_info.max:
        return x
    raise DomainError(f"{what} must be a positive finite real, got {_short(x)}")


def _count(x, what: str, least: int = 1) -> int:
    whole = isinstance(x, (int, np.integer)) or (isinstance(x, float) and x.is_integer())
    if whole and not isinstance(x, bool) and x >= least:
        return int(x)
    raise DomainError(f"{what} must be an integer >= {least}, got {_short(x)}")


def _floats(x, what: str, ndim=None, form=None) -> np.ndarray:
    """x read into one new C-ordered float64 array.  ShapeMismatch, saying
    what must be form (by default "<ndim>-D"), if x is ragged or has not
    ndim dimensions; DomainError for entries that are not real numbers."""
    form = form or (f"{ndim}-D" if ndim else "an array")
    try:
        a = np.array(x, dtype=float, order="C")
    except (TypeError, ValueError, OverflowError):
        try:
            np.shape(x)
        except ValueError:
            raise ShapeMismatch(f"{what} must be {form}, got a ragged list") from None
        raise DomainError(f"{what} must be real numbers") from None
    if ndim and a.ndim != ndim:
        raise ShapeMismatch(f"{what} must be {form}, got shape {a.shape}")
    return a


def _allocatable(message: str, *shape) -> None:
    """OutOfMemory(message) unless numpy can index a float64 or int64 array
    of this shape, checked before anything is allocated: numpy refuses one
    whose bytes overflow its index type, but near 2**63 elements np.arange
    returns an empty array instead."""
    limit = np.iinfo(np.intp).max
    if max(shape) > limit or 8 * math.prod(shape) > limit:
        raise OutOfMemory(message)


def deformed_add(u, v, h):
    """h-deformed sum  u (+)_h v = h*ln(exp(u/h) + exp(v/h)).

    Computed as max(u,v) + h*log1p(exp(-|u-v|/h)), which overflows only
    where the sum itself is beyond float64 (DomainError), and returns
    exactly max(u,v) + h*ln(2) when u == v.  Accepts scalars or arrays in
    the carrier R u {-inf} (a NaN or +inf operand is a DomainError); -inf is
    neutral and never produces a NaN.
    """
    h = _positive_finite(h, "deformation parameter")
    ua, va = _floats(u, "deformed sum operands"), _floats(v, "deformed sum operands")
    if not (_contains_maxplus(ua).all() and _contains_maxplus(va).all()):
        raise DomainError("deformed sum operands must lie in R u {-inf}")
    try:
        hi, lo = np.maximum(ua, va), np.minimum(ua, va)
    except ValueError:
        raise ShapeMismatch(f"deformed sum operands of shapes {ua.shape}, {va.shape} do not broadcast") from None
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is -inf, and exp(-inf) is 0
        t = (lo - hi) / h
    with _no_overflow("the deformed sum"):
        out = np.where(np.isneginf(lo), hi, hi + h * np.log1p(np.exp(t)))
    if ua.ndim == 0 and va.ndim == 0:
        return float(out) + 0.0
    return out + 0.0


def _lse_reduce(h: float) -> Callable:
    # (+)_h-reduction along an axis, in the same stable form as deformed_add
    def reduce_(a, axis):
        a = np.asarray(a, dtype=float)
        hi = np.max(a, axis=axis, keepdims=True)
        with np.errstate(over="ignore", invalid="ignore"):  # as in deformed_add
            t = (a - hi) / h
        with _no_overflow("the deformed sum"):
            s = hi + h * np.log(np.sum(np.exp(t), axis=axis, keepdims=True))
        out = np.where(np.isneginf(hi), hi, s)
        return np.squeeze(out, axis=axis) + 0.0

    return reduce_


@dataclass(frozen=True)
class SemiringSpec:
    """One semiring: carrier predicate, operations, neutral elements.

    ``add`` and ``mul`` are binary callables working on floats and numpy
    arrays alike; they may assume their inputs satisfy ``contains``.
    ``add_reduce(a, axis)`` folds an array with the addition.  ``sample``
    draws carrier values for randomized law checking (None disables it).
    """

    name: str
    add: Callable
    mul: Callable
    zero: float
    one: float
    idempotent: bool
    contains: Callable
    add_reduce: Callable
    sample: Optional[Callable] = None
    h: Optional[float] = None

    def __repr__(self):
        return f"SemiringSpec({self.name!r})"


# --- samplers --------------------------------------------------------------
#
# Finite draws are multiples of 2**-20 within a modest range, so that chained
# additions stay exactly representable in float64 and the idempotent laws can
# be asserted bitwise.  A few percent of the draws are the special elements.

_GRAIN = 2.0**20


def _dyadic(rng, size, lo, hi):
    return rng.integers(int(lo * _GRAIN), int(hi * _GRAIN), size=size, endpoint=True) / _GRAIN


def _sprinkle(rng, values, specials, frac=0.04):
    for s in specials:
        mask = rng.random(values.shape) < frac
        values = np.where(mask, s, values)
    return values + 0.0


def _sample_bool(rng, size):
    return rng.integers(0, 2, size=size).astype(float)


def _sample_maxplus(rng, size):
    return _sprinkle(rng, _dyadic(rng, size, -50, 50), [NEG_INF, 0.0])


def _sample_minplus(rng, size):
    return _sprinkle(rng, _dyadic(rng, size, -50, 50), [POS_INF, 0.0])


def _sample_maxmin(rng, size):
    return _sprinkle(rng, _dyadic(rng, size, -50, 50), [NEG_INF, POS_INF])


def _sample_nonneg(rng, size):
    return _sprinkle(rng, _dyadic(rng, size, 0, 100), [0.0, 1.0])


# --- carrier predicates (vectorized) ---------------------------------------


def _contains_bool(x):
    x = np.asarray(x)
    return (x == 0.0) | (x == 1.0)


def _contains_maxplus(x):
    x = np.asarray(x)
    return ~np.isnan(x) & (x < POS_INF)


def _contains_minplus(x):
    x = np.asarray(x)
    return ~np.isnan(x) & (x > NEG_INF)


def _contains_maxmin(x):
    return ~np.isnan(np.asarray(x))


def _contains_nonneg(x):
    x = np.asarray(x)
    return np.isfinite(x) & (x >= 0.0)


BOOL = SemiringSpec(
    name="bool",
    add=np.maximum,
    mul=np.minimum,
    zero=0.0,
    one=1.0,
    idempotent=True,
    contains=_contains_bool,
    add_reduce=lambda a, axis: np.maximum.reduce(a, axis=axis),
    sample=_sample_bool,
)

MAXPLUS = SemiringSpec(
    name="maxplus",
    add=np.maximum,
    mul=np.add,
    zero=NEG_INF,
    one=0.0,
    idempotent=True,
    contains=_contains_maxplus,
    add_reduce=lambda a, axis: np.maximum.reduce(a, axis=axis),
    sample=_sample_maxplus,
)

MINPLUS = SemiringSpec(
    name="minplus",
    add=np.minimum,
    mul=np.add,
    zero=POS_INF,
    one=0.0,
    idempotent=True,
    contains=_contains_minplus,
    add_reduce=lambda a, axis: np.minimum.reduce(a, axis=axis),
    sample=_sample_minplus,
)

MAXMIN = SemiringSpec(
    name="maxmin",
    add=np.maximum,
    mul=np.minimum,
    zero=NEG_INF,
    one=POS_INF,
    idempotent=True,
    contains=_contains_maxmin,
    add_reduce=lambda a, axis: np.maximum.reduce(a, axis=axis),
    sample=_sample_maxmin,
)

NONNEG = SemiringSpec(
    name="nonneg",
    add=np.add,
    mul=np.multiply,
    zero=0.0,
    one=1.0,
    idempotent=False,
    contains=_contains_nonneg,
    add_reduce=lambda a, axis: np.add.reduce(a, axis=axis),
    sample=_sample_nonneg,
)


def deformed_spec(h: float) -> SemiringSpec:
    """The semiring (R u {-inf}, (+)_h, +) for a fixed h > 0."""
    h = _positive_finite(h, "deformation parameter")
    return SemiringSpec(
        name=f"deformed:{h:.17g}",
        add=lambda a, b: deformed_add(a, b, h),
        mul=np.add,
        zero=NEG_INF,
        one=0.0,
        idempotent=False,
        contains=_contains_maxplus,
        add_reduce=_lse_reduce(h),
        sample=_sample_maxplus,
        h=h,
    )


_BUILTIN = {s.name: s for s in (BOOL, MAXPLUS, MINPLUS, MAXMIN, NONNEG)}
_REGISTRY: dict[str, SemiringSpec] = {}


def register_semiring(spec: SemiringSpec) -> None:
    """Make a custom spec resolvable through get_semiring by its name."""
    if spec.name in _BUILTIN or spec.name.startswith("deformed:"):
        raise ValueError(f"name {spec.name!r} is reserved")
    _REGISTRY[spec.name] = spec


def get_semiring(name: str) -> SemiringSpec:
    """Resolve a semiring id: a built-in name, deformed:<h>, or a registered one."""
    if name in _BUILTIN:
        return _BUILTIN[name]
    if name.startswith("deformed:"):
        try:
            return deformed_spec(name.split(":", 1)[1])
        except DomainError:
            raise ValueError(f"bad deformation parameter in {name!r}") from None
    if name in _REGISTRY:
        return _REGISTRY[name]
    raise ValueError(f"unknown semiring id {name!r}")


# --- helpers shared by the matrix and function modules ---------------------


def _same_spec(x, y) -> SemiringSpec:
    if x.spec.name != y.spec.name:
        raise SpecMismatch(f"mixed semirings: {x.spec.name} vs {y.spec.name}")
    return x.spec


def _require_idempotent(spec: SemiringSpec, what: str) -> None:
    if not spec.idempotent:
        raise NotIdempotent(f"{what} needs an idempotent addition; {spec.name} has none")


@contextmanager
def _no_overflow(what: str):
    """Run the block with numpy's overflow flag raised as
    DomainError(f"{what} overflows float64").

    IEEE 754 raises that flag exactly when a finite result rounds to +-inf,
    never for an operand that is infinite already; where (+) only selects
    and (x) only shifts, that is the one way a result leaves the carrier.
    """
    try:
        with np.errstate(over="raise", invalid="ignore"):
            yield
    except FloatingPointError:
        raise DomainError(f"{what} overflows float64") from None


# --- scalar operations with domain checking --------------------------------


def _require_member(x, spec: SemiringSpec) -> float:
    x = _real(x, "operand")
    if not bool(spec.contains(x)):
        raise DomainError(f"{x!r} is not in the carrier of {spec.name}")
    return x


def add(a, b, spec: SemiringSpec) -> float:
    """a (+) b in the given semiring."""
    a = _require_member(a, spec)
    b = _require_member(b, spec)
    return float(spec.add(a, b)) + 0.0


def mul(a, b, spec: SemiringSpec) -> float:
    """a (x) b in the given semiring; the zero element absorbs unconditionally.
    DomainError if the product of two finite values overflows float64."""
    a = _require_member(a, spec)
    b = _require_member(b, spec)
    if a == spec.zero or b == spec.zero:
        return spec.zero
    with np.errstate(over="ignore"):
        p = float(spec.mul(a, b)) + 0.0
    # a custom spec may multiply these Python floats without numpy: no flag
    if math.isinf(p) and math.isfinite(a) and math.isfinite(b):
        raise DomainError(f"{a!r} (x) {b!r} overflows float64 in {spec.name}")
    return p


def leq(a, b, spec: SemiringSpec) -> bool:
    """Standard partial order: a <= b  iff  a (+) b == b.

    Only meaningful when addition is idempotent; note that for minplus this
    order runs opposite to the numeric one (the zero element +inf is least).
    """
    _require_idempotent(spec, "the standard order")
    return add(a, b, spec) == float(b) + 0.0


# --- randomized law audit ---------------------------------------------------

AXIOM_NAMES = (
    "add-associative",
    "add-commutative",
    "add-idempotent",
    "mul-associative",
    "zero-neutral-add",
    "zero-absorbs-mul",
    "one-neutral-mul",
    "distributive-left",
    "distributive-right",
)


def check_axioms(spec: SemiringSpec, trials: int = 10000, seed: int = 0) -> dict:
    """Audit the semiring laws on `trials` >= 1 random triples; returns {law: bool}.

    Idempotent instances are compared bitwise (their operations either select
    an operand or shift by dyadic samples, both exact in float64); the
    non-idempotent ones get a 1e-12 relative tolerance with the same absolute
    floor.  add-idempotent is always measured, so a truthful False is the
    expected result for the classical instances.
    """
    if spec.sample is None:
        raise ValueError(f"{spec.name} has no sampler; cannot audit laws")
    trials = _count(trials, "trials")
    _allocatable(f"{trials} trials are too many to allocate", trials)
    rng = np.random.default_rng(_count(seed, "seed", 0))
    x = spec.sample(rng, trials)
    y = spec.sample(rng, trials)
    z = spec.sample(rng, trials)
    A, M = spec.add, spec.mul
    zero = np.full(trials, spec.zero)
    one = np.full(trials, spec.one)

    if spec.idempotent:
        def eq(p, q):
            return bool(np.array_equal(np.asarray(p) + 0.0, np.asarray(q) + 0.0))
    else:
        def eq(p, q):
            return bool(np.allclose(p, q, rtol=1e-12, atol=1e-12))

    return {
        "add-associative": eq(A(A(x, y), z), A(x, A(y, z))),
        "add-commutative": eq(A(x, y), A(y, x)),
        "add-idempotent": eq(A(x, x), x),
        "mul-associative": eq(M(M(x, y), z), M(x, M(y, z))),
        "zero-neutral-add": eq(A(x, zero), x),
        "zero-absorbs-mul": eq(M(x, zero), zero),
        "one-neutral-mul": eq(M(one, x), x) and eq(M(x, one), x),
        "distributive-left": eq(M(x, A(y, z)), A(M(x, y), M(x, z))),
        "distributive-right": eq(M(A(y, z), x), A(M(y, x), M(z, x))),
    }

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropikit import (
    BOOL,
    MAXMIN,
    MAXPLUS,
    MINPLUS,
    NONNEG,
    DomainError,
    Graph,
    IntervalMatrix,
    NotIdempotent,
    SampledFunction,
    SemiringMatrix,
    SemiringSpec,
    add,
    amoeba_line_sample,
    check_axioms,
    deformed_add,
    deformed_spec,
    get_semiring,
    hopf_lax_evolve,
    interval_adjacency,
    interval_bellman,
    legendre,
    leq,
    log_h,
    matrix_add,
    matrix_mul,
    mul,
    register_semiring,
    scalar_mul,
    solve_bellman_gauss_seidel,
    solve_bellman_jacobi,
)

NEG_INF = float("-inf")
POS_INF = float("inf")

IDEMPOTENT = (BOOL, MAXPLUS, MINPLUS, MAXMIN)


def test_neutral_elements():
    assert MAXPLUS.zero == NEG_INF and MAXPLUS.one == 0.0
    assert MINPLUS.zero == POS_INF and MINPLUS.one == 0.0
    assert MAXMIN.zero == NEG_INF and MAXMIN.one == POS_INF
    assert BOOL.zero == 0.0 and BOOL.one == 1.0
    assert NONNEG.zero == 0.0 and NONNEG.one == 1.0


def test_scalar_ops_examples():
    assert add(3.0, 5.0, MAXPLUS) == 5.0
    assert mul(3.0, 5.0, MAXPLUS) == 8.0
    assert add(3.0, 5.0, MINPLUS) == 3.0
    assert mul(3.0, 5.0, MAXMIN) == 3.0
    assert mul(0.5, 4.0, NONNEG) == 2.0
    assert add(1.0, 1.0, BOOL) == 1.0


def test_zero_absorbs_without_nan():
    # maxmin would hit min(-inf, +inf) without the absorption rule
    assert mul(NEG_INF, POS_INF, MAXMIN) == NEG_INF
    assert mul(POS_INF, NEG_INF, MAXMIN) == NEG_INF
    assert mul(NEG_INF, 7.0, MAXPLUS) == NEG_INF
    assert mul(POS_INF, 7.0, MINPLUS) == POS_INF


def test_mul_overflow_is_a_domain_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # +inf is outside the maxplus carrier; -inf would read as its zero
        for a, spec in ((1e308, MAXPLUS), (-1e308, MAXPLUS), (-1e308, MINPLUS), (1e200, NONNEG)):
            with pytest.raises(DomainError, match="overflows float64"):
                mul(a, a, spec)
        assert mul(1e308, -1e308, MAXPLUS) == 0.0
        assert mul(1e308, 1e308, MAXMIN) == 1e308


def test_domain_rejections():
    with pytest.raises(DomainError):
        add(POS_INF, 0.0, MAXPLUS)
    with pytest.raises(DomainError):
        add(NEG_INF, 0.0, MINPLUS)
    with pytest.raises(DomainError):
        add(-1.0, 1.0, NONNEG)
    with pytest.raises(DomainError):
        add(0.5, 1.0, BOOL)
    with pytest.raises(DomainError):
        add(float("nan"), 1.0, MAXMIN)


def test_negative_zero_is_normalized():
    assert math.copysign(1.0, mul(-5.0, 5.0, MAXPLUS)) == 1.0
    assert math.copysign(1.0, add(-0.0, -0.0, MAXPLUS)) == 1.0


def test_deformed_add_worked_values():
    assert deformed_add(0.0, 0.0, 1.0) == math.log(2.0)
    assert deformed_add(0.0, 0.0, 0.5) == 0.5 * math.log(2.0)
    # far-apart arguments collapse onto max
    assert deformed_add(10.0, -40.0, 0.01) == 10.0
    assert deformed_add(NEG_INF, 3.0, 1.0) == 3.0
    assert deformed_add(NEG_INF, NEG_INF, 1.0) == NEG_INF


def test_deformed_reductions_are_silent_when_the_gap_overflows():
    # (lo - hi)/h overflows to -inf, which is exact: exp(-inf) is 0
    spec = get_semiring("deformed:1e-10")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = matrix_mul(SemiringMatrix([[0.0, -1e300]], spec), SemiringMatrix([[0.0], [0.0]], spec))
        assert got.data.tolist() == [[0.0]]
        assert deformed_add(0.0, -1e300, 1e-10) == 0.0


def test_deformed_sum_beyond_float64_is_a_domain_error():
    # hi + h*ln(2) leaves float64: a typed error, not +inf and a warning
    spec = deformed_spec(1e308)
    big = SemiringMatrix([[1.7e308]], spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows float64"):
            add(1.7e308, 1.7e308, spec)
        with pytest.raises(DomainError, match="overflows float64"):
            matrix_add(big, big)
        with pytest.raises(DomainError, match="overflows float64"):
            matrix_mul(SemiringMatrix([[1.7e308, 1.7e308]], spec), SemiringMatrix([[0.0], [0.0]], spec))
        # a sum within float64 stays a plain value
        assert add(1e308, 1e308, spec) == 1e308 + 1e308 * math.log(2.0)


def test_deformed_add_gap_bounds():
    rng = np.random.default_rng(7)
    for h in (1.0, 0.1, 0.01):
        u = rng.uniform(-50, 50, size=500)
        v = rng.uniform(-50, 50, size=500)
        w = deformed_add(u, v, h)
        gap = w - np.maximum(u, v)
        assert np.all(gap >= 0.0)
        assert np.all(gap <= h * math.log(2.0))


def test_deformed_add_gap_monotone_in_h():
    for u, v in ((0.0, 0.0), (1.0, 1.5), (-3.0, 2.0), (10.0, 10.25)):
        gaps = [deformed_add(u, v, h) - max(u, v) for h in (1.0, 0.5, 0.1, 0.01, 0.001)]
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))


def test_deformed_add_rejects_bad_h():
    for h in (0.0, -1.0, float("nan"), POS_INF):
        with pytest.raises(DomainError):
            deformed_add(1.0, 2.0, h)


def test_deformed_add_rejects_operands_outside_the_carrier():
    nan = float("nan")
    for u, v in ((POS_INF, POS_INF), (nan, 0.0), (0.0, nan), (POS_INF, NEG_INF),
                 (np.array([0.0, POS_INF]), 0.0), (0.0, np.array([NEG_INF, nan]))):
        with pytest.raises(DomainError, match="R u"):
            deformed_add(u, v, 1.0)
    # -inf stays neutral, in scalars and arrays
    assert deformed_add(NEG_INF, -5.0, 0.5) == -5.0
    assert deformed_add(np.array([NEG_INF, 1.0]), NEG_INF, 0.5).tolist() == [NEG_INF, 1.0]


def test_leq_examples():
    assert leq(3.0, 5.0, MAXPLUS)
    assert not leq(5.0, 3.0, MAXPLUS)
    assert not leq(3.0, 5.0, MINPLUS)
    assert leq(5.0, 3.0, MINPLUS)
    for spec in IDEMPOTENT:
        assert leq(spec.zero, spec.one, spec)


def test_leq_requires_idempotency():
    with pytest.raises(NotIdempotent):
        leq(1.0, 2.0, NONNEG)
    with pytest.raises(NotIdempotent):
        leq(1.0, 2.0, deformed_spec(0.5))


finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)


@given(finite_floats, finite_floats, finite_floats)
def test_order_properties_maxplus(a, b, c):
    # reflexive, antisymmetric, transitive; total here since max is a selection
    assert leq(a, a, MAXPLUS)
    if leq(a, b, MAXPLUS) and leq(b, a, MAXPLUS):
        assert a == b
    if leq(a, b, MAXPLUS) and leq(b, c, MAXPLUS):
        assert leq(a, c, MAXPLUS)


@given(finite_floats, finite_floats)
def test_zero_is_least_minplus(a, b):
    assert leq(MINPLUS.zero, a, MINPLUS)
    # addition is the least upper bound
    s = add(a, b, MINPLUS)
    assert leq(a, s, MINPLUS) and leq(b, s, MINPLUS)


def test_check_axioms_all_instances():
    for spec in IDEMPOTENT:
        results = check_axioms(spec, trials=2000, seed=1)
        assert all(results.values()), results
    for spec in (NONNEG, deformed_spec(0.5)):
        results = check_axioms(spec, trials=2000, seed=1)
        failed = [law for law, ok in results.items() if not ok]
        assert failed == ["add-idempotent"], results


def test_check_axioms_needs_a_trial():
    for trials in (0, -1):
        with pytest.raises(DomainError, match="trials must be an integer >= 1"):
            check_axioms(MINPLUS, trials=trials)


_H2 = SemiringMatrix([[POS_INF, 1.0], [POS_INF, POS_INF]], MINPLUS)
_F2 = SemiringMatrix([[POS_INF], [0.0]], MINPLUS)
_I2 = IntervalMatrix.from_arrays(_H2.data, _H2.data, MINPLUS)
_J2 = IntervalMatrix.from_arrays(_F2.data, _F2.data, MINPLUS)
_PHI = SampledFunction(0.0, 1.0, [0.0, 1.0], "maxplus")
# (name, least, the entry point called with one count)
COUNTS = [
    ("trials", 1, lambda c: check_axioms(MINPLUS, trials=c)),
    ("seed", 0, lambda c: check_axioms(MINPLUS, trials=10, seed=c)),
    ("samples", 1, lambda c: amoeba_line_sample(1.0, c)),
    ("xi_count", 1, lambda c: legendre(_PHI, 0.0, 1.0, c)),
    ("max_iter", 1, lambda c: solve_bellman_jacobi(_H2, _F2, max_iter=c)),
    ("max_iter", 1, lambda c: solve_bellman_gauss_seidel(_H2, _F2, max_iter=c)),
    ("max_iter", 1, lambda c: interval_bellman(_I2, _J2, max_iter=c)),
    ("n", 1, lambda c: Graph(c, ((0, 1, 1.0),))),
    ("n", 1, lambda c: interval_adjacency(c, [(0, 1, 1.0, 2.0)])),
]
COUNT_IDS = ["trials", "seed", "samples", "xi_count", "jacobi", "gauss-seidel", "interval", "graph",
             "interval-graph"]


@pytest.mark.parametrize("bad", ["below", 2.5, math.nan, math.inf, True, "3"])
@pytest.mark.parametrize("what,least,call", COUNTS, ids=COUNT_IDS)
def test_counts_are_integers_from_their_least(what, least, call, bad):
    # one rule: an int (not a bool), a numpy integer or an integral float >= least
    bad = least - 1 if bad == "below" else bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as e:
            call(bad)
    assert str(e.value) == f"{what} must be an integer >= {least}, got {bad!r}"
    for ok in (3.0, np.int64(3)):
        call(ok)


_S0 = SampledFunction(0.0, 1.0, [0.0, 1.0], "minplus")
# (the entry point called with one real, the start of the message of a refusal)
REALS = [
    (deformed_spec, "deformation parameter must be a positive finite real, got"),
    (lambda x: log_h((2.0,), x), "h must be a positive finite real, got"),
    (lambda x: amoeba_line_sample(x, 4), "h must be a positive finite real, got"),
    (lambda x: hopf_lax_evolve(_S0, x), "cannot read time"),
    (lambda x: hopf_lax_evolve(_S0, 1.0, x), "cannot read mass"),
    (lambda x: scalar_mul(x, _PHI), "cannot read scalar"),
    (lambda x: legendre(_PHI, x, 1.0, 3), "cannot read grid start"),
    (lambda x: SampledFunction(0.0, x, [0.0]), "cannot read grid step"),
]
REAL_IDS = ["deformed", "log_h", "amoeba", "time", "mass", "scalar", "legendre", "grid"]


@pytest.mark.parametrize("bad", [True, "x", None, 10**400], ids=["bool", "text", "none", "huge-int"])
@pytest.mark.parametrize("call,want", REALS, ids=REAL_IDS)
def test_reals_are_read_by_one_rule(call, want, bad):
    # a bool is no real, as it is no count; what float() cannot read is a DomainError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as e:
            call(bad)
    assert str(e.value).startswith(want)
    for ok in (0.5, 2, np.float32(0.5), np.int64(2)):
        if "positive finite" not in want or isinstance(ok, (int, float)):  # numpy scalars where float() reads
            call(ok)


def test_reals_read_today_keep_their_messages():
    with pytest.raises(DomainError, match=r"^scalar must be finite, got inf$"):
        scalar_mul("inf", _PHI)
    with pytest.raises(DomainError, match=r"^time must be a positive finite real, got -1\.0$"):
        hopf_lax_evolve(_S0, -1)
    with pytest.raises(DomainError, match=r"^bad grid: start=0\.0 step=-1\.0 count=1$"):
        SampledFunction(0, "-1", [0.0])


def test_deformed_idempotency_gap_is_h_ln2():
    h = 0.25
    rng = np.random.default_rng(3)
    for u in rng.uniform(-30, 30, size=50):
        u = float(u)
        assert deformed_add(u, u, h) == u + h * math.log(2.0)


def test_get_semiring_ids():
    assert get_semiring("maxplus") is MAXPLUS
    assert get_semiring("bool") is BOOL
    spec = get_semiring("deformed:0.25")
    assert spec.h == 0.25 and not spec.idempotent
    with pytest.raises(ValueError):
        get_semiring("tropical")
    with pytest.raises(ValueError):
        get_semiring("deformed:zero")
    with pytest.raises(ValueError):
        get_semiring("deformed:-1")
    with pytest.raises(DomainError):
        deformed_spec(-1.0)


def test_register_custom_spec():
    spec = SemiringSpec(
        name="test-or-and",
        add=np.maximum,
        mul=np.minimum,
        zero=0.0,
        one=1.0,
        idempotent=True,
        contains=lambda x: (np.asarray(x) == 0.0) | (np.asarray(x) == 1.0),
        add_reduce=lambda a, axis: np.maximum.reduce(a, axis=axis),
    )
    register_semiring(spec)
    assert get_semiring("test-or-and") is spec
    with pytest.raises(ValueError):
        register_semiring(
            SemiringSpec(
                name="maxplus",
                add=np.maximum,
                mul=np.add,
                zero=NEG_INF,
                one=0.0,
                idempotent=True,
                contains=lambda x: True,
                add_reduce=lambda a, axis: np.maximum.reduce(a, axis=axis),
            )
        )

"""Jet arithmetic: exactness, chain rule against finite differences, laws."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamgeo import (
    DimensionError,
    EvaluationError,
    Jet,
    PhasePoint,
    evaluate,
    fd_oracle,
    jet_lift,
    nested_jet_lift,
    parse,
)
from hamgeo.expr import Var, _differentiate
from hamgeo.phase import sample_box

# Corpus for oracle comparisons.  The finite-difference oracle uses fixed
# step sizes, so its own noise floor is about eps * |f| / h^3 for third
# derivatives; magnitudes here are calibrated so that floor stays inside
# the 1e-5 relative / 1e-7 absolute comparison envelope.
CORPUS = [
    "0.1*(x1*p1+x2*p2)",
    "0.05*(p1^2+(p1*x1+p2)^2)",
    "0.2*sin(x1)*cos(x2)",
    "0.2*exp(0.3*x1*p2)",
    "0.1*ln(2+x1^2+p1^2)",
    "0.1*sqrt(1+p1^2+p2^2)",
    "0.1*p1/(3+x1^2)",
    "(x1+x2)^3",
    "0.1*p1^2*p2/(2+0.5*sin(x2))",
    "0.2*(cos(x1*x2)+sin(p1*p2))",
    "0.3*exp(0.3*sin(x1)+0.3*cos(p2))",
    "0.1*x1^4+0.05*p2^4",
    "0.2/(1+exp(-x1-p1))",
    "0.2*sqrt(2+x1)*ln(3+p2)",
    "0.1*p2^2/(2+p1)",
    "(2+p1)^-2+0.1*x1",
    "0.3*sin(0.5*x1+0.4*x2*p1)",
    "0.3*x1^2*x2^2*p1^2",
    "0.1*(exp(x1)*sin(p2)+x2^3)",
    "0.3*(1+x1^2)^1.5",
]

X_BOX = [(-1.0, 1.0), (-1.0, 1.0)]
P_BOX = [(0.4, 1.4), (0.4, 1.4)]

POINTS = sample_box(X_BOX, P_BOX, 50, seed=20260825)

MULTIS = [()]
for _k in (1, 2, 3):
    MULTIS += [
        tuple(c) for c in itertools.combinations_with_replacement(range(4), _k)
    ]


def assert_jets_close(a: Jet, b: Jet, rel=1e-12, absolute=1e-12):
    assert a.m == b.m and a.order == b.order
    assert np.isclose(a.c0, b.c0, rtol=rel, atol=absolute)
    for name in ("c1", "c2", "c3"):
        left, right = getattr(a, name), getattr(b, name)
        if left is None:
            assert right is None
        else:
            assert np.allclose(
                left.astype(float), right.astype(float), rtol=rel, atol=absolute
            ), name


# --------------------------------------------------------------------------
# frozen hand-checked values for the benchmark Hamiltonian


def test_benchmark_value_and_gradient(worked_ham, base_point):
    jet = jet_lift(worked_ham.expr, base_point)
    assert jet.c0 == 2.5
    assert list(jet.c1) == [2.0, 0.0, 3.0, 2.0]


def test_benchmark_momentum_hessian(worked_ham, base_point):
    # d2H/dp dp = [[1 + x1^2, x1], [x1, 1]] -> [[2, 1], [1, 1]] at the base
    jet = jet_lift(worked_ham.expr, base_point, order=2)
    block = [[jet.partial((2 + i, 2 + j)) for j in range(2)] for i in range(2)]
    assert block == [[2.0, 1.0], [1.0, 1.0]]


def test_benchmark_third_partial(worked_ham, base_point):
    jet = jet_lift(worked_ham.expr, base_point)
    assert jet.partial((2, 2, 0)) == 2.0


# --------------------------------------------------------------------------
# exactness: the float evaluator and the jet value lane are the same numbers


@pytest.mark.parametrize("text", CORPUS)
def test_jet_value_equals_float_evaluation_bitwise(text):
    expr = parse(text, dim=2)
    for pt in POINTS:
        assert evaluate(expr, pt) == jet_lift(expr, pt, order=3).c0


def test_nested_jet_coefficients_match_plain_jets(worked_ham, base_point):
    """Outer coefficients of the nested lift reproduce the plain lift exactly."""
    plain = jet_lift(worked_ham.expr, base_point)
    nested = nested_jet_lift(worked_ham.expr, base_point)
    for multi in MULTIS:
        germ = nested.partial(multi)
        assert germ.c0 == plain.partial(multi)


# --------------------------------------------------------------------------
# chain rule against the finite-difference oracle


def test_corpus_matches_fd_oracle():
    failures = []
    for text in CORPUS:
        expr = parse(text, dim=2)
        for pt in POINTS:
            jet = jet_lift(expr, pt, order=3)
            for multi in MULTIS:
                computed = float(jet.partial(multi))
                oracle = fd_oracle(expr, pt, multi)
                tol = max(1e-5 * abs(computed), 1e-7)
                if abs(computed - oracle) > tol:
                    failures.append((text, multi, computed, oracle))
    assert not failures, failures[:5]


def test_fd_oracle_order_zero_is_plain_evaluation(worked_ham, base_point):
    assert fd_oracle(worked_ham.expr, base_point, ()) == 2.5


def test_fd_oracle_rejects_order_four(worked_ham, base_point):
    with pytest.raises(ValueError):
        fd_oracle(worked_ham.expr, base_point, (0, 0, 0, 0))


def test_fd_oracle_rejects_bad_slot(worked_ham, base_point):
    with pytest.raises(DimensionError):
        fd_oracle(worked_ham.expr, base_point, (7,))


# --------------------------------------------------------------------------
# nested jets expose fourth derivatives


def test_nested_fourth_derivatives(worked_ham, base_point):
    nested = nested_jet_lift(worked_ham.expr, base_point)
    # d3/dp1dp1dx1 has germ p -> 2*x1, so its x1-slope is 2 and the rest 0
    germ = nested.partial((2, 2, 0))
    assert germ.c0 == 2.0
    assert list(germ.c1) == [2.0, 0.0, 0.0, 0.0]
    # d2/dx1dx1 = p1^2: differentiating twice more in p1 gives 2, in p2 gives 0
    germ = nested.partial((0, 0, 2))
    assert germ.c1[2] == 2.0
    assert germ.c1[3] == 0.0


def _object_nested_lift(expr, pt):
    """The nested lift over object arrays holding order-1 jets: the
    element-by-element construction that float lanes replace."""
    flat = pt.flat
    m = len(flat)
    seeds = []
    for s in range(m):
        c1 = np.full(m, 0.0, dtype=object)
        c1[s] = 1.0
        c2 = np.full(m * (m + 1) // 2, 0.0, dtype=object)
        c3 = np.full(m * (m + 1) * (m + 2) // 6, 0.0, dtype=object)
        seeds.append(Jet(m, 3, Jet.variable(s, flat[s], m, 1), c1, c2, c3))
    return evaluate(expr, seeds)


def _split(entries, m):
    """Value and slope arrays of order-1 jets and plain floats (slope 0)."""
    entries = np.atleast_1d(np.asarray(entries, dtype=object))
    values = np.array([e.c0 if isinstance(e, Jet) else e for e in entries], float)
    slopes = np.array(
        [e.c1 if isinstance(e, Jet) else np.zeros(m) for e in entries], float
    )
    return values, slopes


# the object-array reference cannot take non-integer powers: its outer
# domain check needs the float value of an inner jet
_INTEGER_POWER_CORPUS = [text for text in CORPUS if "^1.5" not in text]


@pytest.mark.parametrize("text", _INTEGER_POWER_CORPUS)
def test_lanes_reproduce_object_nested_jets_bitwise(text):
    expr = parse(text, dim=2)
    for pt in POINTS[:5]:
        lanes = nested_jet_lift(expr, pt)
        reference = _object_nested_lift(expr, pt)
        for name in ("c0", "c1", "c2", "c3"):
            lane = getattr(lanes, name)
            values, slopes = _split(getattr(reference, name), 4)
            got_slopes = np.reshape(lane.d, slopes.shape)
            assert np.atleast_1d(lane.v).tobytes() == values.tobytes(), name
            assert got_slopes.tobytes() == slopes.tobytes(), name


def test_nested_fourth_derivatives_match_symbolic_derivatives():
    """The slopes of the nested lift against plain lifts of the tree
    derivatives, over the whole corpus: partial(alpha).c1[z] is
    d_z d_alpha expr for every |alpha| <= 3."""
    failures = []
    for text in CORPUS:
        expr = parse(text, dim=2)
        slopes = [
            _differentiate(expr, Var(kind, index))
            for kind in ("x", "p")
            for index in (1, 2)
        ]
        for pt in POINTS:
            nested = nested_jet_lift(expr, pt)
            plain = [jet_lift(d_expr, pt) for d_expr in slopes]
            for multi in MULTIS:
                germ = nested.partial(multi)
                for z, jet in enumerate(plain):
                    got, want = float(germ.c1[z]), float(jet.partial(multi))
                    if abs(got - want) > 1e-10 * max(abs(got), abs(want)):
                        failures.append((text, pt, multi, z, got, want))
    assert not failures, failures[:5]


# --------------------------------------------------------------------------
# ring laws over random corpus members (hypothesis drives the sampling)


_corpus_index = st.integers(min_value=0, max_value=len(CORPUS) - 1)
_point_index = st.integers(min_value=0, max_value=len(POINTS) - 1)


@given(_corpus_index, _corpus_index, _point_index)
@settings(deadline=None)
def test_addition_commutes(i, j, k):
    a = jet_lift(parse(CORPUS[i], dim=2), POINTS[k])
    b = jet_lift(parse(CORPUS[j], dim=2), POINTS[k])
    assert_jets_close(a + b, b + a, rel=0.0, absolute=0.0)


@given(_corpus_index, _corpus_index, _point_index)
@settings(deadline=None)
def test_multiplication_commutes(i, j, k):
    a = jet_lift(parse(CORPUS[i], dim=2), POINTS[k])
    b = jet_lift(parse(CORPUS[j], dim=2), POINTS[k])
    assert_jets_close(a * b, b * a, rel=1e-12)


@given(_corpus_index, _corpus_index, _corpus_index, _point_index)
@settings(deadline=None)
def test_multiplication_associates(i, j, l, k):
    a = jet_lift(parse(CORPUS[i], dim=2), POINTS[k])
    b = jet_lift(parse(CORPUS[j], dim=2), POINTS[k])
    c = jet_lift(parse(CORPUS[l], dim=2), POINTS[k])
    assert_jets_close((a * b) * c, a * (b * c), rel=1e-10, absolute=1e-12)


@given(_corpus_index, _corpus_index, _corpus_index, _point_index)
@settings(deadline=None)
def test_multiplication_distributes(i, j, l, k):
    a = jet_lift(parse(CORPUS[i], dim=2), POINTS[k])
    b = jet_lift(parse(CORPUS[j], dim=2), POINTS[k])
    c = jet_lift(parse(CORPUS[l], dim=2), POINTS[k])
    assert_jets_close(a * (b + c), a * b + a * c, rel=1e-10, absolute=1e-12)


@given(_corpus_index, _point_index)
@settings(deadline=None)
def test_division_inverts_multiplication(i, k):
    a = jet_lift(parse(CORPUS[i], dim=2), POINTS[k])
    b = jet_lift(parse("2+0.5*sin(x1*p2)", dim=2), POINTS[k])
    assert_jets_close(a / b * b, a, rel=1e-10, absolute=1e-12)


def test_division_value_is_exact_quotient():
    pt = POINTS[0]
    a = jet_lift(parse(CORPUS[2], dim=2), pt)
    b = jet_lift(parse("2+x1^2", dim=2), pt)
    assert (a / b).c0 == a.c0 / b.c0


# --------------------------------------------------------------------------
# error handling and structural behavior


def test_division_by_zero_jet():
    pt = PhasePoint(x=(0.0,), p=(1.0,))
    with pytest.raises(EvaluationError):
        jet_lift(parse("p1/x1", dim=1), pt)


def test_division_by_zero_scalar(worked_ham, base_point):
    jet = jet_lift(worked_ham.expr, base_point)
    with pytest.raises(EvaluationError):
        jet / 0.0


@pytest.mark.parametrize("x1", [-1.0, 0.0])
def test_pow_float_requires_positive_base(x1):
    pt = PhasePoint(x=(x1,), p=(0.5,))
    with pytest.raises(EvaluationError):
        jet_lift(parse("x1^1.5", dim=1), pt)


@pytest.mark.parametrize("text", ["ln(x1)", "sqrt(x1)"])
def test_log_and_root_domains_in_jets(text):
    pt = PhasePoint(x=(-0.5,), p=(0.5,))
    with pytest.raises(EvaluationError):
        jet_lift(parse(text, dim=1), pt)


def test_mixed_orders_truncate_to_minimum(worked_ham, base_point):
    j3 = jet_lift(worked_ham.expr, base_point, order=3)
    j1 = jet_lift(worked_ham.expr, base_point, order=1)
    assert (j3 + j1).order == 1
    assert (j3 * j1).order == 1
    assert (j3 / j1).order == 1


def test_partial_is_permutation_invariant(worked_ham, base_point):
    jet = jet_lift(worked_ham.expr, base_point)
    for multi in itertools.permutations((0, 2, 3)):
        assert jet.partial(multi) == jet.partial((0, 2, 3))


def test_partial_rejects_order_beyond_truncation(worked_ham, base_point):
    jet = jet_lift(worked_ham.expr, base_point, order=2)
    with pytest.raises(ValueError):
        jet.partial((0, 0, 0))


def test_partial_rejects_bad_slot(worked_ham, base_point):
    jet = jet_lift(worked_ham.expr, base_point)
    with pytest.raises(DimensionError):
        jet.partial((4,))


def test_derivative_shifts_coefficients(worked_ham, base_point):
    jet = jet_lift(worked_ham.expr, base_point, order=3)
    for z in range(4):
        d = jet.derivative(z)
        assert d.order == 2
        assert d.c0 == jet.partial((z,))
        for w in range(4):
            assert d.partial((w,)) == jet.partial((z, w))
            for v in range(4):
                assert d.partial((w, v)) == jet.partial((z, w, v))


def test_derivative_requires_positive_order(worked_ham, base_point):
    jet = jet_lift(worked_ham.expr, base_point, order=0)
    with pytest.raises(ValueError):
        jet.derivative(0)


def test_constant_expression_lifts_to_constant_jet():
    pt = PhasePoint(x=(1.0,), p=(2.0,))
    jet = jet_lift(parse("3", dim=1), pt)
    assert jet.c0 == 3.0
    assert not jet.c1.any()
    assert not jet.c2.any()
    assert not jet.c3.any()


def test_dimension_mismatch_raises(worked_ham, base_point):
    jet = jet_lift(worked_ham.expr, base_point)
    other = jet_lift(parse("x1", dim=1), PhasePoint(x=(1.0,), p=(1.0,)))
    with pytest.raises(DimensionError):
        jet + other


def test_three_dimensional_phase_space():
    expr = parse("p3*sin(x2)+x3*p1^2", dim=3)
    pt = PhasePoint(x=(0.2, 0.4, 0.6), p=(1.0, 1.2, 1.4))
    jet = jet_lift(expr, pt, order=3)
    for multi in [(), (1,), (5,), (1, 5), (0, 0), (2, 2, 3), (1, 1, 5)]:
        oracle = fd_oracle(expr, pt, multi)
        computed = float(jet.partial(multi))
        assert abs(computed - oracle) <= max(1e-5 * abs(computed), 1e-7)


def test_sample_box_is_deterministic():
    a = sample_box(X_BOX, P_BOX, 5, seed=7)
    b = sample_box(X_BOX, P_BOX, 5, seed=7)
    c = sample_box(X_BOX, P_BOX, 5, seed=8)
    assert a == b
    assert a != c

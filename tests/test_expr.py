"""Parser, printer, evaluator and the optimal-control Hamiltonian builder."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hamgeo import (
    ControlAffineSystem,
    DimensionError,
    EvaluationError,
    HamiltonianSpec,
    ParseError,
    PhasePoint,
    evaluate,
    free_variables,
    parse,
    pmp_hamiltonian,
    to_text,
    validate,
)
from hamgeo.expr import FUNCTIONS, BinOp, Call, Const, Neg, Var


# --------------------------------------------------------------------------
# parsing


def test_parse_worked_hamiltonian():
    e = parse("0.5*(p1^2+(p1*x1+p2)^2)", dim=2)
    assert e == BinOp(
        "*",
        Const(0.5),
        BinOp(
            "+",
            BinOp("^", Var("p", 1), Const(2.0)),
            BinOp(
                "^",
                BinOp("+", BinOp("*", Var("p", 1), Var("x", 1)), Var("p", 2)),
                Const(2.0),
            ),
        ),
    )


def test_subtraction_is_left_associative():
    e = parse("x1-x2-p1", dim=2)
    assert e == BinOp("-", BinOp("-", Var("x", 1), Var("x", 2)), Var("p", 1))


def test_division_is_left_associative():
    pt = PhasePoint(x=(8.0,), p=(2.0,))
    assert evaluate(parse("x1/p1/2", dim=1), pt) == 2.0


def test_power_is_right_associative():
    pt = PhasePoint(x=(2.0,), p=(0.0,))
    assert evaluate(parse("x1^3^2", dim=1), pt) == 512.0


def test_unary_minus_binds_looser_than_power():
    pt = PhasePoint(x=(2.0,), p=(0.0,))
    assert evaluate(parse("-x1^2", dim=1), pt) == -4.0


def test_unary_minus_inside_term():
    pt = PhasePoint(x=(3.0,), p=(5.0,))
    assert evaluate(parse("x1*-p1", dim=1), pt) == -15.0


def test_scientific_notation_literals():
    pt = PhasePoint(x=(1.0,), p=(1.0,))
    assert evaluate(parse("1.5e3+2E-2", dim=1), pt) == 1500.02


def test_whitespace_is_ignored():
    assert parse("  x1 +\tp1 ", dim=1) == parse("x1+p1", dim=1)


@pytest.mark.parametrize("func", FUNCTIONS)
def test_known_functions_parse(func):
    e = parse(f"{func}(x1)", dim=1)
    assert e == Call(func, Var("x", 1))


@pytest.mark.parametrize(
    "text, position",
    [
        ("x1 + ", 5),        # dangling operator
        ("x1 + + x2", 5),    # doubled operator is not unary plus
        ("(x1+x2", 6),       # unclosed parenthesis
        ("x1)", 2),          # trailing input
        ("tan(x1)", 0),      # unknown function
        ("x0+1", 0),         # zero index is not a variable
        ("y1", 0),           # unknown identifier
        ("x3", 0),           # index out of range for dim=2
        ("2x1", 1),          # no implicit multiplication
        ("x1 $ x2", 3),      # unexpected character
        ("", 0),             # empty input
    ],
)
def test_parse_errors_carry_positions(text, position):
    with pytest.raises(ParseError) as err:
        parse(text, dim=2)
    assert err.value.position == position
    assert f"position {position}" in str(err.value)


def test_momentum_index_respects_dimension():
    parse("p3", dim=3)
    with pytest.raises(ParseError):
        parse("p3", dim=2)


# --------------------------------------------------------------------------
# printing


@pytest.mark.parametrize(
    "text",
    [
        "x1",
        "x1+x2*p1",
        "(x1+x2)*p1",
        "x1-(x2-p1)",
        "x1/(x2*p1)",
        "-(x1+x2)",
        "(-x1)^2",
        "x1^2^3",
        "(x1^2)^3",
        "0.5*(p1^2+(p1*x1+p2)^2)",
        "sin(x1+cos(p2))",
        "p1*(1+x1^2)+p2*x1",
        "2/(x1+3)",
    ],
)
def test_print_parse_round_trip(text):
    e = parse(text, dim=2)
    assert parse(to_text(e), dim=2) == e


def test_printer_drops_redundant_parentheses():
    assert to_text(parse("((x1))+((x2*p1))", dim=2)) == "x1+x2*p1"
    assert to_text(parse("(x1*x2)*p1", dim=2)) == "x1*x2*p1"


def test_printer_keeps_necessary_parentheses():
    assert to_text(parse("(x1+x2)*p1", dim=2)) == "(x1+x2)*p1"
    assert to_text(parse("x1-(x2-p1)", dim=2)) == "x1-(x2-p1)"
    assert to_text(parse("(x1^2)^3", dim=2)) == "(x1^2)^3"


def test_integral_constants_print_without_decimal_point():
    assert to_text(Const(2.0)) == "2"
    assert to_text(Const(0.5)) == "0.5"


_atoms = st.one_of(
    st.builds(Const, st.floats(min_value=0.0, max_value=1e6, allow_nan=False)),
    st.builds(Const, st.integers(min_value=0, max_value=9).map(float)),
    st.builds(Var, st.sampled_from("xp"), st.integers(min_value=1, max_value=2)),
)


def _compound(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from("+-*/^"), children, children),
        st.builds(Call, st.sampled_from(FUNCTIONS), children),
    )


@given(st.recursive(_atoms, _compound, max_leaves=25))
def test_round_trip_is_structural_identity(e):
    assert parse(to_text(e), dim=2) == e


# --------------------------------------------------------------------------
# evaluation


def test_worked_hamiltonian_value(worked_ham, base_point):
    assert evaluate(worked_ham.expr, base_point) == 2.5


def test_evaluate_accepts_flat_sequence(worked_ham, base_point):
    assert evaluate(worked_ham.expr, base_point.flat) == 2.5


def test_function_values():
    pt = PhasePoint(x=(0.5,), p=(2.0,))
    assert evaluate(parse("sin(x1)", dim=1), pt) == math.sin(0.5)
    assert evaluate(parse("cos(x1)", dim=1), pt) == math.cos(0.5)
    assert evaluate(parse("exp(x1)", dim=1), pt) == math.exp(0.5)
    assert evaluate(parse("ln(p1)", dim=1), pt) == math.log(2.0)
    assert evaluate(parse("sqrt(p1)", dim=1), pt) == math.sqrt(2.0)


def test_integer_power_of_negative_base():
    pt = PhasePoint(x=(-2.0,), p=(0.0,))
    assert evaluate(parse("x1^3", dim=1), pt) == -8.0
    assert evaluate(parse("x1^-2", dim=1), pt) == 0.25


def test_non_integer_power_of_negative_base_raises():
    pt = PhasePoint(x=(-2.0,), p=(0.0,))
    with pytest.raises(EvaluationError):
        evaluate(parse("x1^0.5", dim=1), pt)


def test_division_by_zero_raises():
    pt = PhasePoint(x=(1.0,), p=(0.0,))
    with pytest.raises(EvaluationError):
        evaluate(parse("x1/p1", dim=1), pt)


@pytest.mark.parametrize("text", ["ln(x1)", "sqrt(x1)"])
def test_log_and_root_domains(text):
    pt = PhasePoint(x=(-1.0,), p=(0.0,))
    with pytest.raises(EvaluationError):
        evaluate(parse(text, dim=1), pt)


def test_variable_beyond_point_dimension_raises():
    e = parse("x2", dim=2)
    with pytest.raises(DimensionError):
        evaluate(e, PhasePoint(x=(1.0,), p=(1.0,)))


def test_free_variables(worked_ham):
    assert free_variables(worked_ham.expr) == {Var("p", 1), Var("p", 2), Var("x", 1)}


def test_validate_checks_indices():
    e = parse("x2+p2", dim=2)
    validate(e, 2)
    with pytest.raises(DimensionError):
        validate(e, 1)


# --------------------------------------------------------------------------
# specs and the optimal-control reduction


def test_hamiltonian_spec_rejects_out_of_range_variables():
    with pytest.raises(ParseError):
        HamiltonianSpec.from_text("bad", 1, "p2^2")


def test_hamiltonian_spec_requires_positive_dim():
    with pytest.raises(DimensionError):
        HamiltonianSpec.from_text("bad", 0, "1")


def test_control_system_rejects_momentum_components():
    with pytest.raises(DimensionError):
        ControlAffineSystem.from_text(2, [["p1", "0"]])


def test_control_system_checks_component_count():
    with pytest.raises(DimensionError):
        ControlAffineSystem.from_text(2, [["1"]])


def test_pmp_hamiltonian_matches_hand_expansion():
    sys_ = ControlAffineSystem.from_text(2, [["1", "0"], ["x1", "1"]])
    ham = pmp_hamiltonian(sys_)
    assert ham.dim == 2
    assert ham.expr == parse("0.5*(p1^2+(p1*x1+p2)^2)", dim=2)


def test_pmp_hamiltonian_single_generator():
    sys_ = ControlAffineSystem.from_text(1, [["x1"]])
    ham = pmp_hamiltonian(sys_)
    pt = PhasePoint(x=(3.0,), p=(2.0,))
    # H = (p1*x1)^2 / 2 = 18
    assert evaluate(ham.expr, pt) == 18.0


def test_pmp_hamiltonian_requires_generators():
    with pytest.raises(ValueError):
        pmp_hamiltonian(ControlAffineSystem(dim=2, generators=()))


@given(
    st.lists(
        st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
        min_size=1,
        max_size=3,
    ),
    st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2)),
)
def test_pmp_value_is_half_sum_of_squared_momenta(gens, coords):
    """H must equal sum_a <p, X_a>^2 / 2 for constant generators."""
    sys_ = ControlAffineSystem(
        dim=2,
        generators=tuple(tuple(Const(c) for c in g) for g in gens),
    )
    ham = pmp_hamiltonian(sys_)
    pt = PhasePoint(x=coords[:2], p=coords[2:])
    expected = 0.5 * sum(
        (coords[2] * g[0] + coords[3] * g[1]) ** 2 for g in gens
    )
    assert evaluate(ham.expr, pt) == pytest.approx(expected, rel=1e-12, abs=1e-12)


class _Counting:
    """Scalar that counts the products taken to build it."""

    products = 0

    def __init__(self, exponent):
        self.exponent = exponent

    def __mul__(self, other):
        _Counting.products += 1
        return _Counting(self.exponent + other.exponent)


def test_int_pow_uses_logarithmically_many_products():
    from hamgeo.scalars import int_pow

    k = 10**6
    _Counting.products = 0
    assert int_pow(_Counting(1), k).exponent == k
    assert _Counting.products <= 2 * math.log2(k)


def test_int_pow_small_exponents_keep_their_products():
    from hamgeo.scalars import int_pow

    x = 1.1
    assert int_pow(x, 2) == x * x
    assert int_pow(x, 3) == (x * x) * x
    assert int_pow(x, -2) == 1.0 / (x * x)

"""Log-polar arithmetic: round trips, algebra, cancellation handling."""

import math

import pytest
from hypothesis import example, given, strategies as st

from mlsections.scaled import (
    SC_ZERO,
    ScaledComplex,
    sc_add,
    sc_from_complex,
    sc_mul,
    sc_sub,
    sc_to_complex,
)

finite = st.floats(min_value=-600.0, max_value=600.0,
                   allow_nan=False, allow_infinity=False)
phases = st.floats(min_value=-math.pi, max_value=math.pi,
                   allow_nan=False, allow_infinity=False)


def _close(a: complex, b: complex, rel: float = 1e-13) -> bool:
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale <= rel


@given(finite, phases)
def test_round_trip(log_mag, phase):
    w = sc_to_complex(ScaledComplex(log_mag, phase))
    back = sc_from_complex(w)
    assert math.isclose(back.log_mag, log_mag, rel_tol=1e-12, abs_tol=1e-12)


@given(st.complex_numbers(min_magnitude=1e-280, max_magnitude=1e280,
                          allow_nan=False, allow_infinity=False))
def test_from_to_complex(w):
    assert _close(sc_to_complex(sc_from_complex(w)), w, 1e-12)


def test_zero_element():
    b = ScaledComplex(3.0, 1.0)
    assert sc_mul(SC_ZERO, b).is_zero
    assert sc_add(b, SC_ZERO) == b
    assert sc_to_complex(SC_ZERO) == 0.0


def test_mul_extreme_magnitudes():
    a = ScaledComplex(350.0, 0.0)
    b = ScaledComplex(-350.0, math.pi / 2)
    p = sc_mul(a, b)
    assert p.log_mag == pytest.approx(0.0)
    assert p.phase == pytest.approx(math.pi / 2)


def test_to_complex_overflow():
    with pytest.raises(OverflowError):
        sc_to_complex(ScaledComplex(800.0, 0.0))


@given(finite, phases, finite, phases)
@example(0.0, 0.0, 0.0, 5e-324)  # the phase of the sum underflows
def test_add_commutative(l1, p1, l2, p2):
    a, b = ScaledComplex(l1, p1), ScaledComplex(l2, p2)
    u = sc_add(a, b)
    t = sc_add(b, a)
    if u.is_zero or t.is_zero:
        assert u.is_zero and t.is_zero
    else:
        assert math.isclose(u.log_mag, t.log_mag, rel_tol=1e-13, abs_tol=1e-13)


@given(st.lists(st.tuples(st.floats(min_value=-50, max_value=50,
                                    allow_nan=False),
                          phases), min_size=3, max_size=3))
def test_mul_associative(triple):
    a, b, c = (ScaledComplex(l, p) for l, p in triple)
    lhs = sc_mul(sc_mul(a, b), c)
    rhs = sc_mul(a, sc_mul(b, c))
    assert math.isclose(lhs.log_mag, rhs.log_mag, rel_tol=1e-13, abs_tol=1e-12)


def test_add_agrees_with_complex():
    pairs = [(1.2 + 0.5j, -0.3 + 2.1j), (4.0 + 0j, -4.0 + 1e-8j),
             (0.01j, 0.5 - 0.2j)]
    for u, v in pairs:
        got = sc_to_complex(sc_add(sc_from_complex(u), sc_from_complex(v)))
        # Error is relative to the operand scale, not the (possibly
        # cancelled) result scale.
        assert abs(got - (u + v)) <= 1e-12 * max(abs(u), abs(v))


def test_sub_and_neg():
    a = sc_from_complex(2.0 + 1.0j)
    d = sc_sub(a, a)
    assert d.is_zero or d.log_mag < a.log_mag - 30.0
    assert _close(sc_to_complex(sc_sub(a, sc_from_complex(0.5 - 3.0j))), 1.5 + 4.0j)
    # the zero state on either side: a itself, and -a
    assert sc_sub(a, SC_ZERO) == a
    assert _close(sc_to_complex(sc_sub(SC_ZERO, a)), -2.0 - 1.0j)


def test_total_cancellation_returns_zero():
    a = ScaledComplex(100.0, 0.3)
    assert sc_sub(a, a).is_zero

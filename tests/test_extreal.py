import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from riskctmdp.extreal import (INF, INFINITY, ExtReal, ExtRealDomainError,
                               ext_div, ext_exp, ext_mul, ext_sub_clamped)


@pytest.mark.parametrize("a, b, expected", [
    (0.0, INF, 0.0),
    (INF, 0.0, 0.0),
    (1.0, INF, INF),
    (INF, 2.5, INF),
    (INF, INF, INF),
    (2.0, 3.0, 6.0),
    (1.0, 7.25, 7.25),
    (0.0, 0.0, 0.0),
    (0.5, 0.0, 0.0),
])
def test_mul(a, b, expected):
    assert ext_mul(ExtReal(a), ExtReal(b)) == ExtReal(expected)


@pytest.mark.parametrize("a, b, expected", [
    (0.0, 0.0, 0.0),
    (1.0, 0.0, INF),
    (3.5, 0.0, INF),
    (6.0, 3.0, 2.0),
    (0.0, 5.0, 0.0),
    (0.0, INF, 0.0),
    (4.0, INF, 0.0),
    (INF, 2.0, INF),
    (INF, 0.0, INF),
])
def test_div(a, b, expected):
    assert ext_div(ExtReal(a), ExtReal(b)) == ExtReal(expected)


def test_div_inf_by_inf_rejected():
    with pytest.raises(ExtRealDomainError):
        ext_div(INFINITY, INFINITY)


@pytest.mark.parametrize("a, b, expected", [
    (INF, INF, INF),
    (INF, 5.0, INF),
    (INF, 0.0, INF),
    (5.0, 2.0, 3.0),
    (7.5, 0.0, 7.5),
    (2.0, 2.0, 0.0),
])
def test_sub_clamped(a, b, expected):
    assert ext_sub_clamped(ExtReal(a), ExtReal(b)) == ExtReal(expected)


@pytest.mark.parametrize("a, b", [(2.0, 5.0), (0.0, 1.0), (3.0, INF)])
def test_sub_clamped_rejects_leaving_domain(a, b):
    with pytest.raises(ExtRealDomainError):
        ext_sub_clamped(ExtReal(a), ExtReal(b))


def test_exp():
    assert ext_exp(ExtReal(0.0)) == ExtReal(1.0)
    assert ext_exp(INFINITY) == INFINITY
    assert ext_exp(ExtReal(math.log(2.0))).value == pytest.approx(2.0, rel=1e-15)
    # beyond double range the result saturates monotonically
    assert ext_exp(ExtReal(1e4)) == INFINITY


def test_exp_log_round_trip():
    for a in [0.01, 0.5, 1.0, 10.0, 300.0, 700.0]:
        out = ext_exp(ExtReal(a))
        assert out.is_finite
        assert abs(math.log(out.value) - a) <= 1e-12 * a
    assert math.log(ext_exp(ExtReal(0.0)).value) == 0.0
    # near zero the representation of e^a caps absolute accuracy instead
    tiny = ext_exp(ExtReal(1e-9))
    assert abs(math.log(tiny.value) - 1e-9) <= 1e-15


@pytest.mark.parametrize("bad", [-1.0, -1e-300, float("nan")])
def test_constructor_rejects(bad):
    with pytest.raises(ExtRealDomainError):
        ExtReal(bad)


def test_total_order():
    values = [ExtReal(0.0), ExtReal(1.0), ExtReal(3.5), INFINITY]
    assert sorted(values[::-1]) == values
    assert INFINITY > ExtReal(1e308)
    assert not INFINITY > INFINITY


_finite = st.floats(min_value=0.0, max_value=1e150, allow_nan=False)
_extended = st.one_of(_finite, st.just(INF))


@given(a=_extended, b=_extended, a2=_extended, b2=_extended)
def test_mul_monotone(a, b, a2, b2):
    lo_a, hi_a = sorted([a, a2])
    lo_b, hi_b = sorted([b, b2])
    assert ext_mul(ExtReal(lo_a), ExtReal(lo_b)) <= ext_mul(ExtReal(hi_a),
                                                            ExtReal(hi_b))


@given(a=_extended, a2=_extended)
def test_exp_monotone(a, a2):
    lo, hi = sorted([a, a2])
    assert ext_exp(ExtReal(lo)) <= ext_exp(ExtReal(hi))


@given(x=_extended)
def test_mul_absorbs_zero(x):
    assert ext_mul(ExtReal(0.0), ExtReal(x)) == ExtReal(0.0)
    assert ext_mul(ExtReal(x), ExtReal(0.0)) == ExtReal(0.0)

"""The fit's 2 × 2 layer in Python floats: the fma and the dgesv operation
sequence, each against the same steps done in exact rational arithmetic
and rounded once to the nearest float."""
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opahd.fitting import _fma, _inv2, _solve2

INF, NAN = math.inf, math.nan
MAX = sys.float_info.max
SMALLEST_NORMAL = sys.float_info.min


def _neg(x: float) -> bool:
    return math.copysign(1.0, x) < 0


def _nearest(q: Fraction, negative_zero: bool) -> float:
    """q rounded to the nearest float, ties to even, ±inf past the largest;
    an exact zero is -0.0 if negative_zero, else 0.0."""
    if q == 0:
        return -0.0 if negative_zero else 0.0
    sign, q = (-1.0 if q < 0 else 1.0), abs(q)
    k = q.numerator.bit_length() - q.denominator.bit_length()
    if q < Fraction(2) ** k:
        k -= 1                          # now 2^k ≤ q < 2^(k+1)
    e = max(k - 52, -1074)              # the spacing of the floats at q
    num, den = q.numerator, q.denominator
    if e < 0:
        num <<= -e
    else:
        den <<= e
    n, rest = divmod(num, den)          # q / 2^e = n + rest / den
    if 2 * rest > den or (2 * rest == den and n % 2):
        n += 1
    try:
        return sign * math.ldexp(n, e)
    except OverflowError:
        return sign * INF


def _finite(*xs: float) -> bool:
    return all(math.isfinite(x) for x in xs)


def _mul(x: float, y: float) -> float:
    if not _finite(x, y):
        return x * y                    # exact: the result is inf or NaN
    return _nearest(Fraction(x) * Fraction(y), _neg(x) != _neg(y))


def _div(x: float, y: float) -> float:
    if not _finite(x, y) or y == 0:
        return x / y
    return _nearest(Fraction(x) / Fraction(y), _neg(x) != _neg(y))


def _sub(x: float, y: float) -> float:
    if not _finite(x, y):
        return x - y
    return _nearest(Fraction(x) - Fraction(y), _neg(x) and not _neg(y))


def _exact_fma(a: float, b: float, c: float) -> float:
    """IEEE 754 fusedMultiplyAdd, round to nearest."""
    if math.isnan(a) or math.isnan(b) or math.isnan(c):
        return NAN
    if math.isinf(a) or math.isinf(b):
        if a == 0 or b == 0:
            return NAN
        product = -INF if _neg(a) != _neg(b) else INF
        return NAN if c == -product else product
    if math.isinf(c):
        return c
    # An exact zero is -0.0 only as a -0 product plus -0.
    negative_zero = (a == 0 or b == 0) and _neg(a) != _neg(b) and c == 0 and _neg(c)
    return _nearest(Fraction(a) * Fraction(b) + Fraction(c), negative_zero)


def _exact_lu(m00, m01, m10, m11):
    swapped = abs(m10) > abs(m00)
    if swapped:
        m00, m01, m10, m11 = m10, m11, m00, m01
    if m00 == 0:
        return None
    l = _mul(m10, _div(1.0, m00)) if abs(m00) >= SMALLEST_NORMAL else _div(m10, m00)
    u11 = _sub(m11, _mul(l, m01))
    return None if u11 == 0 else (swapped, m00, m01, l, u11)


def _exact_solve(m, b0, b1):
    """The documented trsv sequence, or "singular"."""
    lu = _exact_lu(*m)
    if lu is None:
        return "singular"
    swapped, m00, m01, l, u11 = lu
    if swapped:
        b0, b1 = b1, b0
    x1 = _div(_exact_fma(-b0, l, b1), u11)
    return _div(_exact_fma(-x1, m01, b0), m00), x1


def _exact_inv(m):
    """The documented trsm sequence as (i00, i01, i10, i11), or "singular"."""
    lu = _exact_lu(*m)
    if lu is None:
        return "singular"
    swapped, m00, m01, l, u11 = lu
    r00, r11 = _div(1.0, m00), _div(1.0, u11)
    cols = []
    for e0, e1 in ((0.0, 1.0), (1.0, 0.0)) if swapped else ((1.0, 0.0), (0.0, 1.0)):
        x1 = _mul(_exact_fma(-e0, l, e1), r11)
        cols.append((_mul(_exact_fma(-x1, m01, e0), r00), x1))
    (i00, i10), (i01, i11) = cols
    return i00, i01, i10, i11


def _hex(values):
    return tuple(float(x).hex() for x in values)


def _fma_hex(a, b, c):
    return _fma(a, b, c).hex(), _exact_fma(a, b, c).hex()


def _random_float(rng: random.Random, lo_exp: int, hi_exp: int) -> float:
    return math.ldexp(rng.uniform(-1.0, 1.0), rng.randint(lo_exp, hi_exp))


class TestFma:
    @pytest.mark.parametrize("lo_exp, hi_exp", [(-8, 8), (-400, 400), (-1070, 1020)])
    def test_random_triples(self, lo_exp, hi_exp):
        rng = random.Random(lo_exp)
        for _ in range(3000):
            a, b = _random_float(rng, lo_exp, hi_exp), _random_float(rng, lo_exp, hi_exp)
            if rng.random() < 0.5:
                # c near −a·b: the sum cancels most of the product's bits.
                c = -(a * b) * (1.0 + _random_float(rng, -60, -20))
            else:
                c = _random_float(rng, lo_exp, hi_exp)
            got, expected = _fma_hex(a, b, c)
            assert got == expected, (a, b, c)

    @settings(max_examples=500, deadline=None)
    @given(st.floats(), st.floats(), st.floats())
    def test_any_floats(self, a, b, c):
        got, expected = _fma_hex(a, b, c)
        assert got == expected

    def test_signed_zeros(self):
        for a in (0.0, -0.0, 1.5, -1.5, 1e300, -1e-300):
            for b in (0.0, -0.0):
                for c in (0.0, -0.0):
                    got, expected = _fma_hex(a, b, c)
                    assert got == expected, (a, b, c)
                    assert got == _fma(b, a, c).hex()
        assert _fma(-0.0, 1.0, -0.0).hex() == "-0x0.0p+0"
        assert _fma(-0.0, 1.0, 0.0).hex() == "0x0.0p+0"

    def test_exact_cancellation(self):
        for a, b, c in [(3.0, 5.0, -15.0), (-3.0, 5.0, 15.0), (0.5, 1e-200, -5e-201),
                        (2.0 ** 600, 2.0 ** 400, -(2.0 ** 1000))]:
            assert _fma(a, b, c).hex() == "0x0.0p+0"
        # 0.1 · 3 is not a float: fma leaves the product's rounding error.
        a, b = 0.1, 3.0
        got = _fma(a, b, -(a * b))
        assert got != 0.0 and got.hex() == _exact_fma(a, b, -(a * b)).hex()

    def test_subnormal_results(self):
        for a, b, c in [(1.25 * 2.0 ** -540, 1.5 * 2.0 ** -540, 0.0),
                        (2.0 ** -537, 2.0 ** -537, -5e-324),
                        (-(2.0 ** -600), 1.75 * 2.0 ** -474, 3e-320),
                        (2.0 ** -538, 2.0 ** -538, 0.0),
                        (-(2.0 ** -538), 1.5 * 2.0 ** -538, 0.0),
                        (-(2.0 ** -538), 1.5 * 2.0 ** -537, 0.0)]:
            got = _fma(a, b, c)
            assert abs(got) < SMALLEST_NORMAL
            assert got.hex() == _exact_fma(a, b, c).hex(), (a, b, c)
        # Half the least subnormal is a tie and goes to zero; 3/8 of it goes
        # to zero, keeping its sign; 3/4 of it goes to the least subnormal.
        assert _fma(2.0 ** -538, 2.0 ** -538, 0.0).hex() == "0x0.0p+0"
        assert _fma(-(2.0 ** -538), 1.5 * 2.0 ** -538, 0.0).hex() == "-0x0.0p+0"
        assert _fma(-(2.0 ** -538), 1.5 * 2.0 ** -537, 0.0).hex() == "-0x0.0000000000001p-1022"

    def test_finite_result_from_an_overflowing_product(self):
        a, b, c = 1.5 * 2.0 ** 600, 2.0 ** 424, -MAX
        assert a * b + c == INF
        got = _fma(a, b, c)
        assert math.isfinite(got) and got.hex() == _exact_fma(a, b, c).hex()

    def test_overflow_to_infinity(self):
        assert _fma(1e200, 1e200, 1.0) == INF
        assert _fma(-1e200, 1e200, 1.0) == -INF
        assert _fma(1e200, -1e200, MAX) == -INF
        # MAX + half its spacing is a tie, and MAX's last bit is odd: inf.
        assert _fma(MAX, 1.0, 2.0 ** 970) == INF
        assert _fma(MAX, -1.0, -(2.0 ** 970)) == -INF
        assert _fma(MAX, 1.0, 2.0 ** 970 - 2.0 ** 917) == MAX
        # a·b is MAX plus 0.41 of its spacing and rounds to MAX, so a·b + c
        # is MAX; the exact sum is MAX plus 0.66 of the spacing.
        a, b = 1.1824175661473065e+154, 1.5203538803299187e+154
        assert a * b == MAX and a * b + 2.0 ** 969 == MAX
        assert _fma(a, b, 2.0 ** 969) == INF

    def test_inf_and_nan_operands(self):
        values = (INF, -INF, NAN, 0.0, -0.0, 1.0, -2.5, 1e300, MAX)
        for a in values:
            for b in values:
                for c in values:
                    got, expected = _fma_hex(a, b, c)
                    assert got == expected, (a, b, c)
        # A finite product that overflows plus the opposite infinity is that
        # infinity, where a·b + c would be NaN.
        assert _fma(1e300, -1e300, INF) == INF


SYSTEMS = {
    "no_swap": ((4.0, 1.0, 1.0, 3.0), (1.0, 2.0)),
    "row_swap": ((1.0, 2.0, 3.0, 4.0), (0.1, -0.7)),
    "tie_keeps_rows": ((2.5, -0.1, -2.5, -1.0), (0.3, 0.6)),
    "damped_jtj": ((0.030327, 0.61254, 0.61254, 21.00731), (-0.0031, 0.21)),
    "subnormal_pivot": ((1e-310, 1.0, 3e-311, 2.0), (1.0, 2.0)),
    "subnormal_pivot_swapped": ((3e-311, 1.0, 1e-310, 2.0), (1.0, 1.0)),
    "inf_entries": ((INF, INF, INF, INF), (-1.0, -2.0)),
    "one_inf_pivot": ((INF, 1.0, 1.0, 2.0), (1.0, 1.0)),
}

SINGULAR = {
    "zero_first_column": (0.0, 1.0, 0.0, 2.0),
    "negative_zero_first_column": (-0.0, 1.0, 0.0, 2.0),
    "u11_zero": (1.0, 2.0, 2.0, 4.0),
    "u11_zero_after_swap": (3.0, 1.0, 6.0, 2.0),
}


class TestSolve2x2:
    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_solve_and_inverse_follow_the_sequence(self, name):
        m, (b0, b1) = SYSTEMS[name]
        assert _hex(_solve2(*m, b0, b1)) == _hex(_exact_solve(m, b0, b1))
        got = _inv2(*m)
        assert _hex(got[0] + got[1]) == _hex(_exact_inv(m))

    def test_subnormal_pivot_divides(self):
        # l = m10 / m00 ≈ 0.3, where m10 · (1/m00) would be m10 · inf: the
        # second row of the inverse is the true one, (−m10, m00) / det.
        inv = _inv2(1e-310, 1.0, 3e-311, 2.0)
        assert inv[1] == pytest.approx([-0.3 / 1.7, 1.0 / 1.7], rel=1e-9)

    def test_inf_entries_give_nan(self):
        # JᵀJ overflowed: l = inf · (1/inf) is NaN, and so is everything after.
        assert all(math.isnan(x) for x in _solve2(INF, INF, INF, INF, -1.0, -2.0))
        assert all(math.isnan(x) for row in _inv2(INF, INF, INF, INF) for x in row)

    @pytest.mark.parametrize("name", sorted(SINGULAR))
    def test_singular(self, name):
        m = SINGULAR[name]
        assert _exact_solve(m, 1.0, 1.0) == _exact_inv(m) == "singular"
        with pytest.raises(ZeroDivisionError):
            _solve2(*m, 1.0, 1.0)
        with pytest.raises(ZeroDivisionError):
            _inv2(*m)

    def test_random_systems(self):
        rng = random.Random(2024)
        for _ in range(2000):
            m = tuple(_random_float(rng, -30, 30) for _ in range(4))
            b0, b1 = _random_float(rng, -30, 30), _random_float(rng, -30, 30)
            assert _hex(_solve2(*m, b0, b1)) == _hex(_exact_solve(m, b0, b1)), m
            got = _inv2(*m)
            assert _hex(got[0] + got[1]) == _hex(_exact_inv(m)), m

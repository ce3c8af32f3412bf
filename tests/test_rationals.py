import math
import operator
import pickle
import random
from fractions import Fraction

import pytest

from pairform.rationals import I, ONE, ZERO, GaussianRational, from_parts, gq
from pairform.scalar import parse_gaussian

from helpers import norm2


def test_field_arithmetic():
    a = gq("3/2", 1)
    b = gq(2, "-1/3")
    assert a + b == gq("7/2", "2/3")
    assert a - b == gq("-1/2", "4/3")
    assert a * b == gq(Fraction(3) + Fraction(1, 3), Fraction(2) - Fraction(1, 2))
    assert (a / b) * b == a
    assert -a == gq("-3/2", -1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        gq(1) / gq(0)


def test_conjugate_and_norm():
    a = gq(3, 4)
    assert a.conjugate() == gq(3, -4)
    assert norm2(a) == 25
    assert (a * a.conjugate()) == gq(25)


def test_int_and_fraction_interop():
    a = gq(1, 1)
    assert a + 1 == gq(2, 1)
    assert 2 * a == gq(2, 2)
    assert a - Fraction(1, 2) == gq("1/2", 1)
    assert 1 / gq(0, 1) == gq(0, -1)


def test_truthiness():
    assert not gq(0)
    assert gq(0, "1/7")


@pytest.mark.parametrize("value", [
    gq(0), gq(1), gq(-1), gq("3/2"), gq(0, 1), gq(0, -1), gq(0, "5/3"),
    gq(1, 1), gq("-1/2", "3/4"), gq(2, -1),
])
def test_render_parse_round_trip(value):
    assert parse_gaussian(str(value)) == value


# -- the (a, b, d) kernel against a plain (Fraction, Fraction) reference -------


def _ref_op(op, x, y):
    (a, b), (c, d) = x, y
    if op is operator.add:
        return a + c, b + d
    if op is operator.sub:
        return a - c, b - d
    if op is operator.mul:
        return a * c - b * d, a * d + b * c
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


def _ref_str(re, im):
    """The rendering of the earlier two-Fraction representation."""
    if not re and not im:
        return "0"
    if not im:
        return str(re)
    imag = "i" if im == 1 else ("-i" if im == -1 else f"{im}i")
    if not re:
        return imag
    return f"({re}{'+' if im > 0 else ''}{imag})"


def _assert_canonical(z):
    assert type(z) is GaussianRational
    assert all(type(v) is int for v in (z.a, z.b, z.d))
    assert z.d > 0
    assert math.gcd(z.a, z.b, z.d) == 1


def _random_fraction(rng):
    kind = rng.random()
    if kind < 0.15:
        return Fraction(0)
    if kind < 0.3:
        # large numerators and denominators
        return Fraction(rng.randint(-2 ** 80, 2 ** 80), rng.randint(1, 2 ** 40))
    # negative denominators are normalised by Fraction itself
    return Fraction(rng.randint(-30, 30), rng.choice([1, 1, 2, 3, 4, 6, -5, -12]))


def _random_value(rng):
    """A Gaussian rational and its (re, im) Fractions."""
    re, im = _random_fraction(rng), _random_fraction(rng)
    return gq(re, im), (re, im)


def _random_operand(rng):
    """A Gaussian rational, int or Fraction and its (re, im) Fractions."""
    kind = rng.random()
    if kind < 0.6:
        return _random_value(rng)
    if kind < 0.8:
        n = rng.choice([0, 1, -1, rng.randint(-50, 50), rng.randint(-2 ** 70, 2 ** 70)])
    else:
        n = _random_fraction(rng)
    return n, (Fraction(n), Fraction(0))


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv])
def test_operators_match_fraction_pair_reference(op):
    rng = random.Random(1406)
    for _ in range(1500):
        (x, rx), (y, ry) = _random_operand(rng), _random_operand(rng)
        if not isinstance(y, GaussianRational):
            (x, rx) = _random_value(rng)
            if rng.random() < 0.5:
                (x, rx), (y, ry) = (y, ry), (x, rx)
        if op is operator.truediv and not any(ry):
            with pytest.raises(ZeroDivisionError):
                op(x, y)
            continue
        got = op(x, y)
        _assert_canonical(got)
        assert (got.re, got.im) == _ref_op(op, rx, ry)


def test_unary_operations_and_rendering_match_reference():
    rng = random.Random(5714)
    for _ in range(2000):
        z, (re, im) = _random_value(rng)
        _assert_canonical(z)
        for got, want in ((z, (re, im)), (-z, (-re, -im)), (z.conjugate(), (re, -im))):
            _assert_canonical(got)
            assert (got.re, got.im) == want
        assert norm2(z) == re * re + im * im
        assert type(z.re) is Fraction and type(z.im) is Fraction
        assert z.is_real == (im == 0)
        assert bool(z) == bool(re or im)
        assert str(z) == _ref_str(re, im)
        assert parse_gaussian(str(z)) == z


def test_equal_values_are_equal_and_hash_equal():
    rng = random.Random(42)
    for _ in range(1000):
        z, _ = _random_value(rng)
        k = rng.choice([-7, -1, 2, 3, 12])
        same = [gq(z.re, z.im), from_parts(z.a * k, z.b * k, z.d * k),
                (z * k) / k, z + ZERO, z * ONE, -(-z), (z * I) / I,
                pickle.loads(pickle.dumps(z))]
        for w in same:
            _assert_canonical(w)
            assert w == z and hash(w) == hash(z)
        assert z + 1 != z


def test_int_constructor_fast_path_matches_fraction_path():
    rng = random.Random(3)
    for n in [0, 1, -1, 2 ** 90, -(2 ** 65)] + [rng.randint(-99, 99) for _ in range(200)]:
        m = rng.randint(-99, 99)
        fast = gq(n, m)
        slow = gq(Fraction(n), Fraction(m))
        _assert_canonical(fast)
        assert fast == slow and hash(fast) == hash(slow)
        assert (fast.a, fast.b, fast.d) == (n, m, 1)


def test_from_parts_normalises_sign_and_gcd():
    z = from_parts(6, -4, -8)
    _assert_canonical(z)
    assert (z.a, z.b, z.d) == (-3, 2, 4)
    assert from_parts(0, 0, -5) == ZERO
    with pytest.raises(ZeroDivisionError):
        from_parts(1, 1, 0)


def test_int_comparison_stays_false():
    assert (gq(1) == 1) is False
    assert (1 == gq(1)) is False
    assert (gq(0) == 0) is False
    assert gq(1) != 1


def test_values_are_immutable():
    z = gq(1, 2)
    for name in ("a", "b", "d", "re", "im", "extra"):
        with pytest.raises(AttributeError):
            setattr(z, name, 3)
    with pytest.raises(AttributeError):
        del z.a
    assert z == gq(1, 2)


def test_unsupported_operands():
    with pytest.raises(TypeError):
        gq(1) + 0.5
    with pytest.raises(TypeError):
        gq(1) * "2"
    with pytest.raises(TypeError):
        gq(1.5)

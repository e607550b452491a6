import pytest
from fractions import Fraction

from hypothesis import given, strategies as st

from spectower.errors import ParseError
from spectower.field import Field, parse_field, parse_scalar


def test_field_tags():
    assert repr(Field()) == "Q"
    assert repr(Field(7)) == "F7"
    assert parse_field("Q") == Field()
    assert parse_field("F5") == Field(5)


def test_primality_enforced():
    with pytest.raises(ValueError):
        Field(1)
    with pytest.raises(ValueError):
        Field(15)
    Field(2 ** 61 - 1)  # large prime still fine
    with pytest.raises(ParseError):
        parse_field("F9")
    with pytest.raises(ParseError):
        parse_field("R")


def test_miller_rabin_refuses_composites_past_the_trial_divisors():
    # 65537 - 1 = 2^16, so each base runs the squaring loop; 2173 = 41 * 53
    # has no factor among the bases, and 3215031751 = 151 * 751 * 28351 is a
    # strong pseudoprime to bases 2, 3, 5 and 7, refused by base 11
    assert Field(65537).p == 65537
    for n in (2173, 3215031751):
        with pytest.raises(ValueError, match="^%d is not prime$" % n):
            Field(n)


def test_normalize_canonical():
    f5 = Field(5)
    assert f5.normalize(-3) == 2
    assert f5.normalize(Fraction(1, 2)) == 3  # 2^{-1} = 3 mod 5
    q = Field()
    assert q.normalize("2/4") == Fraction(1, 2)
    with pytest.raises(TypeError):
        q.normalize(0.5)
    with pytest.raises(ZeroDivisionError):
        f5.normalize(Fraction(1, 5))
    assert f5.normalize(Fraction(4, 2)) == 2  # a "4/2" scalar: an integer Fraction


def test_scalar_strings():
    assert parse_scalar("-7") == -7
    assert parse_scalar("3/4") == Fraction(3, 4)
    with pytest.raises(ParseError):
        parse_scalar("x")
    q = Field()
    assert q.format_scalar(Fraction(-1, 3)) == "-1/3"
    assert q.format_scalar(Fraction(4, 2)) == "2"
    assert Field(5).format_scalar(3) == "3"


@given(st.integers(-50, 50), st.sampled_from([2, 3, 5, 7, 11]))
def test_fp_inverse_roundtrip(a, p):
    f = Field(p)
    x = f.normalize(a)
    assert f.add(x, f.neg(x)) == 0
    if x != 0:
        assert f.mul(x, f.inv(x)) == 1


@given(st.fractions(max_denominator=20))
def test_q_inverse_roundtrip(x):
    q = Field()
    x = q.normalize(x)
    assert q.add(x, q.neg(x)) == 0
    if x != 0:
        assert q.mul(x, q.inv(x)) == 1


def test_a_field_is_immutable_and_refuses_to_invert_zero():
    with pytest.raises(AttributeError, match="^Field is immutable$"):
        Field(5).p = 7
    with pytest.raises(ZeroDivisionError, match="^inverse of 0$"):
        Field().inv(Fraction(0))
    with pytest.raises(ZeroDivisionError, match="^inverse of 0 in F5$"):
        Field(5).inv(10)

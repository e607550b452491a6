"""Exact scalar arithmetic over F_p (p a word-sized prime) and over Q.

Scalars are plain Python values: canonical residues (ints in [0, p)) for a
prime field, `fractions.Fraction` for the rationals.  A `Field` object owns
the arithmetic; there is no scalar wrapper class and no floating point
anywhere.
"""

from fractions import Fraction

from .errors import ParseError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_WORD_BOUND = 1 << 63

_ZERO = Fraction(0)  # Fractions are immutable, so Q shares its constants
_ONE = Fraction(1)


def _is_prime(n):
    # deterministic Miller-Rabin, exact for n < 3.3e24
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """F_p when constructed as Field(p), the rationals as Field().

    Immutable; two fields compare equal iff they have the same order.
    """

    __slots__ = ("p",)

    def __init__(self, p=None):
        if p is not None:
            if not isinstance(p, int) or not (2 <= p < _WORD_BOUND):
                raise ValueError("prime field order must be a word-sized integer >= 2, got %r" % (p,))
            if not _is_prime(p):
                raise ValueError("%d is not prime" % p)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "Q" if self.p is None else "F%d" % self.p

    # -- canonical form -------------------------------------------------

    @property
    def zero(self):
        return _ZERO if self.p is None else 0

    @property
    def one(self):
        return _ONE if self.p is None else 1

    def normalize(self, x):
        """Canonical form of x: Fraction over Q, residue in [0,p) over F_p.

        Accepts ints, Fractions and strings like "-3" or "2/5".  Over F_p a
        fraction a/b maps to a * b^{-1} mod p; b divisible by p is an error.
        """
        if type(x) is int:  # the common case, ahead of the isinstance chain
            return Fraction(x) if self.p is None else x % self.p
        if isinstance(x, str):
            x = parse_scalar(x)
        if isinstance(x, float):
            raise TypeError("floating point scalars are not allowed")
        if self.p is None:
            return x if type(x) is Fraction else Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator == 1:
                return x.numerator % self.p
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError("denominator %d is 0 in F%d" % (x.denominator, self.p))
            return x.numerator * pow(den, -1, self.p) % self.p
        return x % self.p

    # -- arithmetic (arguments must already be canonical) ---------------

    def add(self, a, b):
        return (a + b) % self.p if self.p is not None else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p is not None else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p is not None else a * b

    def neg(self, a):
        return (-a) % self.p if self.p is not None else -a

    def inv(self, a):
        if self.p is None:
            if a == 0:
                raise ZeroDivisionError("inverse of 0")
            return 1 / a
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in F%d" % self.p)
        return pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def format_scalar(self, a):
        """Canonical text form: decimal integer, or "a/b" over Q."""
        if self.p is None:
            if a.denominator == 1:
                return str(a.numerator)
            return "%d/%d" % (a.numerator, a.denominator)
        return str(a)


def parse_scalar(text):
    """Parse "-7" or "3/4" into an int or Fraction (no reduction target)."""
    if isinstance(text, int):
        return text
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/")
            return Fraction(int(num), int(den))
        return int(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError("bad scalar %r: %s" % (text, exc)) from exc


def parse_field(name):
    """Parse a field tag: "Q" or "F<p>"."""
    if isinstance(name, Field):
        return name
    s = str(name).strip()
    if s in ("Q", "QQ"):
        return Field()
    if s.startswith("F"):
        try:
            p = int(s[1:])
        except ValueError:
            raise ParseError("bad field tag %r" % (name,)) from None
        try:
            return Field(p)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    raise ParseError("bad field tag %r (expected \"Q\" or \"F<p>\")" % (name,))


Q = Field()
F2 = Field(2)

"""Unit tests for exact arithmetic in Q(sqrt2, sqrt3, sqrt5)."""

import copy
import operator
import pickle
import random
import re
from fractions import Fraction
from math import gcd, lcm

import pytest

from rank2go.field import (
    _INDEX,
    ONE,
    RADICANDS,
    SQRT2,
    SQRT3,
    SQRT5,
    SQRT6,
    ZERO,
    Scalar,
    parse_scalar,
    ring_scalar,
    scalar,
    scalar_approx,
    scalar_arith,
    scalar_sign,
)


def _random_scalar(rng, span=40, den_span=12, sparse=False):
    nums = [rng.randint(-span, span) for _ in range(8)]
    if sparse:
        keep = rng.sample(range(8), rng.randint(1, 3))
        nums = [n if i in keep else 0 for i, n in enumerate(nums)]
    return Scalar(tuple(nums), rng.randint(1, den_span))


def test_basis_products_close_correctly():
    # sqrt2 * sqrt3 = sqrt6, sqrt6 * sqrt10 = 2*sqrt15, sqrt30^2 = 30
    assert SQRT2 * SQRT3 == SQRT6
    assert SQRT6 * Scalar.of_radical(10) == Scalar.of_radical(15, 2)
    assert Scalar.of_radical(30) * Scalar.of_radical(30) == scalar(30)
    for a in RADICANDS:
        for b in RADICANDS:
            prod = Scalar.of_radical(a) * Scalar.of_radical(b)
            sq = prod * prod
            assert sq.is_rational
            assert sq.as_fraction() == a * b


def test_field_axioms_on_random_triples():
    rng = random.Random(20240817)
    for _ in range(400):
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        c = _random_scalar(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO
        if a:
            assert a * a.inverse() == ONE
            assert (a * b) / a == b


def test_normalization_is_canonical():
    assert Scalar((2, 4, 0, 0, 0, 0, 0, 0), 6) == Scalar((1, 2, 0, 0, 0, 0, 0, 0), 3)
    assert Scalar((1, 0, 0, 0, 0, 0, 0, 0), -2) == Scalar((-1, 0, 0, 0, 0, 0, 0, 0), 2)
    for q in (3, 0, -7, Fraction(5, 3), Fraction(-5, 3)):
        # Built directly, and as a sum that reduces to it.
        for x in (scalar(q), scalar(q) * 2 - Fraction(q)):
            assert (x.nums, x.den) == ((q.numerator,) + (0,) * 7, q.denominator)
            assert hash(x) == hash(Fraction(q)) == hash(q)
    for n in (0, -7, 6):
        x = Scalar.from_int(n)
        assert (x.nums, x.den, x.is_rational) == ((n,) + (0,) * 7, 1, True)
    for ring, den, nums, want_den in [
        (((0, 6), (3, -4)), 4, (3, 0, 0, -2, 0, 0, 0, 0), 2),
        (((7, 5),), 1, (0, 0, 0, 0, 0, 0, 0, 5), 1),
        (((0, -9),), 6, (-3, 0, 0, 0, 0, 0, 0, 0), 2),
        ((), 5, (0,) * 8, 1),
    ]:
        x = ring_scalar(ring, den)
        assert (x.nums, x.den) == (nums, want_den)
        assert x.is_rational == (not any(nums[1:]))


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        Scalar((1, 0, 0, 0, 0, 0, 0, 0), 0)
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_sign_matches_float_on_random_values():
    rng = random.Random(77)
    for _ in range(300):
        a = _random_scalar(rng, span=25)
        s = a.sign()
        lo, hi = a.approx(40)
        if s == 0:
            assert not a
            assert lo == hi == 0
        elif s > 0:
            assert hi > 0
        else:
            assert lo < 0


def test_sign_on_nearly_cancelling_combination():
    # sqrt2*sqrt3 - sqrt6 is exactly zero; a tiny perturbation is not.
    assert (SQRT2 * SQRT3 - SQRT6).sign() == 0
    tiny = SQRT2 * SQRT3 - SQRT6 + Scalar((1, 0, 0, 0, 0, 0, 0, 0), 10**30)
    assert tiny.sign() == 1
    assert (ZERO - tiny).sign() == -1
    # 3363/2378 is a convergent of sqrt2; the difference is ~1e-7.
    close = scalar(Fraction(3363, 2378)) - SQRT2
    assert close.sign() == 1
    assert (SQRT2 - scalar(Fraction(3363, 2378))).sign() == -1


def test_sign_is_multiplicative():
    rng = random.Random(4242)
    for _ in range(200):
        a = _random_scalar(rng, span=15, sparse=True)
        b = _random_scalar(rng, span=15, sparse=True)
        assert (a * b).sign() == a.sign() * b.sign()


def test_approx_width_and_nesting():
    rng = random.Random(999)
    for _ in range(60):
        a = _random_scalar(rng)
        prev = None
        for bits in (8, 16, 32, 64):
            lo, hi = a.approx(bits)
            assert hi - lo <= Fraction(1, 2**bits)
            if prev is not None:
                plo, phi = prev
                assert plo <= lo and hi <= phi
            prev = (lo, hi)


def test_approx_brackets_known_values():
    lo, hi = SQRT2.approx(50)
    assert lo * lo <= 2 <= hi * hi
    lo, hi = (SQRT2 + SQRT3).approx(50)
    assert float(lo) == pytest.approx(3.14626436994, abs=1e-9)


def test_comparisons_follow_real_embedding():
    assert SQRT2 < SQRT3 < scalar(2) < SQRT5
    assert SQRT2 + SQRT3 > SQRT5
    assert scalar(Fraction(7, 5)) < SQRT2 <= SQRT2


def test_sqrt_of_rationals():
    assert scalar(4).sqrt() == scalar(2)
    assert scalar(8).sqrt() == Scalar.of_radical(2, 2)
    assert scalar(Fraction(3, 4)).sqrt() == Scalar.of_radical(3, Fraction(1, 2))
    assert scalar(30).sqrt() == Scalar.of_radical(30)
    assert scalar(Fraction(5, 2)).sqrt() == Scalar.of_radical(10, Fraction(1, 2))
    assert ZERO.sqrt() == ZERO
    for n in (7, 11, 14, 21):
        with pytest.raises(ValueError):
            scalar(n).sqrt()
    with pytest.raises(ValueError):
        scalar(-4).sqrt()
    with pytest.raises(ValueError):
        SQRT2.sqrt()
    rng = random.Random(5150)
    for _ in range(100):
        a = _random_scalar(rng, span=9, sparse=True)
        sq = a * a
        if sq.is_rational:
            r = sq.sqrt()
            assert r * r == sq
            assert r.sign() >= 0


def test_power_and_negative_power():
    a = SQRT2 + ONE
    assert a**0 == ONE
    assert a**2 == scalar(3) + Scalar.of_radical(2, 2)
    assert a**-1 == SQRT2 - ONE
    assert a**3 * a**-3 == ONE


def test_exact_str_round_trip():
    rng = random.Random(31337)
    for _ in range(150):
        a = _random_scalar(rng)
        assert parse_scalar(a.exact_str()) == a
        assert parse_scalar(str(a)) == a
    assert parse_scalar(ZERO.exact_str()) == ZERO
    assert parse_scalar("0") == ZERO


def test_exact_str_format():
    a = Scalar((1, -3, 0, 0, 0, 0, 0, 1), 2)
    assert a.exact_str() == "1/2 + -3/2*r2 + 0*r3 + 0*r5 + 0*r6 + 0*r10 + 0*r15 + 1/2*r30"
    assert str(a) == "1/2 - 3/2*r2 + 1/2*r30"
    assert str(ZERO) == "0"
    assert str(-SQRT2) == "-r2"


def fraction_exact_str(x):
    """exact_str as first written: each coordinate through a Fraction."""
    parts = []
    for i, r in enumerate(RADICANDS):
        q = Fraction(x.nums[i], x.den)
        text = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
        parts.append(text if i == 0 else f"{text}*r{r}")
    return " + ".join(parts)


def test_exact_str_matches_the_fraction_formula():
    rng = random.Random(2024)
    values = [ZERO, ONE, -ONE, SQRT2, -SQRT6, Scalar((0, 4, -6, 0, 9, 0, 0, -12), 6)]
    for _ in range(3000):
        x = _random_scalar(rng, den_span=24, sparse=rng.random() < 0.5)
        values += [x, -x]
    seen = set()
    for x in values:
        assert x.exact_str() == fraction_exact_str(x)
        for n in x.nums:
            g = gcd(n, x.den)
            seen.add(
                "zero" if n == 0
                else "integral" if g == x.den
                else "reducible" if g > 1
                else "lowest"
            )
            seen.add("negative" if n < 0 else "nonnegative")
    assert seen == {"zero", "integral", "reducible", "lowest", "negative", "nonnegative"}


def test_parse_compact_literals():
    assert parse_scalar("2") == scalar(2)
    assert parse_scalar("1/3") == scalar(Fraction(1, 3))
    assert parse_scalar("r2") == SQRT2
    assert parse_scalar("-r2") == -SQRT2
    assert parse_scalar("2*r3") == Scalar.of_radical(3, 2)
    assert parse_scalar("1 + r2") == ONE + SQRT2
    assert parse_scalar("1+-1/2*r6") == ONE - Scalar.of_radical(6, Fraction(1, 2))
    assert parse_scalar("r2+r2") == Scalar.of_radical(2, 2)
    for bad in ("", "xyz", "r7", "1**r2", "++2", "2r"):
        with pytest.raises(ValueError):
            parse_scalar(bad)


@pytest.mark.parametrize("text, term", [("r7", "r7"), ("1/2*r7", "1/2*r7"),
                                        ("2-x", "-x"), ("1 + r7", "r7")])
def test_parse_error_quotes_the_term_as_written(text, term):
    """The bad term is reported as the user wrote it, a substring of the
    input, not with the sign the parser puts in front."""
    with pytest.raises(ValueError) as err:
        parse_scalar(text)
    assert str(err.value) == f"bad term {term!r} in scalar literal {text!r}"
    assert term in text


def test_wrapper_functions():
    a, b = SQRT2, SQRT3
    assert scalar_arith(a, b, "add") == a + b
    assert scalar_arith(a, b, "sub") == a - b
    assert scalar_arith(a, b, "mul") == SQRT6
    assert scalar_arith(a, b, "div") == SQRT6 / scalar(3)
    with pytest.raises(ValueError):
        scalar_arith(a, b, "mod")
    assert scalar_sign(a - b) == -1
    lo, hi = scalar_approx(a, 30)
    assert hi - lo <= Fraction(1, 2**30)


def test_int_and_fraction_mixing():
    assert 2 * SQRT2 == Scalar.of_radical(2, 2)
    assert SQRT2 * 2 == Scalar.of_radical(2, 2)
    assert 1 + SQRT2 - 1 == SQRT2
    assert Fraction(1, 2) * SQRT2 == SQRT2 / 2
    assert (3 - SQRT2) + (SQRT2 - 3) == ZERO
    assert 6 / scalar(3) == scalar(2)


def test_coefficient_accessor():
    a = parse_scalar("1/2 - 3*r6")
    assert a.coefficient(1) == Fraction(1, 2)
    assert a.coefficient(6) == -3
    assert a.coefficient(30) == 0


def test_parse_scalar_rejects_a_zero_denominator():
    for text in ("1/0", "-3/0*r2", "1 + 2/0", "1/0" + ZERO_TAIL, "1/00" + ZERO_TAIL):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_scalar(text)


def fraction_parse_scalar(text):
    """The parser as first written, one Fraction per term: the reference for
    the integer accumulation of parse_scalar."""
    s = text.strip().replace(" ", "").replace("+-", "-")
    if s[0] not in "+-":
        s = "+" + s
    coords = [Fraction(0)] * 8
    for tok in re.findall(r"[+-][^+-]+", s):
        coef, _, rad = tok[1:].partition("*")
        if coef.startswith("r"):
            coef, rad = "1", coef
        q = Fraction(coef) * (-1 if tok[0] == "-" else 1)
        coords[RADICANDS.index(int(rad[1:])) if rad else 0] += q
    den = 1
    for q in coords:
        den = den * q.denominator // gcd(den, q.denominator)
    return Scalar(tuple(int(q * den) for q in coords), den)


def test_parse_scalar_matches_the_fraction_parser():
    rng = random.Random(8)
    texts = ["2", "1/3", "-3/2*r6", "1 - r2 + 1/2*r30", "6/4 + 2/6*r2 - 1/6*r2"]
    texts += [_random_scalar(rng).exact_str() for _ in range(50)]
    for text in texts:
        new, old = parse_scalar(text), fraction_parse_scalar(text)
        assert (new.nums, new.den) == (old.nums, old.den), text


# parse_scalar as it stood before it read the terms in one pass, kept word
# for word with its term pattern: the reference for the grammar, the error
# messages and their order.

_TERM_RE = re.compile(
    r"^(?P<coef>-?\d+(?:/\d+)?)?(?:\*?(?P<rad>r(?:2|3|5|6|10|15|30)))?$"
)


def reference_parse_scalar(text: str) -> Scalar:
    """Parse the exact string grammar: rationals as num/den, radicals as rN.

    Accepts both the full eight-term form emitted by exact_str() and compact
    forms like "2", "1/3", "r2", "-3/2*r6", "1 - r2 + 1/2*r30".
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar literal")
    s = s.replace("+-", "-")
    if s[0] not in "+-":
        s = "+" + s
    tokens = re.findall(r"[+-][^+-]+", s)
    if "".join(tokens) != s:
        raise ValueError(f"cannot parse scalar literal {text!r}")
    # Each radical coordinate accumulates as an integer pair nums[i]/dens[i].
    nums, dens = [0] * 8, [1] * 8
    for tok in tokens:
        m = _TERM_RE.match(tok[1:])
        if not m or (m.group("coef") is None and m.group("rad") is None):
            # The term as written: without the "+" that leads s.
            term = tok[1:] if tok[0] == "+" else tok
            raise ValueError(f"bad term {term!r} in scalar literal {text!r}")
        p, _, q = (m.group("coef") or "1").partition("/")
        p, q = int(p), int(q or 1)
        if not q:
            raise ValueError(f"zero denominator in scalar literal {text!r}")
        if tok[0] == "-":
            p = -p
        rad = m.group("rad")
        idx = _INDEX[int(rad[1:])] if rad else 0
        nums[idx], dens[idx] = nums[idx] * q + p * dens[idx], dens[idx] * q
    den = lcm(*dens)
    return Scalar([n * (den // d) for n, d in zip(nums, dens)], den)


def parse_outcome(parse, text):
    """The value a parser returns, or the type and message of what it
    raises."""
    try:
        x = parse(text)
    except Exception as exc:  # every outcome is compared, not only ValueError
        return type(exc).__name__, str(exc)
    return x.nums, x.den


# The seven zero radical terms with which exact_str() ends a rational.
ZERO_TAIL = " + 0*r2 + 0*r3 + 0*r5 + 0*r6 + 0*r10 + 0*r15 + 0*r30"
WELL_FORMED = (
    "2", "1/3", "r2", "-r2", "2*r3", "-3/2*r6", "1 - r2 + 1/2*r30", "r2+r2",
    "1+-1/2*r6", "1 +- r2", "+1", "-0", "0", "0/5", "00", "007/010*r10",
    "*r2", "3r15", "r30", " 1 / 2 * r 3 0 ", "1\n+r2", "٣/2",
    # The fixed form of a rational, and texts one step away from it.
    "-0" + ZERO_TAIL, "-3/6" + ZERO_TAIL, "007/010" + ZERO_TAIL,
    " 1" + ZERO_TAIL + "\n", "1 + 1" + ZERO_TAIL, "+1" + ZERO_TAIL,
    "1" + ZERO_TAIL.replace("0*r5", "-2/3*r5"),
)
MALFORMED = (
    "", " ", "+", "-", "1+", "1-", "1/0+", "1/0", "-3/0*r2", "1 + 2/0", "1//2",
    "r7", "3r", "**r2", "2-x", "--1", "++2", "1+-+2", "r7+", "1/0 + r7",
    "r7 + 1/0", "1/", "/2", "r", "r2r2", "2*", "1.5", "1e3", "1**r2", "2r",
    "xyz", "1/2*r7", "\n", "1\n\n+r2", "1+\n+r2", "r3 0 0", "0/0*r2",
    "1/0" + ZERO_TAIL, "1/00" + ZERO_TAIL, "-0/0" + ZERO_TAIL,
    "1/" + ZERO_TAIL, "1" + ZERO_TAIL + " +",
)
# Pieces that the seeded literals are glued from: digits, the grammar's
# punctuation and radicals, a radicand outside the field, space, newline.
PIECES = (
    "0", "1", "2", "7", "10", "/", "/0", "*", "**", "r", "r2", "r3", "r30",
    "r7", "+", "-", "+-", " ", "\n", "x",
)


def assert_parse_matches_the_reference(text):
    assert parse_outcome(parse_scalar, text) == parse_outcome(
        reference_parse_scalar, text
    ), repr(text)


def test_parse_scalar_matches_the_reference_parser():
    """Values and ValueError messages, on well-formed and malformed
    literals, on exact_str and str forms, and on seeded literals glued from
    the grammar's pieces; a literal that breaks the term structure reports
    that before any bad term or zero denominator."""
    rng = random.Random(20)
    texts = list(WELL_FORMED + MALFORMED)
    for _ in range(200):
        x = _random_scalar(rng, den_span=24, sparse=rng.random() < 0.5)
        texts += [x.exact_str(), str(x), str(-x)]
    for _ in range(3000):
        texts.append("".join(rng.choice(PIECES) for _ in range(rng.randint(1, 8))))
    outcomes = set()
    for text in texts:
        assert_parse_matches_the_reference(text)
        outcome = parse_outcome(reference_parse_scalar, text)
        outcomes.add(outcome[0] if isinstance(outcome[0], str) else "value")
        if outcome[0] == "ValueError":
            outcomes.add(outcome[1].split(" ")[0])
    assert outcomes == {"value", "ValueError", "empty", "cannot", "bad", "zero"}
    for text in WELL_FORMED:
        assert not isinstance(parse_outcome(parse_scalar, text)[0], str), text
    for text in MALFORMED:
        assert parse_outcome(parse_scalar, text)[0] == "ValueError", text


def test_parse_errors_keep_their_order():
    for text, message in [
        ("1/0+", "cannot parse scalar literal '1/0+'"),
        ("r7+", "cannot parse scalar literal 'r7+'"),
        ("1/0 + r7", "zero denominator in scalar literal '1/0 + r7'"),
        ("r7 + 1/0", "bad term 'r7' in scalar literal 'r7 + 1/0'"),
    ]:
        with pytest.raises(ValueError) as err:
            parse_scalar(text)
        assert str(err.value) == message


def test_parse_scalar_matches_the_reference_parser_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        st.one_of(
            st.lists(st.sampled_from(PIECES), max_size=10).map("".join),
            st.text(alphabet="0123456789/*r+- \nx", max_size=16),
        )
    )
    def check(text):
        assert_parse_matches_the_reference(text)

    check()


def test_scalars_pickle_and_copy():
    from rank2go.embed import catalog_space
    from rank2go.gocheck import find_witness, metric_from_blocks

    for x in (ZERO, ONE, SQRT2, Scalar((1, -3, 0, 0, 0, 0, 0, 1), 2)):
        back = pickle.loads(pickle.dumps(x))
        assert (back.nums, back.den, back.is_rational) == (x.nums, x.den, x.is_rational)
        assert copy.copy(x) is x and copy.deepcopy(x) is x
    sp = catalog_space("c2.2")
    w = find_witness(sp, metric_from_blocks(sp, (2, 1)), budget=50).witness
    assert copy.deepcopy(w) == w
    assert pickle.loads(pickle.dumps(w)) == w


# -- the arithmetic against a coordinate-wise Fraction reference ---------------

def _coords(x):
    """x as eight Fraction coordinates; an int or Fraction is rational."""
    if isinstance(x, Scalar):
        return [Fraction(n, x.den) for n in x.nums]
    return [Fraction(x)] + [Fraction(0)] * 7


def _basis_product(i, j):
    """(k, c) with sqrt(RADICANDS[i]) * sqrt(RADICANDS[j]) = c * sqrt(RADICANDS[k])."""
    n = RADICANDS[i] * RADICANDS[j]
    c = max(c for c in RADICANDS if n % (c * c) == 0)
    return RADICANDS.index(n // (c * c)), c


def reference_arith(op, a, b=None):
    """The coordinates of a op b (or of -a), computed one Fraction at a time."""
    x = _coords(a)
    if op == "neg":
        return [-p for p in x]
    y = _coords(b)
    if op == "add":
        return [p + q for p, q in zip(x, y)]
    if op == "sub":
        return [p - q for p, q in zip(x, y)]
    out = [Fraction(0)] * 8
    for i, p in enumerate(x):
        for j, q in enumerate(y):
            if p and q:  # a zero coordinate adds nothing
                k, c = _basis_product(i, j)
                out[k] += c * p * q
    return out


def assert_matches_reference(got, coords):
    den = lcm(*(q.denominator for q in coords))
    want = Scalar(tuple(int(q * den) for q in coords), den)
    assert type(got) is Scalar
    assert (got.nums, got.den) == (want.nums, want.den)
    assert _coords(got) == coords
    assert got.is_rational == (not any(coords[1:]))
    assert got.den > 0 and gcd(got.den, *got.nums) == 1
    if not any(coords):
        assert (got.nums, got.den) == ((0,) * 8, 1)
    assert bool(got) == (got != 0) == any(coords)


_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def assert_quotient_matches_reference(got, a, b):
    """got is a / b: in canonical form, with got * b = a by the reference
    product (the quotient is unique)."""
    assert_matches_reference(got, _coords(got))
    assert reference_arith("mul", got, b) == _coords(a)


def assert_arith_matches_reference(a, b):
    """+, -, * and / both ways round, and unary - and inverse() of each
    Scalar operand; division by zero raises ZeroDivisionError."""
    for op, fn in _BINARY.items():
        assert_matches_reference(fn(a, b), reference_arith(op, a, b))
        assert_matches_reference(fn(b, a), reference_arith(op, b, a))
    for x, y in ((a, b), (b, a)):
        if any(_coords(y)):
            assert_quotient_matches_reference(x / y, x, y)
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
    for x in (a, b):
        if isinstance(x, Scalar):
            assert_matches_reference(-x, reference_arith("neg", x))
            if x:
                assert_quotient_matches_reference(x.inverse(), 1, x)


def test_arithmetic_matches_the_fraction_reference():
    rng = random.Random(9)

    def rat():
        return scalar(Fraction(rng.randint(-30, 30), rng.randint(1, 12)))

    def irr():
        x = _random_scalar(rng, sparse=rng.random() < 0.5)
        return x if not x.is_rational else x + SQRT2

    for _ in range(60):
        pairs = [
            (rat(), rat()),
            (rat(), irr()),
            (irr(), irr()),
            (ZERO, rat()),
            (ZERO, irr()),
            (ZERO, ZERO),
            (rat(), rng.randint(-9, 9)),
            (irr(), Fraction(rng.randint(-9, 9), rng.randint(1, 6))),
        ]
        # Sums that cancel to zero, to a rational and to a denominator
        # that reduces.
        a = irr()
        pairs += [(a, -a), (a, Scalar((1,) + a.nums[1:], a.den)), (a, a)]
        # A negative rational, whose inverse must keep its denominator
        # positive: (-3/4)^-1 = -4/3.
        pairs += [(scalar(Fraction(-3, 4)), irr()), (scalar(Fraction(-3, 4)), -7)]
        for a, b in pairs:
            assert_arith_matches_reference(a, b)


# -- property tests (hypothesis, with sympy as an optional oracle) -------------

def _scalars(st, max_coeff=6, max_den=6):
    """Field elements with small coordinates, often sparse."""
    coords = st.lists(
        st.one_of(st.just(0), st.integers(-max_coeff, max_coeff)),
        min_size=8,
        max_size=8,
    )
    return st.builds(
        lambda nums, den: Scalar(tuple(nums), den), coords, st.integers(1, max_den)
    )


def _to_sympy(x):
    sympy = pytest.importorskip("sympy")
    return sum(
        (sympy.Rational(n, x.den) * sympy.sqrt(r) for n, r in zip(x.nums, RADICANDS)),
        sympy.Integer(0),
    )


def test_field_axioms_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(_scalars(st), _scalars(st), _scalars(st))
    def check(a, b, c):
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a and a * ONE == a and a * ZERO == ZERO
        assert a + (-a) == ZERO and a - b == a + (-b)
        if a:
            assert a * a.inverse() == ONE
            assert (b / a) * a == b

    check()


def test_sign_agrees_with_approx_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(_scalars(st, max_coeff=40, max_den=12), st.integers(1, 40))
    def check(x, bits):
        lo, hi = x.approx(bits)
        assert lo <= hi and hi - lo <= Fraction(1, 2**bits)
        s = x.sign()
        assert (s == 0) == (x == ZERO)
        assert s >= 0 or lo < 0
        assert s <= 0 or hi > 0
        if lo > 0:
            assert s == 1
        if hi < 0:
            assert s == -1
        assert (-x).sign() == -s

    check()


def test_exact_strings_round_trip_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from rank2go.gocheck import Witness

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(
        st.lists(_scalars(st, max_coeff=10**6, max_den=10**4), max_size=12),
        st.integers(0, 6),
        st.booleans(),
    )
    def check(coords, rank_map, inconsistent):
        for x in coords:
            assert parse_scalar(x.exact_str()) == x
            assert parse_scalar(str(x)) == x
        w = Witness(
            coords=tuple(coords),
            rank_map=rank_map,
            rank_augmented=rank_map + inconsistent,
        )
        assert Witness.from_dict(w.to_dict()) == w

    check()


def test_sign_and_inverse_against_sympy_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(_scalars(st, max_coeff=20, max_den=8))
    def check(x):
        expr = _to_sympy(x)
        assert x.sign() == int(sympy.sign(expr))
        if x:
            assert sympy.expand(expr * _to_sympy(x.inverse())) == 1

    check()


def test_arithmetic_matches_the_fraction_reference_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
    scalars = st.one_of(
        rationals.map(scalar), _scalars(st, max_coeff=30, max_den=12), st.just(ZERO)
    )
    operands = st.one_of(scalars, st.integers(-20, 20), rationals)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(scalars, operands)
    def check(a, b):
        assert_arith_matches_reference(a, b)

    check()

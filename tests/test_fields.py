"""Field arithmetic, CRT and rational reconstruction."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperlin.fields import (
    GF,
    CoefficientField,
    FieldElement,
    FieldMismatchError,
    crt_combine,
    lift_rationals,
    primes_from,
    rational_reconstruct,
    rationals,
)


def test_rational_canonical():
    QQ = rationals()
    a = QQ.element(Fraction(2, 6))
    b = QQ.element(Fraction(1, 6))
    assert (a + b).raw == Fraction(1, 2)
    assert str(a) == "1/3"
    assert QQ.parse("-3/7") == Fraction(-3, 7)
    assert QQ.to_str(Fraction(-3, 7)) == "-3/7"


def test_prime_field_inverse_matches_brute_force():
    F = GF(101)
    # oracle: exhaustive search for the inverse of 7
    expected = next(x for x in range(101) if 7 * x % 101 == 1)
    assert expected == 29
    assert F.inv(7) == 29
    assert F.element(7).inverse() == 29
    for a in range(1, 101):
        assert F.mul(a, F.inv(a)) == 1


def test_prime_field_canonical_residues():
    F = GF(7)
    assert F.from_int(-1) == 6
    assert F.add(5, 5) == 3
    assert F.parse("12") == 5


def test_division_by_zero():
    for F in (rationals(), GF(5), GF(5, 2)):
        with pytest.raises(ZeroDivisionError):
            F.inv(F.zero)


def test_mixed_field_error():
    a = GF(5).element(2)
    b = GF(7).element(2)
    with pytest.raises(FieldMismatchError):
        a + b
    with pytest.raises(FieldMismatchError):
        rationals().element(1) + a


def test_extension_square_of_generator():
    # u^2 + 1 is irreducible over GF(7); u*u = -1 = 6
    F = GF(7, 2, modulus=(1, 0))
    u = FieldElement(F, F.generator())
    assert (u * u).raw == (6, 0)
    assert str(u * u) == "6"
    assert str(u + 3) == "u+3"


def test_extension_field_axioms_and_inverse():
    F = GF(7, 2, modulus=(1, 0))
    elems = list(F.elements())
    assert len(elems) == 49
    for a in elems:
        if F.is_zero(a):
            continue
        assert F.mul(a, F.inv(a)) == F.one
    # distributivity on a sample
    rng = random.Random(0)
    for _ in range(200):
        a, b, c = (F.random(rng) for _ in range(3))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_extension_parse_print_roundtrip():
    F = GF(59, 2)
    rng = random.Random(1)
    for _ in range(100):
        a = F.random(rng)
        assert F.parse(F.to_str(a)) == a
    assert F.parse("3*u+5") == (5, 3)
    assert F.to_str((5, 3)) == "3*u+5"


def test_default_modulus_is_irreducible_by_root_search():
    for p, k in [(2, 2), (3, 2), (5, 2), (59, 2), (7, 3)]:
        F = GF(p, k)
        # brute force: the modulus has no root in GF(p) (sufficient for k <= 3)
        tail = F.modulus
        for x in range(p):
            val = (pow(x, k, p) + sum(c * pow(x, i, p) for i, c in enumerate(tail))) % p
            assert val != 0, (p, k, tail, x)


def test_default_modulus_deterministic():
    assert GF(59, 2).modulus == GF(59, 2).modulus
    assert GF(59, 2) == GF(59, 2)


def test_fraction_coercion_into_finite_field():
    F = GF(11)
    assert F.coerce(Fraction(1, 2)) == 6  # 2*6 = 12 = 1
    with pytest.raises(ZeroDivisionError):
        F.coerce(Fraction(1, 11))


@settings(max_examples=60)
@given(st.integers(), st.integers(), st.integers())
def test_gf101_ring_axioms(x, y, z):
    F = GF(101)
    a, b, c = F.from_int(x), F.from_int(y), F.from_int(z)
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_field_json_roundtrip():
    for F in (rationals(), GF(397), GF(59, 2)):
        assert CoefficientField.from_json(F.to_json()) == F


def test_repr_tells_two_presentations_apart():
    # a modulus other than the default one is shown, so that a mismatch
    # between two presentations of GF(7^2) reads as one
    K, L = GF(7, 2), GF(7, 2, modulus=(2, 0))
    assert K.modulus != L.modulus
    assert repr(K) == repr(GF(7, 2, modulus=K.modulus)) == "GF(7^2)"
    assert repr(L) == "GF(7^2, modulus=(2, 0))"
    with pytest.raises(FieldMismatchError, match=r"element of GF\(7\^2\) used in GF\(7\^2, modulus=\(2, 0\)\)$"):
        L.coerce(K.element((0, 1)))


def test_field_json_keeps_the_modulus():
    # the modulus was dropped, so the field came back with u^2 + 1
    K = GF(7, 2, modulus=(2, 0))
    assert K.to_json() == {"kind": "gf", "p": 7, "k": 2, "modulus": [2, 0]}
    assert CoefficientField.from_json(K.to_json()) == K != GF(7, 2)


@pytest.mark.parametrize("data, message", [
    ({"kind": "rationals", "k": 2}, "field: unknown key(s): k"),
    ({"kind": "QQ"}, "field: unknown field kind 'QQ'"),
    ({"kind": "gf"}, "field: missing key(s): p"),
    ({"kind": "gf", "p": 7, "k": True}, "field: k must be an int, got True"),
    ({"kind": "gf", "p": 7, "k": 2.0}, "field: k must be an int, got 2.0"),
    ({"kind": "gf", "p": 7, "modulus": [1]}, "field: GF(p) takes no modulus"),
    ({"kind": "gf", "p": 7, "k": 2, "modulus": [1, 2]}, "field: u^2 + [1, 2] is not irreducible"),
    ({"kind": "gf", "p": 7, "k": 2, "modulus": [2.5, 0]}, "field: modulus coefficients must be integers"),
    ({"kind": "gf", "p": 7, "k": 2, "modulus": [2]}, "field: modulus tail must have k coefficients"),
])
def test_field_json_refusals_are_located(data, message):
    with pytest.raises(ValueError) as exc:
        CoefficientField.from_json(data)
    assert str(exc.value).startswith(message)


# ---------------------------------------------------------------------------
# CRT


def test_crt_example_against_exhaustive_oracle():
    # oracle: smallest x with x%5==2 and x%7==3
    expected = next(x for x in range(35) if x % 5 == 2 and x % 7 == 3)
    assert expected == 17
    assert crt_combine([2, 3], [5, 7]) == 17


def test_crt_properties():
    assert crt_combine([0, 0, 0], [3, 5, 7]) == 0
    assert crt_combine([4], [9]) == 4
    rng = random.Random(2)
    moduli = [101, 103, 107, 109]
    m = math.prod(moduli)
    for _ in range(50):
        x = rng.randrange(m)
        assert crt_combine([x % q for q in moduli], moduli) == x


def test_crt_noncoprime_error_names_the_pair():
    with pytest.raises(ValueError, match="6 and 9"):
        crt_combine([1, 2], [6, 9])
    with pytest.raises(ValueError, match="10 and 15"):
        crt_combine([0, 0, 0, 0], [7, 10, 11, 15])
    with pytest.raises(ValueError, match="6 and 9"):
        crt_combine([[1, 2], [2, 3]], [6, 9])


def test_crt_vector_form_matches_scalar_form():
    rng = random.Random(4)
    moduli = primes_from(1 << 30, 7)
    width = 25
    vectors = [[rng.randrange(-(q << 3), q << 3) for _ in range(width)] for q in moduli]
    combined = crt_combine(vectors, moduli)
    assert combined == [crt_combine([v[j] for v in vectors], moduli) for j in range(width)]
    # a combined vector extends by further moduli as one residue sequence
    head = crt_combine(vectors[:3], moduli[:3])
    assert crt_combine([head] + vectors[3:], [math.prod(moduli[:3])] + moduli[3:]) == combined
    with pytest.raises(ValueError, match="one length"):
        crt_combine([[1, 2], [1]], [5, 7])


# ---------------------------------------------------------------------------
# rational reconstruction


def test_rational_reconstruct_examples():
    assert rational_reconstruct(87, 101) == Fraction(3, 7)
    assert 7 * 87 % 101 == 3  # the example is consistent
    assert rational_reconstruct(5, 10007) == Fraction(5)
    assert rational_reconstruct(10006, 10007) == Fraction(-1)


def test_rational_reconstruct_exhaustive_against_brute_force():
    # for every residue mod 101, compare with a brute-force search over the
    # admissible (n, d) pairs
    m = 101
    bound = math.isqrt(m // 2)
    for r in range(m):
        hits = [
            Fraction(n, d)
            for d in range(1, bound + 1)
            for n in range(-bound, bound + 1)
            if math.gcd(abs(n), d) == 1 and (n - d * r) % m == 0
        ]
        got = rational_reconstruct(r, m)
        if hits:
            assert got is not None and got in hits
        else:
            assert got is None


def test_rational_reconstruct_roundtrip_many_primes():
    primes = primes_from(1 << 20, 6)
    m = math.prod(primes)
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(-1000, 1000)
        d = rng.randint(1, 1000)
        f = Fraction(n, d)
        residues = []
        for p in primes:
            residues.append(f.numerator * pow(f.denominator, -1, p) % p)
        x = crt_combine(residues, primes)
        assert rational_reconstruct(x, m) == f


def test_lift_rationals_workflow():
    primes = primes_from(127, 5)
    m = math.prod(primes)
    values = [Fraction(22, 7), Fraction(-355, 113), Fraction(0)]
    vectors = []
    for p in primes:
        vectors.append([v.numerator * pow(v.denominator, -1, p) % p for v in values])
    res = lift_rationals(vectors, primes)
    assert res.all_ok
    assert res.values == values
    assert res.combined_modulus == m


def test_lift_rationals_flags_failures():
    # a residue with no small reconstruction modulo a single small prime
    res = lift_rationals([[2, 8]], [101])
    assert res.ok[0] is True
    # 8 mod 101: brute check there is no pair within the bound 7
    bound = math.isqrt(101 // 2)
    assert not [
        (n, d)
        for d in range(1, bound + 1)
        for n in range(-bound, bound + 1)
        if math.gcd(abs(n), d) == 1 and (n - d * 8) % 101 == 0
    ]
    assert res.ok[1] is False and res.values[1] is None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_lift_rationals_matches_rational_reconstruct(data):
    """lift_rationals reconstructs against a running denominator; entry by
    entry it gives what rational_reconstruct gives, in values and ok.
    Vectors of fractions that share a denominator, or of fractions with
    coprime denominators whose lcm exceeds the bound sqrt(m/2), with
    random residues put in between, most of which fail."""
    primes = sorted(set(data.draw(st.lists(st.sampled_from(primes_from(2, 40) + primes_from(1 << 20, 8)),
                                           min_size=1, max_size=4))))
    m = math.prod(primes)
    bound = math.isqrt(m // 2)
    kind = data.draw(st.sampled_from(["shared", "coprime", "none"]))
    size = data.draw(st.integers(1, 8))
    if kind == "shared":
        d = data.draw(st.integers(1, max(1, bound)))
        values = [Fraction(data.draw(st.integers(-bound, bound)), d) for _ in range(size)]
    elif kind == "coprime":
        dens = data.draw(st.lists(st.sampled_from(primes_from(2, 60)), min_size=2, max_size=size + 1, unique=True))
        values = [Fraction(data.draw(st.integers(-bound, bound)) or 1, q) for q in dens]
        assume(math.lcm(*dens) > bound)
    else:
        values = []
    assume(all(f.denominator % p for f in values for p in primes))
    entries = [[f.numerator * pow(f.denominator, -1, p) % p for p in primes] for f in values]
    for _ in range(data.draw(st.integers(0 if values else 1, 4))):
        entries.insert(data.draw(st.integers(0, len(entries))), [data.draw(st.integers(0, p - 1)) for p in primes])
    residues = [list(vector) for vector in zip(*entries)]
    res = lift_rationals(residues, primes)
    expected = [rational_reconstruct(x, m) for x in crt_combine(residues, primes)]
    assert res.values == expected
    assert res.ok == [f is not None for f in expected]


def test_primes_from():
    assert primes_from(59, 5) == [59, 61, 67, 71, 73]

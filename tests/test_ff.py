import pytest

import isodual as iso
from isodual.errors import (CharTooSmall, ContextMismatch, DivisionByZero,
                            NotPrime)
from isodual.ff import FieldContext, embed, make_field


def brute_irreducible_scan(p, k):
    """Independent oracle for the modulus choice: smallest-code monic poly of
    degree k without a root in F_p (equivalent to irreducible for k <= 3)."""
    assert k in (2, 3)
    for code in range(p ** k):
        digits, rem = [], code
        for _ in range(k):
            digits.append(rem % p)
            rem //= p
        if all((pow(x, k, p) + sum(d * pow(x, i, p)
                                   for i, d in enumerate(digits))) % p
               for x in range(p)):
            return tuple(digits) + (1,)
    raise AssertionError("no irreducible found")


def test_prime_field_context():
    F5 = make_field(5)
    assert F5.p == 5 and F5.k == 1 and F5.modulus is None
    assert F5.element(2) * F5.element(3) == F5.one
    assert F5.element(2).inverse() == F5.element(3)


# the modulus of F_{p^k} for p in {5, 7, 11, 13, 31} and every k >= 2 with
# p^k <= 10^6, pinned because element codes and serialised data depend on it
FROZEN_MODULI = {
    (5, 2): (2, 0, 1), (5, 3): (1, 1, 0, 1), (5, 4): (2, 0, 0, 0, 1),
    (5, 5): (1, 4, 0, 0, 0, 1), (5, 6): (2, 1, 0, 0, 0, 0, 1),
    (5, 7): (1, 1, 0, 0, 0, 0, 0, 1), (5, 8): (2, 0, 0, 0, 0, 0, 0, 0, 1),
    (7, 2): (1, 0, 1), (7, 3): (2, 0, 0, 1), (7, 4): (1, 1, 0, 0, 1),
    (7, 5): (3, 1, 0, 0, 0, 1), (7, 6): (2, 0, 0, 0, 0, 0, 1),
    (7, 7): (1, 6, 0, 0, 0, 0, 0, 1),
    (11, 2): (1, 0, 1), (11, 3): (4, 1, 0, 1), (11, 4): (2, 1, 0, 0, 1),
    (11, 5): (2, 0, 0, 0, 0, 1),
    (13, 2): (2, 0, 1), (13, 3): (2, 0, 0, 1), (13, 4): (2, 0, 0, 0, 1),
    (13, 5): (2, 4, 0, 0, 0, 1),
    (31, 2): (1, 0, 1), (31, 3): (3, 0, 0, 1), (31, 4): (1, 1, 0, 0, 1),
}


def test_extension_modulus_is_smallest_irreducible():
    for p in (5, 7, 11, 13):
        for k in (2, 3):
            ctx = make_field(p, k)
            assert ctx.modulus == brute_irreducible_scan(p, k)
    for (p, k), modulus in FROZEN_MODULI.items():
        assert make_field(p, k).modulus == modulus


def test_construction_errors():
    with pytest.raises(NotPrime):
        FieldContext(4)
    with pytest.raises(NotPrime):
        FieldContext(9)
    for p in (2, 3):
        with pytest.raises(CharTooSmall):
            FieldContext(p)
    with pytest.raises(ValueError):
        FieldContext(5, 0)


def test_deterministic_modulus():
    a = FieldContext(5, 2)
    b = FieldContext(5, 2)
    assert a.modulus == b.modulus and a == b
    assert make_field(5, 2) is make_field(5, 2)


def test_field_axioms_exhaustive_f25():
    ctx = make_field(5, 2)
    elems = ctx.elements()
    assert len(elems) == 25
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in (elems[7], elems[13]):
                assert (a + b) + c == a + (b + c)
                assert a * (b + c) == a * b + a * c
                assert (a * b) * c == a * (b * c)


def test_inverses():
    for p, k in [(5, 1), (5, 2), (11, 2), (5, 4), (7, 3), (13, 2)]:
        ctx = make_field(p, k)
        for a in ctx.elements():
            if a.is_zero():
                with pytest.raises(DivisionByZero):
                    a.inverse()
            else:
                assert a * a.inverse() == ctx.one


def test_multiplicative_order_lagrange_f25():
    ctx = make_field(5, 2)
    nonzero = [a for a in ctx.elements() if not a.is_zero()]
    for a in nonzero:
        assert a ** 24 == ctx.one
    # a generator exists: brute-force multiplicative-order check
    def order(a):
        acc, n = a, 1
        while acc != ctx.one:
            acc, n = acc * a, n + 1
        return n
    assert any(order(a) == 24 for a in nonzero)


def test_frobenius_prime_field_fixed():
    ctx = make_field(5)
    for a in ctx.elements():
        for j in (0, 1, 2, 3):
            assert a.frobenius(j) == a


def test_frobenius_on_f25():
    ctx = make_field(5, 2)
    for a in ctx.elements():
        # pi^k is the identity
        assert a.frobenius(2) == a
        # oracle: a^5 by repeated multiplication
        a5 = a * a * a * a * a
        assert a.frobenius(1) == a5
        # prime-subfield elements are fixed
        if a.digits[1] == 0:
            assert a.frobenius(1) == a


def test_frobenius_is_a_ring_map_exhaustive():
    for p in (5, 7, 11, 13):
        for k in (1, 2):
            ctx = make_field(p, k)
            elems = ctx.elements()
            for a in elems:
                for b in elems:
                    assert (a * b).frobenius(1) == a.frobenius(1) * b.frobenius(1)
                    assert (a + b).frobenius(1) == a.frobenius(1) + b.frobenius(1)


def test_pth_root_inverts_frobenius():
    for p, k in [(5, 1), (5, 2), (7, 2), (13, 2), (5, 3)]:
        ctx = make_field(p, k)
        for a in ctx.elements():
            for j in (0, 1, 2, 3):
                assert a.pth_root(j).frobenius(j) == a
                assert a.frobenius(j).pth_root(j) == a


def test_pth_root_f25_is_fifth_power():
    # pi^2 = id on F_25, so the inverse of pi is pi itself
    ctx = make_field(5, 2)
    for a in ctx.elements():
        assert a.pth_root(1) == a ** 5


def test_context_mismatch():
    a = make_field(5).element(1)
    b = make_field(7).element(1)
    c = make_field(5, 2).element(1)
    for other in (b, c):
        with pytest.raises(ContextMismatch):
            a + other


def test_digit_serialization():
    assert make_field(5).element(3).digits == (3,)
    e = make_field(5, 2).element([2, 1])  # generator + 2
    assert e.digits == (2, 1)
    assert e.code == e.raw == 2 + 1 * 5


def test_embedding_roundtrip_and_morphism():
    src = make_field(5)
    dst = make_field(5, 2)
    emb = embed(src, dst)
    top = make_field(5, 4)
    for a in src.elements():
        up = emb.apply(a)
        assert emb.descend(up) == a
        # a prime-field element keeps its raw in every extension
        assert up.raw == embed(src, top).apply(a).raw == a.raw
    emb2 = embed(dst, top)
    elems = dst.elements()
    for a in elems:
        assert emb2.descend(emb2.apply(a)) == a
    for a in elems[:10]:
        for b in elems[:10]:
            assert emb2.apply(a * b) == emb2.apply(a) * emb2.apply(b)
            assert emb2.apply(a + b) == emb2.apply(a) + emb2.apply(b)


def test_embedding_descend_rejects_outsiders():
    src = make_field(5)
    dst = make_field(5, 2)
    emb = embed(src, dst)
    gen = dst.element([0, 1])
    with pytest.raises(ValueError):
        emb.descend(gen)
    with pytest.raises(ValueError):
        emb.descend_raw(5)  # the code of the generator: a raw >= p
    # a generator of F_{5^4} has degree 4, so it lies outside F_{5^2}
    with pytest.raises(ValueError, match="not in the embedded subfield"):
        embed(dst, make_field(5, 4)).descend(make_field(5, 4).element([0, 1]))


def test_embedding_requires_compatible_fields():
    with pytest.raises(ContextMismatch):
        embed(make_field(5), make_field(7))
    with pytest.raises(ContextMismatch):
        embed(make_field(5, 2), make_field(5, 3))


def test_element_equality_matches_hash():
    # elements never equal ints: 3 and 3 + p would both match, with
    # different hashes
    for ctx in (make_field(5), make_field(5, 2)):
        three = ctx.element(3)
        assert three != 3 and three != 3 + ctx.p
        assert three == ctx.element(3 + ctx.p)
        assert {three, ctx.element(3 + ctx.p), ctx.element([3])} == {three}
        assert len({ctx.element(c) for c in range(3 * ctx.p)}) == ctx.p

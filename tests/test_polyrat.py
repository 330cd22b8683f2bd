import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isodual as iso
from isodual.errors import BothZero, DivisionByZero, FieldTooLarge
from isodual.ff import make_field
from isodual.polyrat import (Poly, RatFunc, inverse_mod, lagrange_interpolate,
                             poly_gcd, resultant, roots_bruteforce,
                             squarefree_part)
from conftest import cyclic_subgroups, nonsingular_curves

F5 = make_field(5)
F7 = make_field(7)


def P5(*ints):
    return Poly.from_ints(F5, ints)


def test_mul_example():
    # (x+1)(x-1) = x^2 + 4 over F_5
    assert P5(1, 1) * P5(-1, 1) == P5(4, 0, 1)


def test_divmod_examples():
    q, r = divmod(P5(0, 0, 0, 1), P5(0, 1))  # x^3 / x
    assert q == P5(0, 0, 1) and r.is_zero()
    # (x^2+1) mod (x+2) over F_5: oracle is evaluation at x = -2
    rem = P5(1, 0, 1) % P5(2, 1)
    oracle = (F5.element(-2) ** 2 + F5.element(1))
    assert oracle.is_zero()
    assert rem.is_zero()


@given(st.integers(0, 5 ** 5 - 1), st.integers(1, 5 ** 3 - 1))
@settings(max_examples=200, deadline=None)
def test_divmod_property(fc, gc):
    f = Poly.from_ints(F5, [fc // 5 ** i % 5 for i in range(5)])
    g = Poly.from_ints(F5, [gc // 5 ** i % 5 for i in range(3)])
    if g.is_zero():
        return
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.is_zero() or r.degree < g.degree


# -- the prime-field kernel against plain-int schoolbook references -----------

# 2^31 - 1 takes the Python-int fallback: (p-1)^2 alone is close to 2^62
KERNEL_PRIMES = (5, 37, 1000003, 2 ** 31 - 1)
# lengths on both sides of the array crossovers, with zero and constants
KERNEL_LENGTHS = st.one_of(st.integers(0, 3), st.integers(0, 240))


def _ref_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _ref_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _ref_trim(out)


def _ref_divmod(a, b, p):
    rem, quo = list(a), [0] * max(len(a) - len(b) + 1, 0)
    inv = pow(b[-1], p - 2, p)
    for s in range(len(quo) - 1, -1, -1):
        quo[s] = f = rem[s + len(b) - 1] * inv % p
        for i, y in enumerate(b):
            rem[s + i] = (rem[s + i] - f * y) % p
    return _ref_trim(quo), _ref_trim(rem)


def _ref_gcd(a, b, p):
    while b:
        a, b = b, _ref_divmod(a, b, p)[1]
    inv = pow(a[-1], p - 2, p)
    return [x * inv % p for x in a]


@given(st.sampled_from(KERNEL_PRIMES), KERNEL_LENGTHS, KERNEL_LENGTHS,
       st.integers(0, 60), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_prime_field_kernel_matches_schoolbook(p, la, lb, lc, rng):
    def coeffs(n):  # n residues with a nonzero leading one
        if not n:
            return []
        return [rng.randrange(p) for _ in range(n - 1)] + [rng.randrange(1, p)]

    a, b = coeffs(la), coeffs(lb)
    common = coeffs(lc)  # so that most gcds are not trivial
    if a and b and common:
        a, b = _ref_mul(a, common, p), _ref_mul(b, common, p)
    F = make_field(p)
    A, B = Poly(F, a), Poly(F, b)
    assert list((A * B).coeffs) == _ref_mul(a, b, p)
    if b:
        q, r = divmod(A, B)
        assert (list(q.coeffs), list(r.coeffs)) == _ref_divmod(a, b, p)
    if a or b:
        assert list(poly_gcd(A, B).coeffs) == _ref_gcd(a, b, p)


def test_gcd_examples():
    f = P5(3, 0, 2)  # 2x^2 + 3
    assert poly_gcd(f, Poly.zero(F5)) == f.monic()
    # gcd(x^2-1, x-1) = x + 4 over F_5
    assert poly_gcd(P5(-1, 0, 1), P5(-1, 1)) == P5(4, 1)
    with pytest.raises(BothZero):
        poly_gcd(Poly.zero(F5), Poly.zero(F5))


@pytest.mark.parametrize("p", [5, 37, 2 ** 31 - 1])
def test_inverse_mod(p):
    # 2^31 - 1 runs the Python-int fallback at every length; lengths from 41
    # up run the int64 steps for the other primes
    rng = random.Random(p)
    F = make_field(p)

    def poly(n):  # degree n, nonzero leading coefficient
        return Poly(F, [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)])

    inverted = 0
    for n in (1, 2, 5, 12, 45, 60):
        for _ in range(6):
            m, f = poly(n), poly(rng.randrange(2 * n))
            if poly_gcd(f, m).degree > 0:
                continue
            inv = inverse_mod(f, m)
            assert inv.degree < m.degree
            assert inv * f % m == Poly.one(F)
            inverted += 1
        common = poly(1 + n // 3)
        with pytest.raises(DivisionByZero):
            inverse_mod(poly(n) * common, poly(n) * common)
        with pytest.raises(DivisionByZero):
            inverse_mod(m * poly(2), m)
    assert inverted >= 20


def test_gcd_random_coprime_quadratics():
    rng = random.Random(7)
    F49 = make_field(7, 2)
    checked = 0
    while checked < 25:
        f = Poly.from_ints(F7, [rng.randrange(7), rng.randrange(7), rng.randrange(1, 7)])
        g = Poly.from_ints(F7, [rng.randrange(7), rng.randrange(7), rng.randrange(1, 7)])
        # coprimality oracle: no common root over F_49 and not proportional
        rf = {e.code for e in roots_bruteforce(f, F49)}
        rg = {e.code for e in roots_bruteforce(g, F49)}
        if rf & rg or f.monic() == g.monic():
            continue
        assert poly_gcd(f, g).degree == 0
        checked += 1


def test_derivative_examples():
    assert P5(0, 0, 0, 0, 0, 1).derivative().is_zero()  # d/dx x^5 over F_5
    f = P5(2, 1, 0, 1)  # x^3 + x + 2
    assert f.derivative() == P5(1, 0, 3)  # 3x^2 + 1
    g = Poly.from_ints(F7, [1, 2, 3, 4, 5, 6, 1, 1])  # degree 7 over F_7
    dg = g.derivative()
    assert dg.degree <= 5  # the x^6 term dies: 7*c7 = 0


def test_derivative_leibniz_exhaustive_small():
    polys = [Poly.from_ints(F5, [c0, c1, c2])
             for c0 in range(5) for c1 in range(5) for c2 in range(5)]
    sample = polys[::7]
    for f in sample:
        for g in sample:
            assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


@given(st.lists(st.integers(0, 4), min_size=1, max_size=5),
       st.lists(st.integers(0, 4), min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_derivative_leibniz_random(fc, gc):
    f, g = Poly.from_ints(F5, fc), Poly.from_ints(F5, gc)
    assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


def test_derivative_zero_iff_exponents_divisible_by_p():
    f = P5(1, 0, 0, 0, 0, 2, 0, 0, 0, 0, 3)  # 3x^10 + 2x^5 + 1
    assert f.derivative().is_zero()
    g = P5(1, 0, 1, 0, 0, 2)
    assert not g.derivative().is_zero()
    # direct inspection agrees: nonzero coefficients at p-divisible exponents only
    for h in (f, g):
        expect_zero = all(F5.raw_is_zero(c) or i % 5 == 0
                          for i, c in enumerate(h.coeffs))
        assert h.derivative().is_zero() == expect_zero


def test_ratfunc_canonical_form():
    # common factor cancels: (2x+2)/(x+1) -> 2
    f = RatFunc(P5(2, 2), P5(1, 1))
    assert f.num == P5(2) and f.den == Poly.one(F5)
    assert f.constant_value() == F5.element(2)
    # scalar invariance of the canonical form
    num, den = P5(1, 2, 1), P5(3, 1)
    base = RatFunc(num, den)
    for a in range(1, 5):
        assert RatFunc(num.scale(F5.raw_from_int(a)),
                       den.scale(F5.raw_from_int(a))) == base
    assert RatFunc.x(F5).constant_value() is None
    with pytest.raises(DivisionByZero):
        RatFunc(P5(1), Poly.zero(F5))


def _compose_by_gcd(f, g):
    """f(g(x)) as the gcd-reduced quotient of the two expansions."""
    top = max(f.num.degree, f.den.degree)

    def expand(poly):
        acc = Poly.zero(poly.ctx)
        for i in range(top + 1):
            term = g.num ** i * g.den ** (top - i)
            acc = acc + term.scale(poly.coeff(i))
        return acc

    return RatFunc(expand(f.num), expand(f.den))


def _planted(fs, ctx, rng):
    """b*u / (a*v) for each nonzero f = a/b and random u, v != 0: its
    products with f share factors across, both ways."""
    out = []
    for f in fs:
        u, v = (Poly(ctx, [rng.randrange(ctx.order) for _ in range(3)])
                for _ in range(2))
        if not (f.is_zero() or u.is_zero() or v.is_zero()):
            out.append(RatFunc(f.den * u, f.num * v))
    return out


def test_ratfunc_pow_scale_and_compose_equal_the_reduced_construction():
    # none of them takes a gcd of the whole result: powers of a coprime pair
    # stay coprime, scaling by a nonzero constant keeps the pair reduced,
    # composing coprime pairs gives a coprime pair, and a product of
    # coprime pairs a/b * c/d cancels gcd(a, d) gcd(c, b)
    E = nonsingular_curves(7, 3)[2]
    G = cyclic_subgroups(E, (2, 3, 4, 5))[0]
    maps = [iso.mul_by_m_map(E, 3), iso.velu_isogeny(E, G),
            iso.iso_compose(iso.velu_isogeny(E, G), iso.frobenius_isogeny(E, 1))]
    funcs = [g for phi in maps for g in (phi.r, phi.s)]
    for f in funcs:
        for e in range(4):
            assert f ** e == RatFunc(f.num ** e, f.den ** e)
        for c in range(1, 7):
            assert f.scale(c) == RatFunc(f.num.scale(c), f.den)
        assert f.scale(0) == RatFunc(Poly.zero(F7), f.den)
        assert f.scale(0).den == Poly.one(F7)
    constants = [RatFunc.constant(F7, c) for c in range(7)]
    for f in funcs + constants:
        for g in [phi.r for phi in maps] + constants:
            try:
                expected = _compose_by_gcd(f, g)
            except DivisionByZero:  # g's constant value is a pole of f
                with pytest.raises(DivisionByZero):
                    f.compose(g)
                continue
            assert f.compose(g) == expected
    rng = random.Random(11)
    F25 = make_field(5, 2)
    ext = iso.mul_by_m_map(iso.embed_curve(nonsingular_curves(5, 1)[0], F25), 3)
    for ctx, fs in ((F7, funcs + constants),
                    (F25, [ext.r, ext.s] + [RatFunc.constant(F25, c)
                                            for c in (0, 1, 8)])):
        fs = fs + _planted(fs, ctx, rng)
        for f in fs:
            for g in fs:
                assert f * g == RatFunc(f.num * g.num, f.den * g.den)


def test_ratfunc_compose_examples():
    x2 = RatFunc.of(P5(0, 0, 1))
    xp1 = RatFunc.of(P5(1, 1))
    assert x2.compose(xp1) == RatFunc.of(P5(1, 2, 1))
    inv = RatFunc(Poly.one(F5), Poly.x(F5))
    assert inv.compose(inv) == RatFunc.x(F5)


def test_ratfunc_compose_associative_random():
    rng = random.Random(50)

    def rand_ratfunc():
        while True:
            num = Poly.from_ints(F7, [rng.randrange(7) for _ in range(rng.randint(1, 4))])
            den = Poly.from_ints(F7, [rng.randrange(7) for _ in range(rng.randint(1, 4))])
            if den.is_zero():
                continue
            f = RatFunc(num, den)
            if f.constant_value() is None:  # keep inner maps non-constant
                return f

    for _ in range(50):
        f, g, h = rand_ratfunc(), rand_ratfunc(), rand_ratfunc()
        assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_ratfunc_field_ops():
    a = RatFunc(P5(1, 1), P5(0, 1))   # (x+1)/x
    b = RatFunc(P5(3), P5(2, 1))      # 3/(x+2)
    s = a + b
    assert s - b == a
    assert (a * b) / b == a
    assert (a - a).is_zero()
    with pytest.raises(DivisionByZero):
        a / (a - a)


def test_roots_bruteforce_examples():
    assert {e.code for e in roots_bruteforce(P5(4, 0, 1))} == {1, 4}
    assert {e.code for e in roots_bruteforce(P5(1, 0, 1))} == {2, 3}
    irr = P5(2, 0, 1)  # x^2 + 2: the F_25 modulus, no roots downstairs
    assert roots_bruteforce(irr) == []
    up = roots_bruteforce(irr, make_field(5, 2))
    assert len(up) == 2
    for r in up:
        assert (r * r + 2).is_zero()


def test_roots_guard():
    big = make_field(11, 6)  # |K| > 10^6
    with pytest.raises(FieldTooLarge):
        roots_bruteforce(Poly.from_ints(big, [1, 1]), big)


def test_squarefree_part():
    f = P5(-1, 1) ** 2 * P5(-2, 1) ** 3
    assert squarefree_part(f) == (P5(-1, 1) * P5(-2, 1)).monic()


def test_lagrange_interpolation_roundtrip():
    ctx = make_field(5, 2)
    rng = random.Random(3)
    for _ in range(20):
        f = Poly(ctx, [ctx.raw_from_code(rng.randrange(25)) for _ in range(6)])
        xs = [ctx.raw_from_code(c) for c in range(8)]
        ys = [f.eval_raw(x) for x in xs]
        assert lagrange_interpolate(ctx, xs, ys) == f


def test_resultant_against_product_oracle():
    rng = random.Random(11)
    for _ in range(40):
        roots = [F7.raw_from_int(rng.randrange(7)) for _ in range(rng.randint(1, 4))]
        A = Poly.one(F7)
        for r in roots:
            A = A * Poly(F7, (F7.rneg(r), F7.one_raw))
        B = Poly.from_ints(F7, [rng.randrange(7) for _ in range(rng.randint(1, 5))])
        if B.is_zero():
            continue
        expected = F7.one_raw
        for r in roots:
            expected = F7.rmul(expected, B.eval_raw(r))
        assert resultant(A, B) == expected

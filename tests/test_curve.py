import math

import pytest

import isodual as iso
from isodual.errors import (CurveMismatch, DegreeTooLarge, FieldTooLarge,
                            NotClosed, NotGaloisStable, NotOnCurve,
                            SingularCurve, ZeroMultiplier)
from isodual.ff import make_field
from isodual.polyrat import Poly, roots_bruteforce
from isodual.curve import _division_polys
from conftest import nonsingular_curves

F5 = make_field(5)
F7 = make_field(7)
F25 = make_field(5, 2)


def test_curve_construction():
    iso.Curve(F5, 1, 0)
    with pytest.raises(SingularCurve):
        iso.Curve(F5, 0, 0)
    # -16 * 27 = -432 != 0 mod 7
    assert (-432) % 7 != 0
    iso.Curve(F7, 0, 1)


def test_point_validation():
    E = iso.Curve(F5, 1, 0)
    E.point(0, 0)
    with pytest.raises(NotOnCurve):
        E.point(1, 1)


def test_group_law_basics(e_f5):
    pts = iso.enumerate_points(e_f5)
    O = e_f5.infinity()
    for P in pts:
        assert P + O == P
        assert P + (-P) == O
    T = e_f5.point(0, 0)
    assert T + T == O  # y = 0 means 2-torsion


def test_group_law_associativity_exhaustive():
    for E in (iso.Curve(F5, 1, 0), iso.Curve(F5, 0, 1), iso.Curve(F7, 2, 0)):
        pts = iso.enumerate_points(E)
        for P in pts:
            for Q in pts:
                PQ = P + Q
                assert PQ == Q + P
                for R in pts:
                    assert (PQ) + R == P + (Q + R)


def test_scalar_mul_matches_repeated_addition(e_f5, e_f5_ss):
    for E in (e_f5, e_f5_ss):
        for P in iso.enumerate_points(E):
            acc = E.infinity()
            for n in range(13):
                assert iso.scalar_mul(n, P) == acc
                acc = acc + P
            assert iso.scalar_mul(-3, P) == -(iso.scalar_mul(3, P))


def test_enumerate_fixture_curves(e_f5, e_f5_ss):
    pts = iso.enumerate_points(e_f5)
    coords = [(P.x.code, P.y.code) for P in pts if not P.is_infinity]
    assert pts[0].is_infinity
    assert coords == [(0, 0), (2, 0), (3, 0)]  # deterministic order
    # y^2 = x^3 + 1 over F_5 has exactly p + 1 = 6 points: supersingular
    assert len(iso.enumerate_points(e_f5_ss)) == 6


def test_hasse_bound_everywhere():
    for p in (5, 7, 11):
        for E in nonsingular_curves(p, p * p):
            n = len(iso.enumerate_points(E))
            assert abs(n - (p + 1)) <= math.floor(2 * math.sqrt(p))


def test_enumeration_guard():
    big = make_field(11, 6)
    with pytest.raises(FieldTooLarge):
        iso.enumerate_points(iso.Curve(big, 1, 1))


def test_point_order(e_f5):
    assert iso.point_order(e_f5.infinity()) == 1
    assert iso.point_order(e_f5.point(0, 0)) == 2
    for E in (e_f5, iso.Curve(F5, 0, 1), iso.Curve(F7, 1, 1)):
        pts = iso.enumerate_points(E)
        for P in pts:
            assert len(pts) % iso.point_order(P) == 0  # Lagrange


def test_trivial_and_two_torsion_subgroups(e_f5):
    T = iso.trivial_subgroup(e_f5)
    assert T.order == 1 and T.kernel_poly == Poly.one(F5)
    gen_O = iso.subgroup_from_generator(e_f5.infinity())
    assert gen_O.order == 1 and gen_O.kernel_poly == Poly.one(F5)
    G = iso.subgroup_from_generator(e_f5.point(0, 0))
    assert G.order == 2
    assert G.kernel_poly == Poly.x(F5)
    assert G.two_torsion_poly == Poly.x(F5)
    assert G.pair_poly == Poly.one(F5)


def test_subgroup_point_ordering_deterministic(e_f5_ss):
    P = next(Q for Q in iso.enumerate_points(e_f5_ss) if iso.point_order(Q) == 6)
    G = iso.subgroup_from_generator(P)
    assert G.points[0].is_infinity
    keys = [Q.sort_key() for Q in G.points[1:]]
    assert keys == sorted(keys)


def test_subgroup_from_points_closure(e_f5):
    pts = iso.enumerate_points(e_f5)
    G = iso.subgroup_from_points(pts)  # whole group, Klein four here
    assert G.order == 4
    P = next(Q for Q in pts if not Q.is_infinity)
    with pytest.raises(NotClosed):
        iso.subgroup_from_points([P])  # O missing
    E6 = iso.Curve(F5, 0, 1)
    P3 = next(Q for Q in iso.enumerate_points(E6) if iso.point_order(Q) == 3)
    with pytest.raises(NotClosed):
        iso.subgroup_from_points([E6.infinity(), P3])  # missing -P3


def test_extension_subgroup_descends_kernel_poly():
    # order-3 point with rational x but y only over F_25:
    # on y^2 = x^3 + 1 the 3-division radical has the root x = 1 with
    # f(1) = 2, a non-square mod 5
    E = iso.Curve(F5, 0, 1)
    E25 = iso.embed_curve(E, F25)
    y = next(e for e in F25.elements() if (e * e).digits == (2, 0))
    P = E25.point(F25.element([1, 0]), y)
    assert iso.point_order(P) == 3
    G = iso.subgroup_from_generator(P, base_curve=E)
    assert G.order == 3
    assert G.kernel_poly.ctx == F5
    assert G.kernel_poly == Poly.from_ints(F5, [4, 1])  # x - 1


def test_non_galois_stable_subgroup_detected():
    # search for an order-3 point whose x-coordinate is not in F_5: its
    # cyclic span cannot be stable over the base field
    found = False
    for E in nonsingular_curves(5, 25):
        E25 = iso.embed_curve(E, F25)
        for P in iso.enumerate_points(E25):
            if P.is_infinity or iso.point_order(P) != 3:
                continue
            if P.x.digits[1] != 0:
                with pytest.raises(NotGaloisStable):
                    iso.subgroup_from_generator(P, base_curve=E)
                found = True
                break
        if found:
            break
    assert found


def test_mul_map_structure(e_f5):
    one = iso.mul_by_m_map(e_f5, 1)
    assert one.r == iso.RatFunc.x(F5)
    assert one.s.constant_value() == F5.one
    neg = iso.mul_by_m_map(e_f5, -1)
    assert neg.r == iso.RatFunc.x(F5)
    assert neg.s.constant_value() == F5.element(-1)
    with pytest.raises(ZeroMultiplier):
        iso.mul_by_m_map(e_f5, 0)
    with pytest.raises(DegreeTooLarge):
        iso.mul_by_m_map(e_f5, 51)


def test_mul_map_against_scalar_oracle(e_f5, e_f5_ss):
    # the oracle is scalar_mul at every enumerated point, kernel included
    for E in (e_f5, e_f5_ss, iso.Curve(F7, 1, 1)):
        pts = iso.enumerate_points(E)
        for m in list(range(1, 9)) + [-2, E.ctx.p]:
            mm = iso.mul_by_m_map(E, m)
            assert mm.degree == m * m
            images = iso.iso_eval_batch(mm, pts)
            for P, img in zip(pts, images):
                assert img == iso.scalar_mul(m, P), (E, m, P)


def _gcd_reduced_mul_map(E, m):
    """[m] with both coordinate maps reduced by RatFunc's gcd: the reference
    for mul_by_m_map, which reduces them by argument instead."""
    n, ctx = abs(m), E.ctx
    x, f = iso.Poly.x(ctx), E.f_poly()
    pi = _division_polys(E, 2 * n)
    pim = pi[n]
    if n % 2:
        num = x * pim * pim - pi[n + 1] * pi[n - 1] * f
        den = pim * pim
        s_den = (pim ** 4).scale(ctx.raw_from_int(2))
    else:
        num = x * pim * pim * f - pi[n + 1] * pi[n - 1]
        den = pim * pim * f
        s_den = (pim ** 4 * f * f).scale(ctx.raw_from_int(2))
    s = iso.RatFunc(pi[2 * n], s_den)
    return iso.IsogenyMap(E, E, iso.RatFunc(num, den), -s if m < 0 else s,
                          m * m)


def test_mul_map_matches_the_gcd_reduced_construction(e_f5_ss):
    # ordinary and supersingular curves, and p | m on each field
    curves = [e_f5_ss, iso.Curve(make_field(29), 0, 1)]
    for p in (5, 7, 13, 29):
        curves += nonsingular_curves(p, 3)
    for E in curves:
        for m in list(range(2, 13)) + [-3]:
            assert iso.mul_by_m_map(E, m) == _gcd_reduced_mul_map(E, m), (E, m)


def test_mul_map_on_extension_points(e_f5):
    E25 = iso.embed_curve(e_f5, F25)
    pts = iso.enumerate_points(E25)
    for m in (2, 3, 5):
        mm = iso.mul_by_m_map(e_f5, m)
        for P, img in zip(pts, iso.iso_eval_batch(mm, pts)):
            assert img == iso.scalar_mul(m, P)


def test_embed_point_and_mismatch(e_f5):
    E25 = iso.embed_curve(e_f5, F25)
    P = e_f5.point(2, 0)
    up = iso.embed_point(P, E25)
    assert up.curve == E25 and up.x.digits == (2, 0)
    other = iso.Curve(F5, 0, 1)
    with pytest.raises(CurveMismatch):
        P + other.point(0, 1)
    with pytest.raises(CurveMismatch):
        iso.embed_point(other.point(0, 1), E25)


# -- batch group law (the pointwise dual check's oracle) ------------------------

F49 = make_field(7, 2)


BATCH_LAW_CURVES = {
    "supersingular-F25": iso.embed_curve(iso.Curve(F5, 0, 1), F25),
    "full-2-torsion-F25": iso.embed_curve(iso.Curve(F5, 1, 0), F25),
    "ordinary-F49": iso.embed_curve(iso.Curve(F7, 1, 1), F49),
    "a-outside-F5": iso.Curve(F25, F25.element([1, 1]), 2),
}
batch_law_curves = pytest.mark.parametrize(
    "E", BATCH_LAW_CURVES.values(), ids=BATCH_LAW_CURVES.keys())


@batch_law_curves
def test_batch_point_add_matches_point_add_exhaustive(E):
    pts = iso.enumerate_points(E)
    assert pts[0].is_infinity
    pairs = [(P, Q) for P in pts for Q in pts]  # every ordered pair, O too
    left = iso.curve.point_batch(E, [P for P, _ in pairs])
    right = iso.curve.point_batch(E, [Q for _, Q in pairs])
    sums = iso.curve.batch_points(E, iso.curve.batch_point_add(E, left, right))
    assert sums == [iso.point_add(P, Q) for P, Q in pairs]


@batch_law_curves
def test_batch_scalar_mul_matches_scalar_mul(E):
    pts = iso.enumerate_points(E)
    B = iso.curve.point_batch(E, pts)
    for m in list(range(1, 13)) + list(range(-12, 0)):
        images = iso.curve.batch_points(E, iso.curve.batch_scalar_mul(E, m, B))
        assert images == [iso.scalar_mul(m, P) for P in pts], m


@batch_law_curves
def test_affine_points_match_brute_force(E):
    elements = E.ctx.elements()
    expected = [E.point(x, y) for x in elements for y in elements
                if E.contains(x, y)]
    B = iso.curve.affine_points(E)
    assert not B.inf.any()
    assert iso.curve.batch_points(E, B) == expected

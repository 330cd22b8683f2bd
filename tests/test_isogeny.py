import pytest

import isodual as iso
from isodual.errors import (CurveChainMismatch, CurveMismatch, IsodualError,
                            KernelNotRational, UnsupportedBaseField)
from isodual.ff import make_field
from isodual.polyrat import Poly, RatFunc
from conftest import cyclic_subgroups, nonsingular_curves

F5 = make_field(5)
F25 = make_field(5, 2)


@pytest.fixture(scope="module")
def deg2(e_f5):
    G = iso.subgroup_from_generator(e_f5.point(0, 0))
    return e_f5, G, iso.velu_isogeny(e_f5, G)


def embedded_subgroup(E, G, ctx):
    big = iso.embed_curve(E, ctx)
    pts = [iso.embed_point(P, big) for P in G.points]
    return iso.subgroup_from_points(pts, base_curve=E)


def test_velu_pointwise_trivial_kernel(e_f5):
    G = iso.trivial_subgroup(e_f5)
    for P in iso.enumerate_points(e_f5):
        img = iso.velu_pointwise(e_f5, G, P)
        if P.is_infinity:
            assert img.is_infinity
        else:
            assert (img.x, img.y) == (P.x, P.y)


def test_velu_pointwise_kernel_to_infinity(deg2):
    E, G, _ = deg2
    for Q in G.points:
        assert iso.velu_pointwise(E, G, Q).is_infinity


def test_velu_pointwise_translate_invariance(deg2):
    E, G, _ = deg2
    G25 = embedded_subgroup(E, G, F25)
    for P in iso.enumerate_points(G25.ambient_curve):
        base = iso.velu_pointwise(E, G25, P)
        for Q0 in G25.points:
            assert iso.velu_pointwise(E, G25, P + Q0) == base


def test_velu_degree2_fixture(deg2):
    E, G, phi = deg2
    assert phi.degree == 2
    assert phi.r.den == Poly.x(F5)  # den(r) = x
    assert phi.domain == E


def test_velu_matches_pointwise_oracle_over_extension(deg2):
    E, G, phi = deg2
    G25 = embedded_subgroup(E, G, F25)
    pts = iso.enumerate_points(G25.ambient_curve)
    images = iso.iso_eval_batch(phi, pts)
    for P, img in zip(pts, images):
        assert img == iso.velu_pointwise(E, G25, P)


def test_velu_oracle_equivalence_many_curves():
    # one subgroup of each small order per prime, checked over F_{p^2}
    for p in (5, 7, 11, 13):
        ctx2 = make_field(p, 2)
        by_order = {}
        for E in nonsingular_curves(p, p * p):
            for G in cyclic_subgroups(E, (2, 3, 4, 5, 7)):
                by_order.setdefault(G.order, (E, G))
            if len(by_order) == 5:
                break
        for E, G in by_order.values():
            phi = iso.velu_isogeny(E, G)
            G2 = embedded_subgroup(E, G, ctx2)
            pts = iso.enumerate_points(G2.ambient_curve)
            images = iso.iso_eval_batch(phi, pts)
            for P, img in zip(pts, images):
                assert img == iso.velu_pointwise(E, G2, P)


def test_velu_kernel_polynomial_and_determinism(deg2):
    E, G, phi = deg2
    assert phi.kernel_polynomial() == G.kernel_poly
    assert iso.iso_equal(phi, iso.velu_isogeny(E, G))


def test_velu_trivial_kernel_is_identity(e_f5):
    phi = iso.velu_isogeny(e_f5, iso.trivial_subgroup(e_f5))
    assert iso.iso_equal(phi, iso.identity_isogeny(e_f5))


def test_iso_eval_homomorphism(deg2):
    E, G, phi = deg2
    pts = iso.enumerate_points(iso.embed_curve(E, F25))
    images = dict(zip(pts, iso.iso_eval_batch(phi, pts)))
    for P in pts:
        for Q in pts:
            assert images[P + Q] == images[P] + images[Q]


def test_iso_eval_infinity_and_kernel(deg2):
    E, G, phi = deg2
    assert iso.iso_eval(phi, E.infinity()).is_infinity
    assert iso.iso_eval(phi, E.point(0, 0)).is_infinity


def test_iso_eval_matches_the_batch_at_every_point(deg2):
    # the scalar path against the batch path, O and kernel points included:
    # phi's kernel lies over F_5, part of [3]'s over F_25
    E, _, phi = deg2
    affine_kernel_points = 0
    for f in (phi, iso.mul_by_m_map(E, 3), iso.frobenius_isogeny(E, 1)):
        for curve in (E, iso.embed_curve(E, F25)):
            pts = iso.enumerate_points(curve)
            images = iso.iso_eval_batch(f, pts)
            assert [iso.iso_eval(f, P) for P in pts] == images
            affine_kernel_points += sum(Q.is_infinity for Q in images) - 1
    assert affine_kernel_points > 0


def test_iso_eval_y_map_pole_outside_kernel(e_f5):
    ident = iso.identity_isogeny(e_f5)
    # s = 1/(x - 1): a pole at x = 1, where r = x has none
    bad_s = RatFunc(Poly.one(F5), Poly.from_ints(F5, [4, 1]))
    corrupt = iso.IsogenyMap(e_f5, e_f5, ident.r, bad_s, 1, check=False)
    E25 = iso.embed_curve(e_f5, F25)
    pts = [P for P in iso.enumerate_points(E25)
           if not P.is_infinity and P.x == F25.element(1)]
    assert pts
    with pytest.raises(IsodualError):
        iso.iso_eval(corrupt, pts[0])


def test_iso_compose(deg2):
    E, G, phi = deg2
    ident = iso.identity_isogeny(phi.codomain)
    assert iso.iso_equal(iso.iso_compose(ident, phi), phi)
    psi = iso.iso_compose(iso.mul_by_m_map(phi.codomain, 2), phi)
    assert psi.degree == 8  # degrees multiply
    other = iso.identity_isogeny(iso.Curve(F5, 0, 1))
    with pytest.raises(CurveChainMismatch):
        iso.iso_compose(other, phi)


def test_iso_equal_negative(e_f5):
    ident = iso.identity_isogeny(e_f5)
    neg = iso.mul_by_m_map(e_f5, -1)
    assert iso.iso_equal(ident, ident)
    assert not iso.iso_equal(ident, neg)


def test_kernel_of(deg2):
    E, G, phi = deg2
    assert iso.kernel_of(iso.identity_isogeny(E), F5).order == 1
    K = iso.kernel_of(phi, F5)
    assert K.point_set() == G.point_set()
    # kernel of [2] needs the full 2-torsion: size 4 over a splitting field
    E6 = iso.Curve(F5, 0, 1)
    two = iso.mul_by_m_map(E6, 2)
    K4 = iso.kernel_of(two, F25)
    assert K4.order == 4
    expected = {P for P in iso.enumerate_points(iso.embed_curve(E6, F25))
                if iso.scalar_mul(2, P).is_infinity}
    assert K4.point_set() == expected
    with pytest.raises(KernelNotRational):
        iso.kernel_of(two, F5)  # only one rational 2-torsion point downstairs


def test_kernel_of_mul_map_full_torsion():
    # E[3] of y^2 = x^3 + 1 splits over F_25 (Frobenius has trace 0, so its
    # matrix mod 3 is diag(1, -1) of order 2)
    E6 = iso.Curve(F5, 0, 1)
    three = iso.mul_by_m_map(E6, 3)
    K = iso.kernel_of(three, F25)
    oracle = {P for P in iso.enumerate_points(iso.embed_curve(E6, F25))
              if iso.scalar_mul(3, P).is_infinity}
    assert K.order == 9 and K.point_set() == oracle


def test_frobenius_isogeny(e_f5):
    pi = iso.frobenius_isogeny(e_f5, 1)
    assert pi.degree == 5
    assert pi.r == RatFunc.of(Poly.from_ints(F5, [0] * 5 + [1]))  # x^5
    assert pi.s == RatFunc.of(e_f5.f_poly() ** 2)  # f^((5-1)/2)
    for P in iso.enumerate_points(iso.embed_curve(e_f5, F25)):
        img = iso.iso_eval(pi, P)
        if P.is_infinity:
            assert img.is_infinity
        else:
            assert img.x == P.x ** 5 and img.y == P.y ** 5
    for P in iso.enumerate_points(e_f5):
        assert iso.iso_eval(pi, P) == P  # fixes E(F_p) pointwise
    with pytest.raises(UnsupportedBaseField):
        iso.frobenius_isogeny(iso.embed_curve(e_f5, F25), 1)


def test_separability_via_derivative(e_f5, deg2):
    _, _, phi = deg2
    assert phi.is_separable()
    assert not iso.frobenius_isogeny(e_f5, 1).is_separable()


def test_curve_equation_compatibility_rejects_corrupt_maps(e_f5):
    good = iso.mul_by_m_map(e_f5, 2)
    with pytest.raises(IsodualError):
        iso.IsogenyMap(good.domain, good.codomain, good.r, -good.s + RatFunc.x(F5),
                       good.degree)


def test_isomorphism_scaling(e_f5):
    u = F5.element(2)
    i = iso.Isomorphism(e_f5, u)
    assert i.codomain.a == u ** 4 * e_f5.a and i.codomain.b == u ** 6 * e_f5.b
    j = i.inverse()
    roundtrip = iso.iso_compose(j.as_isogeny(), i.as_isogeny())
    assert iso.iso_equal(roundtrip, iso.identity_isogeny(e_f5))
    for P in iso.enumerate_points(e_f5):
        assert i.apply(P) == iso.iso_eval(i.as_isogeny(), P)


def test_velu_subgroup_curve_mismatch(deg2):
    E, G, _ = deg2
    other = iso.Curve(F5, 0, 1)
    with pytest.raises(CurveMismatch):
        iso.velu_isogeny(other, G)

import dataclasses
import random

import pytest

import isodual as iso
from isodual import ff
from isodual.dualctor import (_pointwise_dual_check, _pushforward_kernel_poly,
                              verify_certificate)
from isodual.errors import (CompositionMismatch, FieldTooLarge,
                            InseparableMap, IsodualError, KernelNotNested,
                            NonConstantRatio, NotNormalized,
                            UnsupportedBaseField)
from isodual.ff import make_field
from isodual.polyrat import (Poly, RatFunc, embed_poly, lagrange_interpolate,
                             resultant, squarefree_part)
from conftest import cyclic_subgroups, find_curves_by_trace, nonsingular_curves

F5 = make_field(5)
F25 = make_field(5, 2)


@pytest.fixture(scope="module")
def deg2(e_f5):
    G = iso.subgroup_from_generator(e_f5.point(0, 0))
    return e_f5, G, iso.velu_isogeny(e_f5, G)


def subgroup_of_order(E, order):
    for P in iso.enumerate_points(E):
        if iso.point_order(P) == order:
            return iso.subgroup_from_generator(P)
    return None


# -- separable decomposition --------------------------------------------------


def test_decompose_identity(e_f5):
    dec = iso.separable_decompose(iso.identity_isogeny(e_f5))
    assert dec.n == 0 and iso.iso_equal(dec.sep, iso.identity_isogeny(e_f5))


def test_decompose_frobenius(e_f5):
    pi = iso.frobenius_isogeny(e_f5, 1)
    dec = iso.separable_decompose(pi)
    assert dec.n == 1
    assert iso.iso_equal(dec.sep, iso.identity_isogeny(e_f5))
    assert iso.iso_equal(iso.iso_compose(dec.sep, pi), pi)  # recomposition


def test_decompose_mul_p_ordinary_vs_supersingular(e_f5, e_f5_ss):
    # ordinary: [5] = sep(deg 5) o pi; supersingular: [5] purely inseparable
    dec_o = iso.separable_decompose(iso.mul_by_m_map(e_f5, 5))
    assert dec_o.n == 1 and dec_o.sep.degree == 5
    dec_s = iso.separable_decompose(iso.mul_by_m_map(e_f5_ss, 5))
    assert dec_s.n == 2 and dec_s.sep.degree == 1
    assert dec_s.sep.is_separable()


def test_decompose_recomposition_invariant(e_f5, e_f5_ss):
    for E in (e_f5, e_f5_ss):
        for phi in (iso.mul_by_m_map(E, 5), iso.mul_by_m_map(E, 10),
                    iso.frobenius_isogeny(E, 2)):
            dec = iso.separable_decompose(phi)
            recomposed = dec.sep
            if dec.n:
                recomposed = iso.iso_compose(recomposed,
                                             iso.frobenius_isogeny(E, dec.n))
            assert iso.iso_equal(recomposed, phi)
            assert dec.sep.is_separable()
            assert dec.original_degree == dec.sep.degree * E.ctx.p ** dec.n


def test_decompose_rejects_extension_base_inseparable(e_f5):
    E25 = iso.embed_curve(e_f5, F25)
    # build an inseparable map over F_25 by hand: (x^5, y^5) into the
    # conjugate curve equals the same curve here, but pi is not exposed for
    # k > 1; decompose must refuse rather than mis-handle
    from isodual.isogeny import IsogenyMap
    from isodual.polyrat import Poly, RatFunc
    xq = RatFunc.of(Poly(F25, (F25.zero_raw,) * 5 + (F25.one_raw,)))
    s = RatFunc.of(E25.f_poly() ** 2)
    pi25 = IsogenyMap(E25, E25, xq, s, 5)
    with pytest.raises(UnsupportedBaseField):
        iso.separable_decompose(pi25)


# -- pullback constants and normalization -------------------------------------


def test_pullback_constants(e_f5, deg2):
    _, _, phi = deg2
    assert iso.pullback_constant(iso.identity_isogeny(e_f5)) == F5.one
    assert iso.pullback_constant(phi) == F5.one  # Velu output is normalized
    for m in (2, 3, 4, 6, 7, 8, 9):
        assert iso.pullback_constant(iso.mul_by_m_map(e_f5, m)) == F5.element(m)
    with pytest.raises(InseparableMap):
        iso.pullback_constant(iso.frobenius_isogeny(e_f5, 1))


def test_pullback_constant_refuses_a_non_constant_ratio(e_f5, deg2):
    # r'/s = c/x once s is multiplied by x: the division leaves a remainder
    x = RatFunc.x(F5)
    for phi in (deg2[2], iso.mul_by_m_map(e_f5, 3)):
        bent = iso.IsogenyMap(phi.domain, phi.codomain, phi.r, phi.s * x,
                              phi.degree, check=False)
        with pytest.raises(NonConstantRatio):
            iso.pullback_constant(bent)


def test_is_separable_is_false_after_frobenius(e_f5, deg2):
    phi = deg2[2]
    for n in (1, 2):
        pi = iso.frobenius_isogeny(e_f5, n)
        assert not pi.is_separable()
        assert not iso.iso_compose(phi, pi).is_separable()
    assert phi.is_separable()


def test_velu_outputs_are_normalized():
    for p in (5, 7, 11, 13):
        one = make_field(p).one
        count = 0
        for E in nonsingular_curves(p, p * p):
            for G in cyclic_subgroups(E, (2, 3, 4, 5, 7)):
                assert iso.pullback_constant(iso.velu_isogeny(E, G)) == one
                count += 1
            if count >= 6:
                break


def test_normalize_postcondition_and_idempotence(e_f5):
    for m in (2, 3, 4, 6):
        i_m, comp = iso.normalize(iso.mul_by_m_map(e_f5, m))
        assert iso.pullback_constant(comp) == F5.one
        i_again, comp2 = iso.normalize(comp)
        assert i_again.u == F5.one
        assert iso.iso_equal(comp2, comp)


def test_normalize_already_normalized(deg2):
    _, _, phi = deg2
    i, comp = iso.normalize(phi)
    assert i.u == F5.one
    assert iso.iso_equal(comp, phi)


def test_pullback_multiplicativity(e_f5, e_f5_ss):
    pairs = 0
    for E in (e_f5, e_f5_ss, iso.Curve(make_field(7), 1, 1)):
        ctx = E.ctx
        for m1 in (2, 3, 4):
            f = iso.mul_by_m_map(E, m1)
            for m2 in (2, 3, 6):
                g = iso.mul_by_m_map(E, m2)
                comp = iso.iso_compose(g, f)
                assert iso.pullback_constant(comp) == \
                    iso.pullback_constant(g) * iso.pullback_constant(f)
                pairs += 1
        G = next(g for o in (2, 3, 5, 7)
                 for g in [subgroup_of_order(E, o)] if g is not None)
        phi = iso.velu_isogeny(E, G)
        g = iso.mul_by_m_map(phi.codomain, 3)
        comp = iso.iso_compose(g, phi)
        assert iso.pullback_constant(comp) == ctx.element(3)
        pairs += 1
    assert pairs >= 28


def test_pullback_multiplicativity_velu_chains():
    # composable pairs of Velu maps: both normalized, so the composite must be
    for p in (5, 7):
        count = 0
        for E in nonsingular_curves(p, p * p):
            for o in (2, 3):
                G = subgroup_of_order(E, o)
                if G is None:
                    continue
                phi = iso.velu_isogeny(E, G)
                E1 = phi.codomain
                for o2 in (2, 3):
                    G2 = subgroup_of_order(E1, o2)
                    if G2 is None:
                        continue
                    psi = iso.velu_isogeny(E1, G2)
                    comp = iso.iso_compose(psi, phi)
                    assert iso.pullback_constant(comp) == E.ctx.one
                    count += 1
            if count >= 8:
                break
        assert count >= 8


# -- quotient / factor-through -------------------------------------------------


def test_quotient_trivial_cases(deg2):
    E, _, phi = deg2
    ident = iso.identity_isogeny(E)
    # phi_norm = identity: lam = psi
    assert iso.iso_equal(iso.quotient_isogeny(ident, phi), phi)
    # psi = phi: lam = identity
    lam = iso.quotient_isogeny(phi, phi)
    assert iso.iso_equal(lam, iso.identity_isogeny(phi.codomain))


def find_cyclic(E_list, order):
    for E in E_list:
        G = subgroup_of_order(E, order)
        if G is not None:
            return E, G
    raise AssertionError(f"no cyclic subgroup of order {order} found")


def test_quotient_nested_2_in_4():
    E, G4 = find_cyclic(nonsingular_curves(5, 25) + nonsingular_curves(13, 60), 4)
    P4 = next(P for P in G4.points if iso.point_order(P) == 4)
    G2 = iso.subgroup_from_generator(iso.scalar_mul(2, P4))
    phi2 = iso.velu_isogeny(E, G2)
    phi4 = iso.velu_isogeny(E, G4)
    lam = iso.quotient_isogeny(phi2, phi4)
    assert lam.degree == 2
    assert iso.iso_equal(iso.iso_compose(lam, phi2), phi4)


def test_quotient_nested_in_6(e_f5_ss):
    E = e_f5_ss
    P6 = next(P for P in iso.enumerate_points(E) if iso.point_order(P) == 6)
    G6 = iso.subgroup_from_generator(P6)
    phi6 = iso.velu_isogeny(E, G6)
    for d in (2, 3):
        Gd = iso.subgroup_from_generator(iso.scalar_mul(6 // d, P6))
        phid = iso.velu_isogeny(E, Gd)
        lam = iso.quotient_isogeny(phid, phi6)
        assert lam.degree == 6 // d
        assert iso.iso_equal(iso.iso_compose(lam, phid), phi6)


def test_quotient_kernel_matches_image_subgroup(deg2):
    # point-level cross-check of the kernel-polynomial pushforward, on a case
    # where the splitting field is affordable: ker(lam) = phi(ker [2])
    E, G, phi = deg2
    two_norm = iso.normalize(iso.mul_by_m_map(E, 2))[1]
    lam = iso.quotient_isogeny(phi, two_norm)
    full_two = iso.kernel_of(iso.mul_by_m_map(E, 2), F5)  # E[2] rational here
    images = {iso.iso_eval(phi, P) for P in full_two.points}
    expected = iso.subgroup_from_points(images).kernel_poly
    assert lam.kernel_polynomial() == expected


def test_quotient_preconditions(e_f5, deg2):
    E, _, phi = deg2
    with pytest.raises(NotNormalized):
        iso.quotient_isogeny(phi, iso.mul_by_m_map(E, 2))  # [2] has constant 2
    with pytest.raises(InseparableMap):
        iso.quotient_isogeny(phi, iso.frobenius_isogeny(E, 1))
    G3curve = iso.Curve(F5, 0, 1)
    P3 = next(P for P in iso.enumerate_points(G3curve) if iso.point_order(P) == 3)
    phi3 = iso.velu_isogeny(G3curve, iso.subgroup_from_generator(P3))
    P2 = next(P for P in iso.enumerate_points(G3curve) if iso.point_order(P) == 2)
    phi2 = iso.velu_isogeny(G3curve, iso.subgroup_from_generator(P2))
    with pytest.raises(KernelNotNested):
        iso.quotient_isogeny(phi3, phi2)


def test_factor_through(deg2):
    E, _, phi = deg2
    assert iso.iso_equal(iso.factor_through(phi, phi),
                         iso.identity_isogeny(phi.codomain))
    two = iso.mul_by_m_map(E, 2)
    lam = iso.factor_through(phi, two)
    assert iso.iso_equal(iso.iso_compose(lam, phi), two)


def test_factor_through_scaling_invariance(deg2):
    E, _, phi = deg2
    two = iso.mul_by_m_map(E, 2)
    for u in (2, 3, 4):
        i = iso.Isomorphism(phi.codomain, F5.element(u))
        phi_u = iso.iso_compose(i.as_isogeny(), phi)
        lam = iso.factor_through(phi_u, two)
        assert iso.iso_equal(iso.iso_compose(lam, phi_u), two)


# -- the quotient's kernel pushforward -------------------------------------------


def sampled_pushforward(phin, W):
    """The monic radical of R(Y) = Res_x(W, num r - Y den r), from W.degree + 1
    samples of R over an extension, interpolated and descended; None when R
    has lower degree than W (a root of W is a pole of r)."""
    ctx = phin.domain.ctx
    j = 2
    while ctx.order ** j <= W.degree + 1:
        j += 1
    ext = make_field(ctx.p, ctx.k * j)
    emb = ff.embed(ctx, ext)
    w, n, d = (embed_poly(f, emb) for f in (W, phin.r.num, phin.r.den))
    ys = [ext.raw_from_code(c) for c in range(W.degree + 1)]
    R = lagrange_interpolate(ext, ys, [resultant(w, n - d.scale(y)) for y in ys])
    if R.degree < W.degree:
        return None
    return squarefree_part(Poly(ctx, [emb.descend_raw(c) for c in R.coeffs]))


def dual_quotient_pairs(E, G):
    """(phi_norm, W) for the quotient step of dual_isogeny on velu(E, G):
    W = ker [m]_norm / ker phi_norm, with [m] reduced to its separable part."""
    phin = iso.normalize(iso.velu_isogeny(E, G))[1]
    mm = iso.separable_decompose(iso.mul_by_m_map(E, G.order)).sep
    W = iso.normalize(mm)[1].kernel_polynomial() // phin.kernel_polynomial()
    return phin, W


def test_pushforward_matches_sampled_resultants_over_prime_fields():
    checked = 0
    for p in (5, 7):
        for E in nonsingular_curves(p, 20):
            for G in cyclic_subgroups(E, (2, 3, 4, 5, 7)):
                phin, W = dual_quotient_pairs(E, G)
                if W.degree > 0:
                    assert _pushforward_kernel_poly(phin, W) == \
                        sampled_pushforward(phin, W)
                    checked += 1
    assert checked >= 80


@pytest.mark.parametrize("p, orders", [(5, (2, 3, 4)), (7, (2, 3, 4, 5))])
def test_pushforward_matches_sampled_resultants_over_f_p2(p, orders):
    # curves with a coefficient outside F_p, so the digit planes carry k = 2
    ctx = make_field(p, 2)
    checked = outside_f_p = 0
    for b in range(1, p):
        try:
            E = iso.Curve(ctx, ctx.element([0, 1]), b)
        except iso.errors.SingularCurve:
            continue
        for G in cyclic_subgroups(E, orders):
            phin, W = dual_quotient_pairs(E, G)
            if W.degree > 0:
                T = _pushforward_kernel_poly(phin, W)
                assert T == sampled_pushforward(phin, W)
                checked += 1
                outside_f_p += any(ctx.raw_digits(c)[1] for c in T.coeffs)
        if checked >= 6:
            break
    assert checked >= 6 and outside_f_p >= 1


def test_pushforward_refuses_a_pole_of_r_among_the_roots_of_w(deg2):
    _, _, phi = deg2  # den r = x
    W = Poly.from_ints(F5, [0, 4, 1])  # x (x - 1)
    assert sampled_pushforward(phi, W) is None
    with pytest.raises(CompositionMismatch):
        _pushforward_kernel_poly(phi, W)


@pytest.mark.parametrize("p, a, b, gen", [(13, 1, 0, (4, 4)),
                                           (19, 0, 8, (2, 4))])
def test_pushforward_degree_bound_is_tight(p, a, b, gen):
    # ker psi = ker phi + E[2] with E[2] rational and deg phi = n odd, n >= 5:
    # lam's kernel phi(E[2]) holds all three 2-torsion points, so deg T =
    # (deg lam + 2) / 2 = 3 = 2 deg W // n, and the last Krylov power counts
    E = iso.Curve(make_field(p), a, b)
    G = iso.subgroup_from_generator(E.point(*gen))
    two = iso.kernel_of(iso.mul_by_m_map(E, 2), E.ctx).points
    psi = iso.velu_isogeny(E, iso.subgroup_from_points(
        {iso.point_add(P, Q) for P in G.points for Q in two}))
    phi = iso.velu_isogeny(E, G)
    assert G.order >= 5 and G.order % 2 and len(two) == 4
    lam = iso.factor_through(phi, psi)
    W = psi.kernel_polynomial() // phi.kernel_polynomial()
    T = lam.kernel_polynomial()
    assert T.degree == (lam.degree + 2) // 2 == 2 * W.degree // phi.degree
    assert T == _pushforward_kernel_poly(iso.normalize(phi)[1], W)


def test_factor_through_builds_no_extension_field(monkeypatch):
    E = iso.Curve(make_field(1009), 1, 0)
    phi = iso.velu_isogeny(E, iso.subgroup_from_generator(E.point(0, 0)))
    two = iso.mul_by_m_map(E, 2)
    built = []
    make, embed = ff.make_field, ff.embed
    monkeypatch.setattr(ff, "make_field",
                        lambda p, k=1: built.append(k) or make(p, k))
    monkeypatch.setattr(ff, "embed",
                        lambda src, dst: built.append(dst.k) or embed(src, dst))
    lam = iso.factor_through(phi, two)
    assert iso.iso_equal(iso.iso_compose(lam, phi), two)
    assert all(k == 1 for k in built)


# -- Frobenius dual -------------------------------------------------------------


@pytest.mark.parametrize("p", [5, 7, 11])
def test_frobenius_dual_ordinary_and_supersingular(p):
    ordinary, supersingular = find_curves_by_trace(p)
    ctx2 = make_field(p, 2)
    for E, expect_n in ((ordinary, 1), (supersingular, 2)):
        dec = iso.separable_decompose(iso.mul_by_m_map(E, p))
        assert dec.n == expect_n
        pid = iso.frobenius_dual(E)
        assert pid.degree == p
        assert pid.is_separable() == (expect_n == 1)
        pi = iso.frobenius_isogeny(E, 1)
        comp = iso.iso_compose(pid, pi)
        assert iso.iso_equal(comp, iso.mul_by_m_map(E, p))
        pts = iso.enumerate_points(iso.embed_curve(E, ctx2))
        for P, img in zip(pts, iso.iso_eval_batch(comp, pts)):
            assert img == iso.scalar_mul(p, P)
        assert iso.iso_eval(comp, E.infinity()).is_infinity


def test_mul_map_commutes_with_frobenius(e_f5):
    # the composition-order convention relies on [m] o pi = pi o [m]
    pi = iso.frobenius_isogeny(e_f5, 1)
    for m in (2, 3, 5):
        mm = iso.mul_by_m_map(e_f5, m)
        assert iso.iso_equal(iso.iso_compose(mm, pi), iso.iso_compose(pi, mm))


# -- the dual pipeline -----------------------------------------------------------


def test_dual_identity_map(e_f5):
    cert = iso.dual_isogeny(iso.identity_isogeny(e_f5))
    assert cert.m == 1 and cert.verified
    assert iso.iso_equal(cert.dual, iso.identity_isogeny(e_f5))


def test_dual_above_order_12():
    # kernel orders 13-25 on the smallest prime above each with a rational
    # point of that order: the pipeline builds [m] up to [25]
    for p, a, b, gen, order in ((17, 3, 0, (1, 2), 13), (17, 2, 4, (2, 4), 16),
                                (19, 2, 10, (3, 9), 17),
                                (19, 1, 6, (0, 5), 18),
                                (29, 4, 2, (1, 6), 25)):
        E = iso.Curve(make_field(p), a, b)
        G = iso.subgroup_from_generator(E.point(*gen))
        assert G.order == order
        cert = iso.dual_isogeny(iso.velu_isogeny(E, G))
        assert cert.verified and cert.m == order
        assert verify_certificate(cert)


def test_dual_degree2_fixture(deg2):
    E, G, phi = deg2
    cert = iso.dual_isogeny(phi)
    assert cert.verified and cert.m == 2 and cert.n == 0 and cert.e == 0
    assert cert.dual.degree == 2
    comp = iso.iso_compose(cert.dual, phi)
    assert iso.iso_equal(comp, iso.mul_by_m_map(E, 2))
    pts = iso.enumerate_points(iso.embed_curve(E, F25))
    for P, img in zip(pts, iso.iso_eval_batch(comp, pts)):
        assert img == iso.scalar_mul(2, P)


def test_dual_of_frobenius(e_f5):
    pi = iso.frobenius_isogeny(e_f5, 1)
    cert = iso.dual_isogeny(pi)
    assert cert.verified and cert.m == 5 and cert.n == 1
    assert cert.frobenius_dual_used is not None
    assert iso.iso_equal(cert.dual, iso.frobenius_dual(e_f5))


def test_dual_of_velu_times_frobenius(e_f5):
    # mixed map with p | deg: phi = velu o pi, n = 1
    G = iso.subgroup_from_generator(e_f5.point(0, 0))
    phi = iso.iso_compose(iso.velu_isogeny(e_f5, G), iso.frobenius_isogeny(e_f5, 1))
    assert phi.degree == 10
    cert = iso.dual_isogeny(phi)
    assert cert.verified and cert.m == 10 and cert.n == 1
    assert iso.iso_equal(iso.iso_compose(cert.dual, phi),
                         iso.mul_by_m_map(e_f5, 10))


def test_verify_certificate_checks_every_claim(e_f5):
    # Velu o pi has n = 1 and a Frobenius dual; a certificate with any one
    # field changed is not the one dual_isogeny computes for its phi
    G = iso.subgroup_from_generator(e_f5.point(0, 0))
    phi = iso.iso_compose(iso.velu_isogeny(e_f5, G), iso.frobenius_isogeny(e_f5, 1))
    cert = iso.dual_isogeny(phi)
    assert cert.n == 1 and cert.frobenius_dual_used is not None
    assert verify_certificate(cert)
    for change in ({"n": 0}, {"n": 2}, {"frobenius_dual_used": None},
                   {"frobenius_dual_used": iso.frobenius_isogeny(e_f5, 1)},
                   {"e": 1}, {"u_m": cert.u_m + 1}, {"verified": False}):
        assert not verify_certificate(dataclasses.replace(cert, **change))
    # a phi the pipeline refuses fails with that refusal
    E25 = iso.embed_curve(e_f5, F25)
    with pytest.raises(UnsupportedBaseField):
        verify_certificate(dataclasses.replace(
            cert, phi=iso.identity_isogeny(E25)))


def test_dual_determinism(deg2):
    _, _, phi = deg2
    c1 = iso.dual_isogeny(phi)
    c2 = iso.dual_isogeny(phi)
    assert iso.iso_equal(c1.dual, c2.dual)
    assert (c1.m, c1.n, c1.e, c1.c_phi, c1.u_phi, c1.u_m) == \
        (c2.m, c2.n, c2.e, c2.c_phi, c2.u_phi, c2.u_m)
    assert iso.iso_equal(c1.lam, c2.lam)


def test_dual_other_side_composition(deg2):
    # phi o dual = [m] on the codomain: not claimed by the construction,
    # tested and reported here
    E, _, phi = deg2
    cert = iso.dual_isogeny(phi)
    other = iso.iso_compose(phi, cert.dual)
    assert iso.iso_equal(other, iso.mul_by_m_map(phi.codomain, 2))
    pts = iso.enumerate_points(iso.embed_curve(phi.codomain, F25))
    for P, img in zip(pts, iso.iso_eval_batch(other, pts)):
        assert img == iso.scalar_mul(2, P)


def test_verify_dual(deg2):
    E, _, phi = deg2
    ident = iso.identity_isogeny(E)
    assert iso.verify_dual(ident, ident)
    cert = iso.dual_isogeny(phi)
    assert iso.verify_dual(phi, cert.dual)
    # composing with anything nontrivial breaks the identity
    wrong = iso.iso_compose(iso.mul_by_m_map(E, 2), cert.dual)
    assert not iso.verify_dual(phi, wrong)


def test_dual_requires_prime_field(e_f5):
    E25 = iso.embed_curve(e_f5, F25)
    with pytest.raises(UnsupportedBaseField):
        iso.dual_isogeny(iso.identity_isogeny(E25))


def test_dual_of_mul_map(e_f5):
    # [2] is its own dual up to nothing: dual o [2] = [4]
    cert = iso.dual_isogeny(iso.mul_by_m_map(e_f5, 2))
    assert cert.verified and cert.m == 4
    assert iso.iso_equal(cert.dual, iso.mul_by_m_map(e_f5, 2))


def test_dual_of_scaled_velu(deg2):
    # a valid but non-normalized input (pullback constant != 1)
    E, _, phi = deg2
    scaled = iso.iso_compose(
        iso.Isomorphism(phi.codomain, F5.element(3)).as_isogeny(), phi)
    assert iso.pullback_constant(scaled) != F5.one
    cert = iso.dual_isogeny(scaled)
    assert cert.verified and cert.m == 2
    assert iso.iso_equal(iso.iso_compose(cert.dual, scaled),
                         iso.mul_by_m_map(E, 2))


def test_dual_of_klein_four_kernel(e_f5):
    # non-cyclic kernel: the full rational 2-torsion of y^2 = x^3 + x
    G = iso.subgroup_from_points(iso.enumerate_points(e_f5))
    assert G.order == 4 and G.two_torsion_poly.degree == 3
    phi = iso.velu_isogeny(e_f5, G)
    G25 = iso.subgroup_from_points(
        [iso.embed_point(P, iso.embed_curve(e_f5, F25)) for P in G.points],
        base_curve=e_f5)
    for P in iso.enumerate_points(G25.ambient_curve):
        assert iso.iso_eval(phi, P) == iso.velu_pointwise(e_f5, G25, P)
    cert = iso.dual_isogeny(phi)
    assert cert.verified and cert.m == 4


# -- the pointwise check ----------------------------------------------------------


def test_pointwise_check_rejects_the_wrong_multiplier():
    for E in nonsingular_curves(5, 6) + nonsingular_curves(7, 3):
        for G in cyclic_subgroups(E, (2, 3, 4, 5)):
            phi = iso.velu_isogeny(E, G)
            dual = iso.dual_isogeny(phi).dual
            m = phi.degree
            assert _pointwise_dual_check(phi, dual, m)
            assert not _pointwise_dual_check(phi, dual, m + 1)


def _composite_check(phi, dual, m):
    """The check through the composite dual o phi of degree m^2, evaluated
    on E(F_{p^2}) against scalar_mul: the reference for the check through
    phi and the dual in turn."""
    E = phi.domain
    comp = iso.iso_compose(dual, phi)
    E2 = iso.embed_curve(E, make_field(E.ctx.p, 2))
    pts = iso.enumerate_points(E2)
    return iso.iso_eval_batch(comp, pts) == [iso.scalar_mul(m, P) for P in pts]


def test_pointwise_check_matches_the_composite_evaluation():
    # the dual, and the dual composed with [-1], which dual o phi = [m]
    # rejects unless [m] = [-m] on E(F_{p^2})
    rejected = 0
    for E in nonsingular_curves(5, 6) + nonsingular_curves(7, 3):
        for G in cyclic_subgroups(E, (2, 3, 4, 5, 6, 7)):
            phi = iso.velu_isogeny(E, G)
            dual = iso.dual_isogeny(phi).dual
            neg = iso.iso_compose(iso.mul_by_m_map(E, -1), dual)
            m = phi.degree
            for d in (dual, neg):
                got = _pointwise_dual_check(phi, d, m)
                assert got == _composite_check(phi, d, m)
            assert _pointwise_dual_check(phi, dual, m)
            rejected += not _pointwise_dual_check(phi, neg, m)
    assert rejected > 0


def test_pointwise_check_field_guard():
    E = iso.Curve(make_field(1009), 1, 1)
    ident = iso.identity_isogeny(E)
    with pytest.raises(FieldTooLarge):
        _pointwise_dual_check(ident, ident, 1)


def test_pointwise_check_y_map_pole_outside_kernel(e_f5):
    ident = iso.identity_isogeny(e_f5)
    # s = 1/(x - 1): a pole at x = 1, where r = x has none
    bad_s = iso.RatFunc(iso.Poly.one(F5), iso.Poly.from_ints(F5, [4, 1]))
    corrupt = iso.IsogenyMap(e_f5, e_f5, ident.r, bad_s, 1, check=False)
    with pytest.raises(IsodualError):
        _pointwise_dual_check(corrupt, ident, 1)
    with pytest.raises(IsodualError):
        _pointwise_dual_check(ident, corrupt, 1)

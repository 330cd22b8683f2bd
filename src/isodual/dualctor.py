"""Dual-isogeny construction: separable/inseparable decomposition,
invariant-differential pullback constants, normalization, quotient
factoring, the Frobenius dual, and the end-to-end pipeline that emits a
machine-checkable certificate of the identity dual o phi = [deg phi].

Conventions fixed here:

* Frobenius sits on the right everywhere: phi = phi_sep o pi^n.  For
  prime-field curves every map in the pipeline has prime-field
  coefficients, so [m] and the scaling isomorphisms commute with pi and the
  one convention suffices (tested explicitly).
* The multiplication map factored in the pipeline is [deg phi_sep]; the
  Frobenius-dual factor pi-hat^n then restores the full degree, since
  pi-hat^n o pi^n = [p^n].  Composing everything gives dual o phi =
  [deg phi_sep] o [p^n] = [deg phi].
* Normalization solves for the scaling that makes the composite's pullback
  constant exactly 1 and asserts it, rather than trusting a sign
  convention: composing (u^2 x, u^3 y) after phi divides the constant by u,
  so u = c.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ff
from .curve import (Curve, affine_points, batch_scalar_mul, embed_curve,
                    mul_by_m_map)
from .errors import (CompositionMismatch, CurveChainMismatch, CurveMismatch,
                     DivisionByZero, InseparableMap, IsodualError,
                     KernelNotNested, NonConstantRatio, NotNormalized,
                     UnsupportedBaseField, VerificationFailed)
from .isogeny import (IsogenyMap, Isomorphism, frobenius_isogeny,
                      identity_isogeny, iso_compose, iso_equal,
                      iso_eval_point_batch, velu_from_kernel_polys)
from .polyrat import Poly, RatFunc, inverse_mod, poly_gcd, pth_power_root


@dataclass(frozen=True)
class Decomposition:
    """phi = sep o pi^n with sep separable; original_degree = deg(sep) * p^n."""

    sep: IsogenyMap
    n: int
    original_degree: int


@dataclass(frozen=True)
class DualCertificate:
    """Full record of one dual computation, sufficient for re-verification."""

    phi: IsogenyMap
    dual: IsogenyMap
    m: int
    n: int
    e: int
    c_phi: ff.FieldElement
    u_phi: ff.FieldElement
    u_m: ff.FieldElement
    lam: IsogenyMap
    frobenius_dual_used: IsogenyMap | None
    mul_map: IsogenyMap
    verified: bool


def _descend_exponents(f: Poly) -> Poly:
    """f(x) = g(x^p) with coefficient p-th roots taken: returns g."""
    try:
        return pth_power_root(f)
    except ValueError as exc:
        raise IsodualError(str(exc)) from exc


def separable_decompose(phi: IsogenyMap) -> Decomposition:
    """Largest n with phi = phi_sep o pi^n; n = 0 for separable maps."""
    ctx = phi.domain.ctx
    p = ctx.p
    r, s = phi.r, phi.s
    n = 0
    f_half = None  # f^((p-1)/2), of degree 3(p - 1)/2: built only if needed
    while r.derivative_num().is_zero():
        if ctx.k != 1:
            raise UnsupportedBaseField(
                "inseparable maps are only decomposed over prime-field curves")
        if f_half is None:
            f_half = RatFunc.of(phi.domain.f_poly() ** ((p - 1) // 2))
        r = RatFunc(_descend_exponents(r.num), _descend_exponents(r.den),
                    _reduced=True)
        t = s / f_half
        s = RatFunc(_descend_exponents(t.num), _descend_exponents(t.den),
                    _reduced=True)
        n += 1
    sep = IsogenyMap(phi.domain, phi.codomain, r, s, phi.degree // p ** n) \
        if n else phi
    return Decomposition(sep, n, phi.degree)


def pullback_constant(phi: IsogenyMap) -> ff.FieldElement:
    """The constant c with phi^*(omega') = c * omega, i.e. r'(x)/s(x).

    With r = n/d, r' = (n'd - nd')/d^2, so c is the quotient of
    (n'd - nd') den(s) by d^2 num(s), which must leave no remainder."""
    dr = phi.r.derivative_num()
    if dr.is_zero():
        raise InseparableMap("pullback of the invariant differential vanishes")
    d = phi.r.den
    c, rem = divmod(dr * phi.s.den, d * d * phi.s.num)
    if c.degree != 0 or not rem.is_zero():
        raise NonConstantRatio("r'/s did not reduce to a constant (corrupt map)")
    return phi.domain.ctx.wrap(c.leading)


def normalize(phi: IsogenyMap) -> tuple[Isomorphism, IsogenyMap]:
    """Scaling isomorphism i and i o phi with pullback constant exactly 1.

    Solved from the postcondition: scaling the codomain by u divides the
    constant by u, so u = c; the result is asserted, not assumed.
    """
    c = pullback_constant(phi)
    iso = Isomorphism(phi.codomain, c)
    composite = iso_compose(iso.as_isogeny(), phi)
    check = pullback_constant(composite)
    if check != phi.domain.ctx.one:
        raise IsodualError(
            f"normalization postcondition failed (constant {check})")
    return iso, composite


def _pushforward_kernel_poly(phin: IsogenyMap, W: Poly) -> Poly:
    """Monic squarefree polynomial whose roots are the x-coordinates of the
    images under phin of the kernel points with x-coordinates in W (monic).

    With r = n/d the x-map of phin, those images are the values of
    rho = n * d^-1 mod W at the roots of W.  W divides a kernel polynomial,
    so it is squarefree and F[x]/(W) is a product of fields, one per
    irreducible factor of W.  The minimal polynomial of rho in that ring is
    the lcm of the minimal polynomials of its components, i.e. the product
    of the distinct irreducible polynomials vanishing at the values
    rho(alpha), W(alpha) = 0: the monic radical of Res_x(W, n - Y d)
    (Kohel, PhD thesis, 1996).  d^-1 mod W exists exactly when no root of W
    is a pole of r; otherwise CompositionMismatch is raised.  The powers
    rho^i mod W are row-reduced on digit planes, and the first that depends
    on the ones before it, rho^t = sum c_i rho^i, gives Y^t - sum c_i Y^i.
    It comes by t = 2w // deg phin (w = deg W): above each root x(Q) lie the
    deg phin points P + ker phin, Q = phin(P), outside ker phin, with at
    least deg phin / 2 distinct x-coordinates, all roots of W.
    """
    ctx = phin.domain.ctx
    w = W.degree

    def inverse(digits: np.ndarray) -> np.ndarray:
        raw = ctx.rinv(ctx.raw_from_digits(digits.tolist()))
        return np.array(ctx.raw_digits(raw), dtype=np.int64)

    try:
        rho = phin.r.num * inverse_mod(phin.r.den, W) % W
    except DivisionByZero:
        raise CompositionMismatch("den(r) is not invertible mod W") from None
    powers = [Poly.one(ctx)]
    for _ in range(min(w, 2 * w // phin.degree)):
        powers.append(powers[-1] * rho % W)
    krylov = np.stack([ctx.raws_to_planes((f.coeffs + (0,) * w)[:w])
                       for f in powers], axis=2)
    try:
        _, coeffs = ctx.batch.first_dependency(krylov, inverse)
    except ValueError:
        raise CompositionMismatch("powers of rho stay independent") from None
    return Poly(ctx, ctx.planes_to_raws(-coeffs % ctx.p) + [ctx.one_raw])


def quotient_isogeny(phin: IsogenyMap, psin: IsogenyMap) -> IsogenyMap:
    """The unique lam with lam o phin = psin, for normalized separable maps
    from one curve with nested kernels (checked via kernel polynomials)."""
    if phin.domain != psin.domain:
        raise CurveMismatch("quotient requires maps from the same curve")
    one = phin.domain.ctx.one
    for m in (phin, psin):
        if not m.is_separable():
            raise InseparableMap("quotient requires separable maps")
        if pullback_constant(m) != one:
            raise NotNormalized("quotient requires normalized maps")
    k_phi = phin.kernel_polynomial()
    k_psi = psin.kernel_polynomial()
    W, rem = divmod(k_psi, k_phi)
    if not rem.is_zero():
        raise KernelNotNested(
            "kernel polynomial of phi does not divide that of psi")
    E1 = phin.codomain
    if W.degree == 0:
        lam = identity_isogeny(E1)
    else:
        T = _pushforward_kernel_poly(phin, W)
        k2 = poly_gcd(T, E1.f_poly())
        k1 = T // k2
        lam = velu_from_kernel_polys(E1, k2, k1)
    if not iso_equal(iso_compose(lam, phin), psin):
        raise CompositionMismatch("lam o phi_norm != psi_norm")
    return lam


def factor_through(phi: IsogenyMap, psi: IsogenyMap) -> IsogenyMap:
    """The map lam' with lam' o phi = psi, for separable maps with nested
    kernels: normalize both, quotient, then undo the normalizations."""
    if phi.domain != psi.domain:
        raise CurveMismatch("factoring requires maps from the same curve")
    i_phi, phin = normalize(phi)
    i_psi, psin = normalize(psi)
    lam = quotient_isogeny(phin, psin)
    lamp = iso_compose(i_psi.inverse().as_isogeny(),
                       iso_compose(lam, i_phi.as_isogeny()))
    if not iso_equal(iso_compose(lamp, phi), psi):
        raise CompositionMismatch("factored map failed to reproduce psi")
    return lamp


def frobenius_dual(E: Curve) -> IsogenyMap:
    """pi-hat with pi-hat o pi = [p]: decompose [p] = [p]_sep o pi^k and take
    [p]_sep o pi^(k-1); k = 1 on ordinary curves, k = 2 on supersingular."""
    if E.ctx.k != 1:
        raise UnsupportedBaseField("Frobenius dual requires a curve over F_p")
    dec = separable_decompose(mul_by_m_map(E, E.ctx.p))
    if dec.n < 1:
        raise IsodualError("[p] decomposed as separable (impossible)")
    if dec.n == 1:
        return dec.sep
    return iso_compose(dec.sep, frobenius_isogeny(E, dec.n - 1))


def _pointwise_dual_check(phi: IsogenyMap, dual: IsogenyMap, m: int) -> bool:
    """dual(phi(P)) = [m]P at every P of E(F_{p^2}), E the domain of phi.

    phi is evaluated at the points and the dual at their images: two maps of
    degree m, where their composite has degree m^2.  [m]P comes from the
    group law, never from a multiplication map, so the check is independent
    of the rational maps it verifies.  O maps to O under both sides and is
    left out.
    """
    E = phi.domain
    if dual.domain != phi.codomain or dual.codomain != E:
        return False
    F2 = ff.make_field(E.ctx.p, 2 * E.ctx.k)
    E2 = embed_curve(E, F2)
    points = affine_points(E2)
    images = iso_eval_point_batch(
        dual, embed_curve(phi.codomain, F2),
        iso_eval_point_batch(phi, E2, points))
    return images == batch_scalar_mul(E2, m, points)


def verify_dual(phi: IsogenyMap, dual: IsogenyMap) -> bool:
    """dual o phi = [deg phi], both as canonical maps and pointwise on
    E(F_{p^2})."""
    if dual.domain != phi.codomain or dual.codomain != phi.domain:
        raise CurveChainMismatch("dual does not chain with phi")
    return _verify_inner(phi, dual, mul_by_m_map(phi.domain, phi.degree))


def verify_certificate(cert: DualCertificate) -> bool:
    """cert is the certificate dual_isogeny computes for cert.phi.

    The dual is unique (Silverman, AEC III.6.1), every other field is a
    value of the same deterministic pipeline on phi, and dual_isogeny only
    returns once dual o phi = [m] holds, so one comparison checks every
    claim; a phi the pipeline refuses raises that refusal."""
    return dual_isogeny(cert.phi) == cert


def _verify_inner(phi: IsogenyMap, dual: IsogenyMap,
                  mul_map: IsogenyMap) -> bool:
    if not iso_equal(iso_compose(dual, phi), mul_map):
        return False
    return _pointwise_dual_check(phi, dual, phi.degree)


def dual_isogeny(phi: IsogenyMap) -> DualCertificate:
    """The dual of phi by the decompose/normalize/quotient pipeline.

    Steps: (1) phi = phi_sep o pi^n; (2) pi-hat from [p] if n > 0;
    (3) [m_s] = [m_s]_sep o pi^e for m_s = deg phi_sep; (4, 5) normalize
    phi_sep and [m_s]_sep; (6) lam o phi_norm = [m_s]_norm by the quotient
    construction; (7) dual = pi-hat^n o i_m^{-1} o pi^e o lam o i_phi.
    The certificate is only returned once dual o phi = [deg phi] has been
    verified; otherwise VerificationFailed is raised.
    """
    E = phi.domain
    if E.ctx.k != 1:
        raise UnsupportedBaseField("dual pipeline requires a curve over F_p")
    m = phi.degree
    p = E.ctx.p
    dec = separable_decompose(phi)
    n = dec.n
    m_s = m // p ** n
    pi_dual = frobenius_dual(E) if n else None

    mm = mul_by_m_map(E, m_s)
    dec_m = separable_decompose(mm)
    e = dec_m.n

    i_phi, phi_norm = normalize(dec.sep)
    i_m, m_norm = normalize(dec_m.sep)

    lam = quotient_isogeny(phi_norm, m_norm)

    dual = iso_compose(lam, i_phi.as_isogeny())
    if e:
        dual = iso_compose(frobenius_isogeny(i_m.codomain, e), dual)
    dual = iso_compose(i_m.inverse().as_isogeny(), dual)
    for _ in range(n):
        dual = iso_compose(pi_dual, dual)
    if dual.degree != m:
        raise VerificationFailed(f"dual has degree {dual.degree}, expected {m}")

    mul_map = mm if n == 0 else mul_by_m_map(E, m)
    if not _verify_inner(phi, dual, mul_map):
        raise VerificationFailed("dual o phi != [m]")
    # normalize solves u = c, so u_phi is the pullback constant of phi_sep
    return DualCertificate(phi=phi, dual=dual, m=m, n=n, e=e, c_phi=i_phi.u,
                           u_phi=i_phi.u, u_m=i_m.u, lam=lam,
                           frobenius_dual_used=pi_dual, mul_map=mul_map,
                           verified=True)

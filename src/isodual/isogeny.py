"""Isogenies in canonical form (x, y) -> (r(x), y*s(x)) between
short-Weierstrass curves, and their constructions.

Two independent routes to the same map are kept deliberately separate:

* ``velu_pointwise`` evaluates the coordinate-sum formula directly on
  points (x(P) + sum over the kernel of x(P+Q) - x(Q), same for y) and is
  the oracle everything else is tested against;
* ``velu_isogeny`` builds the rational maps from the kernel polynomial via
  partial-fraction sums, which works entirely over the base field even when
  the kernel points live in extensions.

Every constructed map is checked against the curve-equation compatibility
identity f(x) * s(x)^2 = r(x)^3 + a'*r(x) + b', which catches most
construction bugs on the spot.
"""

from __future__ import annotations

from . import ff
from .curve import (Curve, Point, PointBatch, Subgroup, batch_points,
                    embed_curve, embed_point, point_add, point_batch,
                    subgroup_from_x_coordinates)
from .errors import (CurveChainMismatch, CurveMismatch, DegreeTooLarge,
                     IsodualError, KernelNotRational, UnsupportedBaseField)
from .polyrat import (Poly, RatFunc, embed_ratfunc, roots_bruteforce,
                      squarefree_part)

FROBENIUS_CAP = 10 ** 6  # p^n beyond this is not a desk-scale map


class IsogenyMap:
    """(x, y) -> (r(x), y*s(x)) with explicit domain/codomain and degree."""

    __slots__ = ("domain", "codomain", "r", "s", "degree")

    def __init__(self, domain: Curve, codomain: Curve, r: RatFunc, s: RatFunc,
                 degree: int, check: bool = True):
        if domain.ctx != codomain.ctx:
            raise CurveMismatch("domain and codomain over different contexts")
        if r.ctx != domain.ctx or s.ctx != domain.ctx:
            raise CurveMismatch("coordinate maps over the wrong context")
        if degree != max(r.num.degree, r.den.degree):
            raise IsodualError(
                f"degree {degree} != max(deg num, deg den) = "
                f"{max(r.num.degree, r.den.degree)}")
        if degree == 0:
            raise IsodualError("a constant map is not an isogeny")
        if r.num.degree <= r.den.degree:
            # r(x) stays finite as x -> infinity, so O does not map to O:
            # a translation (composed with an isogeny), not a homomorphism
            raise IsodualError("deg num r <= deg den r: the map does not "
                               "send O to O")
        if check and not self._compatible(domain, codomain, r, s):
            raise IsodualError("coordinate maps do not satisfy the curve equation")
        self.domain = domain
        self.codomain = codomain
        self.r = r
        self.s = s
        self.degree = degree

    @staticmethod
    def _compatible(domain, codomain, r, s) -> bool:
        # cross-multiplied form of f * s^2 == r^3 + a'*r + b'
        f = domain.f_poly()
        rn, rd, sn, sd = r.num, r.den, s.num, s.den
        lhs = f * sn * sn * (rd ** 3)
        rhs = (rn ** 3 + (rn * rd * rd).scale(codomain.a.raw)
               + (rd ** 3).scale(codomain.b.raw)) * (sd * sd)
        return lhs == rhs

    def kernel_polynomial(self) -> Poly:
        """Monic radical of den(r): one linear factor per +-pair of kernel points."""
        if self.r.den.degree == 0:
            return Poly.one(self.domain.ctx)
        return squarefree_part(self.r.den)

    def is_separable(self) -> bool:
        return not self.r.derivative_num().is_zero()

    def __eq__(self, other):
        return (isinstance(other, IsogenyMap) and self.domain == other.domain
                and self.codomain == other.codomain and self.r == other.r
                and self.s == other.s and self.degree == other.degree)

    def __hash__(self):
        return hash((self.domain, self.codomain, self.r, self.s, self.degree))

    def __repr__(self):
        return (f"IsogenyMap(deg {self.degree}: {self.domain!r} -> "
                f"{self.codomain!r})")


class Isomorphism:
    """The scaling (x, y) -> (u^2 x, u^3 y); the only isomorphisms between
    short-Weierstrass models in characteristic != 2, 3 with our conventions."""

    __slots__ = ("u", "domain", "codomain")

    def __init__(self, domain: Curve, u: ff.FieldElement):
        u = domain.ctx.element(u)
        if u.is_zero():
            raise IsodualError("isomorphism scaling must be nonzero")
        self.u = u
        self.domain = domain
        self.codomain = Curve(domain.ctx, u ** 4 * domain.a, u ** 6 * domain.b)

    def as_isogeny(self) -> IsogenyMap:
        ctx = self.domain.ctx
        r = RatFunc.of(Poly(ctx, (ctx.zero_raw, (self.u ** 2).raw)))
        s = RatFunc.constant(ctx, (self.u ** 3).raw)
        return IsogenyMap(self.domain, self.codomain, r, s, 1)

    def inverse(self) -> "Isomorphism":
        return Isomorphism(self.codomain, self.u.inverse())

    def apply(self, P: Point) -> Point:
        if P.curve != self.domain:
            raise CurveMismatch("point not on the isomorphism domain")
        if P.is_infinity:
            return self.codomain.infinity()
        return Point(self.codomain, self.u ** 2 * P.x, self.u ** 3 * P.y)

    def __repr__(self):
        return f"Isomorphism(u={self.u})"


def identity_isogeny(E: Curve) -> IsogenyMap:
    ctx = E.ctx
    return IsogenyMap(E, E, RatFunc.x(ctx),
                      RatFunc.constant(ctx, ctx.one_raw), 1)


# ---------------------------------------------------------------------------
# pointwise Velu (the oracle)


def _common_view(G: Subgroup, P: Point) -> tuple[Point, list[Point]]:
    """Embed P and the subgroup points onto one curve."""
    amb = G.ambient_curve
    if P.curve == amb:
        return P, list(G.points)
    pk, gk = P.curve.ctx.k, amb.ctx.k
    if pk % gk == 0 and embed_curve(amb, P.curve.ctx) == P.curve:
        return P, [embed_point(Q, P.curve) for Q in G.points]
    if gk % pk == 0 and embed_curve(P.curve, amb.ctx) == amb:
        return embed_point(P, amb), list(G.points)
    raise CurveMismatch("point and subgroup do not share a curve")


def velu_pointwise(E: Curve, G: Subgroup, P: Point) -> Point:
    """Coordinate-sum evaluation of the isogeny with kernel G at P.

    Kernel points map to O; any other P maps to
    (x_P + sum(x_{P+Q} - x_Q), y_P + sum(y_{P+Q} - y_Q)) over Q in G - {O},
    the sums taken in the field.  The image lands on the curve with
    coefficients (a - 5v, b - 7w) given by the classical kernel sums.
    """
    if G.curve != E:
        raise CurveMismatch("subgroup does not belong to the given curve")
    P, kernel_pts = _common_view(G, P)
    image_curve = _image_curve_from_points(kernel_pts)
    if P in set(kernel_pts):
        return image_curve.infinity()
    if P.is_infinity:
        return image_curve.infinity()
    ctx = P.curve.ctx
    sx = P.x.raw
    sy = P.y.raw
    for Q in kernel_pts:
        if Q.is_infinity:
            continue
        R = point_add(P, Q)
        sx = ctx.radd(sx, ctx.rsub(R.x.raw, Q.x.raw))
        sy = ctx.radd(sy, ctx.rsub(R.y.raw, Q.y.raw))
    return Point(image_curve, ctx.wrap(sx), ctx.wrap(sy))


def _image_curve_from_points(kernel_pts: list[Point]) -> Curve:
    """Image-curve coefficients (a - 5v, b - 7w) from explicit kernel points."""
    amb = kernel_pts[0].curve  # the list always contains O
    a = amb.a
    v = amb.ctx.zero
    w = amb.ctx.zero
    seen = set()
    for Q in kernel_pts:
        if Q.is_infinity or Q.x.raw in seen:
            continue
        seen.add(Q.x.raw)
        gx = 3 * Q.x * Q.x + a
        if Q.y.is_zero():
            vq, uq = gx, amb.ctx.zero
        else:
            vq, uq = 2 * gx, 4 * Q.y * Q.y
        v = v + vq
        w = w + uq + Q.x * vq
    return Curve(amb.ctx, amb.a - 5 * v, amb.b - 7 * w)


# ---------------------------------------------------------------------------
# rational-map Velu from the kernel polynomial


def _power_sums(K: Poly, upto: int) -> list:
    """Power sums of the roots of monic K, from its coefficients (Newton)."""
    ctx = K.ctx
    d = K.degree
    e = [ctx.zero_raw] * (d + 1)  # elementary symmetric functions
    e[0] = ctx.one_raw
    for i in range(1, d + 1):
        c = K.coeff(d - i)
        e[i] = c if i % 2 == 0 else ctx.rneg(c)
    ps = [ctx.raw_from_int(d)]
    for j in range(1, upto + 1):
        acc = ctx.zero_raw
        for i in range(1, min(j - 1, d) + 1):
            term = ctx.rmul(e[i], ps[j - i])
            acc = ctx.radd(acc, term) if i % 2 else ctx.rsub(acc, term)
        if j <= d:
            term = ctx.rmul(ctx.raw_from_int(j), e[j])
            acc = ctx.radd(acc, term) if j % 2 else ctx.rsub(acc, term)
        ps.append(acc)
    return ps


def _root_sum(h: Poly, K: Poly, ps: list):
    """sum of h(alpha) over the roots of K, via precomputed power sums."""
    ctx = h.ctx
    acc = ctx.zero_raw
    for i, c in enumerate(h.coeffs):
        acc = ctx.radd(acc, ctx.rmul(c, ps[i]))
    return acc


def velu_from_kernel_polys(E: Curve, two_torsion: Poly, pairs: Poly) -> IsogenyMap:
    """Normalized isogeny with the prescribed kernel, given as polynomials.

    two_torsion holds the x-coordinates of kernel points of order 2, pairs
    one x-coordinate per +-pair of the remaining affine kernel points; both
    monic over E's context with simple roots and no common factor.
    """
    ctx = E.ctx
    if two_torsion.ctx != ctx or pairs.ctx != ctx:
        raise CurveMismatch("kernel polynomials over the wrong context")
    k2, k1 = two_torsion.monic(), pairs.monic()
    degree = 1 + k2.degree + 2 * k1.degree
    if degree == 1:
        return identity_isogeny(E)
    f = E.f_poly()
    v = Poly(ctx, (E.a.raw, ctx.zero_raw, ctx.raw_from_int(3)))  # 3x^2 + a

    num = Poly.x(ctx) * k2 * k1 * k1
    den = k2 * k1 * k1
    if k2.degree > 0:
        v2 = (v * k2.derivative()) % k2
        num = num + v2 * k1 * k1
    if k1.degree > 0:
        d1 = k1.derivative()
        a1 = (v.scale(ctx.raw_from_int(2)) * d1) % k1
        b1 = (f.scale(ctx.raw_from_int(4)) * d1) % k1
        num = num + a1 * k2 * k1 + (b1 * d1 - b1.derivative() * k1) * k2
    r = RatFunc(num, den)
    s = r.derivative()

    # image-curve coefficients from symmetric sums over the kernel roots
    v_sum = ctx.zero_raw
    w_sum = ctx.zero_raw
    xv = Poly.x(ctx) * v
    if k2.degree > 0:
        ps = _power_sums(k2, 3)
        v_sum = ctx.radd(v_sum, _root_sum(v, k2, ps))
        w_sum = ctx.radd(w_sum, _root_sum(xv, k2, ps))
    if k1.degree > 0:
        ps = _power_sums(k1, 3)
        v_sum = ctx.radd(v_sum, ctx.rmul(ctx.raw_from_int(2), _root_sum(v, k1, ps)))
        w_sum = ctx.radd(w_sum, _root_sum(
            f.scale(ctx.raw_from_int(4)) + xv.scale(ctx.raw_from_int(2)), k1, ps))
    a_new = E.a - 5 * ctx.wrap(v_sum)
    b_new = E.b - 7 * ctx.wrap(w_sum)
    image = Curve(ctx, a_new, b_new)
    return IsogenyMap(E, image, r, s, degree)


def velu_isogeny(E: Curve, G: Subgroup) -> IsogenyMap:
    """Normalized isogeny with kernel exactly G, over G's base field."""
    if G.curve != E:
        raise CurveMismatch("subgroup does not belong to the given curve")
    phi = velu_from_kernel_polys(E, G.two_torsion_poly, G.pair_poly)
    if phi.degree != G.order:
        raise IsodualError("constructed degree does not match the kernel order")
    if phi.degree > 1 and phi.kernel_polynomial() != G.kernel_poly:
        raise IsodualError("constructed kernel polynomial mismatch")
    return phi


# ---------------------------------------------------------------------------
# evaluation / composition / kernel recovery


def _maps_over(phi: IsogenyMap, target: Curve) -> tuple[RatFunc, RatFunc, Curve]:
    """phi's coordinate maps and codomain, viewed over target's context;
    target must be the domain or its embedding."""
    if target == phi.domain:
        return phi.r, phi.s, phi.codomain
    if target.ctx.k % phi.domain.ctx.k or \
            embed_curve(phi.domain, target.ctx) != target:
        raise CurveMismatch("points do not lie on an embedding of the domain")
    emb = ff.embed(phi.domain.ctx, target.ctx)
    return (embed_ratfunc(phi.r, emb), embed_ratfunc(phi.s, emb),
            embed_curve(phi.codomain, target.ctx))


def _eval_maps(r: RatFunc, s: RatFunc, F, B: PointBatch) -> PointBatch:
    """(r(x), y*s(x)) at a batch of points; O and the poles of r map to O."""
    rn, rd, sn, sd = (F.horner(f.digit_matrix(), B.x)
                      for f in (r.num, r.den, s.num, s.den))
    inf = B.inf | ~rd.any(axis=0)
    if (~inf & ~sd.any(axis=0)).any():
        raise IsodualError("y-map pole outside the kernel (corrupt map)")
    x = F.mul(rn, F.inv(rd))  # rows with rd = 0 are masked below
    y = F.mul(B.y, F.mul(sn, F.inv(sd)))
    x[:, inf] = 0
    y[:, inf] = 0
    return PointBatch(x, y, inf)


def iso_eval_point_batch(phi: IsogenyMap, target: Curve,
                         B: PointBatch) -> PointBatch:
    """phi at a batch of points of target, the domain or its embedding;
    the kernel maps to O."""
    r, s, _ = _maps_over(phi, target)
    return _eval_maps(r, s, target.ctx.batch, B)


def iso_eval_batch(phi: IsogenyMap, points: list[Point]) -> list[Point]:
    """Evaluate phi at many points of one curve (embeds the map once)."""
    if not points:
        return []
    target = points[0].curve
    for P in points:
        if P.curve != target:
            raise CurveMismatch("batch points on different curves")
    r, s, codomain = _maps_over(phi, target)
    images = _eval_maps(r, s, target.ctx.batch, point_batch(target, points))
    return batch_points(codomain, images)


def iso_eval(phi: IsogenyMap, P: Point) -> Point:
    """Evaluate phi at P, which may live over an extension of phi's field.

    Scalar field arithmetic, with the conventions of _eval_maps: O and the
    poles of r map to O, and a pole of s elsewhere is a corrupt map."""
    r, s, codomain = _maps_over(phi, P.curve)
    if P.is_infinity:
        return codomain.infinity()
    x = r.eval_raw(P.x.raw)
    if x is None:
        return codomain.infinity()
    sx = s.eval_raw(P.x.raw)
    if sx is None:
        raise IsodualError("y-map pole outside the kernel (corrupt map)")
    ctx = codomain.ctx
    return Point(codomain, ctx.wrap(x), ctx.wrap(ctx.rmul(P.y.raw, sx)),
                 _checked=True)


def iso_compose(outer: IsogenyMap, inner: IsogenyMap) -> IsogenyMap:
    """outer after inner; requires exact codomain/domain equality."""
    if inner.codomain != outer.domain:
        raise CurveChainMismatch(
            "inner codomain does not equal outer domain (normalize explicitly)")
    r = outer.r.compose(inner.r)
    s = inner.s * outer.s.compose(inner.r)
    return IsogenyMap(inner.domain, outer.codomain, r, s,
                      outer.degree * inner.degree, check=False)


def iso_equal(f: IsogenyMap, g: IsogenyMap) -> bool:
    return f == g


def kernel_of(phi: IsogenyMap, ctx: ff.FieldContext) -> Subgroup:
    """The kernel as a subgroup with points over ctx.

    ctx must be an extension of the map's base field large enough to contain
    every kernel point; otherwise KernelNotRational is raised.
    """
    dom = phi.domain
    if ctx.p != dom.ctx.p or ctx.k % dom.ctx.k:
        raise CurveMismatch("ctx is not an extension of the map's base field")
    radical = phi.kernel_polynomial()
    xs = roots_bruteforce(radical, ctx)
    if len(xs) < radical.degree:
        raise KernelNotRational(
            "kernel x-coordinates do not all split over the given context")
    return subgroup_from_x_coordinates(dom, xs, ctx)


def frobenius_isogeny(E: Curve, n: int) -> IsogenyMap:
    """The p^n-power Frobenius endomorphism (x, y) -> (x^(p^n), y^(p^n)).

    Requires a prime-field curve so that Frobenius is an endomorphism rather
    than a map to the conjugate curve.
    """
    if E.ctx.k != 1:
        raise UnsupportedBaseField(
            "Frobenius endomorphism requires a curve over F_p")
    if n < 1:
        raise IsodualError("Frobenius power must be >= 1")
    q = E.ctx.p ** n
    if q > FROBENIUS_CAP:
        raise DegreeTooLarge(f"p^n = {q} exceeds the desk-scale cap")
    ctx = E.ctx
    xq = Poly(ctx, (ctx.zero_raw,) * q + (ctx.one_raw,))
    r = RatFunc.of(xq)
    s = RatFunc.of(E.f_poly() ** ((q - 1) // 2))
    return IsogenyMap(E, E, r, s, q)

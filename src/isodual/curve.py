"""Short-Weierstrass curves y^2 = x^3 + ax + b, chord-tangent arithmetic,
exhaustive point enumeration (the desk-scale oracle), subgroup machinery,
and the multiplication-by-m endomorphism as explicit rational maps.

Points carry their curve and cross-curve arithmetic fails loudly.  Torsion
living in an extension is handled by explicitly embedding the curve into
the larger context; a Subgroup remembers both the base curve (over which
its kernel polynomial must be rational) and the ambient curve its points
live on.
"""

from __future__ import annotations

import numpy as np

from . import accel, ff
from .errors import (CurveMismatch, DegreeTooLarge, IsodualError,
                     KernelNotRational, NotClosed, NotGaloisStable, NotOnCurve,
                     SingularCurve, ZeroMultiplier)
from .polyrat import Poly, RatFunc, roots_bruteforce

MUL_MAP_CAP = 50  # desk-scale cap on |m| and on kernel orders: dual builds [n]


class Curve:
    """y^2 = x^3 + ax + b over a field context, nonsingular."""

    __slots__ = ("ctx", "a", "b", "_hash")

    def __init__(self, ctx: ff.FieldContext, a, b):
        self.ctx = ctx
        self.a = ctx.element(a)
        self.b = ctx.element(b)
        disc = 4 * self.a ** 3 + 27 * self.b ** 2
        if disc.is_zero():
            raise SingularCurve(f"discriminant -16(4a^3+27b^2) vanishes (a={self.a}, b={self.b})")
        self._hash = hash((self.ctx, self.a.raw, self.b.raw))

    def f_poly(self) -> Poly:
        """The cubic x^3 + ax + b."""
        ctx = self.ctx
        return Poly(ctx, (self.b.raw, self.a.raw, ctx.zero_raw, ctx.one_raw))

    def contains(self, x: ff.FieldElement, y: ff.FieldElement) -> bool:
        return y * y == x * x * x + self.a * x + self.b

    def infinity(self) -> "Point":
        return Point(self, None, None)

    def point(self, x, y) -> "Point":
        return Point(self, self.ctx.element(x), self.ctx.element(y))

    def __eq__(self, other):
        return (isinstance(other, Curve) and self.ctx == other.ctx
                and self.a == other.a and self.b == other.b)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"E[y^2=x^3+{self.a}x+{self.b} / {self.ctx!r}]"


class Point:
    """Affine point or the identity O; immutable."""

    __slots__ = ("curve", "x", "y")

    def __init__(self, curve: Curve, x, y, _checked: bool = False):
        self.curve = curve
        if x is None:
            self.x = self.y = None
            return
        self.x = curve.ctx.element(x)
        self.y = curve.ctx.element(y)
        if not _checked and not curve.contains(self.x, self.y):
            raise NotOnCurve(f"({self.x}, {self.y}) not on {curve!r}")

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __neg__(self) -> "Point":
        if self.is_infinity:
            return self
        return Point(self.curve, self.x, -self.y, _checked=True)

    def __add__(self, other: "Point") -> "Point":
        return point_add(self, other)

    def __sub__(self, other: "Point") -> "Point":
        return point_add(self, -other)

    def __rmul__(self, n: int) -> "Point":
        return scalar_mul(n, self)

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        if self.curve != other.curve:
            return False
        if self.is_infinity or other.is_infinity:
            return self.is_infinity and other.is_infinity
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        if self.is_infinity:
            return hash((self.curve,))  # not hash(None): see FieldContext
        return hash((self.curve, self.x.raw, self.y.raw))

    def sort_key(self) -> tuple[int, int, int]:
        if self.is_infinity:
            return (0, 0, 0)
        return (1, self.x.code, self.y.code)

    def __repr__(self):
        if self.is_infinity:
            return "O"
        return f"({self.x}, {self.y})"


def point_add(P: Point, Q: Point) -> Point:
    if P.curve != Q.curve:
        raise CurveMismatch("points on different curves")
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    ctx = P.curve.ctx
    x1, y1, x2, y2 = P.x.raw, P.y.raw, Q.x.raw, Q.y.raw
    if x1 == x2:
        if ctx.radd(y1, y2) == 0:
            return P.curve.infinity()
        # tangent: (3x^2 + a) / 2y
        num = ctx.radd(ctx.rmul(ctx.raw_from_int(3), ctx.rmul(x1, x1)),
                       P.curve.a.raw)
        den = ctx.rmul(ctx.raw_from_int(2), y1)
    else:
        num = ctx.rsub(y2, y1)
        den = ctx.rsub(x2, x1)
    lam = ctx.rmul(num, ctx.rinv(den))
    x3 = ctx.rsub(ctx.rsub(ctx.rmul(lam, lam), x1), x2)
    y3 = ctx.rsub(ctx.rmul(lam, ctx.rsub(x1, x3)), y1)
    return Point(P.curve, ctx.wrap(x3), ctx.wrap(y3), _checked=True)


def point_neg(P: Point) -> Point:
    return -P


def scalar_mul(n: int, P: Point) -> Point:
    if n < 0:
        return scalar_mul(-n, -P)
    result = P.curve.infinity()
    addend = P
    while n:
        if n & 1:
            result = point_add(result, addend)
        addend = point_add(addend, addend)
        n >>= 1
    return result


def point_order(P: Point) -> int:
    n = 1
    R = P
    cap = P.curve.ctx.order + 2 * int(P.curve.ctx.order ** 0.5) + 2
    while not R.is_infinity:
        R = point_add(R, P)
        n += 1
        if n > cap:
            raise RuntimeError("point order exceeded the Hasse bound")
    return n


class PointBatch:
    """n points of one curve as arrays: x and y are digit planes (k, n)
    (see accel) and inf masks the identity O, whose coordinates are zero."""

    __slots__ = ("x", "y", "inf")

    def __init__(self, x: np.ndarray, y: np.ndarray, inf: np.ndarray):
        self.x = x
        self.y = y
        self.inf = inf

    def __eq__(self, other):
        return (isinstance(other, PointBatch)
                and np.array_equal(self.inf, other.inf)
                and np.array_equal(self.x, other.x)
                and np.array_equal(self.y, other.y))


def point_batch(E: Curve, points) -> PointBatch:
    """The batch of a list of points of E, in list order."""
    ctx = E.ctx
    xs = ctx.raws_to_planes([0 if P.is_infinity else P.x.raw for P in points])
    ys = ctx.raws_to_planes([0 if P.is_infinity else P.y.raw for P in points])
    inf = np.array([P.is_infinity for P in points], dtype=bool)
    return PointBatch(xs, ys, inf)


def batch_points(E: Curve, B: PointBatch) -> list[Point]:
    """The points of a batch on E, in batch order."""
    ctx = E.ctx
    xs = ctx.planes_to_raws(B.x)
    ys = ctx.planes_to_raws(B.y)
    O = E.infinity()
    return [O if o else Point(E, ctx.wrap(x), ctx.wrap(y), _checked=True)
            for x, y, o in zip(xs, ys, B.inf.tolist())]


def affine_points(E: Curve) -> PointBatch:
    """Every affine point of E over its context, sorted by (x, y) code."""
    ctx = E.ctx
    xs = accel.all_element_planes(ctx.p, ctx.k)
    F = ctx.batch
    f_codes = F.to_codes(F.horner(E.f_poly().digit_matrix(), xs))
    sq_codes = F.to_codes(F.mul(xs, xs))
    # stable: the y with one square stay in ascending code order
    order = np.argsort(sq_codes, kind="stable")
    sorted_sq = sq_codes[order]
    lo = np.searchsorted(sorted_sq, f_codes, side="left")
    counts = np.searchsorted(sorted_sq, f_codes, side="right") - lo
    n = int(counts.sum())
    x_codes = np.repeat(np.arange(ctx.order), counts)
    first = np.cumsum(counts) - counts  # batch index of each x's first point
    y_codes = order[np.repeat(lo - first, counts) + np.arange(n)]
    return PointBatch(xs[:, x_codes], xs[:, y_codes], np.zeros(n, dtype=bool))


def enumerate_points(E: Curve) -> list[Point]:
    """All points of E over its context, O first then sorted by (x, y) code."""
    return [E.infinity()] + batch_points(E, affine_points(E))


def batch_point_add(E: Curve, P: PointBatch, Q: PointBatch) -> PointBatch:
    """P + Q row by row: the affine chord-tangent law of point_add, with
    masks for O, for P + (-P) and for doubling a point with y = 0."""
    F = E.ctx.batch
    p = F.p
    a = E.ctx.raws_to_planes([E.a.raw])
    same_x = (P.x == Q.x).all(axis=0)
    opposite = same_x & ~((P.y + Q.y) % p).any(axis=0)
    tangent = same_x & ~opposite
    num = np.where(tangent, (3 * F.mul(P.x, P.x) + a) % p, (Q.y - P.y) % p)
    den = np.where(tangent, 2 * P.y % p, (Q.x - P.x) % p)
    lam = F.mul(num, F.inv(den))  # rows with den = 0 are masked below
    x = (F.mul(lam, lam) - P.x - Q.x) % p
    y = (F.mul(lam, P.x - x) - P.y) % p
    x = np.where(P.inf, Q.x, np.where(Q.inf, P.x, x))
    y = np.where(P.inf, Q.y, np.where(Q.inf, P.y, y))
    inf = np.where(P.inf, Q.inf, ~Q.inf & opposite)
    x[:, inf] = 0
    y[:, inf] = 0
    return PointBatch(x, y, inf)


def batch_scalar_mul(E: Curve, n: int, P: PointBatch) -> PointBatch:
    """[n]P row by row, by the double-and-add of scalar_mul."""
    if n < 0:
        P = PointBatch(P.x, -P.y % E.ctx.p, P.inf)
        n = -n
    k, size = P.x.shape
    zeros = np.zeros((k, size), dtype=np.int64)
    result = PointBatch(zeros, zeros, np.ones(size, dtype=bool))
    addend = P
    while n:
        if n & 1:
            result = batch_point_add(E, result, addend)
        n >>= 1
        if n:
            addend = batch_point_add(E, addend, addend)
    return result


def embed_curve(E: Curve, ctx: ff.FieldContext) -> Curve:
    """The same curve viewed over an extension context."""
    emb = ff.embed(E.ctx, ctx)
    return Curve(ctx, ctx.wrap(emb.apply_raw(E.a.raw)), ctx.wrap(emb.apply_raw(E.b.raw)))


def embed_point(P: Point, big: Curve) -> Point:
    emb = ff.embed(P.curve.ctx, big.ctx)
    if embed_curve(P.curve, big.ctx) != big:
        raise CurveMismatch("target curve is not an embedding of the point's curve")
    if P.is_infinity:
        return big.infinity()
    return Point(big, big.ctx.wrap(emb.apply_raw(P.x.raw)),
                 big.ctx.wrap(emb.apply_raw(P.y.raw)), _checked=True)


def _conjugate(P: Point, j: int) -> Point:
    """Coordinatewise q0-power Frobenius with q0 = p^j."""
    if P.is_infinity:
        return P
    return Point(P.curve, P.x.frobenius(j), P.y.frobenius(j), _checked=True)


class Subgroup:
    """A finite, Galois-stable subgroup with its kernel polynomial.

    points live on ambient_curve (the base curve embedded into an extension
    context); kernel_poly has coefficients over the base curve's context,
    one linear factor per +-pair of affine points.
    """

    __slots__ = ("curve", "ambient_curve", "points", "kernel_poly",
                 "two_torsion_poly", "pair_poly")

    def __init__(self, curve, ambient_curve, points, kernel_poly,
                 two_torsion_poly, pair_poly):
        self.curve = curve
        self.ambient_curve = ambient_curve
        self.points = points
        self.kernel_poly = kernel_poly
        self.two_torsion_poly = two_torsion_poly
        self.pair_poly = pair_poly

    @property
    def order(self) -> int:
        return len(self.points)

    def point_set(self) -> frozenset:
        return frozenset(self.points)

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and self.curve == other.curve
                and self.points == other.points)

    def __hash__(self):
        return hash((self.curve, self.points))

    def __repr__(self):
        return f"Subgroup(order={self.order}, kernel_poly={self.kernel_poly!r})"


def _finish_subgroup(base: Curve, ambient: Curve, pts: set) -> Subgroup:
    # Galois stability over the base field
    j = base.ctx.k
    if ambient.ctx.k != j:
        for P in pts:
            if _conjugate(P, j) not in pts:
                raise NotGaloisStable(
                    "subgroup is not stable under the base-field Frobenius")
    ordered = sorted(pts, key=Point.sort_key)
    actx = ambient.ctx
    two = Poly.one(actx)
    pair = Poly.one(actx)
    seen_x = set()
    for P in ordered:
        if P.is_infinity:
            continue
        if P.y.is_zero():
            two = two * Poly(actx, (actx.rneg(P.x.raw), actx.one_raw))
        elif P.x.raw not in seen_x:
            seen_x.add(P.x.raw)
            pair = pair * Poly(actx, (actx.rneg(P.x.raw), actx.one_raw))
    emb = ff.embed(base.ctx, actx)
    try:
        two_base = Poly(base.ctx, [emb.descend_raw(c) for c in two.coeffs])
        pair_base = Poly(base.ctx, [emb.descend_raw(c) for c in pair.coeffs])
    except ValueError as exc:  # pragma: no cover - stability implies descent
        raise NotGaloisStable(str(exc)) from exc
    return Subgroup(base, ambient, tuple(ordered), two_base * pair_base,
                    two_base, pair_base)


def _resolve_base(P_curve: Curve, base_curve: Curve | None) -> Curve:
    if base_curve is None:
        return P_curve
    if base_curve.ctx == P_curve.ctx:
        if base_curve != P_curve:
            raise CurveMismatch("base curve differs from the point's curve")
        return base_curve
    if embed_curve(base_curve, P_curve.ctx) != P_curve:
        raise CurveMismatch("points do not lie on an embedding of the base curve")
    return base_curve


def subgroup_from_generator(P: Point, base_curve: Curve | None = None) -> Subgroup:
    """Cyclic subgroup generated by P, with kernel data over base_curve
    (defaults to the point's own curve)."""
    base = _resolve_base(P.curve, base_curve)
    pts = {P.curve.infinity()}
    R = P
    while not R.is_infinity:
        pts.add(R)
        R = point_add(R, P)
    return _finish_subgroup(base, P.curve, pts)


def subgroup_from_points(points, base_curve: Curve | None = None) -> Subgroup:
    """Subgroup from an explicit point list; verifies closure."""
    points = list(points)
    if not points:
        raise NotClosed("empty point list")
    ambient = points[0].curve
    for P in points:
        if P.curve != ambient:
            raise CurveMismatch("points on different curves")
    pts = set(points)
    if ambient.infinity() not in pts:
        raise NotClosed("the identity O is missing")
    # in sort_key order, so a NotClosed message names the same pair
    # whatever the hashes of the points
    ordered = sorted(pts, key=Point.sort_key)
    for P in ordered:
        if -P not in pts:
            raise NotClosed(f"negation of {P!r} is missing")
    for P in ordered:
        for Q in ordered:
            if point_add(P, Q) not in pts:
                raise NotClosed(f"{P!r} + {Q!r} escapes the point list")
    base = _resolve_base(ambient, base_curve)
    return _finish_subgroup(base, ambient, pts)


def subgroup_from_x_coordinates(E: Curve, xs, ctx: ff.FieldContext) -> Subgroup:
    """The subgroup of E's points over ctx (E's field or an extension) whose
    x-coordinates are xs, elements of ctx: O and every y with
    y^2 = f(x), for each x; KernelNotRational when an x has none."""
    big = embed_curve(E, ctx) if ctx != E.ctx else E
    f = big.f_poly()
    points = [big.infinity()]
    for x0 in xs:
        c = f.eval_raw(x0.raw)
        ys = [ctx.zero] if c == 0 else roots_bruteforce(
            Poly(ctx, (ctx.rneg(c), ctx.zero_raw, ctx.one_raw)))
        if not ys:
            raise KernelNotRational(f"no point with x = {x0} over the given context")
        points.extend(Point(big, x0, y0, _checked=True) for y0 in ys)
    return subgroup_from_points(points, base_curve=E)


def trivial_subgroup(E: Curve) -> Subgroup:
    return subgroup_from_points([E.infinity()])


# ---------------------------------------------------------------------------
# multiplication-by-m as rational maps (division-polynomial recurrence)


def _division_polys(E: Curve, top: int) -> list[Poly]:
    """pi_n for n = 0..top, where psi_n = pi_n * y for even n and psi_n = pi_n
    for odd n (division polynomials with y^2 already replaced by the cubic)."""
    ctx = E.ctx
    a, b = E.a, E.b
    f = E.f_poly()
    inv2 = ctx.rinv(ctx.raw_from_int(2))
    pi: list[Poly] = [Poly.zero(ctx), Poly.one(ctx),
                      Poly.from_elements(ctx, [ctx.element(2)])]
    if top >= 3:
        pi.append(Poly.from_elements(
            ctx, [-(a * a), 12 * b, 6 * a, ctx.zero, ctx.element(3)]))
    if top >= 4:
        pi.append(Poly.from_elements(
            ctx, [-(8 * b * b) - a ** 3, -4 * a * b, -5 * a * a, 20 * b,
                  5 * a, ctx.zero, ctx.one]).scale(ctx.raw_from_int(4)))
    f2 = f * f
    for m in range(5, top + 1):
        if m % 2:
            n = (m - 1) // 2
            t1 = pi[n + 2] * pi[n] ** 3
            t2 = pi[n - 1] * pi[n + 1] ** 3
            pi.append(t1 * f2 - t2 if n % 2 == 0 else t1 - t2 * f2)
        else:
            n = m // 2
            inner = pi[n + 2] * pi[n - 1] ** 2 - pi[n - 2] * pi[n + 1] ** 2
            pi.append((pi[n] * inner).scale(inv2))
    return pi[: top + 1]


def mul_by_m_map(E: Curve, m: int):
    """The endomorphism [m] as an IsogenyMap of degree m^2.

    With n = |m|, [n](x, y) = (phi_n / psi_n^2, psi_2n / (2 psi_n^4)) from
    the division-polynomial recurrence, and both maps come out reduced
    without a gcd:

    * phi_n and psi_n^2 have no common root on a nonsingular curve
      (Washington, *Elliptic Curves*, sec. 3.2), so r only needs a monic
      denominator.
    * psi_n divides psi_2n: the quotient vanishes on E[2n] - E[n] and psi_n
      on E[n] - O, so s = (psi_2n / psi_n) / (2 psi_n^3) is reduced.  A
      nonzero remainder of that division raises.

    Correctness is anchored by the pointwise oracle (equality with
    scalar_mul everywhere), not by trusting the closed forms.
    """
    from .isogeny import IsogenyMap  # deferred: isogeny imports this module

    if m == 0:
        raise ZeroMultiplier("[0] is not an isogeny")
    if abs(m) > MUL_MAP_CAP:
        raise DegreeTooLarge(f"|m| = {abs(m)} exceeds the cap {MUL_MAP_CAP}")
    n = abs(m)
    ctx = E.ctx
    x = Poly.x(ctx)
    f = E.f_poly()
    if n == 1:
        r = RatFunc.x(ctx)
        s = RatFunc.constant(ctx, ctx.one_raw)
    else:
        # psi_n = pi_n for odd n and pi_n * y for even n, with y^2 = f
        pi = _division_polys(E, 2 * n)
        pim = pi[n]
        if n % 2:
            num = x * pim * pim - pi[n + 1] * pi[n - 1] * f
            den = pim * pim
            s_den = (den * pim).scale(ctx.raw_from_int(2))
        else:
            num = x * pim * pim * f - pi[n + 1] * pi[n - 1]
            den = pim * pim * f
            s_den = (den * pim * f).scale(ctx.raw_from_int(2))
        s_num, rem = divmod(pi[2 * n], pim)
        if not rem.is_zero():
            raise IsodualError("psi_n does not divide psi_2n")
        r = RatFunc.coprime(num, den)
        s = RatFunc.coprime(s_num, s_den)
    if m < 0:
        s = -s
    return IsogenyMap(E, E, r, s, m * m)

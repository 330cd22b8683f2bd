"""Univariate polynomials and reduced rational functions over a field
context: the coordinate language for isogeny maps.

Polynomials are dense little-endian coefficient tuples of context raws
(element codes, see ``ff``) with no trailing zeros (the zero polynomial is
the empty tuple).  Rational functions are always stored reduced with a
monic denominator, so equality of coordinate maps is plain
representational equality.  Root-finding is an exhaustive guarded scan,
deliberately: test fields are tiny, and the scan doubles as an independent
oracle against algebraic shortcuts.

Over a prime field (k = 1) raws are residues mod p, and products and
division run as integer array code (von zur Gathen and Gerhard, *Modern
Computer Algebra*, ch. 8 and 11): a product is one ``np.convolve`` on
int64, and division takes one vectorised row step per quotient
coefficient.  Below a measured size crossover (``MUL_ARRAY_TERMS``,
``DIVMOD_ARRAY_LEN``) numpy's per-call cost outweighs the work, and the
same steps run as an inline loop on Python ints.  int64 is exact while
min(len) * (p-1)^2 stays below ``accel.PRODUCT_GUARD`` (2^62): each sum
adds at most min(len) products of residues.  Beyond that bound, which only
primes near 2^31 reach, the Python-int loop runs at every size, so the
library still accepts p up to 2^31 - 1.  Extension fields keep the
scalar ``ff`` arithmetic.
"""

from __future__ import annotations

import numpy as np

from . import ff
from .accel import PRODUCT_GUARD
from .errors import BothZero, ContextMismatch, DivisionByZero

MUL_ARRAY_TERMS = 48
"""Fewest products len(a) * len(b) at which an F_p product is np.convolve."""

DIVMOD_ARRAY_LEN = 40
"""Shortest divisor length from which F_p division steps on int64 arrays."""


def _int64_exact(a, b, p: int) -> bool:
    """Whether sums of min(len) products of residues mod p, plus one more
    residue, stay below PRODUCT_GUARD, and so exact in int64."""
    return min(len(a), len(b)) * (p - 1) ** 2 < PRODUCT_GUARD


def _mul_mod_p(a, b, p: int) -> list:
    """Coefficients of a * b over F_p (residue lists, both nonempty)."""
    if len(a) * len(b) >= MUL_ARRAY_TERMS and _int64_exact(a, b, p):
        return (np.convolve(np.array(a, dtype=np.int64),
                            np.array(b, dtype=np.int64)) % p).tolist()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return [v % p for v in out]


def _divmod_mod_p(a, b, p: int) -> tuple[list, list]:
    """Quotient and remainder coefficients of a by b over F_p, for
    len(a) >= len(b) and b with a nonzero leading residue.

    One row step per quotient coefficient: the remainder is reduced mod p
    only where the next quotient coefficient is read and at the end, so an
    entry takes at most min(len) subtractions of a product below p^2."""
    d = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    quo = [0] * (len(a) - d)
    if len(b) >= DIVMOD_ARRAY_LEN and _int64_exact(a, b, p):
        rem = np.array(a, dtype=np.int64)
        low = np.array(b[:d], dtype=np.int64)
        for shift in range(len(quo) - 1, -1, -1):
            top = rem.item(shift + d) % p
            if top:
                quo[shift] = factor = top * inv_lead % p
                rem[shift:shift + d] -= factor * low
        return quo, (rem[:d] % p).tolist()
    rem = list(a)
    low = b[:d]
    for shift in range(len(quo) - 1, -1, -1):
        top = rem[shift + d] % p
        if top:
            quo[shift] = factor = top * inv_lead % p
            rem[shift:shift + d] = [r - factor * c
                                    for r, c in zip(rem[shift:shift + d], low)]
    return quo, [v % p for v in rem[:d]]


class Poly:
    __slots__ = ("ctx", "_c")

    def __init__(self, ctx: ff.FieldContext, raws=()):
        coeffs = list(raws)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.ctx = ctx
        self._c = tuple(coeffs)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_ints(cls, ctx, ints) -> "Poly":
        return cls(ctx, [ctx.raw_from_int(v) for v in ints])

    @classmethod
    def from_elements(cls, ctx, elts) -> "Poly":
        return cls(ctx, [ctx.element(e).raw for e in elts])

    @classmethod
    def zero(cls, ctx) -> "Poly":
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx) -> "Poly":
        return cls(ctx, (ctx.one_raw,))

    @classmethod
    def x(cls, ctx) -> "Poly":
        return cls(ctx, (ctx.zero_raw, ctx.one_raw))

    @classmethod
    def constant(cls, ctx, raw) -> "Poly":
        return cls(ctx, (raw,))

    # -- structure ------------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self._c) - 1

    def is_zero(self) -> bool:
        return not self._c

    @property
    def coeffs(self) -> tuple:
        return self._c

    def coeff(self, i):
        return self._c[i] if i < len(self._c) else self.ctx.zero_raw

    @property
    def leading(self):
        if not self._c:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._c[-1]

    def elements(self):
        return [self.ctx.wrap(c) for c in self._c]

    def _check(self, other: "Poly"):
        if self.ctx != other.ctx:
            raise ContextMismatch("polynomials over different contexts")

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        ctx = self.ctx
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, raw in enumerate(b):
            out[i] = ctx.radd(out[i], raw)
        return Poly(ctx, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        ctx = self.ctx
        out = [ctx.rneg(r) for r in other._c]
        out += [ctx.zero_raw] * max(0, len(self._c) - len(out))
        for i, raw in enumerate(self._c):
            out[i] = ctx.radd(out[i], raw)
        return Poly(ctx, out)

    def __neg__(self) -> "Poly":
        ctx = self.ctx
        return Poly(ctx, [ctx.rneg(r) for r in self._c])

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        ctx = self.ctx
        a, b = self._c, other._c
        if not a or not b:
            return Poly(ctx, ())
        if ctx.k == 1:
            return Poly(ctx, _mul_mod_p(a, b, ctx.p))
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = ctx.radd(out[i + j], ctx.rmul(ai, bj))
        return Poly(ctx, out)

    def scale(self, raw) -> "Poly":
        ctx = self.ctx
        if raw == 0:
            return Poly(ctx, ())
        return Poly(ctx, [ctx.rmul(c, raw) for c in self._c])

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one(self.ctx)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        ctx = self.ctx
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        if self.degree < other.degree:
            return Poly(ctx, ()), self
        if ctx.k == 1:
            quo, rem = _divmod_mod_p(self._c, other._c, ctx.p)
            return Poly(ctx, quo), Poly(ctx, rem)
        inv_lead = ctx.rinv(other.leading)
        rem = list(self._c)
        d = other.degree
        quo = [ctx.zero_raw] * (len(rem) - d)
        bc = other._c
        for shift in range(len(rem) - d - 1, -1, -1):
            top = rem[shift + d]
            if top == 0:
                continue
            factor = ctx.rmul(top, inv_lead)
            quo[shift] = factor
            for i in range(d + 1):
                rem[shift + i] = ctx.rsub(rem[shift + i], ctx.rmul(factor, bc[i]))
        return Poly(ctx, quo), Poly(ctx, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def divides(self, other: "Poly") -> bool:
        return (other % self).is_zero()

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.leading
        if lead == self.ctx.one_raw:
            return self
        return self.scale(self.ctx.rinv(lead))

    def derivative(self) -> "Poly":
        ctx = self.ctx
        out = []
        for i in range(1, len(self._c)):
            out.append(ctx.rmul(ctx.raw_from_int(i), self._c[i]))
        return Poly(ctx, out)

    def eval_raw(self, x):
        ctx = self.ctx
        acc = ctx.zero_raw
        for c in reversed(self._c):
            acc = ctx.radd(ctx.rmul(acc, x), c)
        return acc

    def __call__(self, x: ff.FieldElement) -> ff.FieldElement:
        x = self.ctx.element(x)
        return self.ctx.wrap(self.eval_raw(x.raw))

    # -- misc -------------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ctx == other.ctx
                and self._c == other._c)

    def __hash__(self):
        return hash((self.ctx, self._c))

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self._c):
            if c == 0:
                continue
            cs = repr(self.ctx.wrap(c))
            parts.append(cs if i == 0 else (f"{cs}*x^{i}" if i > 1 else f"{cs}*x"))
        return " + ".join(parts)

    def digit_matrix(self) -> np.ndarray:
        """(deg+1, k) int64 digit rows for the batch kernels."""
        return self.ctx.raws_to_planes(self._c).T


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm."""
    if f.ctx != g.ctx:
        raise ContextMismatch("polynomials over different contexts")
    if f.is_zero() and g.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    while not g.is_zero():
        f, g = g, f % g
    return f.monic()


def inverse_mod(f: Poly, m: Poly) -> Poly:
    """f^-1 modulo m, of degree below deg m, by the extended Euclidean
    algorithm (von zur Gathen and Gerhard, *Modern Computer Algebra*, ch. 3),
    carrying only f's cofactor; DivisionByZero when gcd(f, m) != 1."""
    ctx = m.ctx
    r0, r1 = m, f % m
    s0, s1 = Poly.zero(ctx), Poly.one(ctx)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1, s0, s1 = r1, r, s1, s0 - q * s1
    if r0.degree != 0:
        raise DivisionByZero("not invertible: gcd(f, m) != 1")
    return s0.scale(ctx.rinv(r0.leading))


def pth_power_root(f: Poly) -> Poly:
    """g with g^p = f, for f a polynomial in x^p (freshman's dream plus
    coefficient p-th roots, which exist because the field is perfect)."""
    ctx = f.ctx
    p = ctx.p
    out = []
    for i, c in enumerate(f.coeffs):
        if i % p == 0:
            out.append(ctx.rpth_root(c))
        elif c != 0:
            raise ValueError("not a polynomial in x^p")
    return Poly(ctx, out)


def squarefree_part(f: Poly) -> Poly:
    """Monic radical of f, correct in characteristic p: factors whose
    multiplicity is divisible by p hide from gcd(f, f') and are recovered
    through the p-th power part."""
    if f.is_zero():
        raise DivisionByZero("radical of the zero polynomial")
    f = f.monic()
    if f.degree <= 0:
        return Poly.one(f.ctx)
    d = f.derivative()
    if d.is_zero():
        return squarefree_part(pth_power_root(f))
    c = poly_gcd(f, d)
    w = f // c  # every factor with multiplicity not divisible by p, once
    while c.degree > 0:
        g = poly_gcd(c, w)
        if g.degree == 0:
            break
        c = c // g
    if c.degree == 0:
        return w
    # c is the p-th power of the p-divisible-multiplicity part
    return (w * squarefree_part(pth_power_root(c))).monic()


def embed_poly(f: Poly, emb: ff.Embedding) -> Poly:
    if f.ctx != emb.src:
        raise ContextMismatch("polynomial not over the embedding source")
    return Poly(emb.dst, [emb.apply_raw(c) for c in f._c])


def roots_bruteforce(f: Poly, ctx: ff.FieldContext | None = None) -> list[ff.FieldElement]:
    """All roots of f over ctx by exhaustive evaluation, in code order.

    ctx defaults to the coefficient context and may be any extension of it.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has every root")
    if ctx is not None and ctx != f.ctx:
        f = embed_poly(f, ff.embed(f.ctx, ctx))
    ctx = f.ctx
    if f.degree < 1:
        return []
    return [ctx.wrap(c) for c in ctx.root_codes(f.coeffs).tolist()]


def lagrange_interpolate(ctx: ff.FieldContext, xs: list, ys: list) -> Poly:
    """Unique polynomial of degree < len(xs) through the (raw, raw) pairs."""
    if len(xs) != len(ys) or not xs:
        raise ValueError("need matching nonempty sample lists")
    full = Poly.one(ctx)
    for x0 in xs:
        full = full * Poly(ctx, (ctx.rneg(x0), ctx.one_raw))
    dfull = full.derivative()
    result = Poly.zero(ctx)
    for x0, y0 in zip(xs, ys):
        if y0 == 0:
            continue
        basis = full // Poly(ctx, (ctx.rneg(x0), ctx.one_raw))
        weight = ctx.rmul(y0, ctx.rinv(dfull.eval_raw(x0)))
        result = result + basis.scale(weight)
    return result


def resultant(f: Poly, g: Poly):
    """Res(f, g) as a raw field value (Euclidean remainder sequence)."""
    if f.ctx != g.ctx:
        raise ContextMismatch("polynomials over different contexts")
    ctx = f.ctx
    if f.is_zero() or g.is_zero():
        return ctx.zero_raw
    res = ctx.one_raw
    while g.degree > 0:
        if f.degree < g.degree:
            if (f.degree * g.degree) % 2:
                res = ctx.rneg(res)
            f, g = g, f
            continue
        r = f % g
        if (f.degree * g.degree) % 2:
            res = ctx.rneg(res)
        dr = r.degree if not r.is_zero() else 0
        res = ctx.rmul(res, ctx.rpow(g.leading, f.degree - dr))
        if r.is_zero():
            return ctx.zero_raw if g.degree > 0 else res
        f, g = g, r
    # g is now a nonzero constant
    return ctx.rmul(res, ctx.rpow(g.coeff(0), f.degree))


class RatFunc:
    """Reduced rational function: coprime num/den with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly, _reduced: bool = False):
        if num.ctx != den.ctx:
            raise ContextMismatch("rational function over mixed contexts")
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if not _reduced:
            if num.is_zero():
                den = Poly.one(num.ctx)
            else:
                g = poly_gcd(num, den)
                if g.degree > 0:
                    num, den = num // g, den // g
                lead = den.leading
                if lead != den.ctx.one_raw:
                    inv = den.ctx.rinv(lead)
                    num, den = num.scale(inv), den.scale(inv)
        self.num = num
        self.den = den

    # -- constructors -----------------------------------------------------------

    @classmethod
    def of(cls, poly: Poly) -> "RatFunc":
        return cls(poly, Poly.one(poly.ctx), _reduced=True)

    @classmethod
    def x(cls, ctx) -> "RatFunc":
        return cls.of(Poly.x(ctx))

    @classmethod
    def constant(cls, ctx, raw) -> "RatFunc":
        return cls.of(Poly.constant(ctx, raw))

    @classmethod
    def coprime(cls, num: Poly, den: Poly) -> "RatFunc":
        """num / den for a pair known to be coprime: no gcd, only den's
        leading coefficient divided out."""
        inv = den.ctx.rinv(den.leading)
        return cls(num.scale(inv), den.scale(inv), _reduced=True)

    @property
    def ctx(self):
        return self.num.ctx

    def is_zero(self) -> bool:
        return self.num.is_zero()

    # -- field operations ---------------------------------------------------------

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den - other.num * self.den,
                       self.den * other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den, _reduced=True)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        """a/b * c/d cancelled across the factors: both pairs are coprime,
        so gcd(ac, bd) = gcd(a, d) gcd(c, b), and a constant factor costs
        one division, not a gcd of the two products."""
        if self.ctx != other.ctx:
            raise ContextMismatch("product over mixed contexts")
        a, b, c, d = self.num, self.den, other.num, other.den
        if a.is_zero() or c.is_zero():
            return RatFunc.of(Poly.zero(self.ctx))
        g1, g2 = poly_gcd(a, d), poly_gcd(c, b)
        if g1.degree > 0:
            a, d = a // g1, d // g1
        if g2.degree > 0:
            c, b = c // g2, b // g2
        # monic gcds leave the denominators monic
        return RatFunc(a * c, b * d, _reduced=True)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero():
            raise DivisionByZero("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __pow__(self, e: int) -> "RatFunc":
        if e < 0:
            return (RatFunc.of(Poly.one(self.ctx)) / self) ** (-e)
        # powers of a coprime pair are coprime, of a monic den monic
        return RatFunc(self.num ** e, self.den ** e, _reduced=True)

    def scale(self, raw) -> "RatFunc":
        if raw == 0:
            return RatFunc.of(Poly.zero(self.ctx))
        return RatFunc(self.num.scale(raw), self.den, _reduced=True)

    def derivative_num(self) -> Poly:
        """n'd - nd' for self = n/d: the derivative is this over d^2, and
        it is zero exactly when the derivative is."""
        n, d = self.num, self.den
        return n.derivative() * d - n * d.derivative()

    def derivative(self) -> "RatFunc":
        return RatFunc(self.derivative_num(), self.den * self.den)

    def compose(self, inner: "RatFunc") -> "RatFunc":
        """self(inner(x)), reduced without a gcd.

        With self = P/Q and inner = n/d, both coprime pairs, and top =
        max(deg P, deg Q), the result is A/B with A = sum_i p_i n^i d^(top-i)
        and B likewise from Q.  A and B are coprime: at a common root where
        d vanishes, n does not, and A, B reduce to p_top n^top, q_top n^top,
        not both zero; at any other common root, P and Q would share the
        root n/d.  So only B's leading coefficient is left to divide out.
        """
        if self.ctx != inner.ctx:
            raise ContextMismatch("composition over mixed contexts")
        n, d = inner.num, inner.den
        top = max(self.num.degree, self.den.degree)
        d_pows = [Poly.one(self.ctx)]
        for _ in range(top):
            d_pows.append(d_pows[-1] * d)

        def expand(poly: Poly) -> Poly:
            # sum_i c_i n^i d^(top - i), computed Horner-style in n
            acc = Poly.zero(self.ctx)
            for i in range(top, -1, -1):
                acc = acc * n
                c = poly.coeff(i)
                if c != 0:
                    acc = acc + d_pows[top - i].scale(c)
            return acc

        a, b = expand(self.num), expand(self.den)
        if a.is_zero() or b.is_zero():  # a constant inner value, or a pole
            return RatFunc(a, b)
        return RatFunc.coprime(a, b)

    def eval_raw(self, x):
        """Value at a raw point, or None at a pole."""
        dv = self.den.eval_raw(x)
        if dv == 0:
            return None
        return self.ctx.rmul(self.num.eval_raw(x), self.ctx.rinv(dv))

    def constant_value(self) -> ff.FieldElement | None:
        """The constant this function reduces to, or None if non-constant."""
        if self.den.degree == 0 and self.num.degree <= 0:
            if self.num.is_zero():
                return self.ctx.wrap(self.ctx.zero_raw)
            return self.ctx.wrap(self.num.coeff(0))
        return None

    def __eq__(self, other):
        return (isinstance(other, RatFunc) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den.degree == 0:
            return f"({self.num!r})"
        return f"({self.num!r}) / ({self.den!r})"


def embed_ratfunc(f: RatFunc, emb: ff.Embedding) -> RatFunc:
    return RatFunc(embed_poly(f.num, emb), embed_poly(f.den, emb), _reduced=True)

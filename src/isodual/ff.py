"""Exact arithmetic in F_p and F_{p^k} for small p, including Frobenius
and its inverse (p-th roots), which exist because finite fields are perfect.

Design notes:

* A context fixes (p, k) and, for k > 1, a deterministic irreducible
  modulus: the monic degree-k polynomial with the smallest little-endian
  base-p code whose irreducibility passes Rabin's test.  Same (p, k) always
  yields the same modulus, so fixtures and serialised data are stable.
* Every element is stored as its code, a plain int in [0, p^k): the
  little-endian base-p packing d_0 + d_1 p + ... + d_{k-1} p^(k-1) of its
  digits, d_i in [0, p) being its coordinate on t^i for t a root of the
  modulus.  So zero is 0, one is 1, an element of F_p keeps its code in
  every extension, and ``FieldElement.code`` is the raw itself.  The
  FieldElement class is a thin wrapper around that "raw"; hot loops
  elsewhere in the package work on raws through the context methods, and
  the batch kernels of ``accel`` on digit planes, which ``raws_to_planes``
  and ``planes_to_raws`` convert to and from.
* Polynomial arithmetic over F_p lives in ``polyrat`` alone; the modulus
  search borrows ``polyrat.Poly``, the extension inverse ``inverse_mod``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import accel
from .errors import CharTooSmall, ContextMismatch, DivisionByZero, NotPrime


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Monic irreducible of degree k over F_p with the smallest base-p code,
    scanning the constant term upward.

    Rabin's test: a monic f of degree k is irreducible exactly when f
    divides x^(p^k) - x and is coprime to x^(p^(k/q)) - x for every prime q
    dividing k.
    """
    from .polyrat import Poly, poly_gcd  # deferred: polyrat imports this module

    base = make_field(p)
    x = Poly.x(base)

    def frobenius_minus_x(f: Poly, j: int) -> Poly:
        # x^(p^j) - x modulo f, by square-and-multiply
        result, power, e = Poly.one(base), x, p ** j
        while e:
            if e & 1:
                result = result * power % f
            power = power * power % f
            e >>= 1
        return result - x

    primes = [q for q in range(2, k + 1) if k % q == 0 and is_prime(q)]
    for code in range(p ** k):
        f = Poly(base, [code // p ** i % p for i in range(k)] + [1])
        if frobenius_minus_x(f, k).is_zero() and all(
                poly_gcd(f, frobenius_minus_x(f, k // q)).degree == 0
                for q in primes):
            return f.coeffs
    raise RuntimeError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------


class FieldContext:
    """The field F_{p^k}; immutable, deterministic, safe to share."""

    __slots__ = ("p", "k", "modulus", "_red", "_hash", "_batch")

    zero_raw = 0
    one_raw = 1

    def __init__(self, p: int, k: int = 1):
        if p in (2, 3):
            raise CharTooSmall(f"characteristic {p} is unsupported")
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.k = k
        if k == 1:
            self.modulus = None
            self._red = ()
        else:
            self.modulus = _smallest_irreducible(p, k)
            # reductions of x^(k+j) modulo the modulus, j = 0..k-2
            red = []
            cur = [(-c) % p for c in self.modulus[:-1]]  # x^k
            red.append(tuple(cur))
            for _ in range(k - 2):
                cur = [0] + cur
                lead = cur.pop()
                if lead:
                    cur = [(c + lead * r) % p for c, r in zip(cur, red[0])]
                red.append(tuple(cur))
            self._red = tuple(red)
        # (p, k) fixes the modulus; hashing None would tie set order to an
        # address, which differs from one process to the next
        self._hash = hash((self.p, self.k))
        self._batch = None

    # value identity: two contexts for the same (p, k) are the same field
    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, FieldContext) and self.p == other.p
                and self.k == other.k and self.modulus == other.modulus)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.k == 1:
            return f"F_{self.p}"
        return f"F_{self.p}^{self.k}"

    @property
    def order(self) -> int:
        return self.p ** self.k

    # -- raw element layer: every raw is the element's code ------------------

    def raw_from_int(self, n: int) -> int:
        return n % self.p

    def raw_from_code(self, code: int) -> int:
        """The identity: a raw is its code."""
        return code

    def raw_from_digits(self, digits) -> int:
        """The code of the element with these base-p digits, each reduced
        mod p (missing high digits are zero)."""
        digits = list(digits)
        if len(digits) > self.k:
            raise ValueError(f"expected at most {self.k} digits")
        p = self.p
        code = 0
        for d in reversed(digits):
            code = code * p + int(d) % p
        return code

    def raw_digits(self, a: int) -> tuple[int, ...]:
        p = self.p
        digits = []
        for _ in range(self.k):
            a, d = divmod(a, p)
            digits.append(d)
        return tuple(digits)

    def raw_is_zero(self, a: int) -> bool:
        return a == 0

    def _digitwise(self, a, b, sign: int):
        """a + sign * b digit by digit, up to the last nonzero digit."""
        p = self.p
        code, scale = 0, 1
        while a or b:
            a, x = divmod(a, p)
            b, y = divmod(b, p)
            code += (x + sign * y) % p * scale
            scale *= p
        return code

    def radd(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        return self._digitwise(a, b, 1)

    def rsub(self, a, b):
        if self.k == 1:
            return (a - b) % self.p
        return self._digitwise(a, b, -1)

    def rneg(self, a):
        if self.k == 1:
            return -a % self.p
        return self._digitwise(0, a, -1)

    def rmul(self, a, b):
        p = self.p
        if self.k == 1:
            return a * b % p
        k = self.k
        a, b = self.raw_digits(a), self.raw_digits(b)
        conv = [0] * (2 * k - 1)
        for i in range(k):
            ai = a[i]
            if ai:
                for j in range(k):
                    conv[i + j] += ai * b[j]
        for j in range(k - 2, -1, -1):
            hi = conv[k + j]
            if hi:
                row = self._red[j]
                for i in range(k):
                    conv[i] += hi * row[i]
        code = 0
        for i in range(k - 1, -1, -1):
            code = code * p + conv[i] % p
        return code

    def rinv(self, a):
        p = self.p
        if a == 0:
            raise DivisionByZero("inverse of zero")
        if self.k == 1:
            return pow(a, p - 2, p)
        from .polyrat import Poly, inverse_mod  # deferred: polyrat imports ff

        base = make_field(p)
        return self.raw_from_digits(inverse_mod(
            Poly(base, self.raw_digits(a)), Poly(base, self.modulus)).coeffs)

    def rdiv(self, a, b):
        return self.rmul(a, self.rinv(b))

    def rpow(self, a, n: int):
        if n < 0:
            return self.rpow(self.rinv(a), -n)
        result = self.one_raw
        base = a
        while n:
            if n & 1:
                result = self.rmul(result, base)
            n >>= 1
            if n:
                base = self.rmul(base, base)
        return result

    def rfrobenius(self, a, j: int = 1):
        """a -> a^(p^j); the identity when k divides j."""
        e = pow(self.p, j % self.k, self.order - 1)
        return a if e == 1 else self.rpow(a, e)

    def rpth_root(self, a, j: int = 1):
        """The unique b with b^(p^j) = a (Frobenius is invertible)."""
        return self.rfrobenius(a, -j)

    # -- element layer --------------------------------------------------------

    def wrap(self, raw) -> "FieldElement":
        return FieldElement(self, raw)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def element(self, value) -> "FieldElement":
        """Build an element from an int or a digit sequence."""
        if isinstance(value, FieldElement):
            if value.ctx != self:
                raise ContextMismatch("element from a different context")
            return value
        if isinstance(value, int):
            return FieldElement(self, self.raw_from_int(value))
        return FieldElement(self, self.raw_from_digits(value))

    def elements(self):
        """All field elements in code order (guarded exhaustive scan)."""
        planes = accel.all_element_planes(self.p, self.k)
        return [self.wrap(raw) for raw in self.planes_to_raws(planes)]

    # numpy interop for the batch kernels
    @property
    def batch(self) -> accel.BatchField:
        """Batch arithmetic on digit planes of this field, built once."""
        if self._batch is None:
            self._batch = accel.BatchField(self.p, self.red_array())
        return self._batch

    def red_array(self) -> np.ndarray:
        return np.array(self._red, dtype=np.int64).reshape(-1, self.k)

    def root_codes(self, coeffs) -> np.ndarray:
        """Codes, ascending, of the elements where the polynomial with
        coefficient raws coeffs (by degree) vanishes (exhaustive guarded
        scan)."""
        xs = accel.all_element_digits(self.p, self.k)
        values = accel.poly_eval_batch(self.raws_to_planes(coeffs).T, xs,
                                       self.p, self.red_array())
        return np.flatnonzero(~values.any(axis=1))

    def raws_to_planes(self, raws) -> np.ndarray:
        """Digit planes (k, n) of a sequence of n raws."""
        return accel.code_planes(np.array(raws, dtype=np.int64), self.p, self.k)

    def planes_to_raws(self, planes: np.ndarray) -> list[int]:
        """The raws of digit planes (k, n), as a list."""
        return self.batch.to_codes(planes).tolist()


@lru_cache(maxsize=None)
def make_field(p: int, k: int = 1) -> FieldContext:
    """Deterministic field constructor; repeated calls share one context."""
    return FieldContext(p, k)


class FieldElement:
    """An element of a FieldContext; immutable value semantics."""

    __slots__ = ("ctx", "raw")

    def __init__(self, ctx: FieldContext, raw: int):
        self.ctx = ctx
        self.raw = raw

    @property
    def digits(self) -> tuple[int, ...]:
        return self.ctx.raw_digits(self.raw)

    @property
    def code(self) -> int:
        return self.raw

    def is_zero(self) -> bool:
        return self.raw == 0

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.ctx != self.ctx:
                raise ContextMismatch("elements from different contexts")
            return other
        if isinstance(other, int):
            return self.ctx.element(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.radd(self.raw, other.raw))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.rsub(self.raw, other.raw))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.rmul(self.raw, other.raw))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx.rdiv(self.raw, other.raw))

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __neg__(self):
        return FieldElement(self.ctx, self.ctx.rneg(self.raw))

    def __pow__(self, n: int):
        return FieldElement(self.ctx, self.ctx.rpow(self.raw, n))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx.rinv(self.raw))

    def frobenius(self, j: int = 1) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx.rfrobenius(self.raw, j))

    def pth_root(self, j: int = 1) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx.rpth_root(self.raw, j))

    def __eq__(self, other):
        return (isinstance(other, FieldElement) and self.ctx == other.ctx
                and self.raw == other.raw)

    def __hash__(self):
        return hash((self.ctx, self.raw))

    def __repr__(self):
        if self.ctx.k == 1:
            return f"{self.raw}"
        return f"{list(self.digits)}"


# ---------------------------------------------------------------------------
# subfield embeddings


class Embedding:
    """The canonical embedding F_{p^k0} -> F_{p^k} (k0 | k) sending the
    source generator to the root of the source modulus with the smallest
    code in the destination field.  From F_p, and onto the same field, it
    is the identity on raws."""

    __slots__ = ("src", "dst", "gen_image", "_basis")

    def __init__(self, src: FieldContext, dst: FieldContext, gen_image):
        self.src = src
        self.dst = dst
        self.gen_image = gen_image  # raw in dst (None when the identity)
        self._basis = None
        if gen_image is not None:
            powers = [dst.one_raw]
            for _ in range(src.k - 1):
                powers.append(dst.rmul(powers[-1], gen_image))
            # rows indexed by dst digit position, columns by src power
            self._basis = dst.raws_to_planes(powers)

    def apply_raw(self, raw):
        if self.gen_image is None:
            return raw
        acc = self.dst.zero_raw
        for digit in reversed(self.src.raw_digits(raw)):
            acc = self.dst.radd(self.dst.rmul(acc, self.gen_image), digit)
        return acc

    def apply(self, elt: FieldElement) -> FieldElement:
        if elt.ctx != self.src:
            raise ContextMismatch("element not in the embedding source")
        return self.dst.wrap(self.apply_raw(elt.raw))

    def descend_raw(self, raw):
        """Inverse image of a destination raw; raises ValueError if the
        value does not lie in the embedded subfield."""
        if self.gen_image is None:
            if raw >= self.src.order:
                raise ValueError("value not in the embedded subfield")
            return raw
        # the basis columns are independent, so the digits column is the
        # first dependent one exactly when the value lies in the subfield
        prime = make_field(self.dst.p)
        aug = np.column_stack([self._basis, self.dst.raw_digits(raw)])[None]
        try:
            _, sol = prime.batch.first_dependency(
                aug, lambda d: np.array([prime.rinv(int(d[0]))]))
        except ValueError:
            raise ValueError("value not in the embedded subfield") from None
        return self.src.raw_from_digits(sol[0].tolist())

    def descend(self, elt: FieldElement) -> FieldElement:
        if elt.ctx != self.dst:
            raise ContextMismatch("element not in the embedding destination")
        return self.src.wrap(self.descend_raw(elt.raw))


@lru_cache(maxsize=None)
def embed(src: FieldContext, dst: FieldContext) -> Embedding:
    """Canonical embedding between contexts of the same characteristic."""
    if src.p != dst.p:
        raise ContextMismatch("different characteristics")
    if dst.k % src.k:
        raise ContextMismatch(f"F_{src.p}^{src.k} does not embed in F_{dst.p}^{dst.k}")
    if src == dst or src.k == 1:
        return Embedding(src, dst, None)
    # root-scan the source modulus, whose F_p coefficients are dst raws too
    root_codes = dst.root_codes(src.modulus)
    if root_codes.size == 0:
        raise RuntimeError("modulus has no root in the destination field")
    return Embedding(src, dst, int(root_codes[0]))

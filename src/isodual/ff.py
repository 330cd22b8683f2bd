"""Exact arithmetic in F_p and F_{p^k} for small p, including Frobenius
and its inverse (p-th roots), which exist because finite fields are perfect.

Design notes:

* A context fixes (p, k) and, for k > 1, a deterministic irreducible
  modulus: the monic degree-k polynomial with the smallest little-endian
  base-p code whose irreducibility passes Rabin's test.  Same (p, k) always
  yields the same modulus, so fixtures and serialised data are stable.
* Elements are canonical digit vectors, fully reduced mod p.  Internally a
  "raw" element is a plain int when k == 1 and a k-tuple of ints otherwise;
  the FieldElement class is a thin wrapper.  Hot loops elsewhere in the
  package work on raws through the context methods.
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


# ---------------------------------------------------------------------------
# int-list polynomial helpers over F_p (little-endian), used for modulus
# search and for extension-element inversion.  Kept local to avoid a cycle
# with the polyrat module.

def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim([v % p for v in out])


def _divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    rem = [v % p for v in a]
    _trim(rem)
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    quo = [0] * max(len(rem) - db, 0)
    while len(rem) - 1 >= db and rem:
        shift = len(rem) - 1 - db
        factor = rem[-1] * inv_lead % p
        quo[shift] = factor
        for i, bi in enumerate(b):
            rem[shift + i] = (rem[shift + i] - factor * bi) % p
        _trim(rem)
    return quo, rem


def _gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [v * inv % p for v in a]
    return a


def _powmod_x(e: int, f: list[int], p: int) -> list[int]:
    """x^e modulo the monic polynomial f."""
    result = [1]
    base = _divmod([0, 1], f, p)[1]
    while e:
        if e & 1:
            result = _divmod(_mul(result, base, p), f, p)[1]
        base = _divmod(_mul(base, base, p), f, p)[1]
        e >>= 1
    return result


def _minus_x(g: list[int], p: int) -> list[int]:
    out = list(g)
    while len(out) < 2:
        out.append(0)
    out[1] = (out[1] - 1) % p
    return _trim(out)


def _is_irreducible(f: list[int], p: int) -> bool:
    """Rabin's irreducibility test for a monic polynomial over F_p."""
    k = len(f) - 1
    if k == 1:
        return True
    if _minus_x(_powmod_x(p ** k, f, p), p):
        return False
    for q in {d for d in range(2, k + 1) if k % d == 0 and is_prime(d)}:
        diff = _minus_x(_powmod_x(p ** (k // q), f, p), p)
        if _gcd(f, diff, p) != [1]:
            return False
    return True


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Monic irreducible of degree k with the smallest base-p code,
    scanning the constant term upward."""
    for code in range(p ** k):
        digits, rem = [], code
        for _ in range(k):
            digits.append(rem % p)
            rem //= p
        f = digits + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise RuntimeError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------


class FieldContext:
    """The field F_{p^k}; immutable, deterministic, safe to share."""

    __slots__ = ("p", "k", "modulus", "_red", "_hash", "_batch")

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

    # -- raw element layer ---------------------------------------------------

    @property
    def zero_raw(self):
        return 0 if self.k == 1 else (0,) * self.k

    @property
    def one_raw(self):
        return 1 if self.k == 1 else (1,) + (0,) * (self.k - 1)

    def raw_from_int(self, n: int):
        if self.k == 1:
            return n % self.p
        return (n % self.p,) + (0,) * (self.k - 1)

    def raw_from_digits(self, digits) -> "int | tuple[int, ...]":
        digits = [int(d) % self.p for d in digits]
        if len(digits) > self.k:
            raise ValueError(f"expected at most {self.k} digits")
        digits += [0] * (self.k - len(digits))
        return digits[0] if self.k == 1 else tuple(digits)

    def radd(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def rsub(self, a, b):
        if self.k == 1:
            return (a - b) % self.p
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def rneg(self, a):
        if self.k == 1:
            return -a % self.p
        p = self.p
        return tuple(-x % p for x in a)

    def rmul(self, a, b):
        p = self.p
        if self.k == 1:
            return a * b % p
        k = self.k
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
        return tuple(v % p for v in conv[:k])

    def rinv(self, a):
        p = self.p
        if self.k == 1:
            if a == 0:
                raise DivisionByZero("inverse of zero")
            return pow(a, p - 2, p)
        if not any(a):
            raise DivisionByZero("inverse of zero")
        # extended Euclid over F_p[t] against the modulus
        r0, r1 = list(self.modulus), _trim(list(a))
        s0, s1 = [], [1]
        while r1:
            q, r = _divmod(r0, r1, p)
            s = [v % p for v in s0]
            qs = _mul(q, s1, p)
            length = max(len(s), len(qs))
            s += [0] * (length - len(s))
            qs += [0] * (length - len(qs))
            s = _trim([(x - y) % p for x, y in zip(s, qs)])
            r0, r1, s0, s1 = r1, r, s1, s
        inv_c = pow(r0[0], p - 2, p)  # r0 is a nonzero constant
        out = [v * inv_c % p for v in s0]
        out += [0] * (self.k - len(out))
        return tuple(out[: self.k])

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
            base = self.rmul(base, base)
            n >>= 1
        return result

    def rfrobenius(self, a, j: int = 1):
        """a -> a^(p^j)."""
        if self.k == 1:
            return a
        j %= self.k
        if j == 0:
            return a
        if not any(a):
            return a
        e = pow(self.p, j, self.order - 1)
        return self.rpow(a, e)

    def rpth_root(self, a, j: int = 1):
        """The unique b with b^(p^j) = a (Frobenius is invertible)."""
        if self.k == 1:
            return a
        return self.rfrobenius(a, (self.k - (j % self.k)) % self.k)

    def raw_is_zero(self, a) -> bool:
        return a == 0 if self.k == 1 else not any(a)

    def raw_digits(self, a) -> tuple[int, ...]:
        return (a,) if self.k == 1 else tuple(a)

    def raw_code(self, a) -> int:
        if self.k == 1:
            return a
        code = 0
        for d in reversed(a):
            code = code * self.p + d
        return code

    def raw_from_code(self, code: int):
        if self.k == 1:
            return code % self.p
        digits = []
        for _ in range(self.k):
            digits.append(code % self.p)
            code //= self.p
        return tuple(digits)

    # -- element layer --------------------------------------------------------

    def wrap(self, raw) -> "FieldElement":
        return FieldElement(self, raw)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, self.zero_raw)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, self.one_raw)

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
        digits = accel.all_element_digits(self.p, self.k)
        return [self.wrap(raw) for raw in self.array_to_raws(digits)]

    # numpy interop for the batch kernels
    @property
    def batch(self) -> accel.BatchField:
        """Batch arithmetic on digit planes of this field, built once."""
        if self._batch is None:
            self._batch = accel.BatchField(self.p, self.red_array())
        return self._batch

    def red_array(self) -> np.ndarray:
        if self.k == 1:
            return np.zeros((0, 1), dtype=np.int64)
        return np.array(self._red, dtype=np.int64)

    def root_codes(self, coeffs: np.ndarray) -> np.ndarray:
        """Codes, ascending, of the elements where the polynomial with digit
        rows coeffs ((d+1, k), by degree) vanishes (exhaustive guarded
        scan)."""
        xs = accel.all_element_digits(self.p, self.k)
        values = accel.poly_eval_batch(coeffs, xs, self.p, self.red_array())
        return np.flatnonzero(~values.any(axis=1))

    def raws_to_array(self, raws) -> np.ndarray:
        if self.k == 1:
            return np.asarray(raws, dtype=np.int64)[:, None]
        return np.array([tuple(r) for r in raws], dtype=np.int64).reshape(-1, self.k)

    def array_to_raws(self, arr: np.ndarray) -> list:
        if self.k == 1:
            return arr[:, 0].tolist()
        return list(map(tuple, arr.tolist()))


@lru_cache(maxsize=None)
def make_field(p: int, k: int = 1) -> FieldContext:
    """Deterministic field constructor; repeated calls share one context."""
    return FieldContext(p, k)


class FieldElement:
    """An element of a FieldContext; immutable value semantics."""

    __slots__ = ("ctx", "raw")

    def __init__(self, ctx: FieldContext, raw):
        self.ctx = ctx
        self.raw = raw

    @property
    def digits(self) -> tuple[int, ...]:
        return self.ctx.raw_digits(self.raw)

    @property
    def code(self) -> int:
        return self.ctx.raw_code(self.raw)

    def is_zero(self) -> bool:
        return self.ctx.raw_is_zero(self.raw)

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
        return f"{list(self.raw)}"


# ---------------------------------------------------------------------------
# subfield embeddings


class Embedding:
    """The canonical embedding F_{p^k0} -> F_{p^k} (k0 | k) sending the
    source generator to the root of the source modulus with the smallest
    code in the destination field."""

    __slots__ = ("src", "dst", "gen_image", "_basis")

    def __init__(self, src: FieldContext, dst: FieldContext, gen_image):
        self.src = src
        self.dst = dst
        self.gen_image = gen_image  # raw in dst (None when trivial)
        if src.k == 1 or src == dst:
            self._basis = None
        else:
            basis = []
            cur = dst.one_raw
            for _ in range(src.k):
                basis.append(dst.raw_digits(cur))
                cur = dst.rmul(cur, gen_image)
            # rows indexed by dst digit position, columns by src power
            self._basis = np.array(basis, dtype=np.int64).T

    def apply_raw(self, raw):
        if self.src == self.dst:
            return raw
        if self.src.k == 1:
            return self.dst.raw_from_int(raw)
        acc = self.dst.zero_raw
        for digit in reversed(self.src.raw_digits(raw)):
            acc = self.dst.rmul(acc, self.gen_image)
            acc = self.dst.radd(acc, self.dst.raw_from_int(digit))
        return acc

    def apply(self, elt: FieldElement) -> FieldElement:
        if elt.ctx != self.src:
            raise ContextMismatch("element not in the embedding source")
        return self.dst.wrap(self.apply_raw(elt.raw))

    def descend_raw(self, raw):
        """Inverse image of a destination raw; raises ValueError if the
        value does not lie in the embedded subfield."""
        if self.src == self.dst:
            return raw
        digits = list(self.dst.raw_digits(raw))
        if self.src.k == 1:
            if any(digits[1:]):
                raise ValueError("value not in the prime subfield")
            return digits[0]
        # the basis columns are independent, so the digits column is the
        # first dependent one exactly when the value lies in the subfield
        prime = make_field(self.dst.p)
        aug = np.column_stack([self._basis, digits])[None]
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
    # root-scan the source modulus over the destination field
    coeffs = np.zeros((src.k + 1, dst.k), dtype=np.int64)
    coeffs[:, 0] = src.modulus
    root_codes = dst.root_codes(coeffs)
    if root_codes.size == 0:
        raise RuntimeError("modulus has no root in the destination field")
    gen_image = dst.raw_from_code(int(root_codes[0]))
    return Embedding(src, dst, gen_image)

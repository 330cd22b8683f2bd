"""Batch kernels for scanning small finite fields.

The only truly hot inner loops in this package are exhaustive scans and the
pointwise dual check:

* enumerating curve points and root-finding by evaluation over a whole
  field (Horner evaluation at every element);
* evaluating isogeny coordinate maps at many points at once (Horner, then
  division by the table inverse);
* the batch chord-tangent group law that computes [m]P for every point of
  a curve at once (``curve.batch_scalar_mul``), built on the same
  multiplication and table inverse.

``BatchField`` holds that arithmetic.  A batch of n elements of F_{p^k} is
held as digit planes: an int64 array of shape (k, n) whose row i holds
base-p digit i of every element, little-endian by modulus power, so each
digit is one contiguous row.  ``red`` holds the reductions of x^(k+j)
modulo the field modulus, one row per j in 0..k-2 (shape (k-1, k); empty
for prime fields).  Digit values and intermediate sums stay far below
2^63 for every field within the desk-scale guard (p^k <= 10^6).

``poly_eval_batch`` takes and returns (n, k) digit rows instead, and can
run on a numba ``@njit`` kernel when numba imports cleanly; select with the
environment variable ``ISODUAL_BACKEND`` set to ``numba``, ``numpy`` or
``auto`` (default).  To see where time goes layer by layer, run the
benchmark's traced mode from the root of a checkout:
``python3 isobench/run.py --workload corpus --seed 1 --trace 1``.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import FieldTooLarge

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    njit = None
    _HAVE_NUMBA = False

SCAN_GUARD = 10 ** 6  # |K| beyond this is not desk scale


class BatchField:
    """Arithmetic on digit planes of F_{p^k}; see the module docstring.

    The inverse table is built on the first call to ``inv`` and kept for
    the life of the object (one per field context).
    """

    __slots__ = ("p", "k", "_red", "_powers", "_inv_table")

    def __init__(self, p: int, red: np.ndarray):
        self.p = p
        self.k = red.shape[1]
        self._red = red[:, :, None]  # row j as a column, broadcast over n
        self._powers = np.int64(p) ** np.arange(self.k, dtype=np.int64)
        self._inv_table = None

    def to_codes(self, a: np.ndarray) -> np.ndarray:
        """Element codes (little-endian base-p packing) of digit planes."""
        return self._powers @ a

    def _mul_unreduced(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a * b reduced by the modulus but not yet mod p (each digit is
        congruent to the true one)."""
        k = self.k
        conv = np.zeros((2 * k - 1, a.shape[1]), dtype=np.int64)
        for i in range(k):
            conv[i:i + k] += a[i] * b
        low = conv[:k]
        for j in range(k - 1):
            low += conv[k + j] * self._red[j]
        return low

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise product; digits of a and b may be any int64 values
        congruent to the true ones, as long as they stay below p in size."""
        if self.k == 1:
            return a * b % self.p
        return self._mul_unreduced(a, b) % self.p

    def inv(self, a: np.ndarray) -> np.ndarray:
        """Elementwise inverse by table lookup; zero maps to zero, so the
        caller masks the elements it must not divide by."""
        if self._inv_table is None:
            self._inv_table = self._build_inverse_table()
        return self._inv_table[:, self.to_codes(a)]

    def _build_inverse_table(self) -> np.ndarray:
        """x^(q-2) for every element x in code order, by square-and-multiply
        over the whole field at once."""
        q = self.p ** self.k
        if q > SCAN_GUARD:
            raise FieldTooLarge(f"|K| = {q} exceeds the scan guard")
        base = all_element_planes(self.p, self.k)
        table = np.zeros_like(base)
        table[0] = 1
        e = q - 2
        while e:
            if e & 1:
                table = self.mul(table, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        return table

    def horner(self, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Values at the elements x (digit planes) of the polynomial whose
        coefficients are the digit rows of coeffs ((d+1, k), by degree)."""
        k, n = x.shape
        d = coeffs.shape[0]
        p = self.p
        if d == 0:
            return np.zeros((k, n), dtype=np.int64)
        if k == 1:
            x = x[0]
            acc = np.full(n, coeffs[d - 1, 0], dtype=np.int64)
            for idx in range(d - 2, -1, -1):
                acc = (acc * x + coeffs[idx, 0]) % p
            return acc[None, :]
        cols = coeffs[:, :, None]
        acc = np.repeat(cols[d - 1], n, axis=1)
        for idx in range(d - 2, -1, -1):
            acc = (self._mul_unreduced(acc, x) + cols[idx]) % p
        return acc


def _poly_eval_batch_numpy(coeffs: np.ndarray, xs: np.ndarray, p: int,
                           red: np.ndarray) -> np.ndarray:
    """Horner evaluation on (n, k) digit rows, through the digit planes."""
    planes = BatchField(p, red).horner(coeffs, np.ascontiguousarray(xs.T))
    return np.ascontiguousarray(planes.T)


if _HAVE_NUMBA:

    @njit(cache=True)
    def _poly_eval_batch_numba(coeffs, xs, p, red):  # pragma: no cover - jit
        n, k = xs.shape
        d = coeffs.shape[0]
        out = np.zeros((n, k), dtype=np.int64)
        if d == 0:
            return out
        conv = np.zeros(2 * k - 1, dtype=np.int64)
        acc = np.zeros(k, dtype=np.int64)
        for t in range(n):
            for i in range(k):
                acc[i] = coeffs[d - 1, i]
            for idx in range(d - 2, -1, -1):
                for c in range(2 * k - 1):
                    conv[c] = 0
                for i in range(k):
                    ai = acc[i]
                    if ai != 0:
                        for j in range(k):
                            conv[i + j] += ai * xs[t, j]
                for j in range(k - 2, -1, -1):
                    hi = conv[k + j]
                    if hi != 0:
                        for i in range(k):
                            conv[i] += hi * red[j, i]
                for i in range(k):
                    acc[i] = (conv[i] + coeffs[idx, i]) % p
            for i in range(k):
                out[t, i] = acc[i]
        return out

else:  # pragma: no cover
    _poly_eval_batch_numba = None


def _resolve_backend() -> str:
    choice = os.environ.get("ISODUAL_BACKEND", "auto").strip().lower()
    if choice in ("", "auto"):
        return "numba" if _HAVE_NUMBA else "numpy"
    if choice == "numba":
        if not _HAVE_NUMBA:
            raise RuntimeError("ISODUAL_BACKEND=numba but numba is not importable")
        return "numba"
    if choice == "numpy":
        return "numpy"
    raise RuntimeError(f"unknown ISODUAL_BACKEND value: {choice!r}")


_BACKEND = _resolve_backend()


def active_backend() -> str:
    return _BACKEND


def available_backends() -> tuple[str, ...]:
    return ("numba", "numpy") if _HAVE_NUMBA else ("numpy",)


def poly_eval_batch(coeffs: np.ndarray, xs: np.ndarray, p: int,
                    red: np.ndarray, backend: str | None = None) -> np.ndarray:
    """Evaluate one polynomial at a batch of field elements.

    coeffs: (d+1, k) digit rows, little-endian by degree; xs: (n, k).
    Returns an (n, k) array of digit rows.
    """
    which = backend or _BACKEND
    if which == "numba":
        return _poly_eval_batch_numba(coeffs, xs, np.int64(p), red)
    return _poly_eval_batch_numpy(coeffs, xs, p, red)


def all_element_planes(p: int, k: int) -> np.ndarray:
    """Digit planes of every element of F_{p^k}, in code order (shape
    (k, p^k))."""
    rem = np.arange(p ** k, dtype=np.int64)
    planes = np.empty((k, rem.shape[0]), dtype=np.int64)
    for i in range(k):
        rem, planes[i] = np.divmod(rem, p)
    return planes


def all_element_digits(p: int, k: int) -> np.ndarray:
    """Digit rows of every element of F_{p^k}, in code order (shape (p^k, k))."""
    return all_element_planes(p, k).T


def pack_codes(digits: np.ndarray, p: int) -> np.ndarray:
    """Inverse of all_element_digits row-wise: little-endian base-p packing."""
    k = digits.shape[1]
    powers = (np.int64(p) ** np.arange(k, dtype=np.int64))
    return digits @ powers

"""Batch kernels for scanning small finite fields.

The only truly hot inner loops in this package are exhaustive scans and the
pointwise dual check:

* enumerating curve points and root-finding by evaluation over a whole
  field (Horner evaluation at every element);
* evaluating isogeny coordinate maps at many points at once (Horner, then
  division by the table inverse);
* the batch chord-tangent group law that computes [m]P for every point of
  a curve at once (``curve.batch_scalar_mul``), built on the same
  multiplication and table inverse;
* Gauss-Jordan elimination for the first dependent column of a matrix
  (``BatchField.first_dependency``): the minimal polynomial of an element of
  F[x]/(W) for the quotient construction, and subfield descent.

``BatchField`` holds that arithmetic.  A batch of n elements of F_{p^k} is
held as digit planes: an int64 array of shape (k, n) whose row i holds
base-p digit i of every element, little-endian by modulus power, so each
digit is one contiguous row; vectors and matrices add trailing axes
((k, w) and (k, rows, cols)).  ``red`` holds the reductions of x^(k+j)
modulo the field modulus, one row per j in 0..k-2 (shape (k-1, k); empty
for prime fields).  ``code_planes`` and ``BatchField.to_codes`` convert
between digit planes and element codes, the scalar representation of
``ff``.  ``BatchField`` refuses fields whose products could leave
int64 (see ``_mul_unreduced``); every field within the desk-scale guard
(p^k <= 10^6) stays below 2^40.

``poly_eval_batch`` takes and returns (n, k) digit rows instead and runs
through ``BatchField.horner``.  Every whole-field scan starts from
``all_element_planes``, which refuses fields beyond the guard before it
allocates anything.  To see where time goes layer by layer, run the
benchmark's traced mode from the root of a checkout:
``python3 isobench/run.py --workload corpus --seed 1 --trace 1``.
"""

from __future__ import annotations

import numpy as np

from .errors import FieldTooLarge

SCAN_GUARD = 10 ** 6  # |K| beyond this is not desk scale
PRODUCT_GUARD = 2 ** 62  # largest unreduced product digit, with room to add


class BatchField:
    """Arithmetic on digit planes of F_{p^k}; see the module docstring.

    The inverse table is built on the first call to ``inv`` and kept for
    the life of the object (one per field context).
    """

    __slots__ = ("p", "k", "_red", "_powers", "_inv_table")

    def __init__(self, p: int, red: np.ndarray):
        k = red.shape[1]
        # the bound on a digit of _mul_unreduced for digits below p in size
        if k * (p - 1) ** 2 * (1 + (k - 1) * (p - 1)) >= PRODUCT_GUARD:
            raise FieldTooLarge(
                f"products in F_{p}^{k} could overflow int64 digit planes")
        self.p = p
        self.k = k
        self._red = red
        self._powers = np.int64(p) ** np.arange(k, dtype=np.int64)
        self._inv_table = None

    def to_codes(self, a: np.ndarray) -> np.ndarray:
        """Element codes (little-endian base-p packing) of digit planes."""
        return self._powers @ a

    def _mul_unreduced(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a * b reduced by the modulus but not yet mod p (each digit is
        congruent to the true one).  a and b have the same number of axes
        and broadcast over all but the first.

        Each convolution digit sums at most k products of size (p-1)^2, and
        each of the k-1 reduction rows adds one of those times a digit below
        p: at most k (p-1)^2 (1 + (k-1)(p-1)), which the constructor keeps
        below PRODUCT_GUARD."""
        k = self.k
        shape = np.broadcast_shapes(a.shape[1:], b.shape[1:])
        conv = np.zeros((2 * k - 1,) + shape, dtype=np.int64)
        for i in range(k):
            conv[i:i + k] += a[i] * b
        low = conv[:k]
        red = self._red.reshape(self._red.shape + (1,) * len(shape))
        for j in range(k - 1):
            low += conv[k + j] * red[j]
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
        base = all_element_planes(self.p, self.k)
        table = np.zeros_like(base)
        table[0] = 1
        e = base.shape[1] - 2
        while e:
            if e & 1:
                table = self.mul(table, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        return table

    def first_dependency(self, a: np.ndarray, inverse) -> tuple[int, np.ndarray]:
        """The first column of the matrix a (k, rows, cols) that is a
        combination of the columns before it, which exists if cols > rows:
        its index t and the coefficients c (k, t) with column t = sum_i c_i
        column i.  ValueError when there is none.

        Gauss-Jordan elimination, one vectorised step per pivot column; the
        pivot of column i lands in row i.  inverse maps the digits (k,) of
        one nonzero element to those of its inverse."""
        a = a.copy()
        for t in range(a.shape[2]):
            candidates = np.flatnonzero(a[:, t:, t].any(axis=0))
            if candidates.size == 0:
                return t, a[:, :t, t]
            pivot = t + int(candidates[0])
            a[:, [t, pivot]] = a[:, [pivot, t]]
            row = self.mul(inverse(a[:, t, t])[:, None], a[:, t, t:])
            factors = a[:, :, t:t + 1].copy()
            factors[:, t] = 0
            a[:, :, t:] = (a[:, :, t:]
                           - self.mul(factors, row[:, None, :])) % self.p
            a[:, t, t:] = row
        raise ValueError("every column is independent of the ones before it")

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


def poly_eval_batch(coeffs: np.ndarray, xs: np.ndarray, p: int,
                    red: np.ndarray) -> np.ndarray:
    """Evaluate one polynomial at a batch of field elements.

    coeffs: (d+1, k) digit rows, little-endian by degree; xs: (n, k).
    Returns an (n, k) array of digit rows, computed through the digit
    planes.
    """
    planes = BatchField(p, red).horner(coeffs, np.ascontiguousarray(xs.T))
    return np.ascontiguousarray(planes.T)


def code_planes(codes: np.ndarray, p: int, k: int) -> np.ndarray:
    """Digit planes (k, n) of the elements of F_{p^k} whose codes are the
    entries of codes (n,); the inverse of ``BatchField.to_codes``."""
    rem = codes
    planes = np.empty((k,) + codes.shape, dtype=np.int64)
    for i in range(k):
        rem, planes[i] = np.divmod(rem, p)
    return planes


def all_element_planes(p: int, k: int) -> np.ndarray:
    """Digit planes of every element of F_{p^k}, in code order (shape
    (k, p^k)); the one place a whole-field scan checks the guard."""
    q = p ** k
    if q > SCAN_GUARD:
        raise FieldTooLarge(f"|K| = {q} exceeds the scan guard")
    return code_planes(np.arange(q, dtype=np.int64), p, k)


def all_element_digits(p: int, k: int) -> np.ndarray:
    """Digit rows of every element of F_{p^k}, in code order (shape (p^k, k))."""
    return all_element_planes(p, k).T


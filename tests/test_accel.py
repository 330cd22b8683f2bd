import numpy as np
import pytest

from isodual import accel, make_field
from isodual.errors import FieldTooLarge
from isodual.ff import embed
from isodual.polyrat import Poly


def test_all_element_digits_pack_roundtrip():
    for p, k in [(5, 1), (5, 3), (13, 2)]:
        digits = accel.all_element_digits(p, k)
        assert digits.shape == (p ** k, k)
        codes = make_field(p, k).batch.to_codes(digits.T)
        assert np.array_equal(codes, np.arange(p ** k))


@pytest.mark.parametrize("p,k,deg", [(5, 1, 7), (5, 2, 5), (7, 3, 9),
                                     (13, 2, 4), (11, 5, 3)])
def test_backends_agree_and_match_scalar(p, k, deg):
    """The batch Horner kernel agrees with scalar evaluation in the Poly
    layer."""
    ctx = make_field(p, k)
    rng = np.random.default_rng(1234 + p + k)
    coeffs = rng.integers(0, p, size=(deg + 1, k)).astype(np.int64)
    n = min(ctx.order, 400)
    xs = accel.all_element_digits(p, k)[:n]
    result = accel.poly_eval_batch(coeffs, xs, p, ctx.red_array())
    f = Poly(ctx, [ctx.raw_from_digits(row) for row in coeffs])
    for i in range(0, n, max(1, n // 37)):
        expected = f.eval_raw(ctx.raw_from_code(i))
        assert tuple(result[i]) == ctx.raw_digits(expected)


def test_empty_and_constant_polys():
    ctx = make_field(5, 2)
    xs = accel.all_element_digits(5, 2)
    red = ctx.red_array()
    zero = accel.poly_eval_batch(np.zeros((0, 2), dtype=np.int64), xs, 5, red)
    assert not zero.any()
    const = np.array([[3, 1]], dtype=np.int64)
    out = accel.poly_eval_batch(const, xs, 5, red)
    assert np.array_equal(out, np.broadcast_to(const, out.shape))


@pytest.mark.parametrize("p,k", [(5, 1), (13, 1), (5, 2), (7, 3), (11, 2)])
def test_batch_field_mul_and_table_inverse_match_scalar(p, k):
    ctx = make_field(p, k)
    F = ctx.batch
    assert F is ctx.batch  # built once per context
    codes = np.arange(ctx.order, dtype=np.int64)
    xs = accel.all_element_planes(p, k)
    assert np.array_equal(F.to_codes(xs), codes)
    raws = [ctx.raw_from_code(int(c)) for c in codes]
    inv = F.inv(xs)
    assert not inv[:, 0].any()  # zero maps to zero
    for c in range(1, ctx.order):
        assert ctx.rinv(raws[c]) == F.to_codes(inv[:, c:c + 1])[0]
    rng = np.random.default_rng(p * k)
    other = rng.permutation(codes)
    prod = F.to_codes(F.mul(xs, xs[:, other]))
    for c in range(0, ctx.order, max(1, ctx.order // 97)):
        expected = ctx.rmul(raws[c], raws[int(other[c])])
        assert expected == prod[c]


def test_inverse_table_guard():
    F = make_field(1009, 2).batch  # 1009^2 > 10^6 elements
    with pytest.raises(FieldTooLarge):
        F.inv(np.ones((2, 1), dtype=np.int64))
    with pytest.raises(FieldTooLarge):
        make_field(1009, 2).elements()


def test_embedding_search_guard():
    # the root scan for the generator image runs over F_{11^6} > 10^6
    with pytest.raises(FieldTooLarge):
        embed(make_field(11, 2), make_field(11, 6))


def test_product_guard():
    # (p - 1)^2 must stay below 2^62: 2^31 - 1 is the largest prime that does
    assert make_field(2 ** 31 - 1).batch.k == 1
    with pytest.raises(FieldTooLarge):
        make_field(2147483659).batch  # the next prime

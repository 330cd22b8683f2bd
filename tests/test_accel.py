import os
import subprocess
import sys

import numpy as np
import pytest

from isodual import accel, make_field
from isodual.errors import FieldTooLarge
from isodual.polyrat import Poly


def test_all_element_digits_pack_roundtrip():
    for p, k in [(5, 1), (5, 3), (13, 2)]:
        digits = accel.all_element_digits(p, k)
        assert digits.shape == (p ** k, k)
        codes = accel.pack_codes(digits, p)
        assert np.array_equal(codes, np.arange(p ** k))


@pytest.mark.parametrize("p,k,deg", [(5, 1, 7), (5, 2, 5), (7, 3, 9),
                                     (13, 2, 4), (11, 5, 3)])
def test_backends_agree_and_match_scalar(p, k, deg):
    ctx = make_field(p, k)
    rng = np.random.default_rng(1234 + p + k)
    coeffs = rng.integers(0, p, size=(deg + 1, k)).astype(np.int64)
    n = min(ctx.order, 400)
    xs = accel.all_element_digits(p, k)[:n]
    red = ctx.red_array()
    results = {backend: accel.poly_eval_batch(coeffs, xs, p, red, backend=backend)
               for backend in accel.available_backends()}
    if len(results) == 2:
        assert np.array_equal(results["numba"], results["numpy"])
    # scalar oracle through the Poly layer
    f = Poly(ctx, [ctx.raw_from_digits(row) for row in coeffs])
    any_result = next(iter(results.values()))
    for i in range(0, n, max(1, n // 37)):
        x = ctx.raw_from_code(i)
        expected = f.eval_raw(x)
        assert tuple(any_result[i]) == ctx.raw_digits(expected)


def test_empty_and_constant_polys():
    ctx = make_field(5, 2)
    xs = accel.all_element_digits(5, 2)
    red = ctx.red_array()
    zero = accel.poly_eval_batch(np.zeros((0, 2), dtype=np.int64), xs, 5, red)
    assert not zero.any()
    const = np.array([[3, 1]], dtype=np.int64)
    out = accel.poly_eval_batch(const, xs, 5, red)
    assert np.array_equal(out, np.broadcast_to(const, out.shape))


def test_backend_selection_reporting():
    assert accel.active_backend() in accel.available_backends()


@pytest.mark.parametrize("backend", ["numpy", "numba"])
def test_env_flag_selects_backend_end_to_end(backend):
    if backend not in accel.available_backends():
        pytest.skip(f"{backend} unavailable")
    script = (
        "from isodual import accel, Curve, make_field, subgroup_from_generator, "
        "velu_isogeny, dual_isogeny\n"
        f"assert accel.active_backend() == '{backend}'\n"
        "E = Curve(make_field(5), 1, 0)\n"
        "cert = dual_isogeny(velu_isogeny(E, subgroup_from_generator(E.point(0, 0))))\n"
        "print(cert.m, cert.verified)\n")
    env = dict(os.environ, ISODUAL_BACKEND=backend)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "2 True"


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
        assert ctx.raw_code(ctx.rinv(raws[c])) == F.to_codes(inv[:, c:c + 1])[0]
    rng = np.random.default_rng(p * k)
    other = rng.permutation(codes)
    prod = F.to_codes(F.mul(xs, xs[:, other]))
    for c in range(0, ctx.order, max(1, ctx.order // 97)):
        expected = ctx.rmul(raws[c], raws[int(other[c])])
        assert ctx.raw_code(expected) == prod[c]


def test_inverse_table_guard():
    F = make_field(1009, 2).batch  # 1009^2 > 10^6 elements
    with pytest.raises(FieldTooLarge):
        F.inv(np.ones((2, 1), dtype=np.int64))

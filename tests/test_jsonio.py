import pytest

import isodual as iso
from isodual import jsonio
from isodual.errors import ParseError
from isodual.ff import make_field
from isodual.polyrat import Poly, RatFunc

F5 = make_field(5)
F25 = make_field(5, 2)


@pytest.fixture(scope="module")
def fixture_cert(e_f5):
    G = iso.subgroup_from_generator(e_f5.point(0, 0))
    return iso.dual_isogeny(iso.velu_isogeny(e_f5, G))


def test_element_roundtrip():
    assert jsonio.element_to_obj(F5.element(3)) == [3]
    assert jsonio.element_to_obj(F25.element([2, 1])) == [2, 1]
    for ctx in (F5, F25):
        for e in ctx.elements():
            assert jsonio.element_from_obj(ctx, jsonio.element_to_obj(e)) == e
    with pytest.raises(ParseError):
        jsonio.element_from_obj(F5, [7])
    with pytest.raises(ParseError):
        jsonio.element_from_obj(F5, [1, 2])
    with pytest.raises(ParseError):
        jsonio.element_from_obj(F5, "3")


def test_poly_ratfunc_roundtrip():
    f = Poly.from_ints(F5, [1, 0, 2])
    assert jsonio.poly_from_obj(F5, jsonio.poly_to_obj(f)) == f
    r = RatFunc(Poly.from_ints(F5, [1, 0, 1]), Poly.x(F5))
    assert jsonio.ratfunc_from_obj(F5, jsonio.ratfunc_to_obj(r)) == r


def test_curve_point_roundtrip(e_f5):
    obj = jsonio.curve_to_obj(e_f5)
    assert obj == {"p": 5, "k": 1, "a": [1], "b": [0]}
    assert jsonio.curve_from_obj(obj) == e_f5
    P = e_f5.point(2, 0)
    assert jsonio.point_to_obj(P) == {"x": [2], "y": [0]}
    assert jsonio.point_from_obj(e_f5, jsonio.point_to_obj(P)) == P
    O = e_f5.infinity()
    assert jsonio.point_to_obj(O) == "infinity"
    assert jsonio.point_from_obj(e_f5, "infinity") == O


def test_isogeny_roundtrip_and_validation(e_f5):
    phi = iso.mul_by_m_map(e_f5, 3)
    obj = jsonio.isogeny_to_obj(phi)
    assert jsonio.isogeny_from_obj(obj) == phi
    # tampering with the y-map breaks curve-equation compatibility
    bad = dict(obj)
    bad["s"] = jsonio.ratfunc_to_obj(RatFunc.x(F5))
    with pytest.raises(ParseError):
        jsonio.isogeny_from_obj(bad)


def test_decomposition_roundtrip(e_f5):
    dec = iso.separable_decompose(iso.mul_by_m_map(e_f5, 5))
    obj = jsonio.decomposition_to_obj(dec)
    back = jsonio.decomposition_from_obj(obj)
    assert back.n == dec.n and iso.iso_equal(back.sep, dec.sep)


@pytest.mark.parametrize("key, value", [
    ("n", "1"), ("n", None), ("n", True), ("original_degree", 25.0)])
def test_decomposition_integers_are_strict(e_f5, key, value):
    dec = iso.separable_decompose(iso.mul_by_m_map(e_f5, 5))
    obj = jsonio.decomposition_to_obj(dec)
    obj[key] = value
    with pytest.raises(ParseError):
        jsonio.decomposition_from_obj(obj)


def test_certificate_roundtrip(fixture_cert):
    obj = jsonio.certificate_to_obj(fixture_cert)
    back = jsonio.certificate_from_obj(obj)
    assert back == fixture_cert
    # serialization is canonical: equal objects give identical bytes
    assert jsonio.dumps(obj) == jsonio.dumps(jsonio.certificate_to_obj(back))
    # the embedded mul_map suffices for third-party re-verification
    comp = iso.iso_compose(back.dual, back.phi)
    assert iso.iso_equal(comp, back.mul_map)


def test_extension_field_payloads():
    E = iso.embed_curve(iso.Curve(F5, 1, 0), F25)
    obj = jsonio.curve_to_obj(E)
    assert obj["k"] == 2
    assert jsonio.curve_from_obj(obj) == E

"""JSON interchange for every domain type.

Formats:
  element       [d0, d1, ...]            base-p digits, little-endian
  polynomial    [elt, elt, ...]          little-endian by degree
  ratfunc       {"num": poly, "den": poly}
  curve         {"p": 5, "k": 1, "a": elt, "b": elt}
  point         {"x": elt, "y": elt} or "infinity"
  isogeny       {"domain": curve, "codomain": curve, "r": ratfunc,
                 "s": ratfunc, "degree": n}
  certificate   all pipeline fields plus the serialized multiplication map,
                 sufficient for independent re-verification

Deserialization is strict: every count, degree and digit must be a JSON
integer (not a string, null, float or boolean) and ``verified`` a JSON
boolean; digits are range-checked, curves are rebuilt
through ``field_from_params`` (the one field constructor of the JSON and
command-line boundaries, which refuses fields beyond the desk-scale guard
before any primality test), and isogenies are re-validated
against the curve-equation compatibility identity, so corrupt payloads are
rejected at the boundary.  Serialization is canonical (sorted keys, no
whitespace), so equal objects produce byte-identical JSON.
"""

from __future__ import annotations

import json

from .accel import SCAN_GUARD
from .curve import Curve, Point
from .dualctor import Decomposition, DualCertificate
from .errors import CharTooSmall, IsodualError, NotPrime, ParseError
from .ff import FieldContext, FieldElement, make_field
from .isogeny import IsogenyMap
from .polyrat import Poly, RatFunc


def dumps(obj) -> str:
    """Canonical JSON text (deterministic byte-for-byte)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None


# -- fields -----------------------------------------------------------------


def field_from_params(p, k) -> FieldContext:
    """F_{p^k} from untrusted parameters; every refusal is a ParseError.

    The size check comes first, so a huge p never reaches the primality
    test; p^k is only formed for k below the bit length of the guard, since
    any larger k with p >= 2 exceeds it anyway.
    """
    if type(p) is not int or type(k) is not int:  # bool is an int subclass
        raise ParseError(f"field p and k must be integers, got {p!r}, {k!r}")
    if k < 1:
        raise ParseError(f"extension degree k must be >= 1, got {k}")
    if p >= 2 and p ** min(k, SCAN_GUARD.bit_length()) > SCAN_GUARD:
        raise ParseError(
            f"|K| = {p}^{k} exceeds {SCAN_GUARD}: this is a desk-scale tool")
    try:
        return make_field(p, k)
    except (NotPrime, CharTooSmall) as exc:
        raise ParseError(str(exc)) from exc


def _strict_int(value, what: str) -> int:
    if type(value) is not int:  # bool is an int subclass
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


# -- elements ---------------------------------------------------------------


def element_to_obj(e: FieldElement) -> list[int]:
    return list(e.digits)


def element_from_obj(ctx: FieldContext, obj) -> FieldElement:
    if not isinstance(obj, list) or not obj or \
            not all(type(d) is int for d in obj):
        raise ParseError(f"element must be a nonempty digit list, got {obj!r}")
    if len(obj) > ctx.k:
        raise ParseError(f"element has {len(obj)} digits, context allows {ctx.k}")
    if any(d < 0 or d >= ctx.p for d in obj):
        raise ParseError(f"digits must lie in [0, {ctx.p}): {obj!r}")
    return ctx.element(obj)


# -- polynomials / rational functions ---------------------------------------


def poly_to_obj(f: Poly) -> list:
    return [element_to_obj(e) for e in f.elements()]


def poly_from_obj(ctx: FieldContext, obj) -> Poly:
    if not isinstance(obj, list):
        raise ParseError(f"polynomial must be a list, got {obj!r}")
    return Poly(ctx, [element_from_obj(ctx, c).raw for c in obj])


def ratfunc_to_obj(f: RatFunc) -> dict:
    return {"num": poly_to_obj(f.num), "den": poly_to_obj(f.den)}


def ratfunc_from_obj(ctx: FieldContext, obj) -> RatFunc:
    if not isinstance(obj, dict) or set(obj) != {"num", "den"}:
        raise ParseError(f"ratfunc must have num/den fields, got {obj!r}")
    return RatFunc(poly_from_obj(ctx, obj["num"]), poly_from_obj(ctx, obj["den"]))


# -- curves / points ---------------------------------------------------------


def curve_to_obj(E: Curve) -> dict:
    return {"p": E.ctx.p, "k": E.ctx.k,
            "a": element_to_obj(E.a), "b": element_to_obj(E.b)}


def curve_from_obj(obj) -> Curve:
    if not isinstance(obj, dict) or not {"p", "k", "a", "b"} <= set(obj):
        raise ParseError(f"curve needs p/k/a/b fields, got {obj!r}")
    ctx = field_from_params(obj["p"], obj["k"])
    return Curve(ctx, element_from_obj(ctx, obj["a"]),
                 element_from_obj(ctx, obj["b"]))


def point_to_obj(P: Point):
    if P.is_infinity:
        return "infinity"
    return {"x": element_to_obj(P.x), "y": element_to_obj(P.y)}


def point_from_obj(E: Curve, obj) -> Point:
    if obj == "infinity":
        return E.infinity()
    if not isinstance(obj, dict) or set(obj) != {"x", "y"}:
        raise ParseError(f"point must be 'infinity' or have x/y, got {obj!r}")
    return Point(E, element_from_obj(E.ctx, obj["x"]),
                 element_from_obj(E.ctx, obj["y"]))


# -- isogenies ---------------------------------------------------------------


def isogeny_to_obj(phi: IsogenyMap) -> dict:
    return {"domain": curve_to_obj(phi.domain),
            "codomain": curve_to_obj(phi.codomain),
            "r": ratfunc_to_obj(phi.r), "s": ratfunc_to_obj(phi.s),
            "degree": phi.degree}


def isogeny_from_obj(obj) -> IsogenyMap:
    needed = {"domain", "codomain", "r", "s", "degree"}
    if not isinstance(obj, dict) or not needed <= set(obj):
        raise ParseError(f"isogeny needs {sorted(needed)} fields")
    domain = curve_from_obj(obj["domain"])
    codomain = curve_from_obj(obj["codomain"])
    degree = _strict_int(obj["degree"], "isogeny degree")
    try:
        return IsogenyMap(domain, codomain,
                          ratfunc_from_obj(domain.ctx, obj["r"]),
                          ratfunc_from_obj(domain.ctx, obj["s"]), degree)
    except IsodualError as exc:
        raise ParseError(f"invalid isogeny payload: {exc}") from exc


def decomposition_to_obj(dec: Decomposition) -> dict:
    return {"sep": isogeny_to_obj(dec.sep), "n": dec.n,
            "original_degree": dec.original_degree}


def decomposition_from_obj(obj) -> Decomposition:
    if not isinstance(obj, dict) or not {"sep", "n", "original_degree"} <= set(obj):
        raise ParseError("decomposition needs sep/n/original_degree fields")
    return Decomposition(isogeny_from_obj(obj["sep"]),
                         _strict_int(obj["n"], "n"),
                         _strict_int(obj["original_degree"], "original_degree"))


# -- certificates ------------------------------------------------------------


def certificate_to_obj(cert: DualCertificate) -> dict:
    return {
        "phi": isogeny_to_obj(cert.phi),
        "dual": isogeny_to_obj(cert.dual),
        "m": cert.m,
        "n": cert.n,
        "e": cert.e,
        "c_phi": element_to_obj(cert.c_phi),
        "u_phi": element_to_obj(cert.u_phi),
        "u_m": element_to_obj(cert.u_m),
        "lambda": isogeny_to_obj(cert.lam),
        "frobenius_dual": (None if cert.frobenius_dual_used is None
                           else isogeny_to_obj(cert.frobenius_dual_used)),
        "mul_map": isogeny_to_obj(cert.mul_map),
        "verified": cert.verified,
    }


def certificate_from_obj(obj) -> DualCertificate:
    needed = {"phi", "dual", "m", "n", "e", "c_phi", "u_phi", "u_m", "lambda",
              "frobenius_dual", "mul_map", "verified"}
    if not isinstance(obj, dict) or not needed <= set(obj):
        raise ParseError(f"certificate needs {sorted(needed)} fields")
    verified = obj["verified"]
    if type(verified) is not bool:
        raise ParseError(f"verified must be true or false, got {verified!r}")
    phi = isogeny_from_obj(obj["phi"])
    ctx = phi.domain.ctx
    fd = obj["frobenius_dual"]
    return DualCertificate(
        phi=phi,
        dual=isogeny_from_obj(obj["dual"]),
        m=_strict_int(obj["m"], "m"),
        n=_strict_int(obj["n"], "n"),
        e=_strict_int(obj["e"], "e"),
        c_phi=element_from_obj(ctx, obj["c_phi"]),
        u_phi=element_from_obj(ctx, obj["u_phi"]),
        u_m=element_from_obj(ctx, obj["u_m"]),
        lam=isogeny_from_obj(obj["lambda"]),
        frobenius_dual_used=None if fd is None else isogeny_from_obj(fd),
        mul_map=isogeny_from_obj(obj["mul_map"]),
        verified=verified,
    )

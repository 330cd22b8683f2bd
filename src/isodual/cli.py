"""Command-line front end.

Subcommands: velu, dual, decompose, mul-map, verify, eval.  Output is
canonical JSON on stdout (add --pretty for a human-readable report; for
``dual`` that includes the step-by-step pipeline trace).  Exit codes:
0 success, 1 mathematical failure (structured error object on stderr),
2 usage errors.

Field elements are written as base-p digit lists: ``3`` over a prime field,
``2,1`` for 2 + t over an extension.  Points are ``x,y`` over prime fields;
over extensions, separate the coordinates with ``;`` (``2,1;0,3``).  Kernel
polynomial coefficients are comma-separated over prime fields and
semicolon-separated over extensions.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio
from .curve import (MUL_MAP_CAP, Curve, Point, mul_by_m_map,
                    subgroup_from_generator, subgroup_from_points,
                    subgroup_from_x_coordinates)
from .dualctor import (dual_isogeny, separable_decompose, verify_certificate,
                       verify_dual)
from .errors import FieldTooLarge, IsodualError, KernelNotRational, ParseError
from .ff import make_field
from .isogeny import iso_eval, velu_isogeny
from .polyrat import Poly, roots_bruteforce

POLY_SPLIT_DEGREES = (1, 2, 3, 4)


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ParseError(f"{what} must be an integer, got {text!r}") from exc


def _parse_element(ctx, text: str, what: str):
    digits = [_parse_int(d, f"{what} digit") for d in text.split(",")]
    if len(digits) > ctx.k:
        raise ParseError(f"{what}: {len(digits)} digits but k = {ctx.k}")
    if any(d < 0 or d >= ctx.p for d in digits):
        raise ParseError(f"{what}: digits must lie in [0, {ctx.p})")
    return ctx.element(digits)


def _parse_point(E: Curve, text: str, what: str) -> Point:
    if ";" in text:
        parts = text.split(";")
        if len(parts) != 2:
            raise ParseError(f"{what}: expected 'x;y'")
        xs, ys = parts
    else:
        parts = text.split(",")
        if len(parts) != 2:
            raise ParseError(
                f"{what}: expected 'x,y' (use ';' between coordinates when k > 1)")
        xs, ys = parts
    return Point(E, _parse_element(E.ctx, xs, f"{what} x"),
                 _parse_element(E.ctx, ys, f"{what} y"))


def _build_curve(args) -> Curve:
    if args.p is None or args.a is None or args.b is None:
        raise ParseError("--p, --a and --b are required to define a curve")
    ctx = jsonio.field_from_params(args.p, args.k)
    return Curve(ctx, _parse_element(ctx, args.a, "--a"),
                 _parse_element(ctx, args.b, "--b"))


def _subgroup_from_kernel_poly(E: Curve, kp: Poly):
    """Recover the subgroup from a kernel polynomial by root-scanning over
    F_{p^(k*j)} for j <= 4, up to the first field beyond the scan guard."""
    if kp.degree < 0:
        raise ParseError("--kernel-poly: zero polynomial")
    kp = kp.monic()
    for j in POLY_SPLIT_DEGREES:
        ctx_j = make_field(E.ctx.p, E.ctx.k * j)
        try:
            roots = roots_bruteforce(kp, ctx_j)
        except FieldTooLarge:  # larger j only grow the field
            break
        if len(roots) < kp.degree:
            continue
        try:
            return subgroup_from_x_coordinates(E, roots, ctx_j)
        except KernelNotRational:  # an x with no y: try a larger field
            continue
    raise KernelNotRational(
        "kernel polynomial does not split into points over F_{p^(k*j)}, j <= 4")


def _resolve_kernel(E: Curve, args):
    given = [name for name, val in (("--kernel-gen", args.kernel_gen),
                                    ("--kernel-poly", args.kernel_poly),
                                    ("--kernel-points", args.kernel_points))
             if val]
    if len(given) != 1:
        raise ParseError(
            "specify exactly one of --kernel-gen, --kernel-poly, --kernel-points")
    # refused before the subgroup is built when its order must exceed the cap
    if args.kernel_gen:
        P = _parse_point(E, args.kernel_gen, "--kernel-gen")
        R, n = P, 1
        while not R.is_infinity and n <= MUL_MAP_CAP:
            R, n = R + P, n + 1
        if n > MUL_MAP_CAP:
            raise _kernel_too_large("the order of the kernel generator")
        G = subgroup_from_generator(P)
    elif args.kernel_points:
        pts = [_parse_point(E, t, "--kernel-points") for t in args.kernel_points]
        if E.infinity() not in pts:
            pts.append(E.infinity())
        if len(set(pts)) > MUL_MAP_CAP:
            raise _kernel_too_large(f"a kernel of {len(set(pts))} points")
        G = subgroup_from_points(pts)
    else:
        sep = ";" if E.ctx.k > 1 else ","
        coeffs = [_parse_element(E.ctx, c, "--kernel-poly coefficient")
                  for c in args.kernel_poly.split(sep)]
        kp = Poly(E.ctx, [c.raw for c in coeffs])
        # order n gives degree (n - 1 + e2) / 2, e2 = #(order-2 points) <= 3
        if kp.degree > (MUL_MAP_CAP + 2) // 2:
            raise _kernel_too_large(
                f"the kernel order of a degree-{kp.degree} kernel polynomial")
        G = _subgroup_from_kernel_poly(E, kp)
    if G.order > MUL_MAP_CAP:
        raise _kernel_too_large(f"kernel order {G.order}")
    return G


def _kernel_too_large(what: str) -> ParseError:
    return ParseError(f"{what} exceeds {MUL_MAP_CAP}: this is a desk-scale tool")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return jsonio.loads(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _resolve_map(args):
    sources = [bool(args.map), args.m is not None,
               bool(args.kernel_gen or args.kernel_poly or args.kernel_points)]
    if sum(sources) != 1:
        raise ParseError("specify exactly one map source: --map, --m, or a kernel")
    if args.map:
        return jsonio.isogeny_from_obj(_load_json(args.map))
    E = _build_curve(args)
    if args.m is not None:
        return mul_by_m_map(E, args.m)
    return velu_isogeny(E, _resolve_kernel(E, args))


# -- pretty renderers ---------------------------------------------------------


def _pretty_isogeny(phi) -> str:
    return "\n".join([
        f"isogeny of degree {phi.degree}",
        f"  domain:   {phi.domain!r}",
        f"  codomain: {phi.codomain!r}",
        f"  r(x) = {phi.r!r}",
        f"  s(x) = {phi.s!r}  (map is (x, y) -> (r(x), y*s(x)))",
    ])


def _pretty_certificate(cert) -> str:
    lines = [
        "dual-isogeny certificate",
        f"  phi: degree {cert.m}, {cert.phi.domain!r} -> {cert.phi.codomain!r}",
        "  pipeline trace:",
        f"    1. separable decomposition: phi = phi_sep o pi^n, n = {cert.n}",
        f"    2. frobenius dual used: {'yes' if cert.frobenius_dual_used else 'no (n = 0)'}",
        f"    3. [m_sep] = [m_sep]_sep o pi^e, e = {cert.e}",
        f"    4. pullback constant c(phi_sep) = {cert.c_phi}, scaling u_phi = {cert.u_phi}",
        f"    5. scaling u_m = {cert.u_m}",
        f"    6. lambda: degree {cert.lam.degree} with lambda o phi_norm = [m]_norm",
        f"    7. dual: degree {cert.dual.degree}",
        f"  dual r(x) = {cert.dual.r!r}",
        f"  dual s(x) = {cert.dual.s!r}",
        f"  verified: dual o phi == [{cert.m}] (canonical maps and pointwise)",
    ]
    return "\n".join(lines)


# -- command handlers ----------------------------------------------------------


def _cmd_velu(args):
    E = _build_curve(args)
    phi = velu_isogeny(E, _resolve_kernel(E, args))
    return jsonio.isogeny_to_obj(phi), _pretty_isogeny(phi)


def _cmd_dual(args):
    E = _build_curve(args)
    phi = velu_isogeny(E, _resolve_kernel(E, args))
    cert = dual_isogeny(phi)
    return jsonio.certificate_to_obj(cert), _pretty_certificate(cert)


def _cmd_decompose(args):
    phi = _resolve_map(args)
    dec = separable_decompose(phi)
    pretty = "\n".join([
        f"separable decomposition: phi = phi_sep o pi^{dec.n}",
        f"  original degree: {dec.original_degree}",
        f"  frobenius exponent n = {dec.n}",
        f"  separable part: degree {dec.sep.degree}",
        f"  sep r(x) = {dec.sep.r!r}",
    ])
    return jsonio.decomposition_to_obj(dec), pretty


def _cmd_mul_map(args):
    if args.m is None:
        raise ParseError("--m is required for mul-map")
    E = _build_curve(args)
    phi = mul_by_m_map(E, args.m)
    return jsonio.isogeny_to_obj(phi), _pretty_isogeny(phi)


def _cmd_eval(args):
    phi = _resolve_map(args)
    if args.point is None:
        raise ParseError("--point is required for eval")
    P = _parse_point(phi.domain, args.point, "--point")
    Q = iso_eval(phi, P)
    obj = jsonio.point_to_obj(Q)
    return obj, f"phi({P!r}) = {Q!r}"


def _cmd_verify(args):
    sources = [bool(args.cert), bool(args.phi or args.dual), bool(args.batch)]
    if sum(sources) != 1:
        raise ParseError(
            "specify --cert FILE, or --phi FILE with --dual FILE, or --batch FILE")
    if args.batch:
        payload = _load_json(args.batch)
        if not isinstance(payload, list):
            raise ParseError("--batch file must hold a JSON array of certificates")
        results = []
        for i, obj in enumerate(payload):
            cert = jsonio.certificate_from_obj(obj)
            try:
                verified = verify_certificate(cert)
            except IsodualError:  # parsing is done: a failed entry, named below
                verified = False
            results.append({"index": i, "m": cert.m, "verified": verified})
        bad = [r["index"] for r in results if not r["verified"]]
        if bad:
            raise IsodualError(f"certificate check failed for entries {bad}")
        obj = {"results": results, "all_verified": True}
        return obj, "\n".join(
            f"certificate {r['index']}: verified (m = {r['m']})" for r in results)
    if args.cert:
        cert = jsonio.certificate_from_obj(_load_json(args.cert))
        if not verify_certificate(cert):
            raise IsodualError(
                "certificate check failed: not the certificate dual "
                "computes for its phi")
        obj = {"m": cert.m, "verified": True}
    else:
        if not (args.phi and args.dual):
            raise ParseError("--phi and --dual must be given together")
        phi = jsonio.isogeny_from_obj(_load_json(args.phi))
        dual = jsonio.isogeny_from_obj(_load_json(args.dual))
        if not verify_dual(phi, dual):
            raise IsodualError("dual identity failed")
        obj = {"m": phi.degree, "verified": True}
    return obj, f"verified: dual o phi == [{obj['m']}]"


# -- argument plumbing ----------------------------------------------------------


def _add_field_args(sub):
    sub.add_argument("--p", type=int, help="field characteristic (prime >= 5)")
    sub.add_argument("--k", type=int, default=1, help="extension degree (default 1)")
    sub.add_argument("--a", help="curve coefficient a (base-p digits)")
    sub.add_argument("--b", help="curve coefficient b (base-p digits)")


def _add_kernel_args(sub):
    sub.add_argument("--kernel-gen", metavar="X,Y",
                     help="kernel generator point")
    sub.add_argument("--kernel-poly", metavar="C0,C1,...",
                     help="kernel polynomial coefficients, little-endian")
    sub.add_argument("--kernel-points", nargs="+", metavar="X,Y",
                     help="explicit kernel point list")


def _add_map_args(sub):
    sub.add_argument("--map", metavar="FILE", help="isogeny JSON file")
    sub.add_argument("--m", type=int, help="multiplier for [m]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isodual",
        description="Velu isogenies and verified dual-isogeny certificates "
                    "over small finite fields")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true",
                        help="human-readable report instead of JSON")
    common.add_argument("--out", metavar="FILE", help="also write JSON to FILE")
    sub = parser.add_subparsers(dest="command", required=True)

    velu = sub.add_parser("velu", parents=[common],
                          help="isogeny with a prescribed kernel")
    _add_field_args(velu)
    _add_kernel_args(velu)
    velu.set_defaults(handler=_cmd_velu)

    dual = sub.add_parser("dual", parents=[common],
                          help="dual isogeny with certificate")
    _add_field_args(dual)
    _add_kernel_args(dual)
    dual.set_defaults(handler=_cmd_dual)

    dec = sub.add_parser("decompose", parents=[common],
                         help="separable/Frobenius decomposition")
    _add_field_args(dec)
    _add_kernel_args(dec)
    _add_map_args(dec)
    dec.set_defaults(handler=_cmd_decompose)

    mul = sub.add_parser("mul-map", parents=[common],
                         help="multiplication-by-m as rational maps")
    _add_field_args(mul)
    mul.add_argument("--m", type=int, help="multiplier")
    mul.set_defaults(handler=_cmd_mul_map)

    ver = sub.add_parser("verify", parents=[common],
                         help="check a certificate or the dual identity")
    ver.add_argument("--phi", metavar="FILE", help="isogeny JSON file")
    ver.add_argument("--dual", metavar="FILE", help="candidate dual JSON file")
    ver.add_argument("--cert", metavar="FILE",
                     help="certificate JSON file, valid iff dual recomputes "
                          "it")
    ver.add_argument("--batch", metavar="FILE",
                     help="JSON array of certificates to verify")
    ver.set_defaults(handler=_cmd_verify)

    ev = sub.add_parser("eval", parents=[common],
                        help="evaluate an isogeny at a point")
    _add_field_args(ev)
    _add_kernel_args(ev)
    _add_map_args(ev)
    ev.add_argument("--point", metavar="X,Y", help="point to evaluate at")
    ev.set_defaults(handler=_cmd_eval)
    return parser


def _emit_error(exc: IsodualError) -> None:
    obj = {"error": type(exc).__name__, "message": str(exc)}
    print(jsonio.dumps(obj), file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        obj, pretty = args.handler(args)
        text = jsonio.dumps(obj)
        if args.out:  # written first, so a failed write prints nothing
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                raise ParseError(f"cannot write {args.out}: {exc}") from exc
    except ParseError as exc:
        _emit_error(exc)
        return 2
    except IsodualError as exc:
        _emit_error(exc)
        return 1
    print(pretty if args.pretty else text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

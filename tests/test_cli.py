import contextlib
import io
import json
import subprocess
import sys
import time

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import isodual as iso
from isodual import jsonio
from isodual.cli import main
from isodual.ff import make_field


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_velu_fixture(capsys):
    code, out, err = run_cli(capsys, "velu", "--p", "5", "--a", "1", "--b", "0",
                             "--kernel-gen", "0,0")
    assert code == 0 and not err
    obj = json.loads(out)
    assert obj["degree"] == 2
    assert obj["r"]["den"] == [[0], [1]]  # den(r) = x


def test_velu_kernel_poly_matches_generator(capsys):
    code1, out1, _ = run_cli(capsys, "velu", "--p", "5", "--a", "1", "--b", "0",
                             "--kernel-gen", "0,0")
    code2, out2, _ = run_cli(capsys, "velu", "--p", "5", "--a", "1", "--b", "0",
                             "--kernel-poly", "0,1")
    assert code1 == code2 == 0
    assert out1 == out2  # same subgroup, byte-identical output


def test_velu_kernel_points(capsys):
    code, out, _ = run_cli(capsys, "velu", "--p", "5", "--a", "1", "--b", "0",
                           "--kernel-points", "0,0")
    assert code == 0
    assert json.loads(out)["degree"] == 2


def test_velu_kernel_poly_with_points_over_the_square_field(capsys):
    # x^3 + x + 3 has one root in F_7 and splits over F_49: the kernel is
    # E[2], whose points lie over F_49
    E = iso.Curve(make_field(7), 1, 3)
    big = iso.embed_curve(E, make_field(7, 2))
    two_torsion = [P for P in iso.enumerate_points(big)
                   if iso.scalar_mul(2, P).is_infinity]
    G = iso.subgroup_from_points(two_torsion, base_curve=E)
    code, out, err = run_cli(capsys, "velu", "--p", "7", "--a", "1", "--b", "3",
                             "--kernel-poly", "3,1,0,1")
    assert code == 0 and not err
    assert out == jsonio.dumps(jsonio.isogeny_to_obj(iso.velu_isogeny(E, G))) + "\n"


def test_velu_constant_kernel_poly_is_the_identity(capsys):
    code, out, err = run_cli(capsys, "velu", "--p", "5", "--a", "1", "--b", "0",
                             "--kernel-poly", "3")
    assert code == 0 and not err
    E = iso.Curve(make_field(5), 1, 0)
    assert out == jsonio.dumps(
        jsonio.isogeny_to_obj(iso.identity_isogeny(E))) + "\n"


@pytest.mark.parametrize("p, a, b, kernel_poly", [
    ("5", "1", "0", "0,0,1"), ("997", "1", "1", "995,0,1")],
    ids=["repeated-root", "no-point-within-the-guard"])
def test_velu_kernel_poly_without_kernel_points_exits_1(capsys, p, a, b,
                                                       kernel_poly):
    # x^2 has one root for two factors; x^2 - 2 splits over F_997^2, which
    # holds no point above its roots, and F_997^3 is past the scan guard
    code, out, err = run_cli(capsys, "velu", "--p", p, "--a", a, "--b", b,
                             "--kernel-poly", kernel_poly)
    assert code == 1 and not out
    assert json.loads(err)["error"] == "KernelNotRational"


def test_cli_determinism(capsys):
    args = ("dual", "--p", "5", "--a", "1", "--b", "0", "--kernel-gen", "0,0")
    outs = set()
    for _ in range(2):
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_dual_verify_roundtrip(tmp_path, capsys):
    cert_file = tmp_path / "cert.json"
    code, out, _ = run_cli(capsys, "dual", "--p", "5", "--a", "1", "--b", "0",
                           "--kernel-gen", "0,0", "--out", str(cert_file))
    assert code == 0
    obj = json.loads(cert_file.read_text())
    assert obj["verified"] is True and obj["m"] == 2
    # independent re-validation through the verify subcommand
    code, out, err = run_cli(capsys, "verify", "--cert", str(cert_file))
    assert code == 0
    assert json.loads(out) == {"m": 2, "verified": True}
    # and through separate phi/dual files
    phi_file = tmp_path / "phi.json"
    dual_file = tmp_path / "dual.json"
    phi_file.write_text(jsonio.dumps(obj["phi"]))
    dual_file.write_text(jsonio.dumps(obj["dual"]))
    code, out, _ = run_cli(capsys, "verify", "--phi", str(phi_file),
                           "--dual", str(dual_file))
    assert code == 0


def test_verify_refuses_a_translation(tmp_path, capsys):
    # x -> 1/x, y -> -y/x^2 is translation by (0, 0) on y^2 = x^3 + x over
    # F_13: it satisfies the curve equation but sends O to (0, 0)
    E = {"p": 13, "k": 1, "a": [1], "b": [0]}
    T = {"domain": E, "codomain": E, "degree": 1,
         "r": {"num": [[1]], "den": [[0], [1]]},
         "s": {"num": [[12]], "den": [[0], [0], [1]]}}
    t_file = tmp_path / "t.json"
    t_file.write_text(json.dumps(T))
    code, out, err = run_cli(capsys, "verify", "--phi", str(t_file),
                             "--dual", str(t_file))
    assert code == 2 and not out
    assert json.loads(err)["error"] == "ParseError"


def test_verify_mismatch_exits_1(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "dual", "--p", "5", "--a", "1", "--b", "0",
                           "--kernel-gen", "0,0")
    obj = json.loads(out)
    phi_file = tmp_path / "phi.json"
    bad_file = tmp_path / "bad.json"
    phi_file.write_text(jsonio.dumps(obj["phi"]))
    # a structurally valid isogeny that is not the dual: [2] on the codomain
    E1 = jsonio.curve_from_obj(obj["phi"]["codomain"])
    wrong = iso.iso_compose(iso.mul_by_m_map(E1, 2), jsonio.isogeny_from_obj(obj["dual"]))
    bad_file.write_text(jsonio.dumps(jsonio.isogeny_to_obj(wrong)))
    code, out, err = run_cli(capsys, "verify", "--phi", str(phi_file),
                             "--dual", str(bad_file))
    assert code == 1
    payload = json.loads(err)
    assert "dual identity failed" in payload["message"]


def test_batch_verify(tmp_path, capsys):
    certs = []
    for kernel in ("0,0", "2,0"):
        code, out, _ = run_cli(capsys, "dual", "--p", "5", "--a", "1", "--b", "0",
                               "--kernel-gen", kernel)
        assert code == 0
        certs.append(json.loads(out))
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps(certs))
    code, out, _ = run_cli(capsys, "verify", "--batch", str(batch))
    assert code == 0
    assert json.loads(out)["all_verified"] is True
    # tamper: swap one dual for the other phi's dual
    certs[0]["dual"] = certs[1]["dual"]
    batch.write_text(json.dumps(certs))
    code, out, err = run_cli(capsys, "verify", "--batch", str(batch))
    assert code == 1


def test_decompose_and_mul_map(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--p", "5", "--a", "0", "--b", "1",
                           "--m", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 2 and obj["original_degree"] == 25  # supersingular [5]
    code, out, _ = run_cli(capsys, "mul-map", "--p", "5", "--a", "1", "--b", "0",
                           "--m", "2")
    assert code == 0
    assert json.loads(out)["degree"] == 4


def test_eval_command(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "eval", "--p", "5", "--a", "1", "--b", "0",
                           "--m", "2", "--point", "2,0")
    assert code == 0
    assert json.loads(out) == "infinity"  # (2,0) is 2-torsion
    code, out, _ = run_cli(capsys, "eval", "--p", "5", "--a", "1", "--b", "0",
                           "--kernel-gen", "0,0", "--point", "2,0")
    assert code == 0
    assert json.loads(out) == {"x": [0], "y": [0]}


def test_usage_errors_exit_2(capsys):
    code, out, err = run_cli(capsys, "velu", "--p", "4", "--a", "1", "--b", "0",
                             "--kernel-gen", "0,0")
    assert code == 2
    assert "prime" in json.loads(err)["message"]
    code, _, err = run_cli(capsys, "velu", "--p", "5", "--a", "1", "--b", "0")
    assert code == 2  # no kernel specification
    code, _, err = run_cli(capsys, "velu", "--p", "5", "--a", "1", "--b", "0",
                           "--kernel-gen", "0,0", "--kernel-poly", "0,1")
    assert code == 2  # two kernel specifications
    code, _, err = run_cli(capsys, "eval", "--p", "5", "--a", "1", "--b", "0",
                           "--m", "2")
    assert code == 2  # missing --point


def test_math_errors_exit_1(capsys):
    code, _, err = run_cli(capsys, "velu", "--p", "5", "--a", "0", "--b", "0",
                           "--kernel-poly", "0,1")
    assert code == 1
    assert json.loads(err)["error"] == "SingularCurve"


def kernel_above_the_cap_args():
    """velu/dual arguments for a generator of order > 50 over F_13^2."""
    ctx = make_field(13, 2)
    for code_ab in range(40):
        try:
            E = iso.Curve(ctx, ctx.element([code_ab % 13, code_ab // 13]), 1)
        except iso.errors.SingularCurve:
            continue
        P = next((Q for Q in iso.enumerate_points(E)
                  if iso.point_order(Q) > 50), None)
        if P is not None:
            gen = ",".join(str(d) for d in P.x.digits) + ";" + \
                ",".join(str(d) for d in P.y.digits)
            a_txt = ",".join(str(d) for d in E.a.digits)
            return ("--p", "13", "--k", "2", "--a", a_txt, "--b", "1",
                    "--kernel-gen", gen)
    raise AssertionError("no point of order > 50 found")


def test_desk_scale_guards(capsys):
    code, _, err = run_cli(capsys, "velu", "--p", "1000003", "--a", "1", "--b", "3",
                           "--kernel-poly", "0,1")
    assert code == 2
    assert "desk-scale" in json.loads(err)["message"]
    # a kernel of order > 50
    code, _, err = run_cli(capsys, "velu", *kernel_above_the_cap_args())
    assert code == 2
    assert "desk-scale" in json.loads(err)["message"]


def test_kernel_order_guard_refuses_before_building_the_subgroup(capsys):
    # each form of a kernel of order > 50 is refused at once: by at most 50
    # multiples of the generator, by the number of points, and by the
    # degree of the kernel polynomial
    E = iso.Curve(make_field(1009), 1, 1)
    points = iso.enumerate_points(E)[1:]
    assert len(points) > 500
    kp = iso.Poly.one(E.ctx)
    for x in sorted({P.x.raw for P in points}):
        kp = kp * iso.Poly(E.ctx, (E.ctx.rneg(x), 1))
    curve = ("--p", "1009", "--a", "1", "--b", "1")
    for args in (("--p", "31", "--k", "3", "--a", "2", "--b", "1",
                  "--kernel-gen", "22,18,15;16,30,16"),  # order 5004
                 curve + ("--kernel-points",)
                 + tuple(f"{P.x.raw},{P.y.raw}" for P in points),
                 curve + ("--kernel-poly",
                          ",".join(str(c) for c in kp.coeffs))):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "velu", *args)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and not out
        obj = json.loads(err)
        assert obj["error"] == "ParseError" and "desk-scale" in obj["message"]


@pytest.mark.parametrize("field", [
    {"k": 0}, {"k": -1}, {"k": True}, {"p": 4}, {"p": 1000003},
    {"p": 5, "k": 9}, {"p": 10 ** 18 + 3}, {"k": 400}],
    ids=["k0", "k-1", "ktrue", "p4", "p1000003", "p5k9", "p1e18+3", "k400"])
def test_certificate_field_refused_at_the_boundary(tmp_path, capsys, field):
    code, out, _ = run_cli(capsys, "dual", "--p", "5", "--a", "1", "--b", "0",
                           "--kernel-gen", "0,0")
    assert code == 0
    cert = json.loads(out)
    cert["phi"]["domain"].update(field)
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(cert))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--cert", str(cert_file))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and not out
    assert json.loads(err)["error"] == "ParseError"


def test_extension_degree_zero_exits_2(capsys):
    code, out, err = run_cli(capsys, "velu", "--p", "5", "--k", "0", "--a", "1",
                             "--b", "0", "--kernel-gen", "0,0")
    assert code == 2 and not out
    assert json.loads(err)["error"] == "ParseError"


def test_pretty_dual_trace(capsys):
    code, out, _ = run_cli(capsys, "dual", "--p", "5", "--a", "1", "--b", "0",
                           "--kernel-gen", "0,0", "--pretty")
    assert code == 0
    assert "pipeline trace" in out
    for token in ("n = 0", "e = 0", "c(phi_sep)", "u_phi", "u_m", "verified"):
        assert token in out


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "isodual.cli", "mul-map", "--p", "7",
         "--a", "1", "--b", "1", "--m", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["degree"] == 9


def test_decompose_of_a_separable_map_at_the_largest_prime():
    # f^((p-1)/2) has degree 1.5 million here; a separable map needs none
    proc = subprocess.run(
        [sys.executable, "-m", "isodual.cli", "decompose", "--p", "999983",
         "--a", "999982", "--b", "0", "--kernel-gen", "0,0"],
        capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 0


def test_dual_accepts_kernel_orders_up_to_the_cap(tmp_path, capsys):
    # a rational point of order 13..50 over F_13 or F_17
    for p in (13, 17):
        E = P = None
        F = make_field(p)
        for a in range(p):
            for b in range(1, p):
                try:
                    cand = iso.Curve(F, a, b)
                except iso.errors.SingularCurve:
                    continue
                P = next((Q for Q in iso.enumerate_points(cand)
                          if 12 < iso.point_order(Q) <= 50), None)
                if P is not None:
                    E = cand
                    break
            if E is not None:
                break
        if E is not None:
            break
    assert E is not None
    cert_file = tmp_path / "cert.json"
    code, out, _ = run_cli(capsys, "dual", "--p", str(p), "--a",
                           str(E.a.digits[0]), "--b", str(E.b.digits[0]),
                           "--kernel-gen", f"{P.x.digits[0]},{P.y.digits[0]}",
                           "--out", str(cert_file))
    assert code == 0 and json.loads(out)["m"] == iso.point_order(P)
    code, out, _ = run_cli(capsys, "verify", "--cert", str(cert_file))
    assert code == 0 and json.loads(out)["verified"] is True
    code, out, err = run_cli(capsys, "dual", *kernel_above_the_cap_args())
    assert code == 2 and not out
    assert json.loads(err)["error"] == "ParseError"


@pytest.fixture(scope="module")
def cert_obj():
    E = iso.Curve(make_field(5), 1, 0)
    phi = iso.velu_isogeny(E, iso.subgroup_from_generator(E.point(0, 0)))
    return jsonio.certificate_to_obj(iso.dual_isogeny(phi))


@pytest.mark.parametrize("path, value", [
    (("m",), "abc"), (("m",), True), (("n",), None), (("e",), 1.0),
    (("verified",), 1), (("verified",), "true"), (("c_phi", 0), True),
    (("phi", "codomain", "a", 0), False), (("phi", "degree"), True)],
    ids=["m-string", "m-true", "n-null", "e-float", "verified-1",
         "verified-string", "digit-true", "curve-digit-false", "degree-true"])
def test_certificate_values_must_have_json_types(tmp_path, capsys, cert_obj,
                                                 path, value):
    cert = json.loads(json.dumps(cert_obj))
    target = cert
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(cert))
    code, out, err = run_cli(capsys, "verify", "--cert", str(cert_file))
    assert code == 2 and not out
    assert "Traceback" not in err
    assert json.loads(err)["error"] == "ParseError"  # one JSON object


def _tampered(cert, claim):
    """cert with one claim changed to a value that still parses; lambda
    becomes mul_map, since the fixture's lambda is phi itself."""
    cert = json.loads(json.dumps(cert))
    p = cert["phi"]["domain"]["p"]
    cert[claim] = {"m": -1, "n": cert["n"] + 1, "e": cert["e"] + 1,
                   "lambda": cert["mul_map"], "frobenius_dual": cert["phi"],
                   "mul_map": cert["phi"], "verified": False,
                   **{u: [(cert[u][0] + 1) % p]
                      for u in ("c_phi", "u_phi", "u_m")}}[claim]
    return cert


CLAIMS = ["m", "mul_map", "verified", "n", "e", "c_phi", "u_phi", "u_m",
          "lambda", "frobenius_dual"]


@pytest.mark.parametrize("claim", CLAIMS)
def test_verify_cert_checks_m_and_mul_map(tmp_path, capsys, cert_obj, claim):
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(_tampered(cert_obj, claim)))
    code, out, err = run_cli(capsys, "verify", "--cert", str(cert_file))
    assert code == 1 and not out
    assert json.loads(err) == {  # one JSON object
        "error": "IsodualError",
        "message": "certificate check failed: not the certificate dual "
                   "computes for its phi"}


def test_verify_cert_checks_every_claim_of_an_order_6_certificate(tmp_path,
                                                                  capsys):
    code, out, _ = run_cli(capsys, "dual", "--p", "7", "--a", "1", "--b", "3",
                           "--kernel-gen", "4,1")
    assert code == 0
    cert = json.loads(out)
    assert cert["m"] == 6
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(out)
    assert run_cli(capsys, "verify", "--cert", str(cert_file))[0] == 0
    for claim in CLAIMS:
        cert_file.write_text(json.dumps(_tampered(cert, claim)))
        code, out, err = run_cli(capsys, "verify", "--cert", str(cert_file))
        assert code == 1 and not out, claim
        assert json.loads(err)["error"] == "IsodualError"


def _paths(obj, path=()):
    """Every path below obj, to a dict value or a list element."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


JSON_VALUES = [None, False, True, 0, -1, 2 ** 70, 1.5, "", "0", [], [0], {},
               {"num": []}]


@seed(2104)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_verify_cert_on_mutated_json_exits_with_one_error_object(
        tmp_path_factory, cert_obj, data):
    # one mutation: a value of another JSON type or an in-range digit at a
    # random path, or a dropped key or list element
    cert = json.loads(json.dumps(cert_obj))
    *head, key = data.draw(st.sampled_from(list(_paths(cert))))
    parent = cert
    for k in head:
        parent = parent[k]
    kind = data.draw(st.sampled_from(["retype", "digit", "drop"]))
    if kind == "drop":
        del parent[key]
    elif kind == "digit":
        p = cert_obj["phi"]["domain"]["p"]
        parent[key] = data.draw(st.integers(0, p - 1))
    else:
        parent[key] = data.draw(st.sampled_from(
            [v for v in JSON_VALUES if type(v) is not type(parent[key])]))
    cert_file = tmp_path_factory.getbasetemp() / "mutated-cert.json"
    cert_file.write_text(json.dumps(cert))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--cert", str(cert_file)])
    assert code in (0, 1, 2)
    if code:
        assert not out.getvalue()
        assert set(json.loads(err.getvalue())) == {"error", "message"}
    else:
        parsed = jsonio.certificate_from_obj(cert)
        assert parsed == iso.dual_isogeny(parsed.phi)


def test_verify_batch_names_the_entry_with_a_wrong_m(tmp_path, capsys,
                                                     cert_obj):
    wrong = json.loads(json.dumps(cert_obj))
    wrong["m"] = 99
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps([cert_obj, wrong]))
    code, out, err = run_cli(capsys, "verify", "--batch", str(batch))
    assert code == 1 and not out
    assert "[1]" in json.loads(err)["message"]


def test_verify_batch_counts_an_entry_that_raises_as_failed(tmp_path, capsys,
                                                           cert_obj):
    code, out, _ = run_cli(capsys, "dual", "--p", "7", "--a", "1", "--b", "3",
                           "--kernel-poly", "3,1,0,1")
    assert code == 0
    unchained = json.loads(json.dumps(cert_obj))
    unchained["dual"] = json.loads(out)["dual"]  # a dual over F_7
    unverified = json.loads(json.dumps(cert_obj))
    unverified["verified"] = False
    code, out, _ = run_cli(capsys, "velu", "--p", "5", "--k", "2", "--a", "1",
                           "--b", "0", "--kernel-gen", "0;0")
    assert code == 0
    refused = json.loads(json.dumps(cert_obj))
    refused["phi"] = json.loads(out)  # dual refuses a curve over F_25
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps([cert_obj, unverified, cert_obj, unchained,
                                 refused]))
    code, out, err = run_cli(capsys, "verify", "--batch", str(batch))
    assert code == 1 and not out
    assert json.loads(err) == {
        "error": "IsodualError",
        "message": "certificate check failed for entries [1, 3, 4]"}
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(refused))
    code, out, err = run_cli(capsys, "verify", "--cert", str(cert_file))
    assert code == 1 and not out
    assert json.loads(err)["error"] == "UnsupportedBaseField"


def test_dual_out_to_a_missing_directory_exits_2_with_nothing_on_stdout(
        tmp_path, capsys):
    code, out, err = run_cli(capsys, "dual", "--p", "5", "--a", "1", "--b", "0",
                             "--kernel-gen", "0,0",
                             "--out", str(tmp_path / "missing" / "cert.json"))
    assert code == 2 and not out
    assert json.loads(err)["error"] == "ParseError"  # one JSON object


@pytest.mark.parametrize("payload", [b"\xff\xfe{}", b"[" * 100_000],
                         ids=["utf16-bom", "deep-nesting"])
def test_unreadable_certificate_bytes_exit_2(tmp_path, capsys, payload):
    cert_file = tmp_path / "cert.json"
    cert_file.write_bytes(payload)
    code, out, err = run_cli(capsys, "verify", "--cert", str(cert_file))
    assert code == 2 and not out
    assert json.loads(err)["error"] == "ParseError"  # one JSON object


def test_a_constant_map_is_refused_at_the_boundary(tmp_path, capsys,
                                                   cert_obj):
    # r = 0, s = 0 satisfies the curve equation, as 0 is a root of
    # x^3 + x; separable_decompose would descend it forever
    const = dict(cert_obj["phi"], degree=0, r={"num": [], "den": [[1]]},
                 s={"num": [], "den": [[1]]})
    map_file = tmp_path / "map.json"
    map_file.write_text(json.dumps(const))
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(json.dumps(dict(cert_obj, phi=const)))
    for argv in (("decompose", "--map", str(map_file)),
                 ("verify", "--cert", str(cert_file))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out
        assert json.loads(err)["error"] == "ParseError"


def test_error_message_is_the_same_in_every_process():
    # the offending pair is found by walking a set of points, whose order
    # must not depend on object addresses
    argv = [sys.executable, "-m", "isodual.cli", "dual", "--p", "7", "--a", "1",
            "--b", "1", "--kernel-poly", "3,1"]
    errs = set()
    for _ in range(6):
        proc = subprocess.run(argv, capture_output=True, text=True)
        assert proc.returncode == 1
        errs.add(proc.stderr)
    assert len(errs) == 1
    assert json.loads(errs.pop())["error"] == "NotClosed"


def test_not_closed_names_the_first_pair_in_point_order():
    # the points are O, P = ([3, 2], [3, 1]) and -P, and 2P is none of
    # them; walking them in sort_key order, P + P is the first sum to escape
    argv = [sys.executable, "-m", "isodual.cli", "velu", "--p", "5", "--k", "2",
            "--a", "0,1", "--b", "1", "--kernel-points", "3,2;3,1", "3,2;2,4"]
    for _ in range(2):
        proc = subprocess.run(argv, capture_output=True, text=True)
        assert proc.returncode == 1
        assert json.loads(proc.stderr) == {
            "error": "NotClosed",
            "message": "([3, 2], [3, 1]) + ([3, 2], [3, 1]) escapes the point list"}


def test_hashes_are_the_same_in_every_process():
    code = ("import isodual as iso; E = iso.Curve(iso.make_field(7), 1, 1); "
            "print(hash(iso.make_field(7)), hash(E.infinity()))")
    outs = {subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, check=True).stdout for _ in range(3)}
    assert len(outs) == 1

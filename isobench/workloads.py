"""The four workloads: seeded inputs, one operation per call, and checks.

Each workload builds its inputs one pass at a time from the seed and the
pass index, so the same seed gives the same inputs and no pass repeats the
inputs of the one before (a cache that outlives a pass cannot hit on
inputs a user would not repeat).  An operation is a closure over generated
inputs; the library sees nothing else.  `Op.check` runs outside the timed
region, against an oracle the timed code does not use, and returns the
operation's canonical JSON text, which feeds the output digest.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import isodual as iso
from isodual import jsonio


class CheckFailed(Exception):
    """An operation's output disagreed with its oracle."""


def require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str]


# -- independent oracles (plain integers, no library code) ---------------------


def count_points_fp(p: int, a: int, b: int) -> int:
    """#E(F_p) by Euler's criterion."""
    total = 1
    for x in range(p):
        f = (x * x * x + a * x + b) % p
        total += 1 if f == 0 else (2 if pow(f, (p - 1) // 2, p) == 1 else 0)
    return total


def count_points_ext(p: int, a: int, b: int, k: int) -> int:
    """#E(F_{p^k}) from #E(F_p): s_j = t s_{j-1} - p s_{j-2}, s_0 = 2."""
    t = p + 1 - count_points_fp(p, a, b)
    s_prev, s = 2, t
    for _ in range(k - 1):
        s_prev, s = s, t * s - p * s_prev
    return p ** k + 1 - s


# -- curve and subgroup generation ---------------------------------------------


def nonsingular_ab(p: int, count: int) -> list[tuple[int, int]]:
    """The first `count` nonsingular (a, b) over F_p in the order the
    acceptance suite uses: code = a + p*b."""
    out = []
    for code in range(p * p):
        a, b = code % p, code // p
        if (4 * a ** 3 + 27 * b ** 2) % p:
            out.append((a, b))
            if len(out) == count:
                break
    return out


def cyclic_subgroups(E, orders, points):
    seen = {}
    for P in points:
        if iso.point_order(P) in orders:
            G = iso.subgroup_from_generator(P)
            seen.setdefault(G.point_set(), G)
    return list(seen.values())


def random_curve_with_point(rng: random.Random, p: int, m: int,
                            count: int | None = None):
    """A seeded curve over F_p with a rational point of order exactly m and,
    if given, exactly `count` rational points."""
    F = iso.make_field(p)
    while True:
        a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a ** 3 + 27 * b ** 2) % p == 0:
            continue
        n = count_points_fp(p, a, b)
        if n % m or (count is not None and n != count):
            continue
        E = iso.Curve(F, a, b)
        pts = iso.enumerate_points(E)
        rng.shuffle(pts)
        for P in pts:
            if not P.is_infinity and iso.point_order(P) == m:
                return E, P


def random_curve_split_2torsion(rng: random.Random, p: int):
    """A seeded curve over F_p whose cubic has exactly one root in F_p, so
    the kernel E[2] (kernel polynomial: the cubic) splits over F_{p^2} but
    not over F_p."""
    F = iso.make_field(p)
    while True:
        a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a ** 3 + 27 * b ** 2) % p == 0:
            continue
        if sum((x ** 3 + a * x + b) % p == 0 for x in range(p)) == 1:
            return iso.Curve(F, a, b)


def dual_check(phi, cert, rng: random.Random, ext_points: Callable, samples=4):
    """dual o phi == [m] at sampled points of E(F_{p^2}), by evaluating the
    two maps in turn against the group law (scalar_mul)."""
    m = phi.degree
    require(cert.verified is True, "certificate not verified")
    require(cert.m == m and cert.phi == phi, "certificate is for another map")
    dual = cert.dual
    require(dual.domain == phi.codomain and dual.codomain == phi.domain,
            "dual does not chain with phi")
    require(dual.degree == m, "dual has the wrong degree")
    pts = ext_points(phi.domain)
    for P in rng.sample(pts, min(samples, len(pts))):
        image = iso.iso_eval(dual, iso.iso_eval(phi, P))
        require(image == iso.scalar_mul(m, P), f"dual o phi != [{m}] at {P!r}")


class _ExtPoints:
    """E(F_{p^2}) per curve, enumerated once per pass for the checks."""

    def __init__(self):
        self.cache = {}

    def __call__(self, E):
        if E not in self.cache:
            F2 = iso.make_field(E.ctx.p, 2 * E.ctx.k)
            self.cache[E] = iso.enumerate_points(iso.embed_curve(E, F2))
        return self.cache[E]


# -- corpus ----------------------------------------------------------------------

CORPUS_PRIMES = (5, 7, 11, 13)
CORPUS_ORDERS = (2, 3, 4, 5, 7)
CORPUS_CURVES = 20


def build_corpus(seed: int, index: int) -> list[Op]:
    """Every cyclic subgroup of order 2, 3, 4, 5 or 7 on 20 curves per
    prime, plus Frobenius and a degree-2 Velu map after Frobenius.

    The curves are the acceptance suite's first 20 nonsingular curves, each
    scaled by the isomorphism (a, b) -> (u^4 a, u^6 b) for one seeded u per
    prime; seed 0 pass 0 takes u = 1 and is exactly the acceptance set.
    Scaling keeps every group structure, so each pass does the same work
    on different curves.
    """
    rng = random.Random(f"corpus/{seed}/{index}")
    ext_points = _ExtPoints()
    ops = []
    for p in CORPUS_PRIMES:
        F = iso.make_field(p)
        iso.make_field(p, 2)
        u = 1 if seed == 0 and index == 0 else rng.randrange(1, p)
        curves = [iso.Curve(F, a * u ** 4 % p, b * u ** 6 % p)
                  for a, b in nonsingular_ab(p, CORPUS_CURVES)]
        maps = []
        for E in curves:
            for G in cyclic_subgroups(E, CORPUS_ORDERS, iso.enumerate_points(E)):
                maps.append(iso.velu_isogeny(E, G))
        if p <= 11:
            for E in curves[:2]:
                pi = iso.frobenius_isogeny(E, 1)
                maps.append(pi)
                if p == 5:
                    for G in cyclic_subgroups(E, (2,), iso.enumerate_points(E)):
                        maps.append(iso.iso_compose(iso.velu_isogeny(E, G), pi))
        for phi in maps:
            ops.append(_corpus_op(phi, random.Random(rng.random()), ext_points))
    return ops


def _corpus_op(phi, rng, ext_points) -> Op:
    def run():
        cert = iso.dual_isogeny(phi)
        return cert, jsonio.certificate_to_obj(cert)

    def check(out):
        cert, obj = out
        dual_check(phi, cert, rng, ext_points)
        return jsonio.dumps(obj)

    return Op(f"corpus p={phi.domain.ctx.p} m={phi.degree}", run, check)


# -- highdeg ---------------------------------------------------------------------

# (p, kernel order, #E(F_p)): one shape per prime, orders 8 to
# MUL_MAP_CAP = 12.  Fixing #E(F_p) fixes #E(F_{p^2}), the size of the
# pointwise check, so every curve drawn for a shape costs about the same;
# apart from the one order-12 shape the shapes cost about the same, so the
# median and tail do not jump between far-apart clusters when a run holds
# one pass more or less.
HIGHDEG_SHAPES = ((17, 12, 12), (17, 11, 22), (23, 9, 27), (29, 10, 40),
                  (31, 9, 36), (37, 10, 50), (41, 8, 48))


def build_highdeg(seed: int, index: int) -> list[Op]:
    """One dual per shape; the seed picks a curve with the shape's point
    count and a point of the shape's order, and the kernel it generates."""
    rng = random.Random(f"highdeg/{seed}/{index}")
    ext_points = _ExtPoints()
    ops = []
    for p, m, count in HIGHDEG_SHAPES:
        iso.make_field(p, 2)
        E, P = random_curve_with_point(rng, p, m, count)
        phi = iso.velu_isogeny(E, iso.subgroup_from_generator(P))
        ops.append(_highdeg_op(phi, random.Random(rng.random()), ext_points))
    return ops


def _highdeg_op(phi, rng, ext_points) -> Op:
    def check(cert):
        dual_check(phi, cert, rng, ext_points)
        return jsonio.dumps(jsonio.certificate_to_obj(cert))

    return Op(f"highdeg p={phi.domain.ctx.p} m={phi.degree}",
              lambda: iso.dual_isogeny(phi), check)


# -- scan ------------------------------------------------------------------------

# (p, k, kernel order, calls); q = p^k runs from 1.5e4 to 9.2e5.  The
# slowest call, a root scan at q = 9.2e5, comes four times a pass, so with
# three passes or more the tail percentile falls inside its cluster rather
# than between two.
SCAN_SHAPES = (
    (11, 4, 3, ("enumerate", "eval_batch", "roots", "kernel")),
    (13, 4, 5, ("enumerate", "eval_batch", "roots", "kernel")),
    (7, 6, 4, ("roots", "kernel")),
    (11, 5, 3, ("roots", "kernel")),
    (31, 4, 2, ("roots", "roots", "roots", "roots", "kernel")),
)
SCAN_ROOTS_DEGREE = 3
SCAN_PLANTED_ROOTS = 2
SCAN_EVAL_POINTS = 1500


def build_scan(seed: int, index: int) -> list[Op]:
    """Field-wide scans over F_{p^k}: point enumeration, root scans of
    polynomials with planted roots, kernel recovery and batch evaluation
    of a seeded Velu map."""
    rng = random.Random(f"scan/{seed}/{index}")
    ops = []
    for p, k, m, calls in SCAN_SHAPES:
        K = iso.make_field(p, k)
        E, P = random_curve_with_point(rng, p, m)
        G = iso.subgroup_from_generator(P)
        phi = iso.velu_isogeny(E, G)
        big = iso.embed_curve(E, K)
        shared = {}
        for call in calls:
            sub = random.Random(rng.random())
            if call == "enumerate":
                ops.append(_scan_enumerate(E, big, sub, shared))
            elif call == "eval_batch":
                ops.append(_scan_eval_batch(E, G, phi, sub, shared))
            elif call == "roots":
                ops.append(_scan_roots(K, sub))
            else:
                ops.append(_scan_kernel(E, P, phi, big, K))
    return ops


def _points_obj(points) -> list:
    return [jsonio.point_to_obj(Q) for Q in points]


def _scan_enumerate(E, big, rng, shared) -> Op:
    K = big.ctx
    expected = count_points_ext(K.p, E.a.code, E.b.code, K.k)

    def check(pts):
        require(len(pts) == expected, f"{len(pts)} points, expected {expected}")
        require(pts[0].is_infinity, "O is not first")
        keys = [(Q.x.code, Q.y.code) for Q in pts[1:]]
        require(keys == sorted(set(keys)), "points not distinct and sorted")
        for Q in rng.sample(pts[1:], 64):
            require(Q.curve == big and big.contains(Q.x, Q.y),
                    f"{Q!r} is not on the curve")
        shared["points"] = rng.sample(pts, min(SCAN_EVAL_POINTS, len(pts)))
        return jsonio.dumps(_points_obj(pts))

    return Op(f"scan enumerate q={K.order}", lambda: iso.enumerate_points(big),
              check)


def _scan_eval_batch(E, G, phi, rng, shared) -> Op:
    def run():
        return iso.iso_eval_batch(phi, shared["points"])

    def check(images):
        pts = shared["points"]
        require(len(images) == len(pts), "wrong number of images")
        for i in rng.sample(range(len(pts)), 8):
            require(images[i] == iso.velu_pointwise(E, G, pts[i]),
                    f"image of {pts[i]!r} disagrees with pointwise Velu")
        return jsonio.dumps(_points_obj(images))

    return Op("scan eval_batch", run, check)


def _scan_roots(K, rng) -> Op:
    planted = sorted({rng.randrange(K.order) for _ in range(SCAN_PLANTED_ROOTS)})
    f = iso.Poly.one(K)
    for code in planted:
        f = f * iso.Poly(K, (K.rneg(K.raw_from_code(code)), K.one_raw))
    rest = [K.raw_from_code(rng.randrange(K.order))
            for _ in range(SCAN_ROOTS_DEGREE - len(planted))]
    f = f * iso.Poly(K, rest + [K.one_raw])

    def check(roots):
        codes = [r.code for r in roots]
        require(codes == sorted(set(codes)), "roots not distinct and sorted")
        require(len(codes) <= f.degree, "more roots than the degree")
        require(set(planted) <= set(codes), "a planted root was missed")
        for r in roots:
            require(K.raw_is_zero(f.eval_raw(r.raw)), f"{r!r} is not a root")
        return jsonio.dumps([jsonio.element_to_obj(r) for r in roots])

    return Op(f"scan roots q={K.order}", lambda: iso.roots_bruteforce(f), check)


def _scan_kernel(E, P, phi, big, K) -> Op:
    gen = iso.embed_point(P, big)

    def check(G):
        pts = list(G.points)
        require(len(pts) == phi.degree, f"kernel has {len(pts)} points")
        require(gen in pts, "the generator is missing from the kernel")
        for Q in pts:
            require(Q.curve == big, "kernel point on the wrong curve")
            require(Q.is_infinity or big.contains(Q.x, Q.y),
                    f"{Q!r} is not on the curve")
            require(iso.iso_eval(phi, Q).is_infinity, f"phi({Q!r}) != O")
        return jsonio.dumps(_points_obj(pts))

    return Op(f"scan kernel_of q={K.order}", lambda: iso.kernel_of(phi, K),
              check)


# -- cli -------------------------------------------------------------------------

# (p, how the kernel is given, kernel order); "poly-2torsion" is E[2]
CLI_SHAPES = ((5, "gen", 2), (7, "points", 3), (11, "poly", 2),
              (13, "gen", 4), (11, "points", 5), (7, "poly-2torsion", 4))

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")


def _digits(e) -> str:
    return ",".join(str(d) for d in e.digits)


def build_cli(seed: int, index: int, trace: bool, tmpdir: str) -> list[Op]:
    """`isodual dual ... --out F` then `isodual verify --cert F`, each a cold
    child process; the seed picks the curves and kernels."""
    rng = random.Random(f"cli/{seed}/{index}")
    ops = []
    for i, (p, how, m) in enumerate(CLI_SHAPES):
        if how == "poly-2torsion":
            E = random_curve_split_2torsion(rng, p)
            kernel_poly = E.f_poly()
        else:
            E, P = random_curve_with_point(rng, p, m)
            G = iso.subgroup_from_generator(P)
            kernel_poly = G.kernel_poly
        args = ["--p", str(p), "--a", _digits(E.a), "--b", _digits(E.b)]
        if how == "gen":
            args += ["--kernel-gen", f"{_digits(P.x)},{_digits(P.y)}"]
        elif how == "points":
            args += ["--kernel-points"] + [f"{_digits(Q.x)},{_digits(Q.y)}"
                                           for Q in G.points
                                           if not Q.is_infinity]
        else:
            args += ["--kernel-poly", ",".join(_digits(c)
                                               for c in kernel_poly.elements())]
        stem = os.path.join(tmpdir, f"op{index}-{i}")
        ops.append(_cli_op(E, m, args, stem, trace))
    return ops


@dataclass
class CliResult:
    dual: subprocess.CompletedProcess
    verify: subprocess.CompletedProcess
    reports: list  # what each child wrapper wrote about itself


def _run_child(argv, report_path, trace):
    cmd = [sys.executable, CHILD, report_path, "1" if trace else "0"] + argv
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    os.remove(report_path)
    return proc, report


def _cli_op(E, m, args, stem, trace) -> Op:
    cert_path = stem + ".cert.json"

    def run():
        dual, r1 = _run_child(["dual"] + args + ["--out", cert_path],
                              stem + ".dual.report", trace)
        verify, r2 = _run_child(["verify", "--cert", cert_path],
                                stem + ".verify.report", trace)
        return CliResult(dual, verify, [r1, r2])

    def check(out):
        dual, verify = out.dual, out.verify
        require(dual.returncode == 0,
                f"dual exited {dual.returncode}: {dual.stderr.strip()}")
        with open(cert_path, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(cert_path)
        require(text == dual.stdout, "--out file differs from stdout")
        obj = json.loads(text)
        require(obj["m"] == m and obj["verified"] is True,
                "certificate has the wrong degree or is unverified")
        require(obj["phi"]["domain"] == jsonio.curve_to_obj(E),
                "certificate is for another curve")
        require(verify.returncode == 0,
                f"verify exited {verify.returncode}: {verify.stderr.strip()}")
        require(json.loads(verify.stdout) == {"m": m, "verified": True},
                f"verify printed {verify.stdout.strip()!r}")
        return text + verify.stdout

    return Op(f"cli dual+verify p={E.ctx.p} m={m}", run, check)

"""Per-layer probes: one primitive per layer, timed alone on seeded inputs.

Each probe reports the median over `REPS` repetitions of a loop (three
for the whole-field Horner scans), so one descheduling does not move it.  The Horner shapes are the five the old
backend comparison timed: (p, k, polynomial degree) over the whole field.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter_ns

import numpy as np

import isodual as iso
from isodual import accel

REPS = 5
FIELD_SHAPES = ((13, 1), (13, 2), (31, 4), (5, 8), (11, 5))
HORNER_SHAPES = ((13, 2, 3), (13, 4, 12), (11, 5, 12), (5, 6, 24),
                 (999983, 1, 3))

# every probe metric with its unit
UNITS = {f"ff.{op}.ns.p{p}k{k}": "ns"
         for p, k in FIELD_SHAPES for op in ("rmul", "rinv")}
UNITS.update({f"probe.polyrat.{name}.us": "us"
              for name in ("Poly.mul", "Poly.divmod", "poly_gcd",
                           "RatFunc.compose")})
UNITS["probe.curve.point_add.us"] = "us"
UNITS.update({f"probe.accel.p{p}k{k}d{deg}.ms": "ms"
              for p, k, deg in HORNER_SHAPES})


def _median_ns(fn, calls: int, reps: int = REPS) -> float:
    """Median over `reps` of the time per call of `fn` run `calls` times."""
    times = []
    for _ in range(reps):
        t0 = perf_counter_ns()
        for _ in range(calls):
            fn()
        times.append((perf_counter_ns() - t0) / calls)
    return statistics.median(times)


def _random_raw(ctx, rng):
    return ctx.raw_from_code(rng.randrange(1, ctx.order))


def _random_poly(ctx, rng, degree):
    return iso.Poly(ctx, [_random_raw(ctx, rng) for _ in range(degree + 1)])


def field_probes(rng: random.Random) -> dict[str, float]:
    out = {}
    for p, k in FIELD_SHAPES:
        ctx = iso.make_field(p, k)
        xs = [_random_raw(ctx, rng) for _ in range(64)]
        ys = [_random_raw(ctx, rng) for _ in range(64)]
        pairs = list(zip(xs, ys)) * 8

        def mul():
            for a, b in pairs:
                ctx.rmul(a, b)

        def inv():
            for a in xs:
                ctx.rinv(a)

        out[f"ff.rmul.ns.p{p}k{k}"] = _median_ns(mul, 1) / len(pairs)
        out[f"ff.rinv.ns.p{p}k{k}"] = _median_ns(inv, 1) / len(xs)
    return out


def poly_probes(rng: random.Random) -> dict[str, float]:
    ctx = iso.make_field(31)
    f, g = _random_poly(ctx, rng, 48), _random_poly(ctx, rng, 48)
    big = _random_poly(ctx, rng, 96)
    r_outer = iso.RatFunc(_random_poly(ctx, rng, 4), _random_poly(ctx, rng, 3))
    r_inner = iso.RatFunc(_random_poly(ctx, rng, 12), _random_poly(ctx, rng, 11))
    return {
        "probe.polyrat.Poly.mul.us": _median_ns(lambda: f * g, 3) / 1e3,
        "probe.polyrat.Poly.divmod.us": _median_ns(lambda: divmod(big, g), 3) / 1e3,
        "probe.polyrat.poly_gcd.us": _median_ns(lambda: iso.poly_gcd(f, g), 1) / 1e3,
        "probe.polyrat.RatFunc.compose.us":
            _median_ns(lambda: r_outer.compose(r_inner), 1) / 1e3,
    }


def curve_probes(rng: random.Random) -> dict[str, float]:
    K = iso.make_field(13, 2)
    E = iso.embed_curve(iso.Curve(iso.make_field(13), 1, 1), K)
    pts = [P for P in iso.enumerate_points(E) if not P.is_infinity]
    pairs = [(rng.choice(pts), rng.choice(pts)) for _ in range(200)]

    def adds():
        for P, Q in pairs:
            iso.point_add(P, Q)

    return {"probe.curve.point_add.us": _median_ns(adds, 1) / len(pairs) / 1e3}


def horner_probes(rng: random.Random) -> dict[str, float]:
    out = {}
    nprng = np.random.default_rng(rng.randrange(2 ** 32))
    for p, k, deg in HORNER_SHAPES:
        ctx = iso.make_field(p, k)
        coeffs = nprng.integers(0, p, size=(deg + 1, k)).astype(np.int64)
        xs = accel.all_element_digits(p, k)
        red = ctx.red_array()
        t = _median_ns(lambda: accel.poly_eval_batch(coeffs, xs, p, red), 1,
                       reps=3)
        out[f"probe.accel.p{p}k{k}d{deg}.ms"] = t / 1e6
    return out


def run_probes(seed: int) -> dict[str, float]:
    rng = random.Random(f"probes/{seed}")
    out = {}
    for probe in (field_probes, poly_probes, curve_probes, horner_probes):
        out.update(probe(rng))
    return out

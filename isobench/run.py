#!/usr/bin/env python3
"""The isodual benchmark: one command, four workloads, checked outputs.

Run from the root of a checkout:

    python3 isobench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Every workload is a closed loop with one client in one process: an
operation completes before the next starts.  Inputs are built from the seed
one pass at a time, outside the timed region; the run ends with the first
pass that brings the measured total to --seconds.  Each output is checked
against an oracle the timed code does not use, also outside the timed
region, and a failed check counts as a failed operation.

  corpus   dual_isogeny + certificate_to_obj on the acceptance corpus shape
  highdeg  dual_isogeny at kernel orders 8-12 over F_17 .. F_41
  scan     field-wide scans over F_{p^k}, q = 1.5e4 .. 9.2e5; runs by hand
           only, not listed in BENCHMARK.json (see speed.py for why)
  cli      cold `isodual dual --out F` then `isodual verify --cert F`

--trace 0 prints the end-to-end metrics, measured with nothing installed.
The host's speed drifts, so the run stays on one CPU and every time is
scaled to a reference speed by a calibration loop run just before and just
after each timed operation and set-up (see speed.py); the times as
measured are printed beside them.  ops_per_s is the median over passes.
--trace 1 is a separate run: it runs each operation of the first pass
plain and then with span wrappers at every layer boundary (see
tracing.py), runs more traced passes, and prints per-layer metrics, the
tracing overhead (traced minus plain time on the first pass) and the
per-layer probes (see probes.py).  Spans are written to
.isobench/spans-<workload>-<seed>.json.  A per-layer time ending in `.s` is
self time (span duration minus its child spans) in seconds per operation;
counts are per operation; layers a workload does not reach read 0.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 2 means the program to
measure (src/isodual) is not there.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from functools import partial

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".isobench")
WORKLOADS = ("corpus", "highdeg", "scan", "cli")
SETUP_CHILDREN = 4  # cold set-ups per run besides this process's own
TAIL_BEYOND = 10

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    import probes
    from tracing import COUNTS, SELF_TIMES

    units = {f"{name}.s": "s/op" for name in SELF_TIMES}
    units.update({key: "count/op" for key in COUNTS})
    units["accel.poly_eval_batch.bytes_computed"] = "B/op"
    for key in ("dualctor.pointwise.share", "curve.enumerate_points.repeat_share",
                "curve.mul_by_m_map.repeat_share",
                "polyrat.poly_gcd.trivial_share", "cli.kernel_poly.split_share",
                "trace.overhead_share"):
        units[key] = "ratio"
    units.update(probes.UNITS)
    units.update({"jsonio.bytes": "B/op", "cli.import_ms": "ms",
                  "cli.main_ms": "ms", "trace.overhead_ms": "ms/op",
                  "trace.spans": "count/op"})
    return units


def load_builder(workload: str, seed: int):
    """Import the library; return the pass builder, called as
    builder(index, trace), and the scratch directory of the cli workload."""
    sys.path.insert(0, SRC)
    import workloads

    if workload == "cli":
        tmpdir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
        return partial(workloads.build_cli, seed, tmpdir=tmpdir), tmpdir
    build = getattr(workloads, f"build_{workload}")
    return (lambda index, trace: build(seed, index)), None


class Loop:
    """Timed operations of one run, with their checks and digest."""

    def __init__(self, builder, clock: speed.Speed, tracer=None):
        self.builder = builder
        self.clock = clock
        self.tracer = tracer
        self.times: list[float] = []  # at the reference speed (speed.py)
        self.raw: list[float] = []  # as measured
        self.failed = 0
        self.passes = 0
        self.pass_ends: list[int] = []  # operations completed by each pass
        self.ok: list[bool] = []  # per operation: ran and passed its check
        self.digest = hashlib.sha256()
        self.digest_items = 0
        self.child_reports: list[dict] = []

    def run_pass(self, ops, index: int):
        if self.tracer is not None:
            self.tracer.new_pass()
        gc.collect()
        for op in ops:
            self.run_op(op, index)
        self.passes += 1
        self.pass_ends.append(len(self.times))

    def run_op(self, op, index: int):
        """Time one operation, then check it outside the timed region."""
        tracer = self.tracer
        op_id = len(self.times)
        if tracer is not None:
            tracer.op_id = op_id
            tracer.active = True
        before = self.clock.sample()
        t0 = time.perf_counter()
        try:
            out = op.run()
            error = None
        except Exception as exc:  # a failed operation is a result
            error = exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        self.raw.append(dt)
        self.times.append(self.clock.scale(dt, before, self.clock.sample()))
        text = None
        if error is None:
            self._adopt(getattr(out, "reports", ()), op_id)
            try:
                text = op.check(out)
            except Exception as exc:  # CheckFailed, or a check that broke
                error = exc
        self.ok.append(error is None)
        if error is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {op.label}: {type(error).__name__}: {error}",
                      file=sys.stderr)
        if index == 0:
            self.digest.update((text if text is not None else "FAILED")
                               .encode() + b"\n")
            self.digest_items += 1

    def pass_rate(self, times: list[float]) -> float:
        """Operations completed per second: the median over passes, each of
        which holds the same shapes of work."""
        rates, start = [], 0
        for end in self.pass_ends:
            rates.append(sum(self.ok[start:end]) / sum(times[start:end]))
            start = end
        return statistics.median(rates)

    def _adopt(self, reports, op_id):
        self.child_reports.extend(reports)
        if self.tracer is not None:
            for report in reports:
                self.tracer.merge(report["trace"], op_id)

    def run(self, seconds: float, first_ops=None):
        """Run passes until the measured total reaches `seconds`."""
        while self.passes == 0 or sum(self.raw) < seconds:
            index = self.passes
            ops = first_ops if index == 0 and first_ops is not None \
                else self.builder(index, trace=self.tracer is not None)
            self.run_pass(ops, index)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, samples beyond); the maximum if there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return (ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n,
            TAIL_BEYOND)


def setup_child(workload: str, seed: int) -> tuple[float, float]:
    """One cold set-up in a fresh process: (scaled, as measured) seconds."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    scaled, raw = proc.stdout.strip().splitlines()[-1].split()
    return float(scaled), float(raw)


def end_to_end(args, builder, clock, setup_in_process, first_ops) -> dict:
    loop = Loop(builder, clock)
    loop.run(args.seconds, first_ops)
    setups = [setup_in_process] + [setup_child(args.workload, args.seed)
                                   for _ in range(SETUP_CHILDREN)]
    times, raw = loop.times, loop.raw
    tail_s, tail_pct, beyond = tail(times)
    if args.workload == "cli":
        rss_kb = max((r["maxrss_kb"] for r in loop.child_reports), default=0)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "ops_per_s": loop.pass_rate(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "setup_s": statistics.median(s for s, _ in setups),
        "peak_rss_mb": rss_kb / 1024,
    }
    print("\n".join([
        f"workload {args.workload} seed {args.seed}: closed loop, 1 client, "
        f"{loop.passes} passes, {len(times)} operations in {sum(raw):.3f} s "
        f"as measured, {sum(times):.3f} s at the reference speed",
        "times below are at the reference speed (isobench/speed.py); "
        "as measured in brackets",
        f"ops_per_s    {values['ops_per_s']:.4f} 1/s  (median of "
        f"{loop.passes} passes)  [{loop.pass_rate(raw):.4f}]",
        f"op_p50_ms    {values['op_p50_ms']:.4f} ms  "
        f"[{statistics.median(raw) * 1e3:.4f}]",
        f"op_tail_ms   {values['op_tail_ms']:.4f} ms  (p{tail_pct:.2f} of "
        f"{len(times)} samples, {beyond} beyond)  [{tail(raw)[0] * 1e3:.4f}]",
        f"setup_s      {values['setup_s']:.4f} s  (median of {len(setups)} "
        f"cold set-ups: {', '.join(f'{s:.3f}' for s, _ in setups)})  "
        f"[{', '.join(f'{r:.3f}' for _, r in setups)}]",
        f"peak_rss_mb  {values['peak_rss_mb']:.2f} MB"
        + ("  (largest child)" if args.workload == "cli" else ""),
        f"error_rate   {loop.failed / len(times):.4f}  "
        f"({loop.failed} of {len(times)} failed)",
        f"output_sha256 {loop.digest.hexdigest()}  (pass 0, "
        f"{loop.digest_items} outputs)",
    ]))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END.items()}
    return {"correct": loop.failed == 0, "attempted": len(times),
            "failed": loop.failed, "metrics": metrics}


def traced(args, builder, clock, first_ops) -> dict:
    from probes import run_probes
    from tracing import Tracer

    # The first pass runs twice, op by op: plain, then traced on a second
    # copy of the same inputs, so the pairs see the same machine state.
    in_process = args.workload != "cli"  # cli children trace themselves
    plain, tracer = Loop(builder, clock), Tracer()
    loop = Loop(builder, clock, tracer)
    gc.collect()
    for plain_op, traced_op in zip(first_ops, builder(0, trace=True)):
        plain.run_op(plain_op, 0)
        if in_process:
            tracer.install()
        loop.run_op(traced_op, 0)
        tracer.uninstall()
    plain.passes = loop.passes = 1
    if in_process:
        tracer.install()
    loop.run(args.seconds / 2)
    tracer.uninstall()
    n_ref = len(plain.times)
    ref_s, traced_s = sum(plain.times), sum(loop.times[:n_ref])
    values = tracer.summary(len(loop.times))
    values["trace.overhead_ms"] = (traced_s - ref_s) / n_ref * 1e3
    values["trace.overhead_share"] = (traced_s - ref_s) / ref_s
    reports = loop.child_reports
    scans = [r["kernel_poly_scans"] for r in reports]
    tried = sum(s[0] for s in scans)
    values["cli.kernel_poly.split_share"] = (sum(s[1] for s in scans) / tried
                                             if tried else 0.0)
    values["cli.import_ms"] = (statistics.median(r["import_ms"] for r in reports)
                               if reports else 0.0)
    values["cli.main_ms"] = (statistics.median(r["main_ms"] for r in reports)
                             if reports else 0.0)
    values["jsonio.bytes"] = (sum(r["json_bytes"] for r in reports)
                              / len(loop.times))
    values.update(run_probes(args.seed))
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json")
    tracer.write(spans_path)
    units = per_layer_units()
    failed = plain.failed + loop.failed
    attempted = n_ref + len(loop.times)
    print("\n".join([f"workload {args.workload} seed {args.seed} (traced): "
            f"{loop.passes} traced passes, {len(loop.times)} operations; "
            f"untraced first pass {ref_s:.3f} s, traced {traced_s:.3f} s",
            f"spans: {len(tracer.spans)} written to "
            f"{os.path.relpath(spans_path, ROOT)}",
            f"error_rate {failed / attempted:.4f} ({failed} of {attempted} failed)",
            f"output_sha256 {plain.digest.hexdigest()}  (pass 0, untraced)"]
           + [f"{name:45s} {values[name]:.6g} {unit}"
              for name, unit in units.items()]))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)  # one cold set-up, timed
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "isodual", "__init__.py")):
        print(f"isobench: no isodual sources under {SRC}", file=sys.stderr)
        return 2

    speed.pin()
    clock = speed.Speed()
    before = clock.sample()
    t0 = time.perf_counter()
    builder, tmpdir = load_builder(args.workload, args.seed)
    first_ops = builder(0, trace=False)
    raw_setup = time.perf_counter() - t0
    setup = clock.scale(raw_setup, before, clock.sample()), raw_setup
    if args.setup_only:
        print(*map(repr, setup))
        return 0
    if tmpdir is not None:
        os.makedirs(tmpdir, exist_ok=True)
    try:
        if args.trace:
            result = traced(args, builder, clock, first_ops)
        else:
            result = end_to_end(args, builder, clock, setup, first_ops)
    finally:
        if tmpdir is not None:
            for name in os.listdir(tmpdir):
                os.remove(os.path.join(tmpdir, name))
            os.rmdir(tmpdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

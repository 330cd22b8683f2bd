"""One cold `isodual` command, as the cli workload runs it.

    python3 isobench/cli_child.py REPORT TRACE COMMAND ARGS...

Runs ``isodual COMMAND ARGS...`` in this fresh process and exits with its
exit code.  REPORT is a JSON file this process writes: the import time of
``isodual.cli``, the time of ``main()``, the peak resident memory and, when
TRACE is 1, the spans and counts of the call plus the kernel-polynomial
root scans tried and split.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    report_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    import isodual.cli as cli
    t1 = time.perf_counter()

    import json
    import resource

    report = {"json_bytes": 0}
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        scans = report["kernel_poly_scans"] = [0, 0]  # tried, split
        roots_bruteforce = cli.roots_bruteforce

        def counted(f, *ctx):
            roots = roots_bruteforce(f, *ctx)
            if ctx:  # a kernel-polynomial scan over F_{p^(k*j)}
                scans[0] += 1
                scans[1] += len(roots) >= f.degree
            return roots

        cli.roots_bruteforce = counted
        tracer.active = True
    t2 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    t3 = time.perf_counter()
    for flag in ("--out", "--cert"):  # the certificate written or read
        if flag in argv and os.path.exists(argv[argv.index(flag) + 1]):
            report["json_bytes"] = os.path.getsize(argv[argv.index(flag) + 1])
    if tracer is not None:
        tracer.active = False
        report["trace"] = tracer.export()
    report.update(import_ms=(t1 - t0) * 1e3, main_ms=(t3 - t2) * 1e3,
                  maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())

"""Closed-loop benchmark of rainbowtrees' experiment workloads.

Run from the repository root:

    python3 perfbench/run.py --workload rst-300 --seed 1 --seconds 20 --trace 0

One client in one process sends each op as soon as the previous one has
returned (workers=1, BLAS and OpenMP pools pinned to one thread).  Op i
of a run draws its inputs from a seed derived from (workload, --seed, i);
every op is timed around the library call alone, guarded so that an
exception or a wrong output is recorded and the run goes on, and its
output is checked.  The run lasts --seconds, and at least the first
digest window of ops.

With --trace 0 the last line holds the end-to-end metrics; with --trace 1
every traced layer's per-op counts and self time (see tracing.py).  The
lines before it name the machine, the load, every metric with its unit,
the digest of the first ops' outcomes (timings excluded) and, in a
traced run, the exact call counts over those ops.  --toy runs the same
workloads at n <= 120, for the smoke test.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")

# gated end-to-end metrics, as in BENCHMARK.json
END_TO_END = (("adj_ops_per_s", "1/s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))

# ops whose outcomes (and, traced, call counts) form the run's digest;
# every run reaches them, whatever --seconds says
DIGEST_OPS = {"rst-300": 8, "almost-2000": 40, "buv-1000": 2,
              "absorb-600": 3}
TOY_OPS = 2
SETUP_REPS = 5
WARMUP_OP = -1
P90_MIN_OPS = 100

# The machine's speed drifts by 20% and more within seconds (other tenants
# share it), and it moves every op alike.  A fixed reference kernel of
# tuple, set, dict and sort work, shaped like the library's own, is timed
# next to each op and each set-up step; a time scaled by REF_NOMINAL_S /
# kernel time is that time at the speed where the kernel takes
# REF_NOMINAL_S (its median on an idle 2-vCPU Intel Xeon).  The gated
# throughput and set-up time are adjusted this way; the wall times are
# printed beside them.
REF_KEYS = 6000
REF_NOMINAL_S = 0.0046

IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; "
                "t = time.perf_counter(); import rainbowtrees; "
                "t = time.perf_counter() - t; import run; "
                "print(t, run.reference_kernel(*run.reference_inputs()))")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or platform.machine()


def reference_inputs():
    import numpy
    keys = [(7919 * k) % 104729 for k in range(REF_KEYS)]
    return keys, numpy.array(keys * 2)


def reference_kernel(keys, array) -> float:
    """Seconds taken by one pass of the fixed reference work."""
    start = time.perf_counter()
    pairs = [(k % 997, k % 991) for k in keys]
    index = {pair: i for i, pair in enumerate(pairs)}
    sorted(frozenset(index))
    array.argsort(kind="stable")
    return time.perf_counter() - start


def _machine(load_before: float) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
            "python": sys.version.split()[0],
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "networkx": metadata.version("networkx"),
            "loadavg_1m_before": load_before,
            "loadavg_1m_after": os.getloadavg()[0]}


def _reference_digest(workload: str, seed: int):
    path = os.path.join(HERE, "digests.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def _parse(argv):
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="run at toy size, %d ops only past --seconds"
                    % TOY_OPS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "rainbowtrees", "__init__.py")):
        print("perfbench: no rainbowtrees source under %s; run from a "
              "checkout of the repository" % SRC, file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    load_before = os.getloadavg()[0]

    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import rainbowtrees
    import_s = [time.perf_counter() - start]
    if not os.path.abspath(rainbowtrees.__file__).startswith(SRC + os.sep):
        print("perfbench: imported rainbowtrees from %s, not %s"
              % (rainbowtrees.__file__, SRC), file=sys.stderr)
        return 2
    from rainbowtrees.errors import StageFailure
    ref_inputs = reference_inputs()
    import_adj = [import_s[0] * REF_NOMINAL_S / reference_kernel(*ref_inputs)]

    import tracing
    import workloads
    args = _parse(argv)
    wl = workloads.make(args.workload, args.seed, args.toy)
    min_ops = TOY_OPS if args.toy else DIGEST_OPS[args.workload]

    # set-up: imports (this process, then fresh interpreters) and the
    # shared inputs, each repeated; the median of each counts
    reps = 1 if args.toy else SETUP_REPS
    for _ in range(reps - 1):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC, HERE],
                               capture_output=True, text=True, check=True,
                               timeout=120)
        seconds, ref_s = map(float, probe.stdout.split())
        import_s.append(seconds)
        import_adj.append(seconds * REF_NOMINAL_S / ref_s)
    build_s, build_adj = [], []
    for _ in range(reps):
        ref_s = reference_kernel(*ref_inputs)
        t0 = time.perf_counter()
        shared = wl.setup()
        build_s.append(time.perf_counter() - t0)
        build_adj.append(build_s[-1] * REF_NOMINAL_S / ref_s)
    setup_wall_s = statistics.median(import_s) + statistics.median(build_s)
    setup_s = statistics.median(import_adj) + statistics.median(build_adj)

    tracer = tracing.install("rainbowtrees", StageFailure) \
        if args.trace else None

    def traced(on: bool) -> None:
        if tracer is not None:
            tracer.active = on

    wl.attach()
    traced(False)
    try:
        wl.run(wl.prepare(shared, WARMUP_OP))
    except Exception as exc:   # the measured ops record it if it recurs
        print("warm-up op raised %s: %s" % (type(exc).__name__, exc))

    op_ms, adj_ms, ref_s, wins, problems = [], [], [], 0, []
    digest = hashlib.sha256()
    counts = None
    begin = time.perf_counter()
    while len(op_ms) < min_ops or time.perf_counter() - begin < args.seconds:
        i = len(op_ms)
        prepared = wl.prepare(shared, i)
        ref_s.append(reference_kernel(*ref_inputs))
        traced(True)
        t0 = time.perf_counter()
        try:
            out, error = wl.run(prepared), None
        except Exception as exc:
            out, error = None, exc
            traceback.print_exc()
        op_ms.append((time.perf_counter() - t0) * 1000.0)
        traced(False)
        adj_ms.append(op_ms[-1] * REF_NOMINAL_S / ref_s[-1])
        if error is not None:
            stage = getattr(error, "stage", None)
            problem = "%s at stage %s: %s" % (type(error).__name__, stage,
                                              error)
            key = ["raised", type(error).__name__, stage]
        else:
            try:
                problem = wl.check(prepared, out)
            except Exception as exc:
                problem = "check raised %s: %s" % (type(exc).__name__, exc)
            key = wl.outcome(out)
            wins += bool(problem is None and wl.success(out))
        out = prepared = None
        if problem is not None:
            problems.append("op %d: %s" % (i, problem))
        if i < min_ops:
            digest.update(json.dumps(key, sort_keys=True,
                                     default=str).encode() + b"\n")
        if i == min_ops - 1 and tracer is not None:
            counts = tracer.snapshot()

    ops = len(op_ms)
    timed_s = sum(op_ms) / 1000.0
    values = {"adj_ops_per_s": ops * 1000.0 / sum(adj_ms),
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "setup_s": setup_s}
    p90 = "%.6g ms" % statistics.quantiles(op_ms, n=10)[8] \
        if ops >= P90_MIN_OPS else "n/a (%d ops < %d)" % (ops, P90_MIN_OPS)

    print("machine %s" % json.dumps(_machine(load_before), sort_keys=True))
    print("workload %s seed %d trace %d%s: %d ops in %.3f s timed, "
          "%d failed" % (args.workload, args.seed, args.trace,
                         " (toy)" if args.toy else "", ops, timed_s,
                         len(problems)))
    for line in problems[:20]:
        print("FAILED " + line)
    label = "traced " if tracer is not None else ""
    for name, unit in END_TO_END:
        print("%s%s %.6g %s" % (label, name, values[name], unit))
    print("%sops_per_s %.6g 1/s" % (label, ops / timed_s))
    print("%sop_ms_p50 %.6g ms" % (label, statistics.median(op_ms)))
    print("%sadj_op_ms_p50 %.6g ms" % (label, statistics.median(adj_ms)))
    print("%sop_ms_p90 %s" % (label, p90))
    print("%ssuccess_rate %.6g (%d/%d)" % (label, wins / ops, wins, ops))
    print("%sfailed_frac %.6g (%d/%d)" % (label, len(problems) / ops,
                                          len(problems), ops))
    print("%ssetup_wall_s %.6g s" % (label, setup_wall_s))
    print("reference kernel %.6g ms median, nominal %.6g ms"
          % (statistics.median(ref_s) * 1000.0, REF_NOMINAL_S * 1000.0))

    digest_hex = digest.hexdigest()[:16]
    reference = None if args.toy else _reference_digest(args.workload,
                                                        args.seed)
    verdict = ("matches the reference" if digest_hex == reference
               else "no reference for this seed" if reference is None
               else "random stream changed (reference %s)" % reference)
    print("digest %s over the first %d ops: %s" % (digest_hex, min_ops,
                                                   verdict))

    if tracer is None:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        blob = json.dumps(counts, sort_keys=True)
        print("call counts %s over the first %d ops: %s"
              % (hashlib.sha256(blob.encode()).hexdigest()[:16], min_ops,
                 blob))
        layer = tracer.metrics(ops)
        layer["trace.adj_ops_per_s"] = values["adj_ops_per_s"]
        names = tracing.metric_names() + [("trace.adj_ops_per_s", "1/s")]
        for name, unit in names:
            print("%s %.6g %s" % (name, layer[name], unit))
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in names}
    print(json.dumps({"correct": not problems, "attempted": ops,
                      "failed": len(problems), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of the dms library, end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout; the library is imported from `src/`.
The workloads and metrics are listed in BENCHMARK.json.

A run builds the workload's inputs from the seed (set-up, repeated
SETUP_REPEATS times), runs one warm-up op, then measures whole passes of
the workload's rounds: with --trace 0 until --seconds have passed, and
at least one pass; with --trace 1 one pass in which every round runs
untraced and then traced on the same inputs.  Op and set-up times are
calibrated against a fixed kernel run between them (see calibrate());
the raw wall times are kept in the metadata.  Every output of the first
pass is checked by the independent checker in check.py, and every later
op must reproduce the first pass's output byte for byte.

Stdout carries a metadata line and, last, one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0 and the per-layer metrics with --trace 1.  Metadata, and with
--trace 1 the spans, are also written under .perfbench-out/.
Exit status: 0 on success, 1 when a check fails, 2 when the run cannot
start (for instance without the library sources).
"""

import os

# Pin numpy's BLAS and OpenMP pools to one thread; this has to happen
# before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from check import CheckError  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples above the reported tail latency
REF_S = 0.1  # nominal duration of calibrate(), in seconds

clock = time.perf_counter


def fatal(msg, code=2):
    print("perfbench: %s" % msg, file=sys.stderr)
    sys.exit(code)


def digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def import_library():
    """Import dms from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "dms" / "__init__.py").is_file():
        fatal("no library sources at %s" % (src / "dms"))
    sys.path.insert(0, str(src))
    import dms
    if Path(dms.__file__).resolve().parent != (src / "dms").resolve():
        fatal("dms was imported from %s" % dms.__file__)
    return dms


def calibrate():
    """Wall time of a fixed pure-Python kernel that builds and sorts a
    dict of frozensets of string ids, like the library's complexes.

    The host's speed swings by up to 1.6x within seconds and its level
    drifts between runs, so an op's latency is reported as its wall time
    over the mean of the kernel times just before and after it, times
    REF_S: seconds on a host where the kernel takes REF_S.  The kernel's
    working set (16000 entries, visited in a scattered order) is what
    makes it slow down with the host the way the ops do; smaller kernels
    tracked the ops less closely.  The garbage collector is off inside
    the kernel, and everything it makes is freed before it returns.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        n = 16000
        cells = {}
        for i in range(n):
            cells["c%d" % i] = frozenset("c%d" % ((i * 7919 + k * 13) % n)
                                         for k in range(3))
        cofaces = {}
        for cid in sorted(cells):
            for fid in sorted(cells[cid]):
                cofaces.setdefault(fid, []).append(cid)
        elapsed = clock() - start
        del cells, cofaces
    finally:
        if enabled:
            gc.enable()
    return elapsed


class Calibration:
    """Brackets every op with calibrate() runs and sets its latency."""

    def __init__(self):
        self.last = calibrate()
        self.kernel_s = [self.last]

    def timed(self, fn):
        """Run fn; return its calibrated time."""
        start = clock()
        fn()
        return self.scale(clock() - start)

    def scale(self, wall):
        """Calibrated time of something that took `wall` seconds right
        after the last kernel run."""
        before = self.last
        self.last = calibrate()
        self.kernel_s.append(self.last)
        return wall * REF_S * 2 / (before + self.last)


class Verifier:
    """Checks pass-0 outputs independently and later passes against the
    pass-0 digests; keeps the per-op outcome record."""

    def __init__(self, workload):
        self.wl = workload
        self.first = []           # digest per op of pass 0
        self.output_cells = []    # total output cells per checked op

    def record(self, op, pass_no, index):
        if op.error is not None:
            d = "error:" + op.error
        else:
            texts = self.wl.texts(op)
            d = digest(texts)
            if pass_no == 0:
                self.output_cells.append(self.wl.check(op, texts))
        if pass_no == 0:
            self.first.append(d)
        elif d != self.first[index]:
            raise CheckError("op %d of pass %d differs from the first pass"
                             % (index, pass_no))
        op.output = None


def run_ops(wl, r, verifier, calib, pass_no, index, tracer=None):
    """The ops of round r, each recorded by the verifier at its index in
    the pass and given its calibrated latency."""
    ops = []
    it = wl.run_round(r)
    while True:
        if tracer is not None:
            tracer.op = index + len(ops)
        op = next(it, None)
        if op is None:
            return ops
        op.latency = calib.scale(op.wall)
        verifier.record(op, pass_no, index + len(ops))
        ops.append(op)


def measure(wl, verifier, calib, seconds):
    """Whole passes until `seconds` have passed: after the first complete
    pass, stop at the first round end past the deadline.  Returns (ops,
    complete passes)."""
    ops = []
    start = clock()
    pass_no = 0
    while True:
        index = 0
        for r in wl.pass_rounds():
            new = run_ops(wl, r, verifier, calib, pass_no, index)
            index += len(new)
            ops.extend(new)
            if pass_no > 0 and clock() - start >= seconds:
                return ops, pass_no
        pass_no += 1
        if clock() - start >= seconds:
            return ops, pass_no


def measure_traced(wl, verifier, calib, tracer):
    """One pass in which every round runs untraced and then traced on
    the same inputs.  Returns (untraced ops, traced ops)."""
    untraced, traced = [], []
    for r in wl.pass_rounds():
        untraced.extend(run_ops(wl, r, verifier, calib, 0, len(untraced)))
        tracer.install()
        try:
            traced.extend(run_ops(wl, r, verifier, calib, 1, len(traced),
                                  tracer))
        finally:
            tracer.uninstall()
    return untraced, traced


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile with
    at least TAIL_BEYOND samples above it, or the maximum when there are
    too few samples."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= TAIL_BEYOND:
        return lat[-1], 100.0, 0
    return lat[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def end_to_end(wl, ops, ops_per_pass, setups, meta):
    latencies = [op.latency for op in ops]
    first = ops[:ops_per_pass]
    ok = sum(1 for op in first if op.error is None)
    tail_s, pct, beyond = tail(latencies)
    meta.update(tail_percentile=pct, tail_samples_beyond=beyond,
                fail_ratio=1 - ok / len(first))
    return {
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "throughput_ops_s": len(ops) / sum(latencies),
        "success_ratio": ok / len(first),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric_block(spec, values):
    names = [m["name"] for m in spec]
    if set(names) != set(values):
        fatal("computed metrics %s do not match BENCHMARK.json %s"
              % (sorted(values), sorted(names)))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def run(args, spec):
    import numpy
    import selftest
    import workloads
    from tracer import Tracer, layer_metrics

    selftest.run()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        calib = Calibration()
        setups = [calib.timed(lambda: wl.setup(workdir))
                  for _ in range(SETUP_REPEATS)]
        wl.warmup()
        gc.collect()
        verifier = Verifier(wl)
        ops_per_pass = None
        meta = {}
        if args.trace:
            tracer = Tracer()
            untraced, ops = measure_traced(wl, verifier, calib, tracer)
            ops_per_pass, passes = len(ops), 1
            values = layer_metrics(tracer.spans, tracer.counters, len(ops))
            base = sum(op.latency for op in untraced) / len(untraced)
            overhead = sum(op.latency for op in ops) / len(ops) - base
            values["trace.overhead_s"] = overhead
            values["trace.overhead_share"] = overhead / base
            tracer.dump(OUT_DIR / ("%s-seed%d.spans.jsonl"
                                   % (wl.name, args.seed)))
            meta["spans"] = len(tracer.spans)
            metrics = metric_block(spec["per_layer"], values)
        else:
            ops, passes = measure(wl, verifier, calib, args.seconds)
            ops_per_pass = len(verifier.first)
            values = end_to_end(wl, ops, ops_per_pass, setups, meta)
            metrics = metric_block(spec["end_to_end"], values)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for op in ops if op.error is not None
                 and op.error not in wl.refusals)
    errors = {}
    for op in ops[:ops_per_pass]:
        if op.error is not None:
            errors[op.error] = errors.get(op.error, 0) + 1
    meta.update(
        workload=wl.name, seed=args.seed, trace=args.trace,
        seconds=args.seconds, python=platform.python_version(),
        numpy=numpy.__version__, nproc=len(os.sched_getaffinity(0)),
        samples=len(ops), complete_passes=passes, ops_per_pass=ops_per_pass,
        errors_per_pass=errors, input_cells=wl.input_cells(),
        output_cells={"min": min(verifier.output_cells, default=0),
                      "max": max(verifier.output_cells, default=0)},
        digest=digest(verifier.first),
        setup_runs_s=setups, input_prep_s=wl.prep_s,
        wall_p50_s=statistics.median(op.wall for op in ops),
        timed_wall_s=sum(op.wall for op in ops),
        kernel_p50_s=statistics.median(calib.kernel_s))
    with open(OUT_DIR / ("%s-seed%d-trace%d.json"
                         % (wl.name, args.seed, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "metrics": metrics}, fh, indent=1,
                  sort_keys=True)
    print(json.dumps({"meta": meta}, sort_keys=True))
    return {"correct": True, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fatal("missing %s" % spec_path)
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fatal("unknown workload %r" % args.workload)
    import_library()
    try:
        result = run(args, spec)
    except CheckError as err:
        fatal("output check failed: %s" % err, code=1)
    except AssertionError as err:
        fatal("checker self-test failed: %s" % err, code=1)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()

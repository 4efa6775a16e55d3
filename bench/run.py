"""Benchmark runner for rulemix.

    python3 bench/run.py --workload xor-1k --seed 0 --seconds 45 --trace 0

One process, BLAS pinned to one thread, acting as a single closed-loop
caller: it runs one op after another through rulemix's public entry points
until ``--seconds`` have passed, and checks every op's output.  The last line
on stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the metrics are BENCHMARK.json's ``end_to_end``
list with ``--trace 0`` and its ``per_layer`` list with ``--trace 1``.  The
end-to-end timings are scaled to a reference host speed (hostspeed.py).  The
line before the result stamps the run (git sha, library versions, cores,
seed) and, untraced, gives the timings as measured.

The traced run alternates untraced and traced ops on one input, records
spans around rulemix's functions (see tracing.py) and writes them to
``.bench_work/trace-<workload>-seed<seed>.json``.

An op fails when its output breaks an invariant (an error, see workloads.py);
a failed op makes the run incorrect.  Misses of an acceptance criterion's
quality check are counted on the stamp line, not failed.  Exit status: 0 when
correct, 1 when not, 2 when the checkout holds no rulemix sources.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import env  # noqa: E402

SETUP_PROBES = 5
SUBPROCESS_TIMEOUT_S = 150
SELF_SUM_TOLERANCE_S = 1e-6


def parse_args(argv):
    p = argparse.ArgumentParser(description="rulemix benchmark runner")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny workloads, for the tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _git(*args):
    try:
        done = subprocess.run(
            ["git", "-C", str(env.ROOT), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def stamp(args, inputs) -> dict:
    import numpy
    import scipy

    # a checkout that is not itself a repository gets no sha, even when it
    # sits inside some other repository
    in_repo = _git("rev-parse", "--show-toplevel") == str(env.ROOT)
    sha = _git("rev-parse", "HEAD") if in_repo else None
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no")) if sha else None
    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "inputs": inputs,
    }


def setup_seconds(args):
    """Imports plus input set-up, timed in fresh processes: the median at
    the reference host speed, and the median as measured."""
    import hostspeed

    scaled, wall = [], []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
        if args.smoke:
            cmd.append("--smoke")
        before = hostspeed.kernel_seconds()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
        after = hostspeed.kernel_seconds()
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        seconds = float(done.stdout.strip().splitlines()[-1])
        wall.append(seconds)
        scaled.append(hostspeed.scale(seconds, before, after))
    return statistics.median(scaled), statistics.median(wall)


def run_op(workload, state, tracer=None, op_id=None):
    """Run one op; returns (outcome, seconds, root span).  The root span is
    None when the op was not traced or raised."""
    from workloads import Outcome

    root = None
    start = time.perf_counter()
    try:
        if tracer is None:
            outcome = workload.op(state)
        else:
            tracer.op = op_id
            with tracer, tracer.span("cli.op") as root:
                outcome = workload.op(state)
    except Exception as e:  # an op that raises is an error; the run goes on
        traceback.print_exc(file=sys.stderr)
        outcome = Outcome({}, {}, [f"{type(e).__name__}: {e}"])
        root = None
    return outcome, time.perf_counter() - start, root


class OpLog:
    """Ops run so far, with the same-input report check."""

    def __init__(self, inputs):
        self.inputs = inputs
        self.ops = []
        self._first = {}

    def add(self, j, outcome, seconds, traced=False, warm_up=False):
        if not outcome.errors:
            key = json.dumps(outcome.report, sort_keys=True)
            if self._first.setdefault(j, key) != key:
                outcome.errors.append(f"report differs from the first op on input {self.inputs[j]}")
        self.ops.append({"input": j, "seconds": seconds, "traced": traced, "warm_up": warm_up,
                         "outcome": outcome})

    @property
    def failed(self) -> int:
        return sum(bool(o["outcome"].errors) for o in self.ops)

    @property
    def missed(self) -> int:
        return sum(bool(o["outcome"].misses) for o in self.ops)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def quality(self, j):
        """Quality figures of the first op on input j that raised no error."""
        for o in self.ops:
            if o["input"] == j and not o["outcome"].errors:
                return o["outcome"].quality
        return None

    def summary(self):
        return [
            {"input": self.inputs[o["input"]], "seconds": o["seconds"], "traced": o["traced"],
             "warm_up": o["warm_up"], "errors": o["outcome"].errors, "misses": o["outcome"].misses,
             "quality": o["outcome"].quality}
            for o in self.ops
        ]


def timed_run(workload, states, args, log):
    """Untraced ops, one input after the next, for the end-to-end metrics.

    A warm-up op on input 0 comes first and is left out of the timing.  The
    run goes on until ``--seconds`` have passed and the first
    ``workload.quality_inputs`` inputs have had an op each.  The reference
    kernel runs between ops, and ``pipeline_s`` is the median op time scaled
    to the reference host speed (hostspeed.py).  Each quality figure is the
    median over those first inputs, so it depends on the seed alone, not on
    how many ops fit.  Returns the metrics and the timings as measured.
    """
    import hostspeed

    outcome, seconds, _ = run_op(workload, states[0])
    log.add(0, outcome, seconds, warm_up=True)
    hostspeed.kernel_seconds()
    before = hostspeed.kernel_seconds()
    kernels, scaled = [before], []
    start = time.perf_counter()
    i = 0
    while i < workload.quality_inputs or time.perf_counter() - start < args.seconds:
        j = i % len(states)
        outcome, seconds, _ = run_op(workload, states[j])
        after = hostspeed.kernel_seconds()
        log.add(j, outcome, seconds)
        scaled.append(hostspeed.scale(seconds, before, after))
        kernels.append(after)
        before = after
        i += 1

    setup_scaled, setup_wall = setup_seconds(args)
    values = {
        "pipeline_s": statistics.median(scaled),
        "setup_s": setup_scaled,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall = {
        "pipeline_s": statistics.median(o["seconds"] for o in log.ops if not o["warm_up"]),
        "setup_s": setup_wall,
        "kernel_s": statistics.median(kernels),
        "reference_kernel_s": hostspeed.REFERENCE_S,
    }
    quality = [log.quality(j) for j in range(workload.quality_inputs)]
    if all(quality):
        values["fidelity_mse"] = statistics.median(q["fidelity_mse"] for q in quality)
        values["neg_objective_per_row"] = -statistics.median(q["objective_per_row"] for q in quality)
        values["baseline_test_mse"] = statistics.median(q["baseline_test_mse"] for q in quality)
    return values, wall


def traced_run(workload, states, args, log):
    """Untraced and traced ops in turn on the run's first input."""
    import tracing

    tracer = tracing.Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    i = 0
    while i < 2 or time.perf_counter() - start < args.seconds:
        if i % 2 == 0:
            outcome, seconds, _ = run_op(workload, states[0])
            log.add(0, outcome, seconds)
            untraced.append(seconds)
        else:
            outcome, seconds, root = run_op(workload, states[0], tracer, op_id=i)
            log.add(0, outcome, seconds, traced=True)
            if root is not None:
                m = tracing.op_metrics(tracer.spans, root)
                if abs(m["run.self_sum_s"] - m["run.traced_pipeline_s"]) > SELF_SUM_TOLERANCE_S:
                    outcome.errors.append("layer self times do not add up to the op's time")
                for name in tracing.EXACT_COUNTS:
                    if traced and traced[0][name] != m[name]:
                        outcome.errors.append(f"count {name} differs between traced ops")
                traced.append(m)
        i += 1

    values = {}
    if traced:
        for name in traced[0]:
            values[name] = statistics.fmean(m[name] for m in traced)
        for name in tracing.EXACT_COUNTS:
            values[name] = traced[0][name]
        values["run.trace_overhead_share"] = (
            values["run.traced_pipeline_s"] / statistics.fmean(untraced) - 1.0
        )
    values["run.criterion_miss_share"] = log.missed / len(log.ops)
    for name, value in (log.quality(0) or {}).items():
        values[f"quality.{name}"] = value
    return values, traced, [s.to_row() for s in tracer.spans]


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        env.prepare()
    except env.MissingSources as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    import workloads

    table = workloads.SMOKE if args.smoke else workloads.WORKLOADS
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(table)}", file=sys.stderr)
        return 2
    workload = table[args.workload]

    if args.setup_probe:
        workdir = env.WORK / f"setup-{args.workload}-{os.getpid()}"
        try:
            workload.setup(args.seed, workdir)
            print(time.perf_counter() - STARTED)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workdir = env.WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        states = workload.setup(args.seed, workdir)
        log = OpLog([getattr(s, "seed", s) for s in states])
        if args.trace:
            values, per_op, spans = traced_run(workload, states, args, log)
        else:
            values, wall = timed_run(workload, states, args, log)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run_stamp = stamp(args, log.inputs)
    if args.trace:
        env.WORK.mkdir(exist_ok=True)
        out = env.WORK / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({
            "stamp": run_stamp,
            "ops": log.summary(),
            "metrics": values,
            "per_op": per_op,
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": spans,
        }))

    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted}
    line = {"stamp": run_stamp, "criterion_misses": log.missed, "ops": log.summary()}
    if not args.trace:
        line["as_measured"] = wall
    print(json.dumps(line))
    print(json.dumps({
        "correct": log.correct,
        "attempted": len(log.ops),
        "failed": log.failed,
        "metrics": metrics,
    }))
    return 0 if log.correct else 1


if __name__ == "__main__":
    sys.exit(main())

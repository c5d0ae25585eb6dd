"""Layered benchmark for dilatree's certified verdicts.

Run from the root of a dilatree checkout; the package is imported from
its `src/` directory, so nothing needs installing:

    python3 bench/run.py --workload search --seed 1 --seconds 30 --trace 0

Workloads (see `workloads.py`): `search`, `partition` and `certify`.
One process and one thread drive the library as a closed loop with a
single caller: each operation is one public call (for `partition`, one
gen -> verify -> decide round trip through `dilatree.cli.run`), its
answer is checked outside the timed region, and the next call starts
when the check is done.  The loop repeats whole passes over the seeded
instance set until `--seconds` have passed and at least 100 operations
ran.  An exception or a wrong answer counts as a failed operation.
After the timed passes, the operations that two known defects make fail
run once, untimed and untraced; the summary line and the traced metrics
report how many of them failed, and a failure of another kind than the
known one marks the run incorrect.

Times (throughput, latencies, set-up) are reported at a reference host
speed: each is divided by the speed factor a fixed probe measures next
to it in the same run (`SpeedProbe`).  The summary line before the
result also gives the raw wall-clock figures and the run's median
factor.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics; with `--trace 1` the public functions of every
layer are wrapped as spans (`spans.py`) and the object carries the
per-layer metrics instead.  Counts in the traced run are per pass, so
they repeat exactly from run to run.  `--short` runs one small pass for
the self-test (`selftest.py`).
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402  (set-up time starts before any import)
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_OPS = 100          # so that at least ten samples lie beyond p90
HARD_STOP_S = 150      # start no pass after this, whatever MIN_OPS says
SETUP_SAMPLES = 7      # set-up runs whose median is setup_s
REFERENCE_PROBE_S = 0.002  # probe time at the reference host speed

END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_dilatree():
    """Import dilatree from this checkout's `src/`, and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "dilatree", "__init__.py")):
        raise SystemExit(f"error: no dilatree package under {src}")
    sys.path.insert(0, src)
    import dilatree
    import dilatree.cli  # noqa: F401  (the partition workload drives it)
    if not os.path.abspath(dilatree.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported dilatree from {dilatree.__file__}")
    return dilatree


class SpeedProbe:
    """Host speed, from a fixed piece of exact arithmetic outside dilatree.

    The host this benchmark was built on changes speed by up to 1.8x
    within minutes, and CPU time changes with wall time.  Each run
    therefore times the benchmark's own 96-bit dilation evaluator on a
    fixed 16-point tree after every operation.  Its time over
    REFERENCE_PROBE_S is how much slower than the reference the host ran
    at that moment: `local` takes the median over the probes around one
    operation, whose time is then divided by it.  Over 10 s windows of a
    5-minute trace on that host, search, certify and partition calls
    slowed in proportion to the probe (log-log slope 0.9-1.0, r > 0.95).
    The probe does not touch dilatree, so a change to dilatree moves the
    reported times in full.
    """

    WINDOW = 4   # probes on either side of an operation

    def __init__(self):
        rng = random.Random("speed-probe")
        self.points = workloads.general_position(rng, 16, 1 << 20)
        self.edges = workloads.euclidean_mst(self.points)
        self.samples = []

    def sample(self, times=1):
        for _ in range(times):
            t0 = time.perf_counter()
            workloads.dilation_enclosure(self.points, self.edges)
            self.samples.append(time.perf_counter() - t0)

    @property
    def factor(self):
        return statistics.median(self.samples) / REFERENCE_PROBE_S

    def local(self, i):
        """Speed factor around the operation the i-th probe followed."""
        near = self.samples[max(0, i - self.WINDOW):i + self.WINDOW + 1]
        return statistics.median(near) / REFERENCE_PROBE_S


def percentile(sorted_values, q):
    """Linear interpolation between closest ranks, q in [0, 1]."""
    pos = q * (len(sorted_values) - 1)
    i = int(pos)
    j = min(i + 1, len(sorted_values) - 1)
    return sorted_values[i] + (sorted_values[j] - sorted_values[i]) * (pos - i)


def check(op):
    """Check an op's answer outside the timed region."""
    if op.ok and op.check is not None:
        try:
            op.error = op.check(op.result)
        except Exception as exc:
            op.error = f"check raised {type(exc).__name__}: {exc}"


def measure(workload, dl, seconds, recorder, min_ops, workdir, probe):
    """Run whole passes of the workload and collect per-op outcomes.

    Latencies come back raw and scaled by the local speed factor; the
    throughput is the median over passes of the scaled rate.
    """
    timed = []             # (pass, latency, index of the probe after it)
    failures = []          # (label, error, expected)
    attempted = passes = 0
    start = time.perf_counter()
    while True:
        for op in workload.ops(dl, workdir):
            attempted += 1
            if op.call is not None:
                if recorder is not None:
                    recorder.op_id = attempted
                    recorder.active = True
                t0 = time.perf_counter()
                try:
                    op.result = op.call()
                except Exception as exc:  # a failed operation, not a crash
                    op.error = f"{type(exc).__name__}: {exc}"
                took = time.perf_counter() - t0
                if recorder is not None:
                    recorder.active = False
                timed.append((passes, took, len(probe.samples)))
                check(op)
            if not op.ok:
                failures.append((op.label, op.error, op.expected_failure()))
            probe.sample()
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (elapsed >= seconds
                                      and attempted >= min_ops):
            break
    busy = [0.0] * passes
    raw_busy = [0.0] * passes
    executed = [0] * passes
    scaled = []
    for k, took, i in timed:
        scaled.append(took / probe.local(i))
        busy[k] += scaled[-1]
        raw_busy[k] += took
        executed[k] += 1
    return {"attempted": attempted, "failures": failures, "passes": passes,
            "latencies": sorted(scaled),
            "raw_latencies": sorted(took for _, took, _ in timed),
            "throughput": statistics.median(
                n / t for n, t in zip(executed, busy)),
            "raw_throughput": statistics.median(
                n / t for n, t in zip(executed, raw_busy)),
            "speed_factor": probe.factor}


def probe_known_defects(workload, dl):
    """Run the workload's known-defect operations once, with checks.

    Returns (operations run, failures as (label, error, expected)).
    """
    probed = 0
    failures = []
    for op in workload.known_defects(dl):
        probed += 1
        try:
            op.result = op.call()
        except Exception as exc:
            op.error = f"{type(exc).__name__}: {exc}"
        check(op)
        if not op.ok:
            failures.append((op.label, op.error, op.expected_failure()))
    return probed, failures


def setup_samples(args, own):
    """Set-up time of this process plus that of fresh processes."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return samples


def _end_to_end(m, setup):
    lat = m["latencies"]
    failed = len(m["failures"])
    return {
        "throughput_ops_s": m["throughput"],
        "latency_p50_ms": 1000 * percentile(lat, 0.5),
        "latency_p90_ms": 1000 * percentile(lat, 0.9),
        "ok_ratio": (m["attempted"] - failed) / m["attempted"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }


def execute(workload, dl, seconds, trace, short, setup):
    """Measure one workload; return the result object and summary lines."""
    recorder = None
    if trace:
        recorder = spans.Recorder()
        recorder.install()
    workdir = os.path.join(ROOT, ".bench_tmp", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        m = measure(workload, dl, seconds, recorder,
                    0 if short else MIN_OPS, workdir, SpeedProbe())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
        if recorder is not None:
            recorder.uninstall()
    probed, defects = probe_known_defects(workload, dl)

    failed = len(m["failures"])
    unexpected = [f for f in m["failures"] + defects if not f[2]]
    lat = m["raw_latencies"]
    if trace:
        values = spans.layer_metrics(recorder, m["passes"])
        values["failed_ratio"] = failed / m["attempted"]
        values["known_defects.failed"] = len(defects)
        values["trace.throughput_ops_s"] = m["throughput"]
        units = spans.LAYER_UNITS
    else:
        values = _end_to_end(m, setup)
        units = END_TO_END_UNITS

    lines = [f"workload={workload.name} "
             f"inputs={json.dumps(workload.sizes())} passes={m['passes']} "
             f"attempted={m['attempted']} "
             f"latency_samples={len(m['latencies'])} "
             f"setup_samples={[round(t, 4) for t in setup]} "
             f"failed={failed} "
             f"known_defects_failed={len(defects)}/{probed} "
             f"unexpected={len(unexpected)} "
             f"speed_factor={m['speed_factor']:.4f} "
             f"raw_throughput_ops_s={m['raw_throughput']:.4f} "
             f"raw_latency_p50_ms={1000 * percentile(lat, 0.5):.4f} "
             f"raw_latency_p90_ms={1000 * percentile(lat, 0.9):.4f}"]
    kinds = {}
    for where, found in (("timed", m["failures"]), ("known defect", defects)):
        for label, error, expected in found:
            key = (where, label, error.split(":")[0], expected)
            kinds[key] = kinds.get(key, 0) + 1
    for (where, label, kind, expected), count in sorted(kinds.items()):
        lines.append(f"  {where}: failed {count} x {label}: {kind}"
                     + ("" if expected else "  (UNEXPECTED)"))
    for label, error, _ in unexpected[:5]:
        lines.append(f"  unexpected {label}: {error[:300]}")
    result = {
        "correct": not failed and not unexpected,
        "attempted": m["attempted"],
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="one pass over a small instance set")
    parser.add_argument("--setup-only", action="store_true",
                        help="print this process's set-up time and stop")
    args = parser.parse_args(argv)

    dl = load_dilatree()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.short)
    own_setup = time.perf_counter() - _PROCESS_START
    probe = SpeedProbe()
    probe.sample(SETUP_SAMPLES)
    own_setup /= probe.factor
    if args.setup_only:
        print(repr(own_setup))
        return 0

    setup = [own_setup]
    if not args.trace and not args.short:
        setup = setup_samples(args, own_setup)
    result, lines = execute(workload, dl, args.seconds, args.trace,
                            args.short, setup)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark, in about half a minute.

    python3 bench/selftest.py

Checks that
- every workload, traced and untraced, emits exactly the metrics that
  BENCHMARK.json names, with their units, in the required result object;
- the traced work counts are identical across runs and across
  PYTHONHASHSEED values;
- a deliberately wrong answer from dilatree is counted as a failed
  operation and marks the run incorrect;
- without the dilatree sources the benchmark exits non-zero and prints
  no result.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import run
import spans
import workloads

ROOT = run.ROOT
RUN = os.path.join(ROOT, "bench", "run.py")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# per-layer metrics whose value is a measured time or rate, not a count
TIMED_UNITS = {"s", "1/s"}

problems = []


def expect(condition, message):
    if not condition:
        problems.append(message)


def bench(workload, trace, hash_seed=None, cwd=ROOT, script=RUN):
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--short"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


def check_emitted(spec):
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    traced = {}
    for w in spec["workloads"]:
        for trace in (0, 1):
            where = f"{w['name']} --trace {trace}"
            out = bench(w["name"], trace)
            expect(out.returncode == 0, f"{where}: exit {out.returncode}: "
                                        f"{out.stderr[-500:]}")
            if out.returncode:
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            expect(set(result) == RESULT_KEYS, f"{where}: keys {set(result)}")
            expect(result["attempted"] >= 1, f"{where}: nothing attempted")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted[trace], f"{where}: metrics differ from "
                   f"BENCHMARK.json: {sorted(set(got) ^ set(wanted[trace]))}")
            for name, metric in result["metrics"].items():
                value = metric["value"]
                expect(isinstance(value, (int, float))
                       and not isinstance(value, bool),
                       f"{where}: {name} is not a number")
            if trace:
                traced[w["name"]] = result
    return traced


def counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] not in TIMED_UNITS}


def check_deterministic(traced):
    for name, first in traced.items():
        for hash_seed in (0, 12345):
            out = bench(name, 1, hash_seed)
            if out.returncode:
                expect(False, f"{name} with PYTHONHASHSEED={hash_seed} "
                              f"failed: {out.stderr[-500:]}")
                continue
            again = json.loads(out.stdout.strip().splitlines()[-1])
            diff = {k for k, v in counts(again).items()
                    if counts(first).get(k) != v}
            expect(not diff, f"{name}: counts moved with PYTHONHASHSEED="
                             f"{hash_seed}: {sorted(diff)}")
            expect((again["attempted"], again["failed"])
                   == (first["attempted"], first["failed"]),
                   f"{name}: attempted/failed moved with PYTHONHASHSEED")


def _flip_verdict(original, dl):
    def wrong(*args, **kwargs):
        verdict = original(*args, **kwargs)
        return dl.Verdict.GREATER if verdict is dl.Verdict.AT_MOST \
            else dl.Verdict.AT_MOST
    return wrong


def _shift_optimum(original, dl):
    def wrong(*args, **kwargs):
        result = original(*args, **kwargs)
        value = result.report.value
        report = dataclasses.replace(result.report, value=dl.Interval(
            value.lo + 1, value.hi + 1, value.bits))
        return dataclasses.replace(result, report=report)
    return wrong


def _no_partition(original, dl):
    def wrong(*args, **kwargs):
        return None
    return wrong


def check_wrong_answers_fail():
    dl = run.load_dilatree()
    faults = {"certify": ("compare_to_threshold", _flip_verdict),
              "search": ("exhaustive_mdst", _shift_optimum),
              "partition": ("decide_partition", _no_partition)}
    for name, (target, make) in faults.items():
        def measure():
            wl = workloads.WORKLOADS[name](7, short=True)
            return run.execute(wl, dl, 0, 0, True, [0.0])[0]

        clean = measure()
        original = getattr(dl, target)
        undo = spans.replace_everywhere(original, make(original, dl))
        try:
            faulty = measure()
        finally:
            for mod, key, val in undo:
                setattr(mod, key, val)
        expect(faulty["failed"] > clean["failed"],
               f"{name}: wrong {target} answers were not counted as failed")
        expect(clean["correct"] and not faulty["correct"],
               f"{name}: wrong {target} answers did not mark the run "
               f"incorrect")


def check_refuses_without_sources():
    bare = os.path.join(ROOT, ".bench_tmp", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "bench"), os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        out = bench("search", 0, cwd=bare,
                    script=os.path.join(bare, "bench", "run.py"))
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass
    expect(out.returncode != 0, "ran without the dilatree sources")
    expect('"metrics"' not in out.stdout,
           "printed a result without the dilatree sources")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    traced = check_emitted(spec)
    check_deterministic(traced)
    check_wrong_answers_fail()
    check_refuses_without_sources()
    for message in problems:
        print("FAIL", message)
    print("selftest:", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

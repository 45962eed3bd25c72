#!/usr/bin/env python3
"""Smoke-scale self-test of the benchmark.

Run from the repository root:  python3 perfbench/selftest.py

Checks, on small inputs (--scale smoke):
  * the metric declarations the benchmark prints (--list-metrics) match
    BENCHMARK.json: the same names, units and directions, end-to-end and
    per-layer alike;
  * every run prints, as its last line, a JSON object with exactly the
    keys correct/attempted/failed/metrics, with every declared metric of
    its mode present, numeric and in its declared unit, and all checks
    passing;
  * deterministic counts repeat exactly across two runs with one seed;
  * another seed changes only the generated inputs: the seeded-input
    digest changes, the digest of everything else and the set-up work
    counts do not;
  * every span of a traced run begins once and ends once, no earlier than
    it began, and names a parent that is open when it begins;
  * in a directory holding only BENCHMARK.json and the benchmark's own
    files, the command fails without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ["field", "repro", "triage"]
SEED_A, SEED_B = 11, 12
failures = []


def check(cond, msg):
    if not cond:
        failures.append(msg)
        print("FAIL:", msg)


def run(workload, seed, trace):
    out = subprocess.run(
        [EXE, "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--scale", "smoke"],
        capture_output=True, text=True, timeout=170)
    lines = out.stdout.strip().splitlines()
    check(out.returncode == 0,
          f"{workload} seed {seed} trace {trace}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(lines[-1])
    digests = dict(kv.split("=") for line in lines if line.strip().startswith("inputs:")
                   for kv in line.split()[1:])
    return result, digests


def check_result(workload, trace, result, declared):
    tag = f"{workload} trace {trace}"
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          f"{tag}: result keys {sorted(result)}")
    check(result["correct"] is True, f"{tag}: a correctness check failed")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{tag}: attempted {result['attempted']}")
    check(isinstance(result["failed"], int), f"{tag}: failed {result['failed']}")
    metrics = result["metrics"]
    check(sorted(metrics) == sorted(m["name"] for m in declared),
          f"{tag}: printed metrics differ from BENCHMARK.json")
    for m in declared:
        got = metrics.get(m["name"], {})
        check(got.get("unit") == m["unit"],
              f"{tag}: {m['name']} unit {got.get('unit')} != {m['unit']}")
        v = got.get("value")
        check(isinstance(v, (int, float)) and math.isfinite(v),
              f"{tag}: {m['name']} value {v!r}")


def check_trace(path):
    """Spans begin once, end once, not before they began; parents resolve
    to spans that are open when the child begins."""
    begun, ended, open_ = {}, set(), set()
    with open(path) as f:
        for n, line in enumerate(f, 1):
            ev = json.loads(line)
            kind = ev["ev"]
            if kind == "span_begin":
                sid = ev["id"]
                check(sid not in begun, f"{path}:{n}: span {sid} begun twice")
                parent = ev.get("parent")
                check(parent is None or parent in open_,
                      f"{path}:{n}: span {sid} has parent {parent} that is not open")
                begun[sid] = ev["t"]
                open_.add(sid)
            elif kind == "span_end":
                sid = ev["id"]
                check(sid in open_, f"{path}:{n}: span {sid} ends without being open")
                check(ev["t"] >= begun.get(sid, ev["t"]), f"{path}:{n}: span {sid} ends early")
                open_.discard(sid)
                ended.add(sid)
    check(begun and not open_, f"{path}: {len(open_)} spans never closed")
    return len(ended)


def main():
    subprocess.run(["dune", "build", "--root", ".", "./perfbench/perfbench.exe"], check=True)
    bench = json.load(open("BENCHMARK.json"))
    listed = json.loads(subprocess.run([EXE, "--list-metrics"], capture_output=True,
                                       text=True, check=True).stdout)
    kinds = {m["name"]: m["kind"] for m in listed}
    for section, e2e in (("end_to_end", True), ("per_layer", False)):
        mine = [(m["name"], m["unit"], m["better"]) for m in listed if m["end_to_end"] == e2e]
        theirs = [(m["name"], m["unit"], m["better"]) for m in bench[section]]
        check(mine == theirs, f"{section}: declarations differ from BENCHMARK.json")

    for w in WORKLOADS:
        r0, _ = run(w, SEED_A, 0)
        check_result(w, 0, r0, bench["end_to_end"])
        runs = []
        for seed in (SEED_A, SEED_A, SEED_B):
            r, d = run(w, seed, 1)
            check_result(w, 1, r, bench["per_layer"])
            spans = check_trace(os.path.join(".perfbench", f"trace-{w}.jsonl"))
            check(spans > 0, f"{w}: traced run recorded no spans")
            runs.append((r["metrics"], d))
        (a, da), (a2, da2), (b, db) = runs
        for name, kind in kinds.items():
            if kind == "count" and name in a:
                check(a[name]["value"] == a2[name]["value"],
                      f"{w}: count {name} differs between two runs of seed {SEED_A}: "
                      f"{a[name]['value']} vs {a2[name]['value']}")
        check(da == da2, f"{w}: input digests differ for one seed")
        if w == "repro":  # a fixed bug set: nothing is generated
            check(da["seeded"] == db["seeded"] == "none", "repro: seeded inputs appeared")
        else:
            check(da["seeded"] != db["seeded"], f"{w}: the seed did not change the generated inputs")
        check(da["fixed"] == db["fixed"], f"{w}: the seed changed inputs it should not")
        for name in ("staticanalysis.symbolic_labels", "concolic.dynamic_runs"):
            check(a[name]["value"] == b[name]["value"], f"{w}: set-up count {name} depends on the seed")
        print(f"{w}: ok" if not failures else f"{w}: {len(failures)} failures so far")

    # the command outside a checkout: only BENCHMARK.json and perfbench/
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    out = subprocess.run(bench["command"] + ["--workload", "field", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                         cwd=bare, capture_output=True, text=True, timeout=170)
    check(out.returncode != 0 and '"metrics"' not in out.stdout,
          "the command succeeded outside a checkout of the repository")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest:", "ok" if not failures else f"{len(failures)} failures")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

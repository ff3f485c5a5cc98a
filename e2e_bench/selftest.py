#!/usr/bin/env python3
"""Fast self-test of the end-to-end benchmark.

Run from the repository root:  python3 e2e_bench/selftest.py

Runs every workload of BENCHMARK.json on tiny streams, untraced and traced,
and checks that the result line carries every declared metric with its
unit and reports 0 failed operations. Then corrupts the reference output
(an extra span; two messages swapped) and checks that the benchmark's
correctness checks fire: correct is false and failed > 0.
"""
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd + list(extra), cwd=ROOT, capture_output=True,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError("%s: no output (rc %d)\n%s" %
                             (" ".join(cmd), proc.returncode, proc.stderr))
    return proc.returncode, json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, metrics in declared.items():
            rc, result = run(workload, trace)
            if (rc != 0 or result["correct"] is not True or
                    result["failed"] != 0 or result["attempted"] < 1):
                errors.append("%s trace=%d: rc %d, %s" % (
                    workload, trace, rc,
                    {k: result[k] for k in ("correct", "attempted", "failed")}))
            got = result["metrics"]
            for m in metrics:
                if m["name"] not in got:
                    errors.append("%s trace=%d: missing %s" %
                                  (workload, trace, m["name"]))
                elif got[m["name"]]["unit"] != m["unit"]:
                    errors.append("%s trace=%d: %s unit %s, declared %s" % (
                        workload, trace, m["name"], got[m["name"]]["unit"],
                        m["unit"]))
            extra = set(got) - {m["name"] for m in metrics}
            if extra:
                errors.append("%s trace=%d: undeclared metrics %s" %
                              (workload, trace, sorted(extra)))
        for how in ("spans", "order"):
            rc, result = run(workload, 0, "--corrupt", how)
            if result["correct"] is not False or result["failed"] < 1 or rc == 0:
                errors.append("%s --corrupt %s: checks did not fire (%s)" %
                              (workload, how, result))
        print("%s: ok" % workload if not errors else "%s: see errors" % workload,
              flush=True)
    for e in errors:
        print("FAIL " + e)
    print("selftest: %s" % ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. A tiny-size run of every workload, untraced and traced, emits exactly the
   metrics BENCHMARK.json names, with their units, all finite, the
   end-to-end ones non-zero, and passes every output check.
2. A run with a deliberately corrupted output (--corrupt) is rejected by
   the checks of every workload: correct is false, and the exit code is 0
   because a result line was printed.
3. The benchmark fails, without printing a result, in a directory that holds
   only BENCHMARK.json and the benchmark's own files.
Exits 0 when all of that holds.
"""
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(root, workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", trace, *extra],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)
            print("FAIL:", what)
        return ok

    for workload in (w["name"] for w in bench["workloads"]):
        for trace, defs in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            before = len(failures)
            code, result, err = run(ROOT, workload, trace, "--tiny")
            who = "%s --trace %s" % (workload, trace)
            if not expect(result is not None, who + ": no JSON result line\n" + err[-2000:]):
                continue
            expect(code == 0, who + ": exit code %d" % code)
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   who + ": result keys %s" % sorted(result))
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1, who + ": checks did not pass")
            expected = {d["name"]: d["unit"] for d in defs}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == expected, who + ": metrics differ from BENCHMARK.json: "
                   "missing %s, extra %s, units %s" % (
                       sorted(set(expected) - set(got)),
                       sorted(set(got) - set(expected)),
                       sorted(k for k in got if k in expected and got[k] != expected[k])))
            for name, entry in result["metrics"].items():
                value = entry["value"]
                expect(isinstance(value, (int, float)) and math.isfinite(value),
                       who + ": %s is not a finite number" % name)
                if trace == "0":
                    expect(value != 0, who + ": end-to-end %s is 0" % name)
            if len(failures) == before:
                print("ok:", who)

        code, result, _ = run(ROOT, workload, "0", "--tiny", "--corrupt")
        if expect(code == 0 and result is not None and result["correct"] is False,
                  workload + ": corrupted output was not rejected"):
            print("ok: %s rejects a corrupted output" % workload)

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _ = run(bare, bench["workloads"][0]["name"], "0")
        if expect(code != 0 and result is None,
                  "a directory without the sources did not fail cleanly"):
            print("ok: fails without the library sources")

    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the benchmark's output check.

    python3 perfbench/selftest.py

Plants one wrong answer (a flipped byte in one read, after the call succeeded): the run
must report correct=false. Plants one error status (one successful read reported as
failed): the run must count it as a failure, raising error_rate, and stay correct.
Runs the durability phase (--durability 1) once: it must report its reopen timings, and
no successful call in it may answer wrongly.
Exits non-zero if any expectation fails.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", "0", *extra]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    return out.strip().splitlines()


def run_planted(plant, workload):
    lines = run(workload, "--plant", plant)
    planted = [l for l in lines if l.startswith("planted:")]
    return json.loads(lines[-1]), planted[0] if planted else ""


def main():
    ok = True
    for workload in ("posix_tree", "desktop_search"):
        wrong, note = run_planted("wrong", workload)
        if wrong["correct"] is not False or "1 wrong answer planted" not in note:
            print(f"FAIL {workload}: planted wrong answer not caught: {note}")
            ok = False
        err, note = run_planted("error", workload)
        if err["correct"] is not True or err["failed"] < 1 or "1 error status counted" not in note:
            print(f"FAIL {workload}: planted error not counted as a failure: {note}")
            ok = False
    lines = run("posix_tree", "--durability", "1")
    reported = {l.split()[1] for l in lines if l.startswith("unbounded ")}
    if json.loads(lines[-1])["correct"] is not True or \
            not {"recover_s", "mount_s", "close_s"} <= reported:
        print("FAIL posix_tree: the durability phase did not complete correctly")
        ok = False
    print("selftest " + ("passed" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

"""Smoke self-test of the benchmark, from the root of a checkout:

    python3 benchmarks/selftest.py

1. Runs every workload on its reduced inputs through the real command, with
   tracing off and on, and asserts that the last line is the result object
   and carries every metric BENCHMARK.json names, each with its unit.
2. Feeds every output check a wrong answer and asserts that the check fails;
   the right answer must pass.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from mpmath import mp

import run
from workloads import SELF_CHECK, WORKLOADS, WRONG, parse_record

HERE = Path(__file__).resolve().parent


def check_metrics_emitted():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "7",
                 "--seconds", "0.2", "--trace", str(trace), "--smoke"],
                capture_output=True, text=True, timeout=170, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True, done.stdout
            assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            assert got == wanted[trace], (name, trace, set(got) ^ set(wanted[trace]))
            for metric, unit in got.items():
                assert f" {metric} " in done.stdout and unit in done.stdout, metric
            print(f"ok   metrics  {name} trace {trace}")


def check(workload, item, output):
    return run.check_output(workload, item, output)


def _kinds(problems):
    return {kind for kind, _ in problems}


def _replace_last(text, old, new):
    i = text.rindex(old)
    return text[:i] + new + text[i + len(old):]


def _wrong_decimal(text):
    """The decimal string with one digit near its end changed."""
    i = max(j for j, c in enumerate(text) if c.isdigit() and j < len(text) - 3)
    return text[:i] + str((int(text[i]) + 5) % 10) + text[i + 1:]


def check_checks_fail(cfx):
    for name in ("exact-deep", "complex-z"):
        workload = WORKLOADS[name]
        for item in workload.inputs(7, smoke=True)[:4]:
            value, depth = workload.run(cfx, item)
            assert not check(workload, item, (value, depth)), item.label
            if isinstance(value, Fraction):
                wrong = value + Fraction(1, 10 ** (item.digits - 4))
            else:
                with mp.workdps(item.digits + 20):
                    wrong = value * (1 + mp.mpf(10) ** (4 - item.digits))
            assert _kinds(check(workload, item, (wrong, depth))) == {WRONG}, item.label
            assert _kinds(check(workload, item, (value, 0))) == {WRONG}, item.label
        print(f"ok   checks   {name}")

    workload = WORKLOADS["verify-suite"]
    item = workload.inputs(7, smoke=True)[0]
    code, stdout = workload.run(cfx, item)
    assert not check(workload, item, (code, stdout))
    record = json.loads(stdout)
    record["rows"][0]["passed"] = False
    assert _kinds(check(workload, item, (code, json.dumps(record)))) == {WRONG}
    record = json.loads(stdout)
    del record["rows"][0]
    assert _kinds(check(workload, item, (code, json.dumps(record)))) == {WRONG}
    assert _kinds(check(workload, item, (1, stdout))) == {WRONG}
    print("ok   checks   verify-suite")

    workload = WORKLOADS["cli-burst"]
    firsts = {}
    for item in workload.inputs(7, smoke=True):
        firsts.setdefault(item.kind, item)
    assert set(firsts) == {"eval", "convergents", "diff-table", "compare", "reject"}, firsts
    for kind, first in firsts.items():
        for fmt in ("text", "csv", "json"):
            argv = first.argv[:-1] + (fmt,)
            _check_cli_item(cfx, workload, kind, dataclasses.replace(first, argv=argv))
            print(f"ok   checks   cli-burst {kind} {fmt}")


def _check_cli_item(cfx, workload, kind, item):
    code, stdout = workload.run(cfx, item)
    assert WRONG not in _kinds(check(workload, item, (code, stdout))), item.label
    assert _kinds(check(workload, item, (code + 1, stdout))) == {WRONG}, item.label
    if kind == "reject":
        assert _kinds(check(workload, item, (code, "9/4\n"))) == {WRONG}, item.label
        return
    rows, _ = parse_record(item.argv, stdout)
    column = {"eval": "value", "convergents": "value", "diff-table": "difference",
              "compare": item.family.split(",")[-1]}[kind]
    cell = str(rows[-1][column])
    wrong = _wrong_decimal(cell) if kind == "eval" else "1" + cell
    assert WRONG in _kinds(check(workload, item, (code, _replace_last(stdout, cell, wrong)))), \
        item.label
    if kind == "eval":
        bad = _replace_last(stdout, str(rows[0]["oracle_delta"]), "1.0e-5")
        assert SELF_CHECK in _kinds(check(workload, item, (code, bad))), item.label


def main():
    check_checks_fail(run.import_cfx())
    check_metrics_emitted()
    print("selftest passed")


if __name__ == "__main__":
    main()

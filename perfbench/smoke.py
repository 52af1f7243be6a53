"""Smoke test of the benchmark itself.

Run from the repository root (about a minute)::

    python3 perfbench/smoke.py

Runs every workload at its tiny ``smoke`` size, untraced and traced, and
checks that each prints every metric BENCHMARK.json declares, by name and
with its unit, with all points passing.  Then it runs with a tampered DEM
digest and with tampered reference failure counts, and checks that those runs report
``fail_ratio`` > 0 and exit non-zero.  Exits 1 on the first broken check.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, references: Path | None = None):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
        "--seconds", "1", "--trace", str(trace), "--size", "smoke",
    ]
    if references is not None:
        cmd += ["--references", str(references)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"FAIL {workload} trace={trace}: no output\n{proc.stderr}")
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3:
            printed[parts[0]] = (parts[1], parts[2])
    return proc.returncode, json.loads(lines[-1]), printed


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL {what}")
    print(f"ok   {what}", flush=True)


def tampered(path: Path, field: str) -> Path:
    refs = json.loads((HERE / "references.json").read_text())
    for entry in refs["points"].values():
        if field == "dem_sha256" and field in entry:
            entry[field] = "0" * 64
        elif field == "failures":
            entry[field] = [entry["shots"] // 2 for _ in entry[field]]
    path.write_text(json.dumps(refs))
    return path


def main() -> int:
    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            what = f"{workload} trace={trace}"
            code, result, printed = bench(workload, trace)
            check(code == 0 and result["correct"] and result["failed"] == 0, f"{what}: all points pass")
            expected = {m["name"]: m["unit"] for m in SPEC[group]}
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            check(units == expected, f"{what}: result line has every {group} metric with its unit")
            check(
                all(printed.get(name, (None, None))[1] == unit for name, unit in expected.items()),
                f"{what}: every metric printed by name with its unit",
            )
    scratch = Path.cwd() / ".perfbench_tmp" / "smoke"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        for workload, field in (
            ("cold_points", "dem_sha256"),
            ("cold_points", "failures"),
            ("sweep_d3_store", "failures"),
        ):
            refs = tampered(scratch / f"{field}.json", field)
            code, result, printed = bench(workload, 0, refs)
            what = f"{workload} with tampered {field}"
            check(code != 0 and not result["correct"], f"{what}: exits non-zero")
            fail_ratio = float(printed.get("fail_ratio", ("0", ""))[0])
            check(fail_ratio > 0 and result["failed"] > 0, f"{what}: fail_ratio {fail_ratio:g} > 0")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())

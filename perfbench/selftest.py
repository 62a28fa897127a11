"""Quick self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json briefly, untraced and traced, and
checks that the result line has exactly the contract's keys, that every
end-to-end (untraced) or per-layer (traced) metric is present with its
unit, and that no operation failed (fail_share 0).  Then it copies only
BENCHMARK.json and the benchmark's files into an empty directory and checks
that the benchmark refuses to run there: non-zero exit, no result line.
Exit code 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = "1"


def _run(spec: dict, cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [*spec["command"], "--workload", workload, "--seed", "7",
            "--seconds", SECONDS, "--trace", str(trace)]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def _check_result(spec: dict, workload: str, trace: int, proc) -> list[str]:
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    expected = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    if set(result["metrics"]) != set(units):
        problems.append(f"{where}: metrics differ: {sorted(set(result['metrics']) ^ set(units))}")
    for name, unit in units.items():
        got = result["metrics"].get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: metric {name} reads {got}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: fail_share {result['failed']}/{result['attempted']}")
    return problems


def _check_bare(spec: dict) -> list[str]:
    """The benchmark alone, without the program, must fail without a result."""
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(spec, bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or '"metrics"' in last:
        return [f"without the program: exit {proc.returncode}, last line {last[:80]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = _check_result(spec, workload, trace, _run(spec, ROOT, workload, trace))
            print(f"{workload:10s} trace {trace}: {'ok' if not found else 'FAIL'}")
            problems += found
    found = _check_bare(spec)
    print(f"{'bare copy':10s}        : {'ok' if not found else 'FAIL'}")
    problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""morseres benchmark: cold-process workloads with checked answers.

    python3 perfbench/run.py --workload oracle --seed 0 --seconds 40 --trace 0

Run from the repository root.  One client runs one fresh interpreter
(`perfbench/child.py`) at a time and waits for it: a closed loop with a
single client, as a user runs the verifier.  With `--trace 0` the run
first times set-up alone in a few processes, then runs the workload
until `--seconds` is used up and prints the end-to-end metrics as
medians over the processes whose answers passed their checks.  With
`--trace 1` it runs the workload once untraced and once traced and
prints the per-layer metrics and the tracing overhead.  The metric
names and units come from BENCHMARK.json.  The last line of output is
one JSON object: correct, attempted, failed (checks) and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from child import WORKLOADS  # noqa: E402

SETUP_REPEATS = 9  # set-up only processes per untraced run
TIME_LIMIT_S = 170.0  # no process is started or left running past this
SPAN_DIR = os.path.join(ROOT, ".perfbench")


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _command(args) -> str:
    try:
        got = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return got.stdout if got.returncode == 0 else ""


def environment() -> dict:
    """Interpreter, cores, revision, CPU model and cache sizes."""
    lscpu = {}
    for line in _command(["lscpu"]).splitlines():
        key, _, value = line.partition(":")
        lscpu[key.strip()] = value.strip()
    revision = "not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        revision = _command(["git", "rev-parse", "HEAD"]).strip() or "unknown"
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git": revision,
        "cpu": lscpu.get("Model name", platform.processor() or "unknown"),
        "l2": lscpu.get("L2 cache", "unknown"),
        "l3": lscpu.get("L3 cache", "unknown"),
    }


def run_child(workload: str, seed: int, deadline: float, *extra: str) -> dict:
    """One fresh interpreter; its JSON result, or {"crashed": ...}."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError("no time left to start a process")
    start = time.monotonic()
    try:
        got = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{workload} process exceeded the run's time limit")
    elapsed = time.monotonic() - start
    lines = got.stdout.strip().splitlines()
    try:
        if got.returncode != 0 or not lines:
            raise ValueError(f"exit code {got.returncode}")
        result = json.loads(lines[-1])
    except ValueError as exc:
        tail = got.stderr.strip().splitlines()[-3:]
        result = {"crashed": " | ".join(tail) or str(exc)}
    result["elapsed"] = elapsed
    return result


def tally(results: list[dict]) -> tuple[int, int, list[dict]]:
    """(checks attempted, checks failed, results that passed every check).
    A crashed process counts as one failed check."""
    attempted = failed = 0
    passed = []
    for r in results:
        if "crashed" in r:
            attempted += 1
            failed += 1
            continue
        bad = sum(not ok for _, ok in r["checks"])
        attempted += len(r["checks"])
        failed += bad
        if not bad:
            passed.append(r)
    return attempted, failed, passed


def end_to_end(passed: list[dict], setups: list[float]) -> dict[str, float]:
    if not passed:
        return {}
    values = {key: statistics.median(r[key] for r in passed)
              for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    values["setup_s"] = statistics.median(setups + [r["setup_s"] for r in passed])
    return values


def per_layer(untraced: dict, traced: dict) -> dict[str, float]:
    if "wall_s" not in untraced or "wall_s" not in traced:
        return {}
    out = dict(traced["layers"])
    stages = untraced["stages"]
    out["oracle.betti_gf2_s"] = stages.get("betti_gf2_s", 0.0)
    out["oracle.betti_q_s"] = stages.get("betti_q_s", 0.0)
    out["trace.untraced_wall_s"] = untraced["wall_s"]
    out["trace.traced_wall_s"] = traced["wall_s"]
    out["trace.overhead_pct"] = 100.0 * (traced["wall_s"] / untraced["wall_s"] - 1.0)
    return out


def describe(label: str, r: dict) -> str:
    if "crashed" in r:
        return f"{label}: crashed ({r['crashed']})"
    ok = sum(ok for _, ok in r["checks"])
    text = f"{label}: checks {ok}/{len(r['checks'])}, {r['elapsed']:.2f} s elapsed"
    if "wall_s" in r:
        text += (f", setup {r['setup_s']:.4f} s, wall {r['wall_s']:.3f} s, "
                 f"cpu {r['cpu_s']:.3f} s, rss {r['peak_rss_mb']:.1f} MB, stages "
                 + json.dumps({k: round(v, 3) for k, v in r["stages"].items()}))
    else:
        failing = [name for name, ok in r["checks"] if not ok]
        text += ", not timed; failed: " + "; ".join(failing)
    return text


def collect(workload: str, seed: int, seconds: float, trace: bool):
    """Run the processes of one benchmark run; (results, metric values)."""
    start = time.monotonic()
    limit = start + TIME_LIMIT_S
    if trace:
        os.makedirs(SPAN_DIR, exist_ok=True)
        spans = os.path.join(SPAN_DIR, f"spans-{workload}-seed{seed}.jsonl")
        untraced = run_child(workload, seed, limit)
        traced = run_child(workload, seed, limit, "--spans", spans)
        print(describe("untraced", untraced))
        print(describe("traced", traced))
        if traced.get("absent"):
            print("absent (reported as 0): " + ", ".join(traced["absent"]))
        print(f"spans: {os.path.relpath(spans, ROOT)}")
        results = [untraced, traced]
        return results, per_layer(untraced, traced)

    setups = []
    for _ in range(SETUP_REPEATS):
        r = run_child(workload, seed, limit, "--setup-only")
        if "crashed" in r:
            raise HarnessError(f"set-up failed: {r['crashed']}")
        setups.append(r["setup_s"])
    deadline = start + seconds
    results = []
    longest = 0.0
    while not results or time.monotonic() + longest <= deadline:
        r = run_child(workload, seed, limit)
        longest = max(longest, r["elapsed"])
        results.append(r)
        print(describe(f"process {len(results)}", r))
    print("setup-only: " + ", ".join(f"{s:.4f}" for s in setups) + " s")
    return results, end_to_end(tally(results)[2], setups)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="morseres benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "morseres", "__init__.py")):
        print("perfbench: src/morseres not found; run from a morseres checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    print("env " + json.dumps(environment()))
    try:
        results, values = collect(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    attempted, failed, passed = tally(results)
    correct = failed == 0 and bool(values)
    metrics = {}
    if correct:
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            print("perfbench: metrics not produced: " + ", ".join(missing), file=sys.stderr)
            return 3
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

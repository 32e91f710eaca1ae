"""Self-test of the benchmark harness, on small inputs (a few seconds).

    python3 perfbench/selftest.py

1. A small run that is correct passes its checks and carries its times.
2. The same run against a deliberately wrong expected value is reported
   as failed, carries no times, and the run summary counts the failure
   and derives no metric from it.
3. The cold-start check raises on a warm result cache.
4. The tracer reports a removed name as absent instead of failing.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import child  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def clear_caches() -> None:
    for module, name in child.COLD_CACHES:
        child.cache_of(module, name).cache_clear()


def fresh(workload, tracer=None) -> dict:
    clear_caches()
    return child.measure(workload, 0, child.clock(), tracer)


def main() -> int:
    # 1. correct small runs are timed
    small = [child.Oracle(q=4, gf2=(3, 4), rational=(3,)), child.Engine(q=5, s=3, cells=327)]
    results = [fresh(workload) for workload in small]
    attempted, failed, passed = run.tally(results)
    assert failed == 0 and len(passed) == 2, results
    assert run.end_to_end(passed, [0.01])["wall_s"] > 0
    print("ok  correct small runs pass their checks and are timed")

    # 2. a wrong expected value fails the gate, and the run is not timed
    r = fresh(child.Engine(q=5, s=3, cells=328))
    assert not all(ok for _, ok in r["checks"]), r
    assert not {"wall_s", "cpu_s", "setup_s", "peak_rss_mb"} & set(r), r
    attempted, failed, passed = run.tally([r])
    assert failed == 1 and attempted == 4 and not passed
    assert run.end_to_end(passed, [0.01]) == {}
    print("ok  a wrong expected value is reported failed and not timed")

    # 3. the cold-start check fires on a warm cache
    from morseres import betti, extremal

    clear_caches()
    betti.graded_betti(extremal.power_generators(3, extremal.single_relation(3), 2))
    try:
        child.assert_cold()
    except child.ColdStartError as exc:
        print(f"ok  the cold-start check fires on a warm cache ({exc})")
    else:
        raise AssertionError("cold-start check passed on a warm cache")

    # 4. a name removed from the package is reported absent, metric 0
    from morseres import monomials

    saved = monomials.__dict__.pop("mask_lcm")
    try:
        tracer = Tracer("selftest")
        r = fresh(child.Oracle(q=4, gf2=(3,), rational=()), tracer)
    finally:
        monomials.mask_lcm = saved
    assert "monomials.mask_lcm" in r["absent"], r["absent"]
    assert r["layers"]["monomials.mask_lcm.calls"] == 0
    assert r["layers"]["betti.lattice_elements"] > 0
    print("ok  a removed name is reported absent and its metric reads 0")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One cold measurement of one workload, in a fresh interpreter.

The process imports `morseres`, builds the workload's inputs (set-up),
checks that the package's result caches are empty, times the answer,
and only then computes the expected values by an independent route and
compares.  A run whose check fails carries no times.  The result is
printed as one JSON line for `perfbench/run.py`.

    PYTHONPATH=src python3 perfbench/child.py --workload oracle --seed 0
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import sys
import time

clock = time.perf_counter

# lru_caches that would turn a repeat into a cache hit; each timed region
# starts with them empty, as it does for a user's fresh `morseres` process
COLD_CACHES = (
    ("morseres.betti", "graded_betti"),
    ("morseres.morse", "critical_closed_form_l2"),
)


class ColdStartError(RuntimeError):
    """A result cache held entries before a timed region."""


def cache_of(module: str, name: str):
    fn = getattr(importlib.import_module(module), name, None)
    while fn is not None and not hasattr(fn, "cache_info"):
        fn = getattr(fn, "__wrapped__", None)
    return fn


def assert_cold() -> None:
    for module, name in COLD_CACHES:
        fn = cache_of(module, name)
        if fn is not None and fn.cache_info().currsize:
            raise ColdStartError(
                f"{module}.{name} holds {fn.cache_info().currsize} entries "
                "before the timed region"
            )


class Oracle:
    """`graded_betti` on the extremal squares I^2 of one relation
    (1, {2..s}) on q generators, over GF(2) and over Q."""

    def __init__(self, q=5, gf2=(3, 4, 5), rational=(3,)):
        self.q, self.gf2, self.rational = q, gf2, rational

    def setup(self, seed):
        from morseres import extremal

        return {
            s: extremal.power_generators(self.q, extremal.single_relation(s), 2)
            for s in self.gf2
        }

    def run(self, squares, stages):
        from morseres import betti

        tables = {}
        for field, ss, total in (("gf2", self.gf2, "betti_gf2_s"),
                                 ("rational", self.rational, "betti_q_s")):
            stages[total] = 0.0
            for s in ss:
                t0 = clock()
                tables[field, s] = betti.graded_betti(squares[s], field)
                stages[f"{field}_s{s}_s"] = clock() - t0
                stages[total] += stages[f"{field}_s{s}_s"]
        return tables

    def expected(self):
        """Cell counts of the pruned pair complex and the pd formula."""
        from morseres import betti, morse

        return {
            s: (morse.critical_counts(self.q, s), betti.pd_formula(self.q, s)[1])
            for s in self.gf2
        }

    def check(self, tables, expected):
        checks = []
        for s in self.gf2:
            counts, pd = expected[s]
            table = tables["gf2", s]
            checks.append((f"gf2 total q={self.q} s={s}", table.total() == counts))
            checks.append((f"gf2 pd q={self.q} s={s}", table.projective_dimension == pd))
        for s in self.rational:
            checks.append(
                (f"rational total = gf2 total q={self.q} s={s}",
                 tables["rational", s].total() == tables["gf2", s].total())
            )
        return checks


class Engine:
    """The steps of `suite_engine` on the pair complex l2(q) at (q, s)."""

    def __init__(self, q=7, s=3, cells=231_743):
        self.q, self.s, self.cells = q, s, cells

    def setup(self, seed):
        return None

    def run(self, _inputs, stages):
        from morseres import complexes, morse

        q, s = self.q, self.s
        t0 = clock()
        faces = list(complexes.l2(q).faces())
        t1 = clock()
        spec, matching = morse.matching_l2(q, s)
        t2 = clock()
        engine = morse.critical_cells(faces, spec)
        t3 = clock()
        closed = morse.critical_closed_form_l2(q, s)
        t4 = clock()
        acyclic = morse.is_acyclic(faces, matching)
        t5 = clock()
        stages.update(faces_s=t1 - t0, matching_l2_s=t2 - t1, critical_cells_s=t3 - t2,
                      closed_form_s=t4 - t3, is_acyclic_s=t5 - t4)
        return engine, closed, acyclic

    def expected(self):
        """The documented cell count and the pd formula for the square."""
        from morseres import betti

        return self.cells, betti.pd_formula(self.q, self.s)[1]

    def check(self, answer, expected):
        engine, closed, acyclic = answer
        cells, pd = expected
        q, s = self.q, self.s
        return [
            (f"engine = closed form q={q} s={s}", engine == closed),
            (f"{cells} critical cells q={q} s={s}", len(engine) == cells),
            (f"top dimension = pd formula q={q} s={s}",
             max(f.bit_count() for f in engine) - 1 == pd),
            (f"acyclic q={q} s={s}", acyclic is True),
        ]


class Report:
    """`morseres report --trials T --seed <seed>` through `cli.main`."""

    def __init__(self, trials=1000):
        self.trials = trials

    def setup(self, seed):
        import morseres.cli  # noqa: F401

        return ["report", "--trials", str(self.trials), "--seed", str(seed)]

    def run(self, argv, stages):
        from morseres import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def expected(self):
        return None

    def check(self, answer, expected):
        code, text = answer
        lines = [ln for ln in text.splitlines() if ln.startswith(("PASS", "FAIL"))]
        checks = [(ln[6:], ln.startswith("PASS")) for ln in lines]
        checks.append(("report ran its checks", bool(lines)))
        checks.append(("exit code 0", code == 0))
        return checks


WORKLOADS = {"oracle": Oracle, "engine": Engine, "report": Report}


def measure(workload, seed: int, t0: float, tracer=None, setup_only=False) -> dict:
    """Set up, time and check one workload in this process.

    `t0` is the clock reading taken before `morseres` was imported.
    """
    import morseres  # noqa: F401

    if tracer is not None:
        tracer.install()
    inputs = workload.setup(seed)
    setup_s = clock() - t0
    if setup_only:
        return {"setup_s": setup_s}
    assert_cold()
    stages: dict[str, float] = {}
    w0, c0 = clock(), time.process_time()
    answer = workload.run(inputs, stages)
    wall_s, cpu_s = clock() - w0, time.process_time() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # layers are read before the expected values are computed, so the
    # independent route does not count towards them
    layers = tracer.layer_metrics() if tracer is not None else None
    checks = workload.check(answer, workload.expected())
    result = {"checks": [[name, bool(ok)] for name, ok in checks]}
    if all(ok for _, ok in checks):
        result.update(setup_s=setup_s, wall_s=wall_s, cpu_s=cpu_s,
                      peak_rss_mb=peak_rss_mb, stages=stages)
        if tracer is not None:
            result.update(layers=layers, absent=tracer.absent)
    return result


def main(t0: float) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="trace the run and write its spans here")
    args = parser.parse_args()
    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer(f"{args.workload}-seed{args.seed}")
    result = measure(WORKLOADS[args.workload](), args.seed, t0, tracer, args.setup_only)
    if tracer is not None:
        tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    start = clock()
    sys.exit(main(start))

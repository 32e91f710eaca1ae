"""In-memory tracer for the traced benchmark run.

`Tracer.install` replaces selected public functions of the `morseres`
modules with wrappers, in every `morseres` module that holds the name,
so a call made through any import path is seen.  Nothing under `src/`
changes.  Each wrapper counts calls and accumulates inclusive and self
time (inclusive minus the time of wrapped callees).  Stage functions
also record one span each (id, parent, name, start, end), kept in memory
and written out by `write_spans` when the run ends.  Hot kernels (mask
operations, ranks, per-face generators) are aggregated only, since one
span per call would cost more memory than the work they trace.

A name that the package no longer defines is recorded in `absent`; its
metrics read as zero instead of failing the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time

clock = time.perf_counter

SPAN = "span"  # stats, self time and one recorded span per call
STACK = "stack"  # stats and self time, no span (called thousands of times)
LEAF = "leaf"  # stats only; must not call other wrapped functions
GENERATOR = "generator"  # time spent inside each next(), items yielded


def _observe_homology(tracer, key, args, result):
    n = len(args[0])
    tracer.bump("betti.subcomplex_faces", n)
    tracer.peak("betti.subcomplex_faces_max", n)
    if any(result):
        tracer.bump("betti.lattice_nonzero", 1)


def _observe_rank(tracer, key, args, result):
    tracer.peak("betti.rank_cols_max", len(args[0]))


def _observe_matching(tracer, key, args, result):
    tracer.bump("morse.matched_pairs", len(result[1]))


def _observe_critical(tracer, key, args, result):
    tracer.bump("morse.critical", len(result))


def _observe_characterization(tracer, key, args, result):
    tracer.bump("relations.pairs_checked", result.pairs_checked)


# (module, attribute path, kind, observer); the stat key is
# "<module suffix>.<last attribute>".
TARGETS = (
    ("morseres.monomials", "mask_lcm", LEAF, None),
    ("morseres.monomials", "mask_divides", LEAF, None),
    ("morseres.monomials", "MonomialIdeal.power", STACK, None),
    ("morseres.monomials", "MonomialIdeal.minimalize", STACK, None),
    ("morseres.monomials", "MonomialIdeal.is_minimal", STACK, None),
    ("morseres.complexes", "l2", SPAN, None),
    ("morseres.complexes", "SimplicialComplex.faces", GENERATOR, None),
    ("morseres.extremal", "power_generators", SPAN, None),
    ("morseres.betti", "graded_betti", SPAN, None),
    ("morseres.betti", "homology_dims", STACK, _observe_homology),
    ("morseres.betti", "gf2_rank", LEAF, _observe_rank),
    ("morseres.betti", "exact_rank", LEAF, _observe_rank),
    ("morseres.morse", "matching_l2", SPAN, _observe_matching),
    ("morseres.morse", "critical_cells", SPAN, _observe_critical),
    ("morseres.morse", "critical_closed_form_l2", STACK, None),
    ("morseres.morse", "is_acyclic", SPAN, None),
    ("morseres.morse", "morse_complex", SPAN, None),
    ("morseres.relations", "verify_square_characterization", SPAN, _observe_characterization),
    ("morseres.relations", "minimality_audit", SPAN, None),
    ("morseres.sampling", "random_squarefree_ideal", STACK, None),
)

# Entries of cli.SUITES, the table `morseres report` dispatches through.
SUITE_NAMES = (
    "table1",
    "examples",
    "engine",
    "homogeneity",
    "minimality",
    "pd",
    "characterization",
    "cellorder",
    "upperbound",
    "firstpower",
)


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.originals: dict[str, object] = {}
        # child-time accumulators of the open wrapped calls; index 0 is the root
        self._child = [0.0]
        self._span_ids = [0]
        self._next_span = 1

    # -- counters -----------------------------------------------------
    def bump(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def peak(self, key: str, n: int) -> None:
        if n > self.counters.get(key, 0):
            self.counters[key] = n

    def stat(self, key: str) -> Stat:
        got = self.stats.get(key)
        if got is None:
            got = self.stats[key] = Stat()
        return got

    # -- wrappers -----------------------------------------------------
    def _wrap(self, fn, key: str, kind: str, observe):
        st = self.stat(key)
        child = self._child

        if kind == LEAF:
            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                t0 = clock()
                result = fn(*args, **kwargs)
                dt = clock() - t0
                st.calls += 1
                st.total += dt
                st.self_time += dt
                child[-1] += dt
                if observe is not None:
                    observe(self, key, args, result)
                return result

            return leaf

        if kind == GENERATOR:
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                st.calls += 1
                items = 0
                it = fn(*args, **kwargs)
                try:
                    while True:
                        t0 = clock()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            dt = clock() - t0
                            st.total += dt
                            st.self_time += dt
                            child[-1] += dt
                        items += 1
                        yield item
                finally:
                    self.bump(key + ".yielded", items)

            return generator

        record = kind == SPAN
        span_ids = self._span_ids
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if record:
                span_id = self._next_span
                self._next_span += 1
                parent = span_ids[-1]
                span_ids.append(span_id)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                inner = child.pop()
                child[-1] += dt
                st.calls += 1
                st.total += dt
                st.self_time += dt - inner
                if record:
                    span_ids.pop()
                    spans.append((span_id, parent, key, t0, t1))
            if observe is not None:
                observe(self, key, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; call after `import morseres` and before any
        work whose layers should be measured."""
        import morseres.cli  # noqa: F401  (the package loads every other submodule)

        modules = [m for name, m in sys.modules.items()
                   if name == "morseres" or name.startswith("morseres.")]
        for modname, path, kind, observe in TARGETS:
            key = modname.rsplit(".", 1)[1] + "." + path.rsplit(".", 1)[-1]
            owner = sys.modules.get(modname)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            attr = parts[-1]
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(key)
                continue
            self.originals[key] = raw
            if isinstance(raw, property):
                setattr(owner, attr, property(self._wrap(raw.fget, key, kind, observe)))
                continue
            wrapper = self._wrap(raw, key, kind, observe)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, name, wrapper)

        cli = sys.modules.get("morseres.cli")
        suites = getattr(cli, "SUITES", {})
        for name in SUITE_NAMES:
            key = "cli.suite." + name
            if name not in suites:
                self.absent.append(key)
                continue
            suites[name] = self._wrap(suites[name], key, SPAN, None)

    # -- results ------------------------------------------------------
    def cache_hits(self, key: str) -> int:
        info = getattr(self.originals.get(key), "cache_info", None)
        return info().hits if info is not None else 0

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers; see perfbench/NOTES.md for each definition."""

        def calls(key):
            st = self.stats.get(key)
            return st.calls if st else 0

        def total(*keys):
            return sum(self.stats[k].total for k in keys if k in self.stats)

        def self_time(key):
            st = self.stats.get(key)
            return st.self_time if st else 0.0

        c = self.counters
        lattice = calls("betti.homology_dims")
        out = {
            "betti.graded_betti.calls": calls("betti.graded_betti"),
            "betti.graded_betti.cache_hits": self.cache_hits("betti.graded_betti"),
            "betti.lattice_elements": lattice,
            "betti.subcomplex_faces": c.get("betti.subcomplex_faces", 0),
            "betti.subcomplex_faces_max": c.get("betti.subcomplex_faces_max", 0),
            "betti.nonzero_ratio": c.get("betti.lattice_nonzero", 0) / lattice if lattice else 0.0,
            "betti.enum_s": self_time("betti.graded_betti"),
            "betti.boundary_s": self_time("betti.homology_dims"),
            "betti.gf2_rank.calls": calls("betti.gf2_rank"),
            "betti.gf2_rank_s": total("betti.gf2_rank"),
            "betti.exact_rank.calls": calls("betti.exact_rank"),
            "betti.exact_rank_s": total("betti.exact_rank"),
            "betti.rank_cols_max": c.get("betti.rank_cols_max", 0),
            "monomials.mask_lcm.calls": calls("monomials.mask_lcm"),
            "monomials.mask_divides.calls": calls("monomials.mask_divides"),
            "monomials.mask_s": total("monomials.mask_lcm", "monomials.mask_divides"),
            "monomials.ideal_power_s": total(
                "monomials.power", "monomials.minimalize", "monomials.is_minimal"
            ),
            "complexes.l2.calls": calls("complexes.l2"),
            "complexes.faces_yielded": c.get("complexes.faces.yielded", 0),
            "complexes.faces_s": total("complexes.faces"),
            "morse.matching_l2_s": total("morse.matching_l2"),
            "morse.matched_pairs": c.get("morse.matched_pairs", 0),
            "morse.critical_cells_s": total("morse.critical_cells"),
            "morse.critical_closed_form_s": total("morse.critical_closed_form_l2"),
            "morse.critical": c.get("morse.critical", 0),
            "morse.is_acyclic_s": total("morse.is_acyclic"),
            "morse.morse_complex_s": total("morse.morse_complex"),
            "relations.characterization_s": total("relations.verify_square_characterization"),
            "relations.pairs_checked": c.get("relations.pairs_checked", 0),
            "relations.minimality_audit_s": total("relations.minimality_audit"),
            "extremal.power_generators_s": total("extremal.power_generators"),
            "sampling.ideals_drawn": calls("sampling.random_squarefree_ideal"),
            "sampling.draw_s": total("sampling.random_squarefree_ideal"),
        }
        for name in SUITE_NAMES:
            out[f"cli.suite.{name}_s"] = total("cli.suite." + name)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": span_id, "parent": parent,
                    "name": name, "start": t0, "end": t1,
                }) + "\n")

"""Acceptance suite: one test per criterion, each printing a pass line.

The criteria are the `morseres.cli.suite_*` functions, which `morseres
verify` and `morseres report` run too. Each test asserts that every check
of its suite passes and pins the values the suite computed. Run with
`pytest -s tests/test_acceptance.py -v` to see the lines; every comparison
is exact and each criterion carries its runtime budget.
"""

import time

from morseres import cli
from morseres.betti import graded_betti, pd_formula
from morseres.complexes import LabeledComplex, l2
from morseres.extremal import extremal_generators, power_generators, single_relation
from morseres.morse import critical_cells, matching_l2, morse_complex
from morseres.relations import DivRel, minimality_audit

TRIALS = 100
SEED = 0


class Budget:
    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.1f}s exceeds budget {self.limit}s"
            )
        return False


def report(n, message, budget):
    print(f"PASS  criterion {n}: {message}  [{budget.elapsed:.2f}s]")


def passed(checks, prefix=""):
    """The `got` value of each check whose name starts with `prefix`, by
    name, after asserting that every one of them passed."""
    checks = [c for c in checks if c["name"].startswith(prefix)]
    assert all(c["ok"] for c in checks), [c for c in checks if not c["ok"]]
    return {c["name"]: c["got"] for c in checks}


def pairs(qmax):
    return [(q, s) for q in range(3, qmax + 1) for s in range(3, q + 1)]


def test_criterion_1_table_reproduction():
    with Budget(1) as b:
        got = passed(cli.suite_table1())
    assert got == {
        "pair-complex q=4 cell counts": [10, 27, 32, 19, 6, 1],
        "pruned q=4 s=3 cell counts": [10, 21, 15, 3, 0, 0],
    }
    report(1, "pair-complex q=4 and pruned-cell counts match the table", b)


def test_criterion_2_engine_equals_closed_form():
    with Budget(120) as b:
        got = passed(cli.suite_engine(6), "engine=closed-form")
    assert got == {f"engine=closed-form q={q} s={s}": True for q, s in pairs(6)}
    report(2, "matching engine equals closed form for all 3<=s<=q<=6", b)


def test_criterion_3_acyclic_and_homogeneous():
    with Budget(120) as b:
        acyclic = passed(cli.suite_engine(6), "acyclic")
        homogeneous = passed(cli.suite_homogeneity(TRIALS, SEED))
    assert acyclic == {f"acyclic q={q} s={s}": True for q, s in pairs(6)}
    assert homogeneous == {
        **{f"homogeneous extremal labels q={q} s={s}": True for q, s in pairs(5)},
        f"homogeneous over {TRIALS} random ideals": 0,
    }
    report(3, f"acyclicity (q<=6) and homogeneity (extremal q<=5, {TRIALS} random)", b)


def test_criterion_4_oracle_matches_minimal_cell_counts():
    with Budget(60) as b:
        got = passed(cli.suite_minimality())
    assert got == {
        "oracle equals cell counts q=3 s=3": [6, 6, 1],
        "cell counts q=3 s=3": [6, 6, 1],
        "oracle equals cell counts q=4 s=3": [10, 21, 15, 3],
        "cell counts q=4 s=3": [10, 21, 15, 3],
    }
    report(4, "homology oracle equals critical-cell counts at q=3,4", b)


def test_criterion_4_minimality_certificate():
    # pairwise-distinct lcm labels on the critical cells of the homogeneous
    # matching make the Morse resolution minimal
    with Budget(60) as b:
        for q in range(3, 6):
            faces = list(l2(q).faces())
            for s in range(3, q + 1):
                spec, _ = matching_l2(q, s)
                labels = LabeledComplex(
                    spec.complex, power_generators(q, single_relation(s), 2)
                )
                cells = critical_cells(faces, spec)
                assert len({labels.packed_label(f) for f in cells}) == len(cells), (q, s)
    report(4, "critical cells carry pairwise-distinct lcm labels for 3<=s<=q<=5", b)


def test_criterion_5_example_betti_vectors():
    # the I2 square has beta_0 = 9 minimal generators; the "fields agree"
    # values are the Betti vectors over Q
    with Budget(120) as b:
        got = passed(cli.suite_examples())
    assert got == {
        "I1 square Betti": [10, 17, 9, 1],
        "I1 square pd": 3,
        "I2 square Betti (minimalized)": [9, 14, 6, 0],
        "I2 square pd": 2,
        "two-relation extremal square Betti": [10, 21, 14, 2],
        "two-relation extremal square pd": 3,
        "I1 square fields agree": [10, 17, 9, 1],
        "I2 square fields agree": [9, 14, 6],
        "two-relation square fields agree": [10, 21, 14, 2],
    }
    report(5, "worked-example Betti vectors reproduce exactly", b)


def test_criterion_6_pd_formulas():
    with Budget(120) as b:
        for q, s in pairs(4):
            first, second = pd_formula(q, s)
            assert graded_betti(extremal_generators(q, single_relation(s))).projective_dimension == first
            assert graded_betti(power_generators(q, single_relation(s), 2)).projective_dimension == second
        got = passed(cli.suite_pd(6))
    assert got == {f"pd q={q} s={s}": list(pd_formula(q, s)) for q, s in pairs(6)}
    report(6, "pd formulas match the oracle (q<=4) and max cell dims (q<=6)", b)


def test_criterion_7_characterization_sweeps():
    with Budget(300) as b:
        got = passed(cli.suite_characterization(5))
        assert DivRel(2, frozenset({6, 7, 11, 14})) in minimality_audit(5, 5).dropped_4b
        assert DivRel(5, frozenset({9, 10, 13, 15})) in minimality_audit(5, 4).dropped_4b
    assert got == {
        **{f"characterization taylor q={q} (no relation)": 0 for q in (1, 2, 3)},
        "characterization taylor q=4 s=3": 0,
        **{f"characterization l2 q={q} s={s}": 0 for q, s in pairs(5)},
        **{f"minimality audit q={q} s={s}": True for q, s in pairs(5)},
    }
    report(7, "characterization sweeps and minimality audits are clean", b)


def test_criterion_8_cell_order():
    with Budget(180) as b:
        got = passed(cli.suite_cell_order())
        mc = morse_complex(4, 3)
        cx = l2(4)

        def f(text):
            return cx.mask([(int(t[0]), int(t[1])) for t in text.split()])

        square, pyramid = f("12 13 23"), f("12 13 14 23")
        for sig in ("11 12", "11 13"):
            assert (f(sig), square) in mc.order
        for sig in ("11 12 14", "11 13 14", "12 13 23", "13 14 23", "12 14 23"):
            assert (f(sig), pyramid) in mc.order
        assert len({sig for sig, tau in mc.order if tau == pyramid}) == 5
    assert got == {
        f"cell order closed form q={q} s={s}": True
        for q, s in ((3, 3), (4, 3), (4, 4), (5, 3))
    }
    report(8, "closed-form cell order agrees with gradient paths", b)


def test_criterion_9_upper_bound_law():
    with Budget(300) as b:
        got = passed(cli.suite_upper_bound(TRIALS, SEED))
    assert got == {f"Betti bound over {TRIALS} random ideals": 0}
    report(9, f"Betti numbers bounded by cell counts over {TRIALS} random squares", b)


def test_criterion_10_first_power_suite():
    with Budget(120) as b:
        got = passed(cli.suite_first_power())
    assert got == {
        "pruned simplex q=4 s=3 f-tail": [4, 5, 2],
        "extremal first-power Betti (one relation)": [4, 5, 2],
        "extremal first-power Betti (two relations)": [4, 5, 2],
    }
    report(10, "first-power pruned complex and Betti vectors reproduce", b)

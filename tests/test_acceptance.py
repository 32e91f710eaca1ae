"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py -v` to see the lines; every
comparison is exact and each criterion carries its runtime budget.
"""

import time

from morseres.betti import pd_formula, projective_dimension, total_betti
from morseres.complexes import LabeledComplex, l2
from morseres.extremal import extremal_generators, power_generators, single_relation
from morseres.monomials import MonomialIdeal, VariableSet
from morseres.morse import (
    critical_cells,
    critical_closed_form_l2,
    critical_counts,
    is_acyclic,
    is_homogeneous,
    matching_l2,
    morse_complex,
    prune_taylor_first_power,
)
from morseres.relations import minimality_audit, verify_square_characterization
from morseres.sampling import random_ideals

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


def test_criterion_1_table_reproduction():
    with Budget(1) as b:
        fv = l2(4).f_vector()[1:]
        counts = critical_counts(4, 3, length=6)
    assert fv == (10, 27, 32, 19, 6, 1)
    assert counts == (10, 21, 15, 3, 0, 0)
    report(1, "pair-complex q=4 and pruned-cell counts match the table", b)


def test_criterion_2_engine_equals_closed_form():
    with Budget(120) as b:
        for q in range(3, 7):
            faces = list(l2(q).faces())
            for s in range(3, q + 1):
                spec, _ = matching_l2(q, s)
                assert critical_cells(faces, spec) == critical_closed_form_l2(q, s), (q, s)
    report(2, "matching engine equals closed form for all 3<=s<=q<=6", b)


def test_criterion_3_acyclic_and_homogeneous():
    with Budget(120) as b:
        for q in range(3, 7):
            faces = list(l2(q).faces())
            for s in range(3, q + 1):
                _, matching = matching_l2(q, s)
                assert is_acyclic(faces, matching), (q, s)
        for q in range(3, 6):
            for s in range(3, q + 1):
                spec, matching = matching_l2(q, s)
                labels = LabeledComplex(
                    spec.complex, power_generators(q, single_relation(s), 2)
                )
                assert is_homogeneous(matching, labels), (q, s)
        spec, matching = matching_l2(4, 3)
        for ideal in random_ideals(TRIALS, q=4, s=3, seed=SEED):
            labels = LabeledComplex(spec.complex, ideal.power(2))
            assert is_homogeneous(matching, labels), ideal
    report(3, f"acyclicity (q<=6) and homogeneity (extremal q<=5, {TRIALS} random)", b)


def test_criterion_4_oracle_matches_minimal_cell_counts():
    with Budget(60) as b:
        got4 = total_betti(power_generators(4, single_relation(3), 2), "gf2")
        got3 = total_betti(power_generators(3, single_relation(3), 2), "gf2")
    assert got4 == (10, 21, 15, 3) == critical_counts(4, 3)
    assert got3 == (6, 6, 1) == critical_counts(3, 3)
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
                assert len({labels.label(f) for f in cells}) == len(cells), (q, s)
    report(4, "critical cells carry pairwise-distinct lcm labels for 3<=s<=q<=5", b)


def test_criterion_5_example_betti_vectors():
    with Budget(120) as b:
        r1 = VariableSet("abcdefg")
        i1 = MonomialIdeal(r1, [r1.parse(t) for t in ("ab", "bcd", "aef", "cg")])
        assert total_betti(i1.power(2)) == (10, 17, 9, 1)
        r2 = VariableSet("abcdef")
        i2 = MonomialIdeal(r2, [r2.parse(t) for t in ("ab", "bcd", "aef", "ce")])
        minimal = i2.power(2).minimalize()
        assert minimal.q == 9
        assert total_betti(minimal) == (9, 14, 6)
        assert total_betti(minimal, length=4) == (9, 14, 6, 0)
        two = power_generators(4, [(1, {2, 3}), (4, {2, 3})], 2)
        assert total_betti(two) == (10, 21, 14, 2)
    report(5, "worked-example Betti vectors reproduce exactly", b)


def test_criterion_6_pd_formulas():
    with Budget(120) as b:
        for q in (3, 4):
            for s in range(3, q + 1):
                first, second = pd_formula(q, s)
                assert projective_dimension(extremal_generators(q, single_relation(s))) == first
                assert projective_dimension(power_generators(q, single_relation(s), 2)) == second
        for q in range(3, 7):
            for s in range(3, q + 1):
                first, second = pd_formula(q, s)
                gamma = prune_taylor_first_power(q, s).gamma
                assert max(f.bit_count() for f in gamma.faces()) - 1 == first
                crit = critical_closed_form_l2(q, s)
                assert max(f.bit_count() for f in crit) - 1 == second
    report(6, "pd formulas match the oracle (q<=4) and max cell dims (q<=6)", b)


def test_criterion_7_characterization_sweeps():
    with Budget(300) as b:
        for q in (1, 2, 3):
            rep = verify_square_characterization(q, None, "taylor")
            assert rep.ok, rep.counterexamples[:3]
        rep = verify_square_characterization(4, 3, "l2")
        assert rep.ok, rep.counterexamples[:3]
        for s in (3, 4, 5):
            rep = verify_square_characterization(5, s, "l2")
            assert rep.ok, (s, rep.counterexamples[:3])
        from morseres.relations import DivRel

        for q in range(3, 6):
            for s in range(3, q + 1):
                audit = minimality_audit(q, s)
                assert audit.matches, (q, s)
                if (q, s) == (5, 5):
                    assert DivRel(2, frozenset({6, 7, 11, 14})) in audit.dropped_4b
                if (q, s) == (5, 4):
                    assert DivRel(5, frozenset({9, 10, 13, 15})) in audit.dropped_4b
    report(7, "characterization sweeps and minimality audits are clean", b)


def test_criterion_8_cell_order():
    with Budget(180) as b:
        for q, s in ((3, 3), (4, 3), (4, 4), (5, 3)):
            morse_complex(q, s, with_order=True, cross_check=True)
        mc = morse_complex(4, 3, with_order=True)
        cx = mc.complex

        def f(text):
            return cx.mask([(int(t[0]), int(t[1])) for t in text.split()])

        square, pyramid = f("12 13 23"), f("12 13 14 23")
        for sig in ("11 12", "11 13"):
            assert (f(sig), square) in mc.order
        for sig in ("11 12 14", "11 13 14", "12 13 23", "13 14 23", "12 14 23"):
            assert (f(sig), pyramid) in mc.order
        assert len({sig for sig, tau in mc.order if tau == pyramid}) == 5
    report(8, "closed-form cell order agrees with gradient paths", b)


def test_criterion_9_upper_bound_law():
    with Budget(300) as b:
        bound = critical_counts(4, 3, length=6)
        violations = 0
        for ideal in random_ideals(TRIALS, q=4, s=3, seed=SEED):
            totals = total_betti(ideal.power(2).minimalize(), length=6)
            if any(t > c for t, c in zip(totals, bound)):
                violations += 1
        assert violations == 0
    report(9, f"Betti numbers bounded by cell counts over {TRIALS} random squares", b)


def test_criterion_10_first_power_suite():
    with Budget(120) as b:
        fp = prune_taylor_first_power(4, 3)
        assert fp.gamma.f_vector()[1:] == (4, 5, 2)
        one = extremal_generators(4, single_relation(3))
        assert total_betti(one) == (4, 5, 2)
        two = extremal_generators(4, [(1, {2, 3}), (4, {2, 3})])
        assert total_betti(two) == (4, 5, 2)
    report(10, "first-power pruned complex and Betti vectors reproduce", b)

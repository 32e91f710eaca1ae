"""Command-line interface: constructions, reports and verification
suites reproducing the documented cell counts and Betti numbers.

Every run is deterministic for a fixed configuration; randomized suites
take an explicit seed.  JSON artifacts carry ``"schema": 1``.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from functools import lru_cache
from itertools import chain

from . import betti as betti_mod
from . import morse as morse_mod
from . import relations as rel_mod
from .complexes import LabeledComplex, SimplicialComplex, l2, taylor
from .extremal import extremal_generators, power_generators, single_relation
from .monomials import MonomialIdeal, VariableSet, packed_masks
from .sampling import random_ideals


def _emit(payload, args, csv_rows=None) -> None:
    """Write to ``--out`` or stdout: the CSV rows when ``--format csv``
    asks for them, a string as it is, anything else as indented JSON,
    each streamed to the file (one row at a time for CSV) rather than
    built as one string first."""
    with open(args.out, "w") if getattr(args, "out", None) else nullcontext(sys.stdout) as fh:
        if getattr(args, "format", "json") == "csv" and csv_rows is not None:
            for row in csv_rows:
                fh.write(",".join(map(str, row)) + "\n")
        elif isinstance(payload, str):
            fh.write(payload)
        else:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


class _GradedArray(list):
    """The graded rows of a Betti table as a JSON array that `json.dump`
    reads one row at a time as it writes: the list itself stays empty,
    so no row dict is held, and it is truthy when ``rows`` is, so a
    nonempty array is not written as ``[]``.  A generator of rows, as
    `BettiTable.graded_rows` returns, is always truthy, and a Betti table
    always has rows in degree 0."""

    def __init__(self, rows):
        super().__init__()
        self.rows = rows

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __iter__(self):
        return ({"degree": i, "lcm": str(m), "betti": v} for i, m, v in self.rows)


def _padded(counts, width: int) -> list[int]:
    """``counts`` padded with zeros to ``width`` entries, never cut short."""
    return [*counts, *[0] * (width - len(counts))]


def _parse_rel(text: str) -> tuple[int, frozenset[int]]:
    b, _, rest = text.partition(":")
    members = frozenset(int(x) for x in rest.replace(" ", "").split(",") if x)
    if not members:
        raise argparse.ArgumentTypeError(f"relation {text!r} must look like '1:2,3'")
    return int(b), members


def _face_json(cx: SimplicialComplex, mask: int):
    return [list(v) if isinstance(v, tuple) else v for v in cx.members(mask)]


def _face_name(cx: SimplicialComplex, mask: int) -> str:
    return " ".join(
        f"{v[0]}{v[1]}" if isinstance(v, tuple) else str(v) for v in cx.members(mask)
    )


def cmd_extremal(args) -> int:
    rels = tuple(args.rel or ())
    ideal = (
        power_generators(args.q, rels, args.power)
        if args.power != 1
        else extremal_generators(args.q, rels)
    )
    _emit(ideal.to_dict(), args)
    return 0


def cmd_relations(args) -> int:
    ceiling = rel_mod.BRUTE_FORCE_CEILING
    if args.limit > ceiling:
        raise ValueError(f"--limit must be at most {ceiling}, got {args.limit}")
    ideal = MonomialIdeal.load(args.ideal)
    report = rel_mod.all_relations(ideal, limit=args.limit)
    payload = report.to_dict()
    if args.minimal_only:
        payload.pop("all")
    _emit(payload, args)
    return 0


def cmd_complex(args) -> int:
    cx = taylor(args.q) if args.type == "taylor" else l2(args.q)
    payload = {"schema": 1, "type": args.type, "q": args.q}
    if args.faces:
        payload["faces"] = [_face_json(cx, m) for m in cx.faces()]
    else:
        payload["fvector"] = list(cx.f_vector())
    _emit(payload, args)
    return 0


def cmd_morse(args) -> int:
    q, s = args.q, args.s
    payload = {"schema": 1, "q": q, "s": s}
    if args.emit == "matching":
        spec, matching = morse_mod.matching_l2(q, s)
        cx = spec.complex
        payload["pivots"] = [_face_json(cx, f) for f in spec.order]
        payload["edges"] = [
            [_face_json(cx, big), _face_json(cx, small)] for big, small in matching.pairs
        ]
        _emit(payload, args)
        return 0
    mc = morse_mod.morse_complex(q, s)
    cx = l2(q)
    if args.emit == "cells":
        payload["counts"] = list(map(len, mc.cells))
        payload["cells"] = [[_face_json(cx, f) for f in group] for group in mc.cells]
        _emit(payload, args)
    elif args.emit == "order":
        payload["order"] = [
            [_face_json(cx, t), _face_json(cx, s_)] for s_, t in sorted(mc.order)
        ]
        _emit(payload, args)
    else:
        lines = [f'digraph cells_q{q}_s{s} {{']
        lines += [f'  "{_face_name(cx, f)}";' for group in mc.cells for f in group]
        for s_, t in sorted(mc.order):
            lines.append(f'  "{_face_name(cx, t)}" -> "{_face_name(cx, s_)}";')
        _emit("\n".join(lines) + "\n}\n", args)
    return 0


def cmd_betti(args) -> int:
    if args.format == "csv" and not args.graded:
        raise ValueError("--format csv needs --graded; only the graded table has CSV rows")
    ideal = MonomialIdeal.load(args.ideal)
    table = betti_mod.graded_betti(ideal, args.field)
    payload = table.to_dict()
    rows = None
    if args.graded:
        graded = table.graded_rows()
        if args.format == "csv":
            rows = chain([("degree", "lcm", "betti")], ((i, str(m), v) for i, m, v in graded))
        else:
            payload["graded"] = _GradedArray(graded)
    _emit(payload, args, csv_rows=rows)
    return 0


def cmd_pd(args) -> int:
    first, second = betti_mod.pd_formula(args.q, args.s)
    _emit(
        {"schema": 1, "q": args.q, "s": args.s, "ideal": first, "square": second},
        args,
    )
    return 0


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


def _check(name: str, got, expected) -> dict:
    ok = got == expected
    return {"name": name, "ok": ok, "got": got, "expected": expected}


@lru_cache(maxsize=4)
def _random_ideals(trials: int, seed: int) -> tuple[MonomialIdeal, ...]:
    """The q = 4, s = 3 draws of the homogeneity and upper-bound suites,
    made once per (trials, seed) so that `report` draws them once."""
    return tuple(random_ideals(trials, q=4, s=3, seed=seed))


def suite_table1() -> list[dict]:
    got1 = list(l2(4).f_vector()[1:])
    got2 = _padded(morse_mod.critical_counts(4, 3), 6)
    return [
        _check("pair-complex q=4 cell counts", got1, [10, 27, 32, 19, 6, 1]),
        _check("pruned q=4 s=3 cell counts", got2, [10, 21, 15, 3, 0, 0]),
    ]


def _example_ideals() -> dict[str, MonomialIdeal]:
    r1 = VariableSet("abcdefg")
    r2 = VariableSet("abcdef")
    return {
        "I1": MonomialIdeal(r1, [r1.parse(t) for t in ("ab", "bcd", "aef", "cg")]),
        "I2": MonomialIdeal(r2, [r2.parse(t) for t in ("ab", "bcd", "aef", "ce")]),
    }


def suite_examples() -> list[dict]:
    ideals = _example_ideals()
    sq1 = ideals["I1"].power(2)
    sq2 = ideals["I2"].power(2).minimalize()
    sqd = power_generators(4, [(1, {2, 3}), (4, {2, 3})], 2)
    t1, t2, td = (betti_mod.graded_betti(sq) for sq in (sq1, sq2, sqd))
    checks = [
        _check("I1 square Betti", _padded(t1.total(), 4), [10, 17, 9, 1]),
        _check("I1 square pd", t1.projective_dimension, 3),
        _check("I2 square Betti (minimalized)", _padded(t2.total(), 4), [9, 14, 6, 0]),
        _check("I2 square pd", t2.projective_dimension, 2),
        _check("two-relation extremal square Betti", _padded(td.total(), 4), [10, 21, 14, 2]),
        _check("two-relation extremal square pd", td.projective_dimension, 3),
    ]
    for name, ideal, table in (
        ("I1 square", sq1, t1), ("I2 square", sq2, t2), ("two-relation square", sqd, td)
    ):
        rational = betti_mod.graded_betti(ideal, "rational").total()
        checks.append(_check(f"{name} fields agree", list(rational), list(table.total())))
    return checks


def suite_pd(qmax: int = 6) -> list[dict]:
    """The pd formulas against the pruned complexes' top dimensions: the
    first power's pruned simplex, and the square's critical cells counted
    by their polynomial."""
    checks = []
    for q in range(3, qmax + 1):
        for s in range(3, q + 1):
            first, second = betti_mod.pd_formula(q, s)
            gamma = morse_mod.prune_taylor_first_power(q, s).gamma
            got_first = max(f.bit_count() for f in gamma.faces()) - 1
            got_second = len(morse_mod.critical_counts(q, s)) - 1
            checks.append(
                _check(f"pd q={q} s={s}", [got_first, got_second], [first, second])
            )
    return checks


def suite_characterization(qmax: int = 5) -> list[dict]:
    checks = []
    for q in range(1, min(qmax, 3) + 1):
        rep = rel_mod.verify_square_characterization(q, None, "taylor")
        checks.append(
            _check(f"characterization taylor q={q} (no relation)", len(rep.counterexamples), 0)
        )
    if qmax >= 4:
        rep = rel_mod.verify_square_characterization(4, 3, "taylor")
        checks.append(_check("characterization taylor q=4 s=3", len(rep.counterexamples), 0))
    for q in range(3, min(qmax, rel_mod.SCOPE_QMAX["l2"]) + 1):
        for s in range(3, q + 1):
            rep = rel_mod.verify_square_characterization(q, s, "l2")
            checks.append(
                _check(f"characterization l2 q={q} s={s}", len(rep.counterexamples), 0)
            )
    for q in range(3, min(qmax, rel_mod.AUDIT_QMAX) + 1):
        for s in range(3, q + 1):
            audit = rel_mod.minimality_audit(q, s)
            checks.append(_check(f"minimality audit q={q} s={s}", audit.matches, True))
    return checks


def suite_engine(qmax: int = 6) -> list[dict]:
    checks = []
    for q in range(3, qmax + 1):
        cx = l2(q)
        faces = list(cx.faces())
        for s in range(3, q + 1):
            spec, matching = morse_mod.matching_l2(q, s)
            engine = morse_mod.critical_cells(faces, spec)
            closed = morse_mod.critical_closed_form_l2(q, s)
            checks.append(_check(f"engine=closed-form q={q} s={s}", engine == closed, True))
            checks.append(
                _check(f"acyclic q={q} s={s}", morse_mod.is_acyclic(faces, matching), True)
            )
    return checks


def suite_homogeneity(trials: int = 100, seed: int = 0) -> list[dict]:
    checks = []
    base = morse_mod.matching_l2(4, 3)
    for q in range(3, 6):
        for s in range(3, q + 1):
            spec, matching = base if (q, s) == (4, 3) else morse_mod.matching_l2(q, s)
            labels = LabeledComplex(spec.complex, power_generators(q, single_relation(s), 2))
            checks.append(
                _check(
                    f"homogeneous extremal labels q={q} s={s}",
                    morse_mod.is_homogeneous(matching, labels),
                    True,
                )
            )
    spec, matching = base
    bad = 0
    for ideal in _random_ideals(trials, seed):
        labels = LabeledComplex(spec.complex, ideal.power(2))
        if not morse_mod.is_homogeneous(matching, labels):
            bad += 1
    checks.append(_check(f"homogeneous over {trials} random ideals", bad, 0))
    return checks


def _minimal_resolution_checks(q: int, s: int) -> list[dict]:
    """The GF(2) table of the (q, s) extremal square against one closed
    form of its critical cells; both go when this returns, before the
    next (q, s) is built."""
    square = power_generators(q, single_relation(s), 2)
    table = betti_mod.graded_betti(square, "gf2", cap=square.q)
    critical = morse_mod.critical_closed_form_l2(q, s)
    labels = LabeledComplex(l2(q), square)
    # each cell as one int, its dimension above its w-bit packed label, so
    # the sorted keys follow the entries' order: at (7, 7) a list of
    # 2,097,585 (dimension, label) tuples would set the run's peak
    w = max(packed_masks(square.generators)).bit_length()
    keys = sorted((f.bit_count() - 1) << w | labels.packed_label(f) for f in critical)
    return [
        _check(
            f"oracle totals equal cell counts q={q} s={s}",
            list(table.total()),
            list(morse_mod.counts_by_dimension(critical)),
        ),
        _check(
            f"oracle pd equals formula q={q} s={s}",
            table.projective_dimension,
            betti_mod.pd_formula(q, s)[1],
        ),
        _check(
            f"oracle entries equal cell labels q={q} s={s}",
            len(keys) == len(table.entries)
            and all(v == 1 and k == i << w | m for k, (i, m, v) in zip(keys, table.entries)),
            True,
        ),
    ]


def suite_minimality(qmax: int | None = None) -> list[dict]:
    """With `qmax`, also every 3 <= s <= q <= qmax over GF(2): the resolution
    is minimal, so each graded entry is one critical cell's (dimension,
    packed label) with beta = 1."""
    checks = []
    for q, expected in ((3, [6, 6, 1]), (4, [10, 21, 15, 3])):
        square = power_generators(q, single_relation(3), 2)
        got = list(betti_mod.graded_betti(square).total())
        counts = list(morse_mod.critical_counts(q, 3))
        checks.append(_check(f"oracle equals cell counts q={q} s=3", got, expected))
        checks.append(_check(f"cell counts q={q} s=3", counts, expected))
    for q in range(3, (qmax or 0) + 1):
        for s in range(3, q + 1):
            checks += _minimal_resolution_checks(q, s)
    return checks


def suite_upper_bound(trials: int = 100, seed: int = 0) -> list[dict]:
    bound = morse_mod.critical_counts(4, 3)
    violations = 0
    for ideal in _random_ideals(trials, seed):
        square = ideal.power(2).minimalize()
        totals = betti_mod.graded_betti(square).total()
        if any(b > c for b, c in zip(totals, _padded(bound, len(totals)))):
            violations += 1
    return [_check(f"Betti bound over {trials} random ideals", violations, 0)]


def suite_cell_order(qmax: int | None = None) -> list[dict]:
    pairs = (
        ((3, 3), (4, 3), (4, 4), (5, 3))
        if qmax is None
        else [(q, s) for q in range(3, qmax + 1) for s in range(3, q + 1)]
    )
    return [
        _check(
            f"cell order closed form q={q} s={s}",
            morse_mod.morse_complex(q, s).order == morse_mod.gradient_cell_order(q, s),
            True,
        )
        for q, s in pairs
    ]


def suite_first_power() -> list[dict]:
    checks = []
    fp = morse_mod.prune_taylor_first_power(4, 3)
    checks.append(
        _check("pruned simplex q=4 s=3 f-tail", list(fp.gamma.f_vector()[1:]), [4, 5, 2])
    )
    for name, rels in (
        ("one relation", [(1, {2, 3})]),
        ("two relations", [(1, {2, 3}), (4, {2, 3})]),
    ):
        ideal = extremal_generators(4, rels)
        checks.append(
            _check(
                f"extremal first-power Betti ({name})",
                _padded(betti_mod.graded_betti(ideal).total(), 3),
                [4, 5, 2],
            )
        )
    return checks


# In the order `report` runs them.
SUITES = {
    "table1": lambda args: suite_table1(),
    "examples": lambda args: suite_examples(),
    "engine": lambda args: suite_engine(args.qmax or 6),
    "homogeneity": lambda args: suite_homogeneity(args.trials, args.seed),
    "minimality": lambda args: suite_minimality(args.qmax),
    "pd": lambda args: suite_pd(args.qmax or 6),
    "characterization": lambda args: suite_characterization(args.qmax or 5),
    "cellorder": lambda args: suite_cell_order(args.qmax),
    "upperbound": lambda args: suite_upper_bound(args.trials, args.seed),
    "firstpower": lambda args: suite_first_power(),
}

# The largest --qmax of each suite that takes one, checked before any
# work: the engine sweep lists the faces of l2(q), which the face walk
# bound allows up to q = 7, and so does the Betti oracle's suite (its
# --qmax 7 run takes about 55 s and a 0.58 GB peak on a 2-core host);
# the pd sweep counts the critical cells up to the count polynomial's
# bound; the l2 characterization sweep and morse_complex set their own.
QMAX = {"engine": 7, "pd": morse_mod.COUNT_QMAX, "minimality": 7,
        "characterization": rel_mod.SCOPE_QMAX["l2"], "cellorder": morse_mod.MORSE_COMPLEX_QMAX}


def _print_checks(checks: list[dict]) -> bool:
    ok = True
    for c in checks:
        mark = "PASS" if c["ok"] else "FAIL"
        detail = "" if c["ok"] else f"  (got {c['got']!r}, expected {c['expected']!r})"
        print(f"{mark}  {c['name']}{detail}")
        ok = ok and c["ok"]
    return ok


def _check_suite_args(args, suites) -> None:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if args.qmax is None:
        return
    if args.qmax < 3:
        raise ValueError(f"--qmax must be at least 3, got {args.qmax}")
    bounded = [name for name in suites if name in QMAX]
    if not bounded:
        raise ValueError(f"suite {suites[0]} takes no --qmax")
    name = min(bounded, key=QMAX.__getitem__)
    if args.qmax > QMAX[name]:
        raise ValueError(f"--qmax must be at most {QMAX[name]} for suite {name}, got {args.qmax}")


def cmd_verify(args) -> int:
    """Print one line per check; ``--out`` writes the checks as the
    document of ``report --out``, and the table1 suite with ``--format
    csv`` writes its counts as CSV (no other suite has CSV rows)."""
    _check_suite_args(args, [args.suite])
    csv = args.format == "csv"
    if csv and args.suite != "table1":
        raise ValueError(f"suite {args.suite!r} has no CSV rows; only table1 does")
    checks = SUITES[args.suite](args)
    ok = _print_checks(checks)
    rows = None
    if csv:
        pair, pruned = (c["got"] for c in checks)
        rows = [["complex"] + [f"beta{i}" for i in range(6)], ["L2_4"] + pair, ["L2_4_D"] + pruned]
    if args.out or rows:
        _emit({"schema": 1, "ok": ok, "checks": checks}, args, csv_rows=rows)
    return 0 if ok else 1


def cmd_report(args) -> int:
    _check_suite_args(args, SUITES)
    all_checks = []
    for name in SUITES:
        print(f"== suite {name}")
        checks = SUITES[name](args)
        _print_checks(checks)
        for c in checks:
            c["suite"] = name
        all_checks.extend(checks)
    ok = all(c["ok"] for c in all_checks)
    print(f"== {'ALL PASS' if ok else 'FAILURES PRESENT'} "
          f"({sum(c['ok'] for c in all_checks)}/{len(all_checks)})")
    if args.out:
        _emit({"schema": 1, "ok": ok, "checks": all_checks}, args)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morseres",
        description="Cellular resolutions of squares of square-free monomial ideals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extremal", help="emit an extremal ideal (or a power of it)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--rel", type=_parse_rel, action="append", help="relation as 'b:i,j,...'")
    p.add_argument("--power", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("relations", help="divisibility relations of an ideal file")
    p.add_argument("--ideal", required=True)
    p.add_argument("--limit", type=int, default=rel_mod.BRUTE_FORCE_LIMIT)
    p.add_argument("--minimal-only", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("complex", help="f-vector or face list of a supporting complex")
    p.add_argument("--type", choices=["taylor", "l2"], required=True)
    p.add_argument("--q", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--fvector", action="store_true")
    group.add_argument("--faces", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_complex)

    p = sub.add_parser("morse", help="matching, cells or cell order of the pruned complex")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--emit", choices=["cells", "matching", "order", "dot"], default="cells")
    p.add_argument("--out")
    p.set_defaults(func=cmd_morse)

    p = sub.add_parser("betti", help="Betti table of an ideal file")
    p.add_argument("--ideal", required=True)
    p.add_argument("--field", choices=[betti_mod.GF2, betti_mod.RATIONAL], default="gf2")
    p.add_argument("--graded", action="store_true")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("pd", help="projective-dimension formulas")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_pd)

    p = sub.add_parser("verify", help="run one verification suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--qmax", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="run every suite and emit a combined document")
    p.add_argument("--qmax", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    """Run one command.  Exit status 0 on success, 1 when a check
    fails, 2 on bad input (argparse errors, unreadable or malformed
    files, out-of-range parameters); `InvariantViolation` propagates."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"morseres: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

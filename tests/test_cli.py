import hashlib
import json

import pytest

from morseres.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_extremal_round_trip(tmp_path, capsys):
    out = tmp_path / "ideal.json"
    code, _ = run(capsys, "extremal", "--q", "4", "--rel", "1:2,3", "--power", "2",
                  "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema"] == 1
    assert len(data["generators"]) == 10

    code, text = run(capsys, "betti", "--ideal", str(out))
    assert code == 0
    payload = json.loads(text)
    assert payload["total"] == [10, 21, 15, 3]
    assert payload["projectiveDimension"] == 3


def test_betti_on_saved_square(tmp_path, capsys):
    from morseres.monomials import MonomialIdeal, VariableSet

    ring = VariableSet("abcdefg")
    ideal = MonomialIdeal(ring, [ring.parse(t) for t in ("ab", "bcd", "aef", "cg")])
    path = tmp_path / "i1sq.json"
    ideal.power(2).save(path)
    code, text = run(capsys, "betti", "--ideal", str(path))
    assert code == 0
    assert json.loads(text)["total"] == [10, 17, 9, 1]


def test_relations_command(tmp_path, capsys):
    out = tmp_path / "i1.json"
    ideal = {
        "schema": 1,
        "variables": list("abcdefg"),
        "generators": ["ab", "bcd", "aef", "cg"],
    }
    out.write_text(json.dumps(ideal))
    code, text = run(capsys, "relations", "--ideal", str(out), "--minimal-only")
    assert code == 0
    payload = json.loads(text)
    assert payload["minimal"] == [{"b": 1, "B": [2, 3]}]
    assert "all" not in payload


@pytest.mark.parametrize(
    "argv",
    [["morse", "--q", "4", "--s", "3", "--emit", "dot"], ["complex", "--type", "l2", "--q", "5", "--faces"]],
    ids=["dot", "faces"],
)
def test_artifact_is_written_while_its_faces_are_read(monkeypatch, argv):
    # every face is listed through `at_bits` as the artifact is written,
    # so bytes are out before the last face is read
    from io import StringIO

    from morseres import cli

    out = StringIO()
    written = []

    def at_bits(items, mask):
        written.append(out.tell())
        return real(items, mask)

    real = cli.at_bits
    monkeypatch.setattr(cli, "at_bits", at_bits)
    monkeypatch.setattr("sys.stdout", out)
    assert main(argv) == 0
    assert 0 < written[-1] < len(out.getvalue())


def test_csv_lines_quote_what_rfc_4180_quotes():
    import csv

    from morseres.cli import _csv_lines

    rows = [["a,b", 'say "hi"', "x\ny", "r\rs", "plain", 3], ["", "y_{1,2}", 0]]
    lines = list(_csv_lines(rows))
    assert lines[0] == '"a,b","say ""hi""","x\ny","r\rs",plain,3\n'
    assert lines[1] == ',"y_{1,2}",0\n'
    assert list(csv.reader("".join(lines).splitlines(keepends=True))) == [
        [str(x) for x in row] for row in rows
    ]


def test_graded_csv_at_q10_reads_back(tmp_path, capsys):
    # from q = 10 on a subset name holds a comma, y_{1,2}, so the lcm
    # column is quoted
    import csv

    from morseres.betti import graded_betti
    from morseres.extremal import extremal_generators
    from morseres.monomials import MonomialIdeal

    path = tmp_path / "e10.json"
    assert main(["extremal", "--q", "10", "--rel", "1:2,3", "--out", str(path)]) == 0
    code, text = run(capsys, "betti", "--ideal", str(path), "--graded", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(text.splitlines(keepends=True)))
    assert all(len(row) == 3 for row in rows)
    assert rows[0] == ["degree", "lcm", "betti"]
    ideal = MonomialIdeal.load(path)
    assert ideal == extremal_generators(10, [(1, {2, 3})])
    expected = list(graded_betti(ideal).graded_rows())
    assert any("," in str(m) for _, m, _ in expected)
    assert len(rows) == len(expected) + 1
    for (i, lcm, v), (ei, em, ev) in zip(rows[1:], expected):
        assert (int(i), ideal.ring.parse(lcm), int(v)) == (ei, em, ev)


def test_complex_fvector(capsys):
    code, text = run(capsys, "complex", "--type", "l2", "--q", "4", "--fvector")
    assert code == 0
    assert json.loads(text)["fvector"] == [1, 10, 27, 32, 19, 6, 1]


def test_complex_faces_serialization(capsys):
    code, text = run(capsys, "complex", "--type", "l2", "--q", "2", "--faces")
    assert code == 0
    faces = json.loads(text)["faces"]
    assert [[1, 2]] in faces
    assert [[1, 1], [1, 2]] in faces


def test_morse_cells_counts(capsys):
    code, text = run(capsys, "morse", "--q", "3", "--s", "3", "--emit", "cells")
    assert code == 0
    assert json.loads(text)["counts"] == [6, 6, 1]


def test_morse_dot_output(capsys):
    code, text = run(capsys, "morse", "--q", "3", "--s", "3", "--emit", "dot")
    assert code == 0
    assert text.startswith("digraph")
    assert '"12 13 23" -> "11 12";' in text


def test_morse_matching_and_order(capsys):
    code, text = run(capsys, "morse", "--q", "4", "--s", "3", "--emit", "matching")
    assert code == 0
    payload = json.loads(text)
    assert len(payload["pivots"]) == 6
    assert [[1, 1], [1, 2], [1, 3]] in [edge[0] for edge in payload["edges"]]
    code, text = run(capsys, "morse", "--q", "4", "--s", "3", "--emit", "order")
    assert code == 0
    assert len(json.loads(text)["order"]) == 101


def test_pd_command(capsys):
    code, text = run(capsys, "pd", "--q", "5", "--s", "3")
    assert code == 0
    payload = json.loads(text)
    assert (payload["ideal"], payload["square"]) == (3, 6)


def test_verify_table1(capsys):
    code, text = run(capsys, "verify", "--suite", "table1")
    assert code == 0
    assert text.count("PASS") == 2


def test_verify_table1_csv(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code, _ = run(capsys, "verify", "--suite", "table1", "--format", "csv",
                  "--out", str(out))
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[1] == "L2_4,10,27,32,19,6,1"
    assert rows[2] == "L2_4_D,10,21,15,3,0,0"


@pytest.mark.parametrize("suite", ["pd", "firstpower"])
def test_verify_csv_for_a_suite_without_rows_exits_2(tmp_path, capsys, suite):
    out = tmp_path / "checks.csv"
    assert main(["verify", "--suite", suite, "--format", "csv", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("morseres: error: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_verify_out_writes_the_check_document(tmp_path, capsys):
    out = tmp_path / "pd.json"
    code, text = run(capsys, "verify", "--suite", "pd", "--qmax", "4", "--out", str(out))
    assert code == 0
    assert text.count("PASS") == 3
    document = json.loads(out.read_text())
    assert document["schema"] == 1
    assert document["ok"] is True
    assert [c["name"] for c in document["checks"]] == ["pd q=3 s=3", "pd q=4 s=3", "pd q=4 s=4"]


def test_verify_examples(capsys):
    code, text = run(capsys, "verify", "--suite", "examples")
    assert code == 0
    assert "FAIL" not in text


def test_betti_graded_csv(tmp_path, capsys):
    ideal = {"schema": 1, "variables": ["x", "y"], "generators": ["x", "y"]}
    path = tmp_path / "xy.json"
    path.write_text(json.dumps(ideal))
    code, text = run(capsys, "betti", "--ideal", str(path), "--graded",
                     "--format", "csv")
    assert code == 0
    assert text.splitlines()[0] == "degree,lcm,betti"
    assert "1,xy,1" in text


def test_betti_csv_without_graded_exits_2(tmp_path, capsys):
    path, out = tmp_path / "xy.json", tmp_path / "table.csv"
    path.write_text(json.dumps({"schema": 1, "variables": ["x", "y"], "generators": ["x", "y"]}))
    assert main(["betti", "--ideal", str(path), "--format", "csv", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("morseres: error: ")
    assert "--graded" in captured.err
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_deterministic_artifacts(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        run(capsys, "morse", "--q", "4", "--s", "3", "--emit", "order",
            "--out", str(out))
    assert a.read_bytes() == b.read_bytes()


def test_report_document(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, text = run(capsys, "report", "--trials", "20", "--out", str(out))
    assert code == 0
    assert "ALL PASS" in text
    document = json.loads(out.read_text())
    assert document["schema"] == 1
    assert document["ok"] is True
    suites = {c["suite"] for c in document["checks"]}
    assert {"table1", "examples", "pd", "characterization"} <= suites
    # a change to report's bytes must be deliberate: these are its digests
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3d3d9bbf147af250af517de623e33509ce88a420762d7b339856c16a2c7bde14"
    )
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "98c2432ea09e76e6ac1cc410b0dc56b426d12439ef18ae6ae763de048da3b284"
    )


MORSE_DIGESTS = {
    "matching": "edefb601750d4c5633af35c68d653ea781e1d7c954bd3bb42796920e88bd63a1",
    "cells": "f8a030ee56335ea0a7c641e9dc763b2c12acc5ef0ebca5e63f347ee78beb501d",
    "order": "88df41fb7a336a09da8dc43fc973b709ee5027a42bbcac167d7f8e2f65e73ca0",
    "dot": "9e1563862d6ef75ddf1d182c162f5dbc629cb221b485423d078ea5c9d761ca6f",
}


@pytest.mark.parametrize("emit", sorted(MORSE_DIGESTS))
def test_morse_bytes_at_q6_s3(capsys, emit):
    # the engine's matched edges (in order), the critical cells and the
    # cell order (as JSON and as a dot graph), pinned
    code, text = run(capsys, "morse", "--q", "6", "--s", "3", "--emit", emit)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == MORSE_DIGESTS[emit]


def test_morse_cells_builds_no_cell_order(monkeypatch, capsys):
    from morseres import morse

    def refuse(*args):
        raise AssertionError("the cell order was built")

    monkeypatch.setattr(morse, "_lower_cells", refuse)
    code, text = run(capsys, "morse", "--q", "6", "--s", "3", "--emit", "cells")
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == MORSE_DIGESTS["cells"]
    monkeypatch.undo()
    mc = morse.morse_complex(4, 3)
    assert mc.order is mc.order


def test_betti_vector_longer_than_expected_fails_its_checks(monkeypatch):
    # one extra entry past every expected width must not be cut off
    from dataclasses import replace

    from morseres import betti, cli

    graded_betti = betti.graded_betti

    def with_degree_7(*args, **kwargs):
        table = graded_betti(*args, **kwargs)
        return replace(table, entries=table.entries + ((7, 1, 1),))

    monkeypatch.setattr(betti, "graded_betti", with_degree_7)
    examples = {c["name"]: c["ok"] for c in cli.suite_examples()}
    assert not examples["I1 square Betti"]
    assert [c["ok"] for c in cli.suite_upper_bound(trials=20)] == [False]
    first_power = [c["ok"] for c in cli.suite_first_power() if "extremal" in c["name"]]
    assert first_power == [False, False]


def test_plain_betti_builds_no_graded_row(tmp_path, capsys, monkeypatch):
    from morseres.betti import BettiTable
    from morseres.extremal import power_generators, single_relation

    path = tmp_path / "e2.json"
    power_generators(4, single_relation(3), 2).save(path)

    def refuse(self):
        raise AssertionError("a graded row was built")

    monkeypatch.setattr(BettiTable, "graded_rows", refuse)
    code, text = run(capsys, "betti", "--ideal", str(path))
    assert code == 0
    assert json.loads(text)["total"] == [10, 21, 15, 3]


def test_minimality_sweep_builds_one_closed_form_per_pair(monkeypatch):
    from collections import Counter

    from morseres import cli, morse

    calls = []
    closed_form = morse.critical_closed_form_l2
    monkeypatch.setattr(
        morse, "critical_closed_form_l2", lambda q, s: calls.append((q, s)) or closed_form(q, s)
    )
    cli.suite_minimality()
    fixed = Counter(calls)
    calls.clear()
    checks = cli.suite_minimality(4)
    assert all(c["ok"] for c in checks)
    assert Counter(calls) == fixed + Counter([(3, 3), (4, 3), (4, 4)])


@pytest.mark.parametrize("change", ["label", "beta", "extra entry"])
def test_entry_check_fails_on_one_changed_entry(monkeypatch, change):
    # totals and pd stay right in each case; only the entry check sees it
    from dataclasses import replace

    from morseres import betti, cli

    oracle = betti.graded_betti

    def changed(ideal, field, cap):
        table = oracle(ideal, field, cap)
        (i, m, v), *rest = table.entries
        entries = {
            "label": [(i, m ^ 1, v), *rest],
            "beta": [(i, m, 2), *rest],
            "extra entry": [(i, m, v), *rest, (i, 1 << 300, 0)],
        }[change]
        return replace(table, entries=tuple(entries))

    monkeypatch.setattr(betti, "graded_betti", changed)
    checks = {c["name"]: c["ok"] for c in cli._minimal_resolution_checks(3, 3)}
    assert checks == {
        "oracle totals equal cell counts q=3 s=3": change != "beta",
        "oracle pd equals formula q=3 s=3": True,
        "oracle entries equal cell labels q=3 s=3": False,
    }


def test_minimality_qmax_6_bytes(tmp_path, capsys):
    out = tmp_path / "minimality.json"
    code, text = run(capsys, "verify", "--suite", "minimality", "--qmax", "6", "--out", str(out))
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1eed6d3e436030d1d6739ce65083ba3aae1549eeb44310a1c15cc670cf448f28"
    )
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "4a0f9461a78bf09579b5ce93b7aed68aa50c114fcedd02cd3a78cf5bd823bdf5"
    )


def test_failing_check_reports_and_exits_nonzero(capsys, monkeypatch):
    from morseres import cli

    monkeypatch.setitem(
        cli.SUITES, "table1", lambda args: [cli._check("forced", 1, 2)]
    )
    code, text = run(capsys, "verify", "--suite", "table1")
    assert code == 1
    assert "FAIL" in text


def test_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "nope"])


def test_capacity_error_exits_2_without_traceback(capsys):
    assert main(["morse", "--q", "7", "--s", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("morseres: error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("kind, q", [("l2", "8"), ("taylor", "40")])
def test_face_listing_above_the_walk_bound_exits_2(tmp_path, capsys, kind, q):
    # the face list raises as its generator is made, before --out is opened
    out = tmp_path / "faces.json"
    for option in ("--fvector", "--faces"):
        assert main(["complex", "--type", kind, "--q", q, option, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("morseres: error: ")
        assert captured.err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize(
    "document, field",
    [
        ({"schema": 1, "variables": ["x", "y"]}, "generators"),
        ({"schema": 1, "variables": 5, "generators": ["x"]}, "variables"),
        ({"schema": 1, "variables": ["x", "y"], "generators": 5}, "generators"),
        ({"schema": 1, "variables": ["x", "y"], "generators": [3]}, "generators"),
        ({"schema": 1, "variables": [1, 2], "generators": ["x"]}, "variables"),
    ],
    ids=["no-generators", "variables-int", "generators-int", "generator-int", "variable-ints"],
)
def test_betti_on_file_without_generators_exits_2(tmp_path, capsys, document, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    for command in ("betti", "relations"):
        assert main([command, "--ideal", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("morseres: error: ")
        assert field in captured.err
        assert captured.err.count("\n") == 1


def test_betti_on_the_unit_ideal_exits_2(tmp_path, capsys):
    path = tmp_path / "unit.json"
    path.write_text(json.dumps({"variables": ["a"], "generators": ["1"]}))
    assert main(["betti", "--ideal", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("morseres: error: ")
    assert "unit ideal" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("tag", ["q", "f2", "GF2"])
def test_betti_field_takes_gf2_or_rational_only(tmp_path, capsys, tag):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps({"variables": ["a", "b"], "generators": ["a", "b"]}))
    with pytest.raises(SystemExit) as exc:
        main(["betti", "--ideal", str(path), "--field", tag])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# SHA-256 of `betti --graded` stdout; the minimalized I2 square has lcms
# with exponent 2, so the rows' (degree, exponents) order is pinned where
# exponents matter
GRADED_DIGESTS = {
    ("extremal", "gf2", "json"): "1b8730e56116f71efaf73e57251d71ccb1dc02adccd949244aeef8ae587f35ec",
    ("extremal", "gf2", "csv"): "aa71f4fce22150dbee6bdba96b2cc426d47581b7c9bd625504c8223843568684",
    ("extremal", "rational", "json"): "184dd537a08691125c5d461a8fe0777456cedcbb2cc20450bf064bd9a6ce08a7",
    ("extremal", "rational", "csv"): "aa71f4fce22150dbee6bdba96b2cc426d47581b7c9bd625504c8223843568684",
    ("I2-square", "gf2", "json"): "99f86ad4268a937d09b66df9f6b45fb60824dee16a9b203655a374f5b78d787f",
    ("I2-square", "gf2", "csv"): "d76bc9502a27121d75da13e9bf176d6962e6f07ff1c6c6aced74bfc09c42bcf5",
    ("I2-square", "rational", "json"): "87407ad6d3c2300ab60352c61db69eb59d2d553f76a6b6a201ea5ba21f1b8d74",
    ("I2-square", "rational", "csv"): "d76bc9502a27121d75da13e9bf176d6962e6f07ff1c6c6aced74bfc09c42bcf5",
}


def dumped(obj):
    from io import StringIO

    from morseres.cli import _dump_json

    fh = StringIO()
    _dump_json(obj, fh)
    return fh.getvalue()


WRITER_CASES = {
    "nested": {"b": [1, [2, [3, {"c": []}]], {"d": {"e": [4, 5]}}], "a": {"z": 1, "y": [[6]]}},
    "empty": [[], {}, [[]], {"k": {}}, {"k": []}],
    "scalars": [True, False, None, [True, False, None], {"t": True, "n": None}],
    # a flat array of exact ints is cached by its items; a bool or a float
    # equal to one of them must not share its text
    "look-alikes": [[[1], [True], [1.0]], [[0], [False], [0.0]], [[1, 1], [1, 1]]],
    # and its text depends on its depth
    "depths": [[1, 2], [[1, 2]], [[[1, 2]]], {"a": [[1, 2]]}],
    "strings": ["", "tab\t quote\" back\\ nl\n", "caf\u00e9 \u03b1\u03b2 \U0001d49c", "\x00\x1f"],
    "long string": ["x" * 5000, {"lcm": "y_{1,2}" * 1000, "betti": 1}],
    "big ints": [2**64, -(2**200), [10**100, -1, 0], {"n": 3**300}],
    "floats": [0.5, -0.0, 1e300, float("inf"), float("nan"), [2.5, 3]],
    "tuples": {"pair": (1, 2), "faces": [((1, 1), (1, 2)), ((2, 3),)]},
    # sorted together, keys must compare; None compares with nothing else
    "keys": [{3: "int", 1.5: "float", True: "bool", -2: [0]}, {None: "none"}, {False: 0}],
    "top scalar": "just a string",
}


@pytest.mark.parametrize("name", sorted(WRITER_CASES))
def test_json_writer_matches_json_dump(name):
    obj = WRITER_CASES[name]
    assert dumped(obj) == json.dumps(obj, indent=2, sort_keys=True)


GRADED_ROWS = [[], [(0, "x", 1), (0, "y", 1), (1, "xy", 1)]]


def graded_generator(rows, pulled):
    # graded rows as `betti --graded` hands them over: a generator of row dicts
    for i, m, v in rows:
        pulled.append(m)
        yield {"degree": i, "lcm": m, "betti": v}


@pytest.mark.parametrize("rows", GRADED_ROWS, ids=["empty", "rows"])
def test_graded_array_is_written_as_its_rows_and_holds_none(rows):
    # the graded array holds no row until it is written, and is written as
    # the array of its rows, an empty one as []
    pulled = []
    graded = graded_generator(rows, pulled)
    assert pulled == []
    listed = [{"degree": i, "lcm": m, "betti": v} for i, m, v in rows]
    assert dumped({"graded": graded}) == json.dumps({"graded": listed}, indent=2, sort_keys=True)
    assert pulled == [m for _, m, _ in rows]


@pytest.mark.parametrize("rows", GRADED_ROWS, ids=["empty", "rows"])
def test_json_writer_on_graded_arrays(rows):
    listed = [{"degree": i, "lcm": m, "betti": v} for i, m, v in rows]
    expected = json.dumps({"graded": listed, "total": [1]}, indent=2, sort_keys=True)
    assert dumped({"graded": graded_generator(rows, []), "total": [1]}) == expected
    assert dumped(row for row in listed) == json.dumps(listed, indent=2, sort_keys=True)


def test_json_writer_on_generators():
    assert dumped(x for x in ()) == "[]"
    # nested generators, empty ones among them
    nested = [[1, [2, 3]], [], [{"a": []}], [[]]]
    assert dumped((x for x in row) for row in nested) == json.dumps(nested, indent=2)
    assert dumped({"a": (((y for y in x) for x in row) for row in [[[1], []], []])}) == json.dumps(
        {"a": [[[1], []], []]}, indent=2
    )


def test_json_writer_reads_a_generator_once():
    pulled = []

    def items():
        for n in range(3):
            pulled.append(n)
            yield [n, {"k": n}]

    gen = items()
    expected = json.dumps({"a": [[n, {"k": n}] for n in range(3)]}, indent=2, sort_keys=True)
    assert dumped({"a": gen}) == expected
    assert pulled == [0, 1, 2]
    assert next(gen, None) is None


def test_json_writer_takes_the_int_array_path_for_a_generators_items(monkeypatch):
    # faces a generator yields as flat int lists are tested, joined and
    # cached as the items of a list are; the generator itself is not
    from morseres import cli

    tested = []

    class Ints(frozenset):
        def __contains__(self, t):
            tested.append(t)
            return frozenset.__contains__(self, t)

    monkeypatch.setattr(cli, "_INTS", Ints({int}))
    faces = [[1, 2], [1, 2], [3], (4, 5)]
    for outer in (faces, (f for f in faces)):
        tested.clear()
        assert dumped({"faces": outer}) == json.dumps({"faces": faces}, indent=2)
        assert tested == [int] * 7


def test_json_writer_refuses_what_json_dump_refuses():
    for bad in ({"a": {1, 2}}, [object()], {(1, 2): 3}, [(x for x in [{1}])]):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            dumped(bad)


def test_json_writer_streams_graded_rows():
    # rows with long lcms are written while the rows are still being read:
    # no write holds more than a bounded share of the document
    from morseres.cli import _FLUSH, _LONG, _dump_json

    writes = []

    class Sink:
        def write(self, text):
            writes.append(len(text))

    def rows():
        for n in range(3 * _FLUSH):
            yield {"degree": n % 5, "lcm": "y_{1,2}" * 200, "betti": n}
            if n == 2 * _FLUSH:
                assert writes, "no write before the rows ran out"

    _dump_json({"graded": rows()}, Sink())
    assert sum(writes) == len(dumped({"graded": list(rows())}))
    assert max(writes) <= (_FLUSH + 8) * _LONG


@pytest.mark.parametrize("name, field, fmt", sorted(GRADED_DIGESTS))
def test_betti_graded_bytes(tmp_path, capsys, name, field, fmt):
    from morseres.extremal import power_generators, single_relation
    from morseres.monomials import MonomialIdeal, VariableSet

    ring = VariableSet("abcdef")
    ideals = {
        "extremal": power_generators(4, single_relation(3), 2),
        "I2-square": MonomialIdeal(
            ring, [ring.parse(t) for t in ("ab", "bcd", "aef", "ce")]
        ).power(2).minimalize(),
    }
    path = tmp_path / "ideal.json"
    ideals[name].save(path)
    code, text = run(capsys, "betti", "--ideal", str(path), "--field", field,
                     "--graded", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == GRADED_DIGESTS[name, field, fmt]


def test_cell_order_mismatch_fails_the_suite(monkeypatch, capsys):
    from morseres import cli, morse

    monkeypatch.setattr(morse, "_lower_cells", lambda q, s, tau: [])
    assert not all(c["ok"] for c in cli.suite_cell_order())
    code, text = run(capsys, "verify", "--suite", "cellorder")
    assert code == 1
    assert "FAIL  cell order closed form q=3 s=3" in text


def test_verify_cell_order_qmax_compares_every_pair(capsys):
    code, text = run(capsys, "verify", "--suite", "cellorder", "--qmax", "6")
    assert code == 0
    assert text.count("PASS") == 10
    assert "PASS  cell order closed form q=6 s=6" in text


def test_verify_minimality_qmax_adds_the_oracle_checks(capsys):
    code, text = run(capsys, "verify", "--suite", "minimality")
    assert code == 0
    assert text.count("PASS") == 4
    code, text = run(capsys, "verify", "--suite", "minimality", "--qmax", "5")
    assert code == 0
    assert "FAIL" not in text
    # the four default checks, then three for each of the six pairs
    assert text.count("PASS") == 4 + 3 * 6
    assert "PASS  oracle entries equal cell labels q=5 s=5" in text


@pytest.mark.parametrize("command", ["betti", "relations"])
def test_huge_exponent_exits_2_before_building_its_mask(tmp_path, capsys, command):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"variables": ["x"], "generators": ["x^99999999999"]}))
    assert main([command, "--ideal", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("morseres: error: ")
    assert "bits" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("power", ["0", "-2"])
def test_extremal_power_below_one_exits_2(tmp_path, capsys, power):
    out = tmp_path / "ideal.json"
    assert main(["extremal", "--q", "3", "--power", power, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("morseres: error: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("name", ["q4-square", "q5-square", "random"])
def test_minimal_only_document_is_the_full_one_without_all(tmp_path, capsys, name):
    # --minimal-only lists no relation but the minimal ones and counts the
    # trivial ones as q 2^(q-1); the q = 5 square holds 375,176 relations
    from morseres.extremal import power_generators, single_relation
    from morseres.relations import all_relations
    from morseres.sampling import random_ideals

    if name == "random":
        drawn = list(random_ideals(6, q=4, s=3, seed=3))
        ideals = drawn + [ideal.power(2).minimalize() for ideal in drawn]
    else:
        ideals = [power_generators(int(name[1]), single_relation(3), 2)]
    path = tmp_path / "ideal.json"
    for ideal in ideals:
        ideal.save(path)
        code, text = run(capsys, "relations", "--ideal", str(path), "--limit", "16",
                         "--minimal-only")
        assert code == 0
        report = all_relations(ideal, limit=16)
        assert report.trivial_count == ideal.q << (ideal.q - 1)
        assert json.loads(text) == {
            "schema": 1,
            "minimal": [r.to_dict() for r in report.minimal],
            "trivialCount": report.trivial_count,
        }
        if ideal.q <= 10:
            code, whole = run(capsys, "relations", "--ideal", str(path), "--limit", "16")
            document = json.loads(whole)
            document.pop("all")
            assert text == json.dumps(document, indent=2, sort_keys=True) + "\n"


# SHA-256 of the q = 5 square's whole relations document as
# `all_relations(square, limit=16).to_dict()` gives it, written by
# `json.dumps(..., indent=2, sort_keys=True)` with a newline: 51,185,898
# bytes, which take about 590 MB to build that way
Q5_RELATIONS_DIGEST = "354969f52f67e66139a841a50fec658bbd551cd2903a8f876bc600e8d67b7868"


@pytest.mark.parametrize("name", ["q4-square", "q5-square", "random"])
def test_relations_document_is_the_built_one(tmp_path, capsys, name):
    # "all" is streamed a generator at a time; its bytes are those of the
    # document built whole from `all_relations`
    import hashlib

    from morseres.extremal import power_generators, single_relation
    from morseres.relations import all_relations
    from morseres.sampling import random_ideals

    if name == "random":
        ideal = list(random_ideals(3, q=4, s=3, seed=5))[2].power(2).minimalize()
    else:
        ideal = power_generators(int(name[1]), single_relation(3), 2)
    path, out = tmp_path / "ideal.json", tmp_path / "relations.json"
    ideal.save(path)
    code, text = run(capsys, "relations", "--ideal", str(path), "--limit", "16", "--out", str(out))
    assert (code, text) == (0, "")
    if name == "q5-square":
        digest = hashlib.sha256()
        with open(out, "rb") as fh:
            while chunk := fh.read(1 << 20):
                digest.update(chunk)
        assert digest.hexdigest() == Q5_RELATIONS_DIGEST
    else:
        document = all_relations(ideal, limit=16).to_dict()
        assert out.read_text() == json.dumps(document, indent=2, sort_keys=True) + "\n"


def test_relations_limit_above_16_exits_2(tmp_path, capsys):
    path, out = tmp_path / "xy.json", tmp_path / "relations.json"
    path.write_text(json.dumps({"schema": 1, "variables": ["x", "y"], "generators": ["x", "y"]}))
    assert main(["relations", "--ideal", str(path), "--limit", "16"]) == 0
    capsys.readouterr()
    assert main(["relations", "--ideal", str(path), "--limit", "17", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("morseres: error: ")
    assert "--limit" in captured.err
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "upperbound", "--trials", "-3"],
        ["verify", "--suite", "homogeneity", "--trials", "0"],
        ["report", "--trials", "0"],
        ["report", "--trials", "-1"],
        ["verify", "--suite", "pd", "--qmax", "2"],
        ["verify", "--suite", "engine", "--qmax", "0"],
        ["report", "--trials", "1", "--qmax", "2"],
        ["verify", "--suite", "characterization", "--qmax", "7"],
        ["report", "--trials", "1", "--qmax", "7"],
        ["verify", "--suite", "engine", "--qmax", "8"],
        ["verify", "--suite", "pd", "--qmax", "17"],
        ["verify", "--suite", "table1", "--qmax", "4"],
        ["verify", "--suite", "cellorder", "--qmax", "7"],
        ["verify", "--suite", "minimality", "--qmax", "8"],
    ],
)
def test_trials_below_one_exit_2(tmp_path, capsys, argv):
    # argv ends with the rejected option and its value
    out = tmp_path / "checks.json"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("morseres: error: ")
    assert argv[-2] in captured.err
    assert captured.err.count("\n") == 1
    assert not out.exists()

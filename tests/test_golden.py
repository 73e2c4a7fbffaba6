"""Byte-identity of the command-line output against checked-in files.

Each case runs ``romancrit.cli.main`` and compares stdout, stderr and the
exit code with the files under ``tests/golden``: every claim at
``--enumerate 0..7``, every claim over a list of families, and ``report``,
``gamma`` and ``classify`` over ``tests/golden/families.g6`` (dn:6..12 and
cycle:3..13). The files were written from commit 82e2bf8, before the
criticality predicates took a known gamma_r. A change meant to keep the
output must pass unchanged; a change
that means to alter it regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and the diff shows what moved.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from romancrit import claim_catalog, emit_graph6, gen_family
from romancrit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
GRAPHS = "families.g6"
ALL_CLAIMS = tuple(cid for cid, _ in claim_catalog())
FAMILIES = "dn:6,dn:8,dn:10,dn:12,cycle:5,cycle:7,elem1,elem2,elem3"

CASES = {
    **{
        f"verify-enumerate-{n}": ["verify", *ALL_CLAIMS, "--enumerate", str(n)]
        for n in range(8)
    },
    "verify-families": ["verify", *ALL_CLAIMS, "--families", FAMILIES],
    "report": ["report", "--input", GRAPHS],
    "gamma": ["gamma", "--input", GRAPHS],
    "classify": ["classify", "--input", GRAPHS],
}


def _graph_lines() -> str:
    graphs = [gen_family("dn", n) for n in (6, 8, 10, 12)]
    graphs += [gen_family("cycle", n) for n in range(3, 14)]
    return "".join(emit_graph6(g) + "\n" for g in graphs)


def _run(argv: list[str]) -> dict:
    argv = [str(GOLDEN / a) if a == GRAPHS else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _expected(name: str) -> dict:
    meta = json.loads((GOLDEN / "cases.json").read_text(encoding="ascii"))
    return {
        "exit": meta[name]["exit"],
        "stdout": (GOLDEN / f"{name}.out").read_text(encoding="ascii"),
        "stderr": meta[name]["stderr"],
    }


def test_graph_file_matches_its_generator():
    assert (GOLDEN / GRAPHS).read_text(encoding="ascii") == _graph_lines()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name):
    assert _run(CASES[name]) == _expected(name)


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / GRAPHS).write_text(_graph_lines(), encoding="ascii")
    meta = {}
    for name, argv in CASES.items():
        got = _run(argv)
        (GOLDEN / f"{name}.out").write_text(got["stdout"], encoding="ascii")
        meta[name] = {"argv": argv, "exit": got["exit"], "stderr": got["stderr"]}
    (GOLDEN / "cases.json").write_text(
        json.dumps(meta, indent=2) + "\n", encoding="ascii"
    )


if __name__ == "__main__":
    regenerate()
    sys.exit(0)

"""End-to-end tests for the command-line interface: exit codes, plain and JSON
output, stdin document streams, and the built-in examples."""

import importlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import maninforge
from helpers import SL2_FORM, rand_subspace, rand_tensor
from maninforge import fileio
from maninforge.cli import run
from maninforge.core import SparseTensor, Subspace, inverse
from maninforge.homlie import HomLieAlgebra, direct_sum
from maninforge.manin import (
    ManinTriple,
    hyperbolic_triple,
    lambda_st,
    r_from_splitting,
    special_linear_data,
    triple_double,
    triple_g_plus_h,
)
from maninforge.polyuble import nuble
from maninforge.rmatrix import check_quasi_triangular, sl2_r, sl2_twisted
from maninforge.stabilizer import stabilizer_report


def invoke(capsys, argv, monkeypatch=None, stdin_text=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = run(argv)
    out, err = capsys.readouterr()
    return code, out, err


def hyperbolic_text() -> str:
    return fileio.format_triple(hyperbolic_triple())


def sl2_with_r_text() -> str:
    return fileio.format_algebra(sl2_twisted()) + fileio.format_tensor(sl2_r())


# ---------------------------------------------------------------------------
# examples
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name, expected",
    [
        ("sl2", lambda: sl2_with_r_text()),
        ("hyperbolic", lambda: fileio.format_triple(hyperbolic_triple())),
        ("g-plus-h", lambda: fileio.format_triple(triple_g_plus_h(special_linear_data(2)))),
        ("double", lambda: fileio.format_triple(triple_double(special_linear_data(2)))),
        ("lambda-st", lambda: fileio.format_tensor(lambda_st(special_linear_data(2)))),
    ],
)
def test_examples_emit_builder_output(capsys, name, expected):
    code, out, err = invoke(capsys, ["examples", name])
    assert code == 0
    assert out == expected()
    assert err == ""


def test_examples_sl2_splits_into_algebra_and_tensor(capsys):
    code, out, _ = invoke(capsys, ["examples", "sl2"])
    assert code == 0
    kinds = [kind for kind, _ in fileio.split_documents(out)]
    assert kinds == ["algebra", "tensor"]


def test_examples_rejects_unknown_name(capsys):
    code, _, _ = invoke(capsys, ["examples", "bogus"])
    assert code == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["hyperbolic", "g-plus-h", "double"])
def test_verify_passes_builtin_triples(capsys, monkeypatch, name):
    build = {
        "hyperbolic": hyperbolic_triple,
        "g-plus-h": lambda: triple_g_plus_h(special_linear_data(2)),
        "double": lambda: triple_double(special_linear_data(2)),
    }[name]
    text = fileio.format_triple(build())
    code, out, err = invoke(capsys, ["verify", "manin", "-"], monkeypatch, text)
    assert code == 0
    assert "manin_triple: PASS" in out
    assert "\x1b[" not in out  # non-tty output carries no colour codes


def test_verify_file_argument(capsys, tmp_path):
    path = tmp_path / "triple.mt"
    path.write_text(hyperbolic_text(), encoding="utf-8")
    code, out, _ = invoke(capsys, ["verify", "manin", str(path)])
    assert code == 0
    assert "manin_triple: PASS" in out


def test_verify_names_the_failing_axiom(capsys, monkeypatch):
    broken = hyperbolic_text().replace("part1 1 0", "part1 1 1")
    code, out, _ = invoke(capsys, ["verify", "manin", "-"], monkeypatch, broken)
    assert code == 1
    assert "manin_triple: FAIL" in out
    assert "part1.isotropic" in out


def test_verify_json_schema(capsys, monkeypatch):
    code, out, _ = invoke(
        capsys, ["verify", "manin", "-", "--json"], monkeypatch, hyperbolic_text()
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"command", "verdict", "failures", "timing"}
    assert payload["command"] == "verify manin"
    assert payload["verdict"] == "pass"
    assert payload["failures"] == []
    assert isinstance(payload["timing"], float)


def test_verify_json_failure_records(capsys, monkeypatch):
    broken = hyperbolic_text().replace("part1 1 0", "part1 1 1")
    code, out, _ = invoke(
        capsys, ["verify", "manin", "-", "--json"], monkeypatch, broken
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "fail"
    assert payload["failures"]
    for record in payload["failures"]:
        assert set(record) == {"check", "index", "residual"}
    assert any(r["check"] == "part1.isotropic" for r in payload["failures"])


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------


def test_parse_error_reports_line_number(capsys, monkeypatch):
    bad = "algebra dim=2\nwat 1 2\nphi 1 0\nphi 0 1\npart1 1 0\npart2 0 1\n"
    code, _, err = invoke(capsys, ["verify", "manin", "-"], monkeypatch, bad)
    assert code == 2
    assert "error: line 2:" in err
    code, _, err = invoke(capsys, ["verify", "manin", "-"], monkeypatch, "algebra dim=-1\n")
    assert code == 2
    assert "error: line 1: dim must be non-negative" in err


def test_duplicate_header_field_is_a_usage_error(capsys, monkeypatch):
    text = hyperbolic_text().replace("algebra dim=2", "algebra dim=0 dim=2", 1)
    assert text != hyperbolic_text()
    code, out, err = invoke(capsys, ["verify", "manin", "-"], monkeypatch, text)
    assert (code, out) == (2, "")
    assert "error: line 1: duplicate header field 'dim'" in err


@pytest.mark.parametrize("before", ["", "tensor degree=2 dim=2\n0 1 1\n"], ids=["alone", "after a tensor"])
def test_a_parse_error_names_the_line_of_the_stream(capsys, tmp_path, before):
    """Blank lines and earlier documents count: the bad token sits on line 5
    of the algebra alone, and on line 7 after a two-line tensor document."""
    path = tmp_path / "stream"
    path.write_text(before + "algebra dim=2\n\n\nphi 1 0\nphi 0 x\n", encoding="utf-8")
    code, out, err = invoke(capsys, ["hcybe", str(path), "--r", str(path)])
    lineno = 5 + before.count("\n")
    assert (code, out, err) == (2, "", f"error: line {lineno}: malformed rational 'x'\n")


@pytest.mark.parametrize(
    "argv, text, lineno, field",
    [
        (["verify", "manin", "-"], hyperbolic_text().replace("algebra dim=2", "algebra dim=2 foo=1", 1), 1, "foo"),
        (["hcybe", "-", "--r", "-"], "algebra dim=1\nphi 1\ntensor degree=2 dim=1 kind=r\n0 0 1\n", 3, "kind"),
    ],
    ids=["triple", "tensor"],
)
def test_an_unknown_header_field_is_a_usage_error(capsys, monkeypatch, argv, text, lineno, field):
    code, out, err = invoke(capsys, argv, monkeypatch, text)
    assert (code, out, err) == (2, "", f"error: line {lineno}: unknown header field {field!r}\n")


def test_missing_file_is_a_usage_error(capsys):
    code, _, err = invoke(capsys, ["verify", "manin", "/no/such/file"])
    assert code == 2
    assert "cannot read" in err


def test_unknown_subcommand_and_flag(capsys, monkeypatch):
    assert invoke(capsys, ["frobnicate"])[0] == 2
    code, _, _ = invoke(
        capsys, ["verify", "manin", "-", "--frob"], monkeypatch, hyperbolic_text()
    )
    assert code == 2
    code, out, err = invoke(
        capsys, ["verify", "manin", "-", "--jobs", "4"], monkeypatch, hyperbolic_text()
    )
    assert (code, out) == (2, "")
    assert "usage:" in err


def test_the_parser_built_once_answers_the_same_in_either_order(capsys, monkeypatch):
    """`run` reuses one argument parser per process, so the calls before
    it, a refused one among them, must not change what a call prints."""
    broken = hyperbolic_text().replace("part1 1 0", "part1 1 1")
    calls = [
        (["verify", "manin", "-"], hyperbolic_text()),
        (["snake", "-m", "2", "-n", "3"], None),
        (["verify", "manin", "-", "--jobs", "4"], hyperbolic_text()),
        (["snake", "-m", "2"], None),
        (["verify", "manin", "-"], broken),
        (["examples", "hyperbolic"], None),
    ]

    def outcomes(order):
        return {i: invoke(capsys, calls[i][0], monkeypatch, calls[i][1]) for i in order}

    forward = outcomes(range(len(calls)))
    assert outcomes(reversed(range(len(calls)))) == forward
    assert [forward[i][0] for i in range(len(calls))] == [0, 0, 2, 2, 1, 0]
    assert "usage:" in forward[2][2] and "usage:" in forward[3][2]


def test_color_gate_follows_tty_and_environment(capsys, monkeypatch):
    monkeypatch.delenv("NO_COLOR", raising=False)
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True, raising=False)
    _, out, _ = invoke(capsys, ["verify", "manin", "-"], monkeypatch, hyperbolic_text())
    assert "\x1b[32mPASS\x1b[0m" in out
    monkeypatch.setenv("NO_COLOR", "1")
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True, raising=False)
    _, out, _ = invoke(capsys, ["verify", "manin", "-"], monkeypatch, hyperbolic_text())
    assert "\x1b[" not in out


# ---------------------------------------------------------------------------
# hcybe
# ---------------------------------------------------------------------------


def test_hcybe_classifies_the_builtin_solution(capsys, monkeypatch):
    code, out, _ = invoke(
        capsys, ["hcybe", "-", "--r", "-"], monkeypatch, sl2_with_r_text()
    )
    assert code == 0
    assert out.startswith("tensor degree=3 dim=3\n")
    assert "phi_fixed: true" in out
    assert "s_invariant: true" in out
    assert "verdict: quasi-triangular" in out
    assert "factorizable: true" in out


def test_hcybe_classical_flag_exposes_the_residual(capsys, monkeypatch):
    code, out, _ = invoke(
        capsys, ["hcybe", "-", "--r", "-", "--classical"], monkeypatch, sl2_with_r_text()
    )
    assert code == 1
    assert "1 0 2 -2" in out
    assert "residual_zero: false" in out


def test_hcybe_json_failure_schema(capsys, monkeypatch):
    code, out, _ = invoke(
        capsys,
        ["hcybe", "-", "--r", "-", "--classical", "--json"],
        monkeypatch,
        sl2_with_r_text(),
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["command"] == "hcybe"
    assert payload["verdict"] == "fail"
    assert payload["failures"][0]["check"] == "residual"
    assert "result" in payload


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_hcybe_passes_a_skew_only_solution(capsys, monkeypatch, json_flag):
    """The zero tensor is a skew-only solution: every check passes, so the
    command exits 0 and its JSON report names no failure."""
    text = fileio.format_algebra(sl2_twisted()) + "tensor degree=2 dim=3\n"
    code, out, _ = invoke(capsys, ["hcybe", "-", "--r", "-", *json_flag], monkeypatch, text)
    assert code == 0
    if json_flag:
        payload = json.loads(out)
        assert (payload["verdict"], payload["failures"]) == ("pass", [])
        out = payload["result"]
    assert "verdict: skew-only" in out


def test_hcybe_shape_mismatch_is_usage_error(capsys, monkeypatch):
    text = fileio.format_algebra(sl2_twisted()) + "tensor degree=1 dim=3\n0 1\n"
    code, _, err = invoke(capsys, ["hcybe", "-", "--r", "-"], monkeypatch, text)
    assert code == 2
    assert "degree-2" in err


def test_hcybe_prints_rationals_past_the_int_str_digit_limit(capsys, tmp_path):
    """r = N (e1 (x) e2 + e2 (x) e1) + e0 (x) e0 on the twisted sl2, N a
    2,500-digit int that the reader takes: the residual's entries have about
    5,000 digits, past Python's 4,300-digit limit for int-to-text conversion.
    `hcybe` prints its verdict and exact residual, in plain text and in JSON,
    where it used to exit 2 with `Exceeds the limit`; the limit is left as
    it was."""
    n = Fraction(int("7" * 2500))
    r = SparseTensor(2, 3, {(1, 2): n, (2, 1): n, (0, 0): Fraction(1)})
    (tmp_path / "a").write_text(fileio.format_algebra(sl2_twisted()), encoding="utf-8")
    (tmp_path / "r").write_text(fileio.format_tensor(r), encoding="utf-8")
    residual = check_quasi_triangular(sl2_twisted(), r).hcyb_residual
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        lines = [f"{' '.join(map(str, idx))} {value}" for idx, value in residual.items()]
        terms = " + ".join(f"{value}*e{'x'.join(map(str, idx))}" for idx, value in residual.items())
    finally:
        sys.set_int_max_str_digits(limit)
    assert max(len(line) for line in lines) > limit
    tensor_text = "\n".join(["tensor degree=3 dim=3", *lines]) + "\n"
    verdict = "phi_fixed: true\ns_invariant: false\nverdict: fails\nfactorizable: true\n"
    argv = ["hcybe", str(tmp_path / "a"), "--r", str(tmp_path / "r")]
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert (out, err) == (tensor_text + verdict, "")
    assert run(argv + ["--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"] == tensor_text + verdict
    assert payload["failures"] == [
        {"check": "residual", "index": None, "residual": terms},
        {"check": "s_invariant", "index": None, "residual": None},
    ]
    assert sys.get_int_max_str_digits() == limit


# ---------------------------------------------------------------------------
# polyuble
# ---------------------------------------------------------------------------


def test_polyuble_builds_a_parseable_power(capsys, monkeypatch):
    code, out, err = invoke(
        capsys, ["polyuble", "-", "-n", "2"], monkeypatch, hyperbolic_text()
    )
    assert code == 0
    built = fileio.parse_triple(out)
    assert built.dim == 4
    assert err == ""


def test_polyuble_check_reports_on_stderr(capsys, monkeypatch):
    code, out, err = invoke(
        capsys, ["polyuble", "-", "-n", "2", "--check"], monkeypatch, hyperbolic_text()
    )
    assert code == 0
    fileio.parse_triple(out)
    assert "manin_triple: PASS" in err


def test_polyuble_rejects_nonpositive_n(capsys, monkeypatch):
    code, _, err = invoke(
        capsys, ["polyuble", "-", "-n", "0"], monkeypatch, hyperbolic_text()
    )
    assert code == 2
    assert "at least 1" in err


def test_polyuble_json_carries_the_result(capsys, monkeypatch):
    code, out, _ = invoke(
        capsys, ["polyuble", "-", "-n", "2", "--json"], monkeypatch, hyperbolic_text()
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert fileio.parse_triple(payload["result"]).dim == 4


# ---------------------------------------------------------------------------
# snake
# ---------------------------------------------------------------------------


def test_snake_prints_the_slot_permutation(capsys):
    code, out, _ = invoke(capsys, ["snake", "-m", "2", "-n", "2"])
    assert code == 0
    assert out == "0 2 3 1\n"


def test_snake_verify_certifies_the_isomorphism(capsys, monkeypatch):
    code, out, _ = invoke(
        capsys,
        ["snake", "-m", "2", "-n", "2", "--verify", "-"],
        monkeypatch,
        hyperbolic_text(),
    )
    assert code == 0
    assert out.startswith("0 2 3 1\n")
    assert "manin_isomorphism: PASS" in out


def test_snake_dot_stdout_golden(capsys):
    code, out, _ = invoke(capsys, ["snake", "-m", "1", "-n", "2", "--dot", "-"])
    assert code == 0
    expected_dot = (
        "graph chains {\n"
        '  u1 [label="u1" shape=circle];\n'
        '  u2 [label="u2" shape=circle style=filled];\n'
        '  hp1 [label="h\'" shape=triangle];\n'
        '  h2 [label="h" shape=triangle style=filled];\n'
        "  u1 -- u2;\n"
        "}\n"
    )
    assert out == expected_dot + "0 1\n"


def test_snake_dot_file_output(capsys, tmp_path):
    target = tmp_path / "chain.dot"
    code, out, _ = invoke(capsys, ["snake", "-m", "2", "-n", "2", "--dot", str(target)])
    assert code == 0
    assert out == "0 2 3 1\n"
    text = target.read_text(encoding="utf-8")
    assert text.startswith("graph chains {")
    assert "u4" in text


@pytest.mark.parametrize(
    "where, reason",
    [("missing", "No such file or directory"), ("directory", "Is a directory")],
)
def test_snake_dot_to_a_path_it_cannot_write_is_a_usage_error(capsys, tmp_path, where, reason):
    """A --dot path in a missing directory, or a directory, used to end in a
    traceback and exit 1, the exit code of a failed check."""
    target = str(tmp_path / "absent" / "x.dot") if where == "missing" else str(tmp_path)
    code, out, err = invoke(capsys, ["snake", "-m", "2", "-n", "2", "--dot", target])
    assert code == 2 and out == ""
    assert err == f"error: cannot write {target}: {reason}\n"


def test_snake_refuses_dot_on_stdout_with_json(capsys):
    """--dot - used to write the DOT text on stdout before the one JSON
    payload that --json promises there."""
    code, out, err = invoke(capsys, ["snake", "-m", "2", "-n", "2", "--dot", "-", "--json"])
    assert code == 2 and out == ""
    assert "--dot -" in err and "--json" in err


@pytest.mark.parametrize("verify", ["missing", "malformed"])
def test_snake_leaves_no_dot_file_when_the_verify_triple_is_refused(capsys, tmp_path, verify):
    """The --verify triple used to be read after the DOT file was written, so
    a usage error there exited 2 and left the file behind."""
    target = tmp_path / "found.dot"
    source = tmp_path / "t.triple"
    if verify == "malformed":
        source.write_text("algebra dim=2\nphi 1 0\n", encoding="utf-8")
    code, out, err = invoke(capsys, ["snake", "-m", "2", "-n", "2", "--dot", str(target), "--verify", str(source)])
    assert code == 2 and out == "" and err.startswith("error: ")
    assert not target.exists()


def test_snake_rejects_nonpositive_sizes(capsys):
    assert invoke(capsys, ["snake", "-m", "0", "-n", "2"])[0] == 2


# ---------------------------------------------------------------------------
# stabilizer
# ---------------------------------------------------------------------------


def stabilizer_run(capsys, monkeypatch, t, q, s=None, *flags: str) -> tuple[int, str]:
    """Exit code and stdout of `stabilizer` on t, q and S, all read from one
    stdin stream."""
    text = fileio.format_triple(t) + fileio.format_subspace(q)
    argv = ["stabilizer", "-", "--q", "-", *flags]
    if s is not None:
        text += fileio.format_tensor(s)
        argv += ["--S", "-"]
    code, out, _ = invoke(capsys, argv, monkeypatch, text)
    return code, out


def stabilizer_cli(capsys, monkeypatch, t, q, s=None) -> tuple[int, dict]:
    """Exit code and JSON payload of `stabilizer --json` on t, q and S."""
    code, out = stabilizer_run(capsys, monkeypatch, t, q, s, "--json")
    return code, json.loads(out)


def test_stabilizer_reports_each_condition(capsys, monkeypatch):
    triple = triple_g_plus_h(special_linear_data(2))
    q_rows = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    text = fileio.format_triple(triple) + "subspace dim=4\n" + "\n".join(
        " ".join(str(x) for x in row) for row in q_rows
    ) + "\n"
    code, out, _ = invoke(capsys, ["stabilizer", "-", "--q", "-"], monkeypatch, text)
    q = Subspace.span(4, [tuple(map(int, row)) for row in q_rows])
    failures = stabilizer_report(triple.algebra, None, q, triple.algebra.form_rows).failures
    failed = {f.check for f in failures}
    assert out == (
        f"coisotropic: {str('coisotropic' not in failed).lower()}\n"
        f"twist_stable: {str('twist_stable' not in failed).lower()}\n"
        f"stabilizer: {'FAIL' if failed else 'PASS'}\n"
    ) + "".join(f"  {f.check} at {f.index}: {f.residual}\n" for f in failures)
    assert code == (1 if failed else 0)


def stabilizer_agreement_cases() -> list[tuple]:
    """(triple, q, S or None): seeded subspaces of D2, each without S, with
    S the inverse form and with a seeded symmetric S; and seeded subspaces
    of a twisted sl2 + sl2 with its invariant form, without S."""
    rng = random.Random(38)
    d2 = triple_double(special_linear_data(2))
    raw = rand_tensor(rng, 2, d2.dim, fill=4)
    tensors = (None, SparseTensor.from_matrix(inverse(d2.form)), raw + raw.swap())
    cases = [(d2, rand_subspace(rng, d2.dim, k), s) for k in range(d2.dim + 1) for s in tensors]
    sl2 = sl2_twisted()
    twisted = direct_sum(*[HomLieAlgebra.unchecked(3, sl2.brackets, sl2.phi, SL2_FORM)] * 2)
    halves = Subspace.span(6, [[1, 0, 0, 0, 0, 0]]), Subspace.span(6, [[0, 0, 0, 1, 0, 0]])
    cases += [(ManinTriple(twisted, *halves), rand_subspace(rng, 6, k), None) for k in range(1, 5)]
    return cases


STABILIZER_CONDITIONS = ("coisotropic", "twist_stable", "s_sharp_image", "sharp_brackets")


@pytest.mark.parametrize("case", range(len(stabilizer_agreement_cases())))
def test_cli_stabilizer_failures_are_the_library_reports(capsys, monkeypatch, case):
    """CLI `stabilizer --json` prints `stabilizer_report`'s failures, witness
    and residual included, and a line per condition whose verdict is the
    report's."""
    t, q, s = stabilizer_agreement_cases()[case]
    report = stabilizer_report(t.algebra, s, q, t.algebra.form_rows)
    code, payload = stabilizer_cli(capsys, monkeypatch, t, q, s)
    assert payload["failures"] == report.to_json()["failures"], (t.name, q.rows)
    assert (code, payload["verdict"]) == ((0, "pass") if report.passed else (1, "fail"))
    failed = {f.check for f in report.failures}
    names = STABILIZER_CONDITIONS[:2] + STABILIZER_CONDITIONS[2:] * (s is not None)
    assert payload["result"] == "".join(f"{name}: {str(name not in failed).lower()}\n" for name in names)


def test_stabilizer_agreement_cases_fail_and_pass_each_condition():
    """Each of the four conditions fails on some agreement case and passes on
    another, so the CLI comparison above meets both verdicts of each."""
    seen = {name: set() for name in STABILIZER_CONDITIONS}
    for t, q, s in stabilizer_agreement_cases():
        failed = {f.check for f in stabilizer_report(t.algebra, s, q, t.algebra.form_rows).failures}
        for name in STABILIZER_CONDITIONS[:2] + STABILIZER_CONDITIONS[2:] * (s is not None):
            seen[name].add(name in failed)
    assert all(values == {True, False} for values in seen.values()), seen


def witness_cases() -> dict[str, tuple]:
    """(triple, q, S or None, failures): one input per condition on which
    that condition alone fails, with its witness worked by hand."""
    sl2 = sl2_twisted()
    twisted = direct_sum(*[HomLieAlgebra.unchecked(3, sl2.brackets, sl2.phi, SL2_FORM)] * 2)
    twisted_triple = ManinTriple(twisted, Subspace.span(6, [[1, 0, 0, 0, 0, 0]]), Subspace.span(6, [[0, 0, 0, 1, 0, 0]]))
    d2 = triple_double(special_linear_data(2))
    return {
        # The twist is diag(1, -1, -1) on each copy, so it sends the second
        # canonical row e3 + e4 to e3 - e4.
        "twist_stable": (
            twisted_triple,
            Subspace.span(6, [[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 1, 0]]),
            None,
            [{"check": "twist_stable", "index": [1], "residual": "(0, 0, 0, 1, -1, 0)"}],
        ),
        "coisotropic": (
            d2,
            Subspace.span(6, [[1, 0, 0, 0, 0, 0]]),
            None,
            [{"check": "coisotropic", "index": [2, 3], "residual": "(0, 0, 0, 0, -2, 0)"}],
        ),
        # S# sends the annihilator row (-1, 1) to itself, outside q.
        "s_sharp_image": (
            hyperbolic_triple(),
            Subspace.span(2, [[1, 1]]),
            SparseTensor.from_entries(2, 2, {(0, 0): 1, (1, 1): 1}),
            [{"check": "s_sharp_image", "index": [0], "residual": "(-1, 1)"}],
        ),
        # The annihilator rows are e1*, e2*, e3*; S# sends the first two to
        # e4 and e5, both in q, whose bracket is e3.
        "sharp_brackets": (
            d2,
            Subspace.span(6, [[1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]),
            SparseTensor.from_entries(2, 6, {(1, 4): 1, (4, 1): 1, (2, 5): 1, (5, 2): 1}),
            [{"check": "sharp_brackets", "index": [0, 1], "residual": "(0, 0, 0, 1, 0, 0)"}],
        ),
    }


@pytest.mark.parametrize("condition", sorted(witness_cases()))
def test_a_failing_stabilizer_condition_names_its_witness(capsys, monkeypatch, condition):
    """Each condition, failing alone, prints its first witness: the index
    of the row or pair of rows, and the image or bracket that leaves q."""
    t, q, s, failures = witness_cases()[condition]
    code, payload = stabilizer_cli(capsys, monkeypatch, t, q, s)
    assert code == 1
    assert payload["failures"] == failures


@pytest.mark.parametrize("condition", sorted(witness_cases()))
def test_plain_stabilizer_prints_each_failed_condition_with_its_witness(capsys, monkeypatch, condition):
    """Without --json, a failing run prints its verdict lines, then each
    failure's index and residual, in `verify manin`'s format."""
    t, q, s, failures = witness_cases()[condition]
    code, out = stabilizer_run(capsys, monkeypatch, t, q, s)
    names = STABILIZER_CONDITIONS[:2] + STABILIZER_CONDITIONS[2:] * (s is not None)
    [witness] = failures
    assert code == 1
    assert out == (
        "".join(f"{name}: {str(name != condition).lower()}\n" for name in names)
        + "stabilizer: FAIL\n"
        + f"  {condition} at {tuple(witness['index'])}: {witness['residual']}\n"
    )


def test_stabilizer_with_symmetric_part(capsys, monkeypatch):
    text = (
        hyperbolic_text()
        + "subspace dim=2\n1 0\n"
        + "tensor degree=2 dim=2\n0 1 1\n1 0 1\n"
    )
    code, out, _ = invoke(
        capsys, ["stabilizer", "-", "--q", "-", "--S", "-"], monkeypatch, text
    )
    assert "s_sharp_image:" in out
    assert "sharp_brackets:" in out
    assert code in (0, 1)


def test_stabilizer_dimension_mismatch(capsys, monkeypatch):
    text = hyperbolic_text() + "subspace dim=3\n1 0 0\n"
    code, _, err = invoke(capsys, ["stabilizer", "-", "--q", "-"], monkeypatch, text)
    assert code == 2
    assert "ambient" in err


# ---------------------------------------------------------------------------
# leafmap
# ---------------------------------------------------------------------------


def render_word(w):
    return ",".join(str(w.apply(i)) for i in range(1, w.letters + 1))


def test_leafmap_matches_the_library_bijection(capsys):
    from maninforge.flagleaf import (
        DoubleLeafIndex,
        leaf_index_map,
        weyl_from_word,
        weyl_simple,
    )

    code, out, _ = invoke(
        capsys,
        [
            "leafmap", "--rank", "3", "--n", "2",
            "-u", "1;2", "-v", "2;1,2,1", "-w", "1",
        ],
    )
    assert code == 0
    s1, s2 = weyl_simple(3, 1), weyl_simple(3, 2)
    image = leaf_index_map(
        DoubleLeafIndex((s1, s2), (s2, weyl_from_word(3, (1, 2, 1))), s1)
    )
    expected = (
        "words: " + " ".join(render_word(e) for e in image.u) + "\n"
        "w: " + render_word(image.w) + "\n"
    )
    assert out == expected


def test_leafmap_identity_words(capsys):
    code, out, _ = invoke(
        capsys,
        ["leafmap", "--rank", "2", "--n", "1", "-u", "e", "-v", "e", "-w", "e"],
    )
    assert code == 0
    # with all words trivial the image words are (e, w0) and the tail is w0
    assert out == "words: 1,2 2,1\nw: 2,1\n"


def test_leafmap_word_count_error(capsys):
    code, _, err = invoke(
        capsys,
        ["leafmap", "--rank", "3", "--n", "2", "-u", "1", "-v", "2;1", "-w", "e"],
    )
    assert code == 2
    assert "exactly 2 words" in err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_leafmap_word_count_below_one_is_a_usage_error(capsys, n):
    """--n 0 used to report "-u needs exactly 0 words", and --n -1 "exactly -1 words"."""
    code, out, err = invoke(
        capsys,
        ["leafmap", "--rank", "3", "--n", n, "-u", "e", "-v", "e", "-w", "e"],
    )
    assert (code, out) == (2, "")
    assert "--n must be at least 1" in err
    assert "words" not in err


def test_leafmap_malformed_word(capsys):
    code, _, err = invoke(
        capsys,
        ["leafmap", "--rank", "3", "--n", "1", "-u", "1,x", "-v", "2", "-w", "e"],
    )
    assert code == 2
    assert "malformed word" in err


# ---------------------------------------------------------------------------
# psi
# ---------------------------------------------------------------------------

PSI_INPUT = "1 1\n0 1\n\n1 0\n2 1\n"


def test_psi_prints_the_output_pairs(capsys, monkeypatch):
    code, out, _ = invoke(
        capsys,
        ["psi", "--rank", "2", "--n", "1", "--input", "-"],
        monkeypatch,
        PSI_INPUT,
    )
    assert code == 0
    assert out == "pair 1 left:\n1 1\n0 1\npair 1 right:\n-1 3\n-1 2\n"


def test_psi_stages_flag_prints_the_factorization(capsys, monkeypatch):
    code, out, _ = invoke(
        capsys,
        ["psi", "--rank", "2", "--n", "1", "--input", "-", "--stages"],
        monkeypatch,
        PSI_INPUT,
    )
    assert code == 0
    assert "stage 1 item 1:" in out
    assert "stage 4 pair 1 right:" in out
    assert out.endswith("pair 1 right:\n-1 3\n-1 2\n")


def test_psi_block_count_error(capsys, monkeypatch):
    code, _, err = invoke(
        capsys,
        ["psi", "--rank", "2", "--n", "2", "--input", "-"],
        monkeypatch,
        PSI_INPUT,
    )
    assert code == 2
    assert "expected 4 matrix blocks" in err


def test_psi_rejects_non_unimodular_blocks(capsys, monkeypatch):
    code, _, err = invoke(
        capsys,
        ["psi", "--rank", "2", "--n", "1", "--input", "-"],
        monkeypatch,
        "2 0\n0 1\n\n1 0\n0 1\n",
    )
    assert code == 2
    assert "matrix block 1" in err


# ---------------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------------


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# The wrapper an installer writes for a `[project.scripts]` entry.
CONSOLE_SCRIPT = """#!{python}
import sys
from {module} import {attr}
sys.exit({attr}())
"""


def declared_console_script(name: str) -> str:
    """The `module:attr` value of `name` in `[project.scripts]`."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def run_script(exe, *args, cwd):
    """Run `exe` as its own process, importing maninforge from the code under test."""
    package_parent = str(Path(maninforge.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_parent, env.get("PYTHONPATH")]))
    return subprocess.run(
        [str(exe), *args], capture_output=True, text=True, env=env, cwd=cwd, timeout=60
    )


def test_console_script_is_installed_and_runs(tmp_path):
    """The declared `maninforge` script, written as an installer would write
    it, runs `snake` end to end and hands `run()`'s exit code to the process;
    an installed `maninforge` on PATH is held to the same."""
    module, _, attr = declared_console_script("maninforge").partition(":")
    assert callable(getattr(importlib.import_module(module), attr))
    script = tmp_path / "maninforge"
    script.write_text(CONSOLE_SCRIPT.format(python=sys.executable, module=module, attr=attr))
    script.chmod(0o755)
    installed = shutil.which("maninforge")
    for exe in [script] + ([installed] if installed else []):
        proc = run_script(exe, "snake", "-m", "2", "-n", "2", cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (0, "0 2 3 1\n"), proc.stderr
        proc = run_script(exe, "snake", cwd=tmp_path)
        assert proc.returncode == 2
        assert "usage: maninforge" in proc.stderr


# ---------------------------------------------------------------------------
# Seeded input mutations
# ---------------------------------------------------------------------------

NUMBER = re.compile(r"-?[0-9]+(?:/[0-9]+)?")
HEADERS = {"algebra", "tensor", "subspace"}
# Tokens that no reader may take for a rational or an index: each must give
# exit code 2 with a parse error at its line, and no arithmetic on its value.
REFUSED_TOKENS = ["1e99999999", "1/0", "nan", "9" * 5000]
# Tokens a reader takes as a value, and refuses as an index.
INDEX_TOKENS = ["-1", "99999"]


def mutation_jobs() -> list[tuple[str, list[str], dict[str, str]]]:
    """(name, argv, documents): each CLI command on the built-in example
    documents (the text `examples` prints) and on D3^2, its arguments naming
    the documents by key."""
    square = nuble(triple_double(special_linear_data(3)), 2)
    jobs = []
    triples = {
        "hyperbolic": hyperbolic_triple(),
        "g-plus-h": triple_g_plus_h(special_linear_data(2)),
        "double": triple_double(special_linear_data(2)),
        "D3^2": square,
    }
    for name, t in triples.items():
        text = fileio.format_triple(t)
        jobs.append((f"verify {name}", ["verify", "manin", "triple"], {"triple": text}))
        jobs.append((f"polyuble {name}", ["polyuble", "triple", "-n", "2", "--check"], {"triple": text}))
    jobs.append(("hcybe sl2", ["hcybe", "stream", "--r", "stream"], {"stream": sl2_with_r_text()}))
    documents = {"algebra": fileio.format_algebra(square.algebra), "r": fileio.format_tensor(r_from_splitting(square))}
    jobs.append(("hcybe D3^2", ["hcybe", "algebra", "--r", "r"], documents))
    for name in ("double", "D3^2"):
        t = triples[name]
        documents = {
            "triple": fileio.format_triple(t),
            "q": fileio.format_subspace(t.part1),
            "s": fileio.format_tensor(SparseTensor.from_matrix(inverse(t.form))),
        }
        jobs.append((f"stabilizer {name}", ["stabilizer", "triple", "--q", "q", "--S", "s"], documents))
    return jobs


def mutations(rng: random.Random, text: str) -> list[tuple[str, str, int | None]]:
    """(what, mutated text, line of a refused token or None): each hostile
    token in place of one number on a seeded line past the header, then a
    seeded line dropped and one duplicated.  Header fields are left alone,
    so no mutation declares a huge dimension."""
    lines = text.splitlines()
    body = [i for i, line in enumerate(lines) if i and NUMBER.search(line) and line.split()[0] not in HEADERS]
    out = []
    for token in REFUSED_TOKENS + INDEX_TOKENS:
        i = rng.choice(body)
        spans = [m.span() for m in NUMBER.finditer(lines[i])]
        start, end = rng.choice(spans)
        changed = list(lines)
        changed[i] = lines[i][:start] + token + lines[i][end:]
        out.append((f"{token[:12]} at line {i + 1}", "\n".join(changed) + "\n", i + 1 if token in REFUSED_TOKENS else None))
    i = rng.randrange(len(lines))
    out.append((f"line {i + 1} dropped", "\n".join(lines[:i] + lines[i + 1 :]) + "\n", None))
    i = rng.randrange(len(lines))
    out.append((f"line {i + 1} duplicated", "\n".join(lines[: i + 1] + lines[i:]) + "\n", None))
    return out


MUTATION_JOBS = mutation_jobs()


@pytest.mark.parametrize("job", range(len(MUTATION_JOBS)), ids=[name for name, _, _ in MUTATION_JOBS])
def test_mutated_inputs_exit_cleanly_and_quickly(capsys, tmp_path, job):
    """Every seeded mutation of every document of the job ends with exit code
    0, 1 or 2, no exception out of `run`, no traceback, and within 5 s; a
    refused token (an exponent, a zero denominator, nan, 5,000 digits) is a
    parse error at its own line.  A 12-byte entry `0 0 1e99999999` used to
    keep `hcybe` busy for minutes."""
    name, argv, documents = MUTATION_JOBS[job]
    rng = random.Random(f"mutations {name}")
    runs = 0
    for key, text in documents.items():
        for what, mutated, refused_line in mutations(rng, text):
            for other, original in documents.items():
                (tmp_path / other).write_text(mutated if other == key else original, encoding="utf-8")
            started = time.perf_counter()
            code = run([str(tmp_path / a) if a in documents else a for a in argv])
            elapsed = time.perf_counter() - started
            out, err = capsys.readouterr()
            case = f"{name}, {key}: {what}"
            assert code in (0, 1, 2), case
            assert "Traceback" not in out + err, case
            assert elapsed < 5, case
            if refused_line is not None:
                assert code == 2 and out == "" and err.startswith(f"error: line {refused_line}: "), (case, err[:200])
            runs += 1
    assert runs == 8 * len(documents)

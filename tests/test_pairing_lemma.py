"""The pairing lemma of `manin._six_checks`: when the form is symmetric and
both halves are isotropic of half the dimension, nondegeneracy and the direct
sum are read off the halves' cross pairing, with one rank of d/2 rows.  Each
hypothesis broken in turn, and a singular pairing, falls back to the two full
ranks, and every report equals its dense reference.  `polyuble --check`
certifies the triple it read, and prints what the six checks of the power it
built print."""
from __future__ import annotations

import json
import sys
import time
from types import SimpleNamespace

import pytest

from helpers import basis_image, dense_certificate, dense_rref, flip_first_constant, shear_product
from maninforge import cli, fileio, homlie, manin
from maninforge.core import matrix
from maninforge.homlie import HomLieAlgebra
from maninforge.manin import (
    ManinTriple,
    _six_checks,
    check_manin_triple,
    hyperbolic_triple,
    special_linear_data,
    triple_double,
    triple_g_plus_h,
)
from maninforge.polyuble import nuble

D2 = triple_double(special_linear_data(2))
D3 = triple_double(special_linear_data(3))
PASSING = {
    "D2": D2,
    "D3": D3,
    "hyperbolic": hyperbolic_triple(),
    "g+h": triple_g_plus_h(special_linear_data(3)),
    "D3^2": nuble(D3, 2),
}


def abelian(form: list[list[int]], part1: list[list[int]], part2: list[list[int]]) -> ManinTriple:
    """The abelian algebra with the given form, split into the spans of the
    given rows."""
    algebra = HomLieAlgebra.unchecked(len(form), {}, form=form)
    return ManinTriple.of(algebra, part1, part2)


def hyperbolic_block(p: list[list[int]]) -> ManinTriple:
    """The abelian algebra of dimension 2k with the symmetric form
    [[0, P], [P^T, 0]], split into its first k and its last k unit vectors:
    the lemma's hypotheses hold, and P is the halves' cross pairing."""
    k = len(p)
    form = [[0] * (2 * k) for _ in range(2 * k)]
    for a in range(k):
        for b in range(k):
            form[a][k + b] = form[k + b][a] = p[a][b]
    units = [[int(i == j) for j in range(2 * k)] for i in range(2 * k)]
    return abelian(form, units[:k], units[k:])


# Each case: (triple, the checks that fail, whether the lemma's hypotheses hold).
FALLBACKS = {
    "halves that meet": (
        abelian([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], [[1, 0, 0, 0], [0, 1, 0, 0]], [[1, 0, 0, 0], [0, 0, 0, 1]]),
        {"splitting.direct_sum"},
        True,
    ),
    "D2 with equal halves": (ManinTriple(D2.algebra, D2.part1, D2.part1), {"splitting.direct_sum"}, True),
    "degenerate form": (hyperbolic_block([[1, 0], [0, 0]]), {"quadratic.nondegenerate"}, True),
    "singular pairing of rank 2": (hyperbolic_block([[1, 2, 3], [2, 4, 6], [0, 1, 1]]), {"quadratic.nondegenerate"}, True),
    "asymmetric form": (
        abelian([[0, 0, 1, 0], [0, 0, 0, 1], [2, 0, 0, 0], [0, 1, 0, 0]], [[1, 0, 0, 0], [0, 1, 0, 0]], [[0, 0, 1, 0], [0, 0, 0, 1]]),
        {"quadratic.symmetric"},
        False,
    ),
    "a half that is not isotropic": (
        abelian([[0, 1], [1, 0]], [[1, 1]], [[0, 1]]),
        {"part1.isotropic"},
        False,
    ),
    "D2 with a half that is not isotropic": (
        ManinTriple.of(D2.algebra, [[1 if i == j else 0 for j in range(6)] for i in range(3)], D2.part2.rows),
        {"part1.isotropic", "splitting.direct_sum"},
        False,
    ),
    "odd dimension": (
        abelian([[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[1, 0, 0]], [[0, 1, 0]]),
        {"splitting.even_dimension", "splitting.direct_sum"},
        False,
    ),
    "degenerate odd dimension": (
        abelian([[0, 1, 0], [1, 0, 0], [0, 0, 0]], [[1, 0, 0]], [[0, 1, 0], [0, 0, 1]]),
        {"quadratic.nondegenerate", "splitting.even_dimension", "splitting.part2_dim"},
        False,
    ),
}


def record_ranks(monkeypatch) -> list[int]:
    """The number of rows of each `_rank` call that the six checks make."""
    sizes: list[int] = []
    real = manin._rank

    def recording(rows):
        rows = list(rows)
        sizes.append(len(rows))
        return real(rows)

    monkeypatch.setattr(manin, "_rank", recording)
    monkeypatch.setattr(homlie, "_rank", recording)
    return sizes


@pytest.mark.parametrize("name", PASSING)
def test_a_passing_six_checks_ranks_only_the_cross_pairing(name, monkeypatch):
    """Work count: a passing certificate runs `_rank` once, on the d/2 rows
    of the halves' cross pairing, and ranks neither the form's d rows nor
    the halves' d rows; its report is the dense one."""
    t = PASSING[name]
    sizes = record_ranks(monkeypatch)
    report = _six_checks(t)
    assert report.passed and sizes == [t.dim // 2]
    if t.dim <= 16:
        assert report.to_json() == dense_certificate(t).to_json()


@pytest.mark.parametrize("seed", [None, 0, 1])
@pytest.mark.parametrize("name", FALLBACKS)
def test_the_lemma_falls_back_to_both_ranks_and_names_what_fails(name, seed, monkeypatch):
    """With a hypothesis broken, or the cross pairing singular, the form's
    rows and the halves' rows are ranked as before the lemma, so the kernel
    basis and the direct-sum failure are named; the report equals the dense
    reference, in the given basis and in two sheared ones."""
    t, failing, hypotheses = FALLBACKS[name]
    if seed is not None:
        t = basis_image(t, shear_product(t.dim, 2 * t.dim, seed))
    sizes = record_ranks(monkeypatch)
    report = _six_checks(t)
    k = t.part1.dim
    assert sizes == [k] * hypotheses + [t.dim, k + t.part2.dim]
    assert {f.check for f in report.failures} == failing
    assert report.to_json() == check_manin_triple(t).to_json() == dense_certificate(t).to_json()


@pytest.mark.parametrize("p", [[[2, 1], [1, 1]], [[1, 1], [1, 1]], [[0, 1, 0], [1, 0, 0], [0, 0, 3]], [[1, 2, 3], [0, 0, 0], [4, 5, 6]]])
def test_the_cross_pairing_decides_both_checks(p):
    """On hyperbolic blocks, where the hypotheses hold, the certificate
    passes exactly when P is invertible, and equals the dense reference
    either way, in a sheared basis too."""
    t = hyperbolic_block(p)
    invertible = len(dense_rref(matrix(p))[1]) == len(p)
    for triple in (t, basis_image(t, shear_product(t.dim, 3 * t.dim, 5))):
        report = _six_checks(triple)
        assert report.passed == invertible
        assert report.to_json() == dense_certificate(triple).to_json()


# ---------------------------------------------------------------------------
# polyuble --check certifies its input


FAILING_BASES = {
    "flipped D2": flip_first_constant(D2),
    "degenerate form": FALLBACKS["degenerate form"][0],
    "halves that meet": FALLBACKS["halves that meet"][0],
    "D2 with a half that is not isotropic": FALLBACKS["D2 with a half that is not isotropic"][0],
}
POLYUBLE_CASES = [(name, n) for name in ("D2", "D3", "hyperbolic", "g+h") for n in range(1, 5)]
POLYUBLE_CASES += [(name, n) for name in FAILING_BASES for n in range(1, 4)]


def printed(capsys, json_flag: bool, text: str, report) -> tuple[str, str]:
    """(stdout, stderr) of the CLI's one printer given the power's text and
    the report of the six checks on the power's every coordinate: what
    `check_manin_triple` of the built power makes `polyuble --check` print."""
    cli._finish(SimpleNamespace(json=json_flag), "polyuble", time.perf_counter(), text, report, sys.stderr)
    return capsys.readouterr()


def masked(out: str, json_flag: bool) -> str:
    if not json_flag:
        return out
    payload = json.loads(out)
    payload["timing"] = None
    return json.dumps(payload)


@pytest.mark.parametrize("json_flag", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("name, n", POLYUBLE_CASES)
def test_polyuble_check_prints_what_the_power_s_six_checks_print(name, n, json_flag, tmp_path, capsys):
    """Byte for byte, `timing` masked: a passing base's report is the
    power's (the power lemma), and a failing base is certified again as the
    power, so its failures keep the power's coordinates."""
    t = {**PASSING, **FAILING_BASES}[name]
    path = tmp_path / "base.triple"
    path.write_text(fileio.format_triple(t), encoding="utf-8")
    code = cli.run(["polyuble", str(path), "-n", str(n), "--check"] + ["--json"] * json_flag)
    out, err = capsys.readouterr()
    power = nuble(fileio.parse_triple(fileio.format_triple(t)), n)
    report = _six_checks(power)
    expected_out, expected_err = printed(capsys, json_flag, fileio.format_triple(power), report)
    assert (masked(out, json_flag), err) == (masked(expected_out, json_flag), expected_err)
    assert code == (0 if report.passed else 1) and report.passed == (name in PASSING)


@pytest.mark.parametrize("name", ["D3", "flipped D2"])
def test_a_passing_polyuble_check_never_reads_the_power_it_built(name, tmp_path, monkeypatch, capsys):
    """Work count: on a passing base, `_power_base` sees only the triple
    read from the file; only a failing base makes the CLI certify the power,
    which `_power_base` reads back to its base, and then the base again."""
    t = {**PASSING, **FAILING_BASES}[name]
    path = tmp_path / "base.triple"
    path.write_text(fileio.format_triple(t), encoding="utf-8")
    dims: list[int] = []
    real = manin._power_base
    monkeypatch.setattr(manin, "_power_base", lambda triple: dims.append(triple.dim) or real(triple))
    for n in (2, 3):
        dims.clear()
        code = cli.run(["polyuble", str(path), "-n", str(n), "--check", "--json"])
        verdict = json.loads(capsys.readouterr().out)["verdict"]
        if name in PASSING:
            assert (code, verdict, dims) == (0, "pass", [t.dim])
        else:
            assert (code, verdict, dims) == (1, "fail", [t.dim, n * t.dim, t.dim])

"""Command-line front end: verification and construction subcommands over the
plain-text formats, with deterministic output, machine-readable JSON reports,
and 0/1/2 exit codes for pass/fail/usage."""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import Sequence

from . import fileio
from .flagleaf import (
    GroupElement,
    PsiStages,
    WeylElement,
    DoubleLeafIndex,
    leaf_index_map,
    psi_map,
    psi_stages,
    weyl_from_word,
    weyl_identity,
)
from .manin import (
    Chain,
    check_manin_triple,
    hyperbolic_triple,
    lambda_st,
    special_linear_data,
    triple_double,
    triple_g_plus_h,
)
from .polyuble import nuble, snake_permutation, verify_snake_iso
from .reporting import CheckReport, failure
from .rmatrix import check_quasi_triangular, cyb, sl2_r, sl2_twisted
from .stabilizer import stabilizer_report


class CliError(Exception):
    """A usage-level problem: bad input file, malformed data, unusable flags."""


class _Inputs:
    """File/stdin reader that splits concatenated documents and hands them out
    by kind, so one stream can feed several arguments."""

    def __init__(self) -> None:
        self._cache: dict[str, list[list]] = {}

    def read(self, path: str) -> str:
        try:
            if path == "-":
                return sys.stdin.read()
            with open(path, encoding="utf-8") as handle:
                return handle.read()
        except OSError as exc:
            raise CliError(f"cannot read {path}: {exc.strerror}") from None

    def _documents(self, path: str) -> list[list]:
        if path not in self._cache:
            docs = fileio.split_documents(self.read(path))
            self._cache[path] = [[kind, body, False] for kind, body in docs]
        return self._cache[path]

    def take(self, path: str, kind: str):
        header_kind = "algebra" if kind == "triple" else kind
        for doc in self._documents(path):
            if doc[0] == header_kind and not doc[2]:
                doc[2] = True
                # Read per call, so that a rebound fileio parser is the one called.
                parsers = {
                    "triple": fileio.parse_triple,
                    "algebra": fileio.parse_algebra,
                    "tensor": fileio.parse_tensor,
                    "subspace": fileio.parse_subspace,
                }
                return parsers[kind](doc[1])
        raise CliError(f"no {kind} document found in {path}")


def _status(ok: bool) -> str:
    text = "PASS" if ok else "FAIL"
    if os.environ.get("NO_COLOR") is None and sys.stdout.isatty():
        return f"\x1b[{'32' if ok else '31'}m{text}\x1b[0m"
    return text


def _finish(
    args, command: str, started: float, result: str | None = None, report: CheckReport | None = None, stream=None
) -> int:
    """Print a subcommand's outcome and return its exit code, 0 unless the
    report fails.  With --json: one JSON payload on stdout, with the report's
    verdict and failures ("pass" and none without a report) and the result.
    Otherwise: the result on stdout, then the report on `stream` if given."""
    if args.json:
        payload: dict = {
            "command": command,
            "verdict": "pass" if report is None else report.verdict,
            "failures": [] if report is None else report.to_json()["failures"],
            "timing": round(time.perf_counter() - started, 6),
        }
        if result is not None:
            payload["result"] = result
        print(json.dumps(payload))
    else:
        if result is not None:
            sys.stdout.write(result)
        if report is not None and stream is not None:
            print(f"{report.name}: {_status(report.passed)}", file=stream)
            if not report.applicable:
                print(f"  inapplicable: {report.reason}", file=stream)
            for f in report.failures:
                where = f" at {f.index}" if f.index is not None else ""
                extra = f": {f.residual}" if f.residual is not None else ""
                print(f"  {f.check}{where}{extra}", file=stream)
    return 0 if report is None or report.passed else 1


# ---------------------------------------------------------------------------
# Subcommand bodies


def _cmd_verify(args, inputs: _Inputs, started: float) -> int:
    triple = inputs.take(args.file, "triple")
    return _finish(args, "verify manin", started, report=check_manin_triple(triple), stream=sys.stdout)


def _cmd_polyuble(args, inputs: _Inputs, started: float) -> int:
    triple = inputs.take(args.file, "triple")
    if args.n < 1:
        raise CliError("-n must be at least 1")
    built = nuble(triple, args.n)
    text = fileio.format_triple(built)
    report = check_manin_triple(built) if args.check else None
    return _finish(args, "polyuble", started, text, report, sys.stderr)


def _cmd_snake(args, inputs: _Inputs, started: float) -> int:
    if args.m < 1 or args.n < 1:
        raise CliError("-m and -n must be at least 1")
    if args.dot == "-" and args.json:
        raise CliError("--dot - and --json both write to stdout; give --dot a file")
    # Certify first: an input or usage error must leave no DOT file behind.
    report = None if args.verify is None else verify_snake_iso(inputs.take(args.verify, "triple"), args.m, args.n)
    perm = snake_permutation(args.m, args.n)
    perm_text = " ".join(str(i) for i in perm.images) + "\n"
    if args.dot is not None:
        dot_text = Chain.BASE.power(args.m * args.n).dot()
        if args.dot == "-":
            sys.stdout.write(dot_text)
        else:
            try:
                with open(args.dot, "w", encoding="utf-8") as handle:
                    handle.write(dot_text)
            except OSError as exc:
                raise CliError(f"cannot write {args.dot}: {exc.strerror}") from None
    return _finish(args, "snake", started, perm_text, report, sys.stdout)


def _cmd_hcybe(args, inputs: _Inputs, started: float) -> int:
    algebra = inputs.take(args.file, "algebra")
    r = inputs.take(args.r, "tensor")
    if r.degree != 2 or r.dim != algebra.dim:
        raise CliError("--r must be a degree-2 tensor over the algebra")
    if args.classical:
        residual = cyb(algebra, r)
        ok = residual.is_zero
        lines = [f"residual_zero: {str(ok).lower()}"]
        failures = [] if ok else [failure("residual", None, residual)]
    else:
        verdict = check_quasi_triangular(algebra, r)
        residual = verdict.hcyb_residual
        lines = [
            f"phi_fixed: {str(verdict.phi_fixed).lower()}",
            f"s_invariant: {str(verdict.s_invariant).lower()}",
            f"verdict: {verdict.verdict}",
            f"factorizable: {str(verdict.factorizable).lower()}",
        ]
        failures = []
        if not verdict.phi_fixed:
            failures.append(failure("phi_fixed"))
        if not verdict.s_invariant:
            failures.append(failure("s_invariant"))
        if not residual.is_zero:
            failures.append(failure("residual", None, residual))
    result = fileio.format_tensor(residual) + "\n".join(lines) + "\n"
    return _finish(args, "hcybe", started, result, CheckReport("hcybe", failures))


def _cmd_stabilizer(args, inputs: _Inputs, started: float) -> int:
    triple = inputs.take(args.file, "triple")
    q = inputs.take(args.q, "subspace")
    if q.ambient_dim != triple.dim:
        raise CliError("--q must live in the triple's ambient space")
    if triple.algebra.form_rows is None:
        raise CliError("the triple's algebra carries no bilinear form")
    s = inputs.take(args.s, "tensor") if args.s is not None else None
    if s is not None and (s.degree != 2 or s.dim != triple.dim):
        raise CliError("--S must be a degree-2 tensor over the triple's algebra")
    report = stabilizer_report(triple.algebra, s, q, triple.algebra.form_rows)
    failed = {f.check for f in report.failures}
    names = ["coisotropic", "twist_stable"] + ["s_sharp_image", "sharp_brackets"] * (s is not None)
    result = "".join(f"{name}: {str(name not in failed).lower()}\n" for name in names)
    return _finish(args, "stabilizer", started, result, CheckReport("stabilizer", report.failures), sys.stdout)


def _parse_weyl_word(k: int, text: str) -> WeylElement:
    if text in ("e", ""):
        return weyl_identity(k)
    try:
        letters = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise CliError(f"malformed word {text!r}: expected comma-separated indices") from None
    try:
        return weyl_from_word(k, letters)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _parse_weyl_words(k: int, n: int, text: str, flag: str) -> tuple[WeylElement, ...]:
    words = tuple(_parse_weyl_word(k, part.strip()) for part in text.split(";"))
    if len(words) != n:
        raise CliError(f"{flag} needs exactly {n} words separated by ';'")
    return words


def _render_weyl(w: WeylElement) -> str:
    return ",".join(str(w.apply(i)) for i in range(1, w.letters + 1))


def _cmd_leafmap(args, inputs: _Inputs, started: float) -> int:
    k = args.rank
    if k < 2:
        raise CliError("--rank must be at least 2")
    if args.n < 1:
        raise CliError("--n must be at least 1")
    u = _parse_weyl_words(k, args.n, args.u, "-u")
    v = _parse_weyl_words(k, args.n, args.v, "-v")
    w = _parse_weyl_word(k, args.w)
    image = leaf_index_map(DoubleLeafIndex(u, v, w))
    result = (
        "words: " + " ".join(_render_weyl(e) for e in image.u) + "\n"
        "w: " + _render_weyl(image.w) + "\n"
    )
    return _finish(args, "leafmap", started, result)


def _matrix_block_text(g: GroupElement) -> str:
    return "\n".join(" ".join(str(x) for x in row) for row in g.matrix)


def _psi_output(pairs, stages: PsiStages | None) -> str:
    sections: list[str] = []
    if stages is not None:
        for label, items in (("stage 1", stages.stage1), ("stage 2", stages.stage2)):
            for i, g in enumerate(items, start=1):
                sections.append(f"{label} item {i}:\n{_matrix_block_text(g)}")
        for label, items in (("stage 3", stages.stage3), ("stage 4", stages.stage4)):
            for i, (left, right) in enumerate(items, start=1):
                sections.append(f"{label} pair {i} left:\n{_matrix_block_text(left)}")
                sections.append(f"{label} pair {i} right:\n{_matrix_block_text(right)}")
    for i, (left, right) in enumerate(pairs, start=1):
        sections.append(f"pair {i} left:\n{_matrix_block_text(left)}")
        sections.append(f"pair {i} right:\n{_matrix_block_text(right)}")
    return "\n".join(sections) + "\n"


def _cmd_psi(args, inputs: _Inputs, started: float) -> int:
    if args.rank < 2:
        raise CliError("--rank must be at least 2")
    if args.n < 1:
        raise CliError("--n must be at least 1")
    blocks = fileio.parse_matrix_blocks(inputs.read(args.input))
    if len(blocks) != 2 * args.n:
        raise CliError(f"expected {2 * args.n} matrix blocks, found {len(blocks)}")
    elements = []
    for b, block in enumerate(blocks, start=1):
        if len(block) != args.rank or any(len(row) != args.rank for row in block):
            raise CliError(f"matrix block {b} is not {args.rank}x{args.rank}")
        try:
            elements.append(GroupElement.of(block))
        except ValueError as exc:
            raise CliError(f"matrix block {b}: {exc}") from None
    gs = tuple(elements)
    pairs = psi_map(args.n, gs)
    stages = psi_stages(args.n, gs) if args.stages else None
    result = _psi_output(pairs, stages)
    return _finish(args, "psi", started, result)


def _example_text(name: str) -> str:
    if name == "sl2":
        return fileio.format_algebra(sl2_twisted()) + fileio.format_tensor(sl2_r())
    if name == "hyperbolic":
        return fileio.format_triple(hyperbolic_triple())
    if name == "g-plus-h":
        return fileio.format_triple(triple_g_plus_h(special_linear_data(2)))
    if name == "double":
        return fileio.format_triple(triple_double(special_linear_data(2)))
    if name == "lambda-st":
        return fileio.format_tensor(lambda_st(special_linear_data(2)))
    raise CliError(f"unknown example {name!r}")


def _cmd_examples(args, inputs: _Inputs, started: float) -> int:
    text = _example_text(args.name)
    return _finish(args, "examples", started, text)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report on stdout")

    parser = argparse.ArgumentParser(
        prog="maninforge",
        description="Exact-rational verification toolkit for split quadratic twisted Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[common], help="certify a structure file")
    p_verify.add_argument("kind", choices=["manin"], help="what to verify")
    p_verify.add_argument("file", help="triple file ('-' for stdin)")
    p_verify.set_defaults(func=_cmd_verify)

    p_poly = sub.add_parser("polyuble", parents=[common], help="build the n-fold power of a triple")
    p_poly.add_argument("file", help="triple file ('-' for stdin)")
    p_poly.add_argument("-n", type=int, required=True, help="number of copies")
    p_poly.add_argument("--check", action="store_true", help="also certify the result")
    p_poly.set_defaults(func=_cmd_polyuble)

    p_snake = sub.add_parser("snake", parents=[common], help="snake slot permutation and certification")
    p_snake.add_argument("-m", type=int, required=True)
    p_snake.add_argument("-n", type=int, required=True)
    p_snake.add_argument("--verify", metavar="TRIPLE", help="certify the identification over this base triple")
    p_snake.add_argument("--dot", metavar="OUT", help="write the chain graph as DOT ('-' for stdout)")
    p_snake.set_defaults(func=_cmd_snake)

    p_hcybe = sub.add_parser("hcybe", parents=[common], help="Yang-Baxter residual and classification")
    p_hcybe.add_argument("file", help="algebra file ('-' for stdin)")
    p_hcybe.add_argument("--r", required=True, metavar="TENSOR", help="candidate degree-2 tensor")
    p_hcybe.add_argument("--classical", action="store_true", help="evaluate with the identity twist")
    p_hcybe.set_defaults(func=_cmd_hcybe)

    p_stab = sub.add_parser("stabilizer", parents=[common], help="stabilizer conditions")
    p_stab.add_argument("file", help="triple file ('-' for stdin)")
    p_stab.add_argument("--q", required=True, metavar="SUBSPACE", help="candidate subspace")
    p_stab.add_argument("--S", dest="s", metavar="TENSOR", help="symmetric part for the sharp conditions")
    p_stab.set_defaults(func=_cmd_stabilizer)

    p_leaf = sub.add_parser("leafmap", parents=[common], help="double-chain label to folded-chain label")
    p_leaf.add_argument("--rank", type=int, required=True, help="letters of the symmetric group")
    p_leaf.add_argument("--n", type=int, required=True)
    p_leaf.add_argument("-u", required=True, help="n words, ';'-separated, each comma-separated indices or 'e'")
    p_leaf.add_argument("-v", required=True, help="n words, same syntax")
    p_leaf.add_argument("-w", required=True, help="one word")
    p_leaf.set_defaults(func=_cmd_leafmap)

    p_psi = sub.add_parser("psi", parents=[common], help="chain map on matrix tuples")
    p_psi.add_argument("--rank", type=int, required=True, help="matrix size")
    p_psi.add_argument("--n", type=int, required=True)
    p_psi.add_argument("--input", required=True, help="2n blank-line-separated matrices ('-' for stdin)")
    p_psi.add_argument("--stages", action="store_true", help="also print the four-stage factorization")
    p_psi.set_defaults(func=_cmd_psi)

    p_ex = sub.add_parser("examples", parents=[common], help="emit a built-in example file")
    p_ex.add_argument(
        "name", choices=["sl2", "g-plus-h", "double", "hyperbolic", "lambda-st"]
    )
    p_ex.set_defaults(func=_cmd_examples)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    started = time.perf_counter()
    try:
        return args.func(args, _Inputs(), started)
    except (CliError, fileio.ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    """The console entry point: run on sys.argv and exit with its code."""
    sys.exit(run())


if __name__ == "__main__":
    main()

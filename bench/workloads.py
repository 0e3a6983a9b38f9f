"""Seeded inputs, the fixed cycle of certifications and the per-op oracle of
each benchmark workload.

Inputs are built only through maninforge's public API, after the caller has
imported it.  The seed decides the random parts: the order of a cycle, the
shears of a change of basis, the structure constant the negative op flips and
the skew tensors of the identity trials.  It never changes which
certifications a cycle holds, and the generator keeps the amount of work of
each op close to a fixed target, so that runs with different seeds measure the
same thing.
"""
from __future__ import annotations

import hashlib
import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

WORKLOADS = ("certify-sparse", "certify-dense", "snake", "yang-baxter")

# A run has at least this many cycles.  The tail is read at the highest
# percentile that has ten samples beyond it in a run of this many cycles, over
# all the cycles a run completes, so that it is the same percentile on every
# commit.  Every cycle holds five ops of distinct cost, so that in a run of 7
# cycles the median is the middle sample of the third-costliest op and the
# tail (10 of 35 samples beyond it) the middle sample of the second-costliest,
# neither on the edge between two ops.  That is 13 to 21 s of cycles at the
# reference speed at the commit that added the benchmark.
LATENCY_CYCLES = 7

# sha256 of the triple text that `polyuble D3 -n 2 --check --json` reports as
# its result, where D3 is the double of sl3.  Fixed when the benchmark was
# added; any change to the construction or the text format shows here.
POLYUBLE_D3_N2_SHA256 = "51663b000126c50608ce6f3dccdac6c3fb9181c6d2a239deadf4f46797acebbc"

# The checks the negative op of certify-dense must fail, and no others.
NEGATIVE_CHECKS = ("hom_jacobi", "part1.subalgebra", "part2.subalgebra", "quadratic.invariant")

STABILIZER_RESULT = "coisotropic: true\ntwist_stable: true\ns_sharp_image: true\nsharp_brackets: true\n"
HCYBE_LINES = "phi_fixed: true\ns_invariant: true\nverdict: quasi-triangular\nfactorizable: true\n"

# Basis changes of certify-dense: (name, base triple, shears, target of
# nested_bracket_terms, candidates).  Each target is the median over seeded
# shear products.  Keeping the closest of a fixed number of seeded candidates
# holds the seeded variation of the checkers' work to a few percent, and keeps
# the set-up time the same for every seed.
DENSE_IMAGES = (
    ("D2-shear16", "D2", 16, 3260, 16),
    ("D3-shear8", "D3", 8, 4370, 16),
    ("D3-shear16", "D3", 16, 27400, 32),
    ("D3x2-shear8", "D3x2", 8, 3580, 12),
)

# Identity trials of yang-baxter, one of each per cycle: (algebra, skew pairs
# in lambda).  Each trial draws LATENCY_CYCLES seeded lambdas and takes the
# next one on every call, so that the samples of a trial spread over as many
# lambdas and a seed moves the trial's median cost little.
TRIALS = (("sl2x4", 6), ("D3", 8))


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


@dataclass
class Op:
    """One certification.  `run` is the timed work; `check` returns None when
    its outcome is right and a description of the mismatch otherwise."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    cycle: list[Op]
    warmup: Op


# ---------------------------------------------------------------------------
# Ops and oracles


def cli_op(label: str, argv: list[str], check: Callable[[CliResult], str | None]) -> Op:
    """An op that runs the CLI in process, capturing what it prints."""

    def run() -> CliResult:
        from maninforge import cli

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv)
        return CliResult(code, out.getvalue(), err.getvalue())

    return Op(label, run, check)


def report_check(
    code: int,
    verdict: str,
    failing: tuple[str, ...] = (),
    result: Callable[[str], str | None] | None = None,
) -> Callable[[CliResult], str | None]:
    """Oracle for a `--json` report: exit code, verdict, the exact set of
    failing check names and, optionally, the printed result."""

    def check(outcome: CliResult) -> str | None:
        if outcome.code != code:
            return f"exit code {outcome.code}, expected {code}: {outcome.stderr.strip()}"
        try:
            payload = json.loads(outcome.stdout)
        except ValueError:
            return "stdout is not one JSON report"
        if payload.get("verdict") != verdict:
            return f"verdict {payload.get('verdict')!r}, expected {verdict!r}"
        names = sorted({f["check"] for f in payload.get("failures", [])})
        if names != sorted(failing):
            return f"failing checks {names}, expected {sorted(failing)}"
        if result is not None:
            return result(payload.get("result", ""))
        return None

    return check


def _digest_is(expected: str) -> Callable[[str], str | None]:
    def check(text: str) -> str | None:
        digest = hashlib.sha256(text.encode()).hexdigest()
        return None if digest == expected else f"result digest {digest}, expected {expected}"

    return check


def _text_is(expected: str) -> Callable[[str], str | None]:
    def check(text: str) -> str | None:
        return None if text == expected else f"result {text!r}, expected {expected!r}"

    return check


def _is_permutation(size: int) -> Callable[[str], str | None]:
    def check(text: str) -> str | None:
        try:
            images = sorted(int(tok) for tok in text.split())
        except ValueError:
            return f"result {text!r} is not a list of slots"
        return None if images == list(range(size)) else f"result {text!r} is not a permutation of {size} slots"

    return check


def identity_op(label: str, h, lams: list) -> Op:
    """Library trial: the twisted Yang-Baxter residual of a twist-fixed skew
    tensor equals half its graded bracket with itself, exactly.  The tensor is
    the next of `lams` in turn."""
    turn = itertools.cycle(lams)

    def run():
        from maninforge import rmatrix

        lam = next(turn)
        return rmatrix.hcyb(h, lam), rmatrix.hom_schouten(h, lam, lam).scale(Fraction(1, 2))

    def check(outcome) -> str | None:
        residual, half_square = outcome
        if residual != half_square:
            return "hcyb differs from half the graded square"
        return None

    return Op(label, run, check)


# ---------------------------------------------------------------------------
# Input construction


def base_triples() -> dict:
    """D2 and D3, the doubles of sl2 and sl3 (dimensions 6 and 16)."""
    from maninforge.manin import special_linear_data, triple_double

    return {k: triple_double(special_linear_data(n)) for k, n in (("D2", 2), ("D3", 3))}


def shear_product(dim: int, count: int, rng: random.Random):
    """A product of `count` signed elementary shears I + s E_ab (a != b, s = +-1)."""
    from maninforge.core import identity_matrix, mat_mul, matrix

    p = identity_matrix(dim)
    for _ in range(count):
        a, b = rng.sample(range(dim), 2)
        rows = [list(row) for row in identity_matrix(dim)]
        rows[a][b] = Fraction(rng.choice((1, -1)))
        p = mat_mul(p, matrix(rows))
    return p


def brackets_in_basis(h, p, pinv) -> dict:
    """Structure constants of h in the basis formed by the columns of the
    invertible matrix p, whose inverse is pinv."""
    from maninforge.core import ZERO

    d = h.dim
    cols = [{a: p[a][i] for a in range(d) if p[a][i]} for i in range(d)]
    inv_cols = [{a: pinv[a][k] for a in range(d) if pinv[a][k]} for k in range(d)]
    brackets = {}
    for i in range(d):
        for j in range(i + 1, d):
            old: dict[int, Fraction] = {}
            for a, x in cols[i].items():
                for b, y in cols[j].items():
                    for k, c in h.bracket_basis(a, b).items():
                        old[k] = old.get(k, ZERO) + x * y * c
            new: dict[int, Fraction] = {}
            for k, v in old.items():
                if v:
                    for a, c in inv_cols[k].items():
                        new[a] = new.get(a, ZERO) + v * c
            entry = {k: v for k, v in new.items() if v}
            if entry:
                brackets[(i, j)] = entry
    return brackets


def change_basis(t, p, name: str):
    """The triple t written in the basis formed by the columns of the
    invertible matrix p."""
    from maninforge.core import inverse, map_subspace, mat_mul, transpose
    from maninforge.homlie import HomLieAlgebra
    from maninforge.manin import ManinTriple

    h = t.algebra
    pinv = inverse(p)
    phi = mat_mul(pinv, mat_mul(h.phi, p))
    form = mat_mul(transpose(p), mat_mul(h.form, p))
    algebra = HomLieAlgebra.unchecked(h.dim, brackets_in_basis(h, p, pinv), phi, form, name=name)
    return ManinTriple(algebra, map_subspace(pinv, t.part1), map_subspace(pinv, t.part2), name=name)


def nested_bracket_terms(h) -> int:
    """Nonzero terms in the expansions of all nested basis brackets
    [b_i, [b_j, b_k]]: the size of the twisted Jacobi identity when phi = Id,
    and the work measure the dense images are held to."""
    d = h.dim
    reach = [sum(len(h.bracket_basis(i, a)) for i in range(d)) for a in range(d)]
    return sum(2 * sum(reach[a] for a in coeffs) for coeffs in h.brackets.values())


def sheared_image(t, count: int, target: int, candidates: int, rng: random.Random, name: str):
    """The image of t under the one of `candidates` seeded shear products that
    brings nested_bracket_terms closest to `target`."""
    from maninforge.core import inverse
    from maninforge.homlie import HomLieAlgebra

    def miss(p) -> int:
        brackets = brackets_in_basis(t.algebra, p, inverse(p))
        return abs(nested_bracket_terms(HomLieAlgebra.unchecked(t.dim, brackets)) - target)

    products = [shear_product(t.dim, count, rng) for _ in range(candidates)]
    return change_basis(t, min(products, key=miss), name)


def halves_closed(t) -> tuple[bool, bool]:
    """Whether each half of a triple is closed under the bracket."""
    h = t.algebra
    out = []
    for part in (t.part1, t.part2):
        rows = part.rows
        out.append(
            all(
                part.contains(h.bracket(rows[a], rows[b]))
                for a in range(len(rows))
                for b in range(a + 1, len(rows))
            )
        )
    return out[0], out[1]


def flip_one_constant(t, rng: random.Random, name: str):
    """t with the sign of one structure constant flipped, chosen in seeded order
    among those whose flip leaves neither half a subalgebra."""
    from maninforge.homlie import HomLieAlgebra
    from maninforge.manin import ManinTriple

    h = t.algebra
    keys = sorted((key, k) for key, coeffs in h.brackets.items() for k in coeffs)
    rng.shuffle(keys)
    for key, k in keys:
        brackets = {pair: dict(coeffs) for pair, coeffs in h.brackets.items()}
        brackets[key][k] = -brackets[key][k]
        algebra = HomLieAlgebra.unchecked(h.dim, brackets, h.phi, h.form, name=name)
        flipped = ManinTriple(algebra, t.part1, t.part2, name=name)
        if halves_closed(flipped) == (False, False):
            return flipped
    raise ValueError("no structure constant breaks both halves")


def twist_fixed_skew(h, pairs: int, rng: random.Random):
    """A random skew tensor fixed by phi (x) phi with exactly 2 * pairs entries;
    needs an involutive twist."""
    from maninforge.core import SparseTensor

    while True:
        t = SparseTensor.zero(2, h.dim)
        for _ in range(pairs):
            i, j = rng.sample(range(h.dim), 2)
            t.add_into((i, j), Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3))))
        skew = (t - t.swap()).scale(Fraction(1, 2))
        lam = (skew + skew.apply_per_slot([h.phi, h.phi])).scale(Fraction(1, 2))
        if len(lam.entries) == 2 * pairs:
            return lam


def sl2_sum(copies: int):
    """The direct sum of `copies` copies of the twisted sl2 (phi = diag(1, -1, -1))."""
    from maninforge.homlie import direct_sum
    from maninforge.rmatrix import sl2_twisted

    h = sl2_twisted()
    for _ in range(copies - 1):
        h = direct_sum(h, sl2_twisted())
    return h


# ---------------------------------------------------------------------------
# The four workloads


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the inputs of one workload from its seed, write the files the
    CLI reads into workdir, and return the cycle of ops in seeded order.  The
    warm-up op is the first op as built, the cheapest or nearly so."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}/{seed}")
    make_cycle = {
        "certify-sparse": _certify_sparse,
        "certify-dense": _certify_dense,
        "snake": _snake,
        "yang-baxter": _yang_baxter,
    }[name]
    cycle = make_cycle(rng, workdir)
    warmup = cycle[0]
    rng.shuffle(cycle)
    return Workload(cycle, warmup)


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _certify_sparse(rng: random.Random, workdir: Path) -> list[Op]:
    from maninforge import fileio
    from maninforge.core import SparseTensor, inverse
    from maninforge.polyuble import nuble

    d3 = base_triples()["D3"]
    pass_check = report_check(0, "pass")
    cycle = []
    for n in range(1, 4):
        path = _write(workdir, f"d3x{n}.triple", fileio.format_triple(nuble(d3, n)))
        cycle.append(cli_op(f"verify D3x{n}", ["verify", "manin", path, "--json"], pass_check))
    d3_path = _write(workdir, "d3.triple", fileio.format_triple(d3))
    cycle.append(
        cli_op(
            "polyuble D3 -n 2",
            ["polyuble", d3_path, "-n", "2", "--check", "--json"],
            report_check(0, "pass", result=_digest_is(POLYUBLE_D3_N2_SHA256)),
        )
    )
    big = nuble(d3, 3)
    q_path = _write(workdir, "d3x3-part1.subspace", fileio.format_subspace(big.part1))
    s_path = _write(workdir, "d3x3-form-inverse.tensor", fileio.format_tensor(SparseTensor.from_matrix(inverse(big.form))))
    cycle.append(
        cli_op(
            "stabilizer D3x3",
            ["stabilizer", str(workdir / "d3x3.triple"), "--q", q_path, "--S", s_path, "--json"],
            report_check(0, "pass", result=_text_is(STABILIZER_RESULT)),
        )
    )
    return cycle


def _certify_dense(rng: random.Random, workdir: Path) -> list[Op]:
    from maninforge import fileio
    from maninforge.polyuble import nuble

    bases = base_triples()
    bases["D3x2"] = nuble(bases["D3"], 2)
    pass_check = report_check(0, "pass")
    cycle = []
    images = {}
    for label, base, shears, target, candidates in DENSE_IMAGES:
        images[label] = sheared_image(bases[base], shears, target, candidates, rng, label)
        path = _write(workdir, f"{label}.triple", fileio.format_triple(images[label]))
        cycle.append(cli_op(f"verify {label}", ["verify", "manin", path, "--json"], pass_check))
    negative = flip_one_constant(images["D3-shear16"], rng, "D3-shear16-flipped")
    path = _write(workdir, "D3-shear16-flipped.triple", fileio.format_triple(negative))
    cycle.append(
        cli_op(
            "verify D3-shear16-flipped",
            ["verify", "manin", path, "--json"],
            report_check(1, "fail", NEGATIVE_CHECKS),
        )
    )
    return cycle


SNAKE_CASES = (("D2", 2, 2), ("D2", 2, 3), ("D2", 2, 4), ("D2", 3, 3), ("D3", 2, 2))


def _snake(rng: random.Random, workdir: Path) -> list[Op]:
    from maninforge import fileio

    bases = base_triples()
    paths = {k: _write(workdir, f"{k.lower()}.triple", fileio.format_triple(t)) for k, t in bases.items()}
    cycle = [
        cli_op(
            f"snake {base} -m {m} -n {n}",
            ["snake", "-m", str(m), "-n", str(n), "--verify", paths[base], "--json"],
            report_check(0, "pass", result=_is_permutation(m * n)),
        )
        for base, m, n in SNAKE_CASES
    ]
    return cycle


def _yang_baxter(rng: random.Random, workdir: Path) -> list[Op]:
    from maninforge import fileio
    from maninforge.manin import r_from_splitting
    from maninforge.polyuble import nuble

    d3 = base_triples()["D3"]
    cycle = []
    for n in (2, 3, 4):
        t = nuble(d3, n)
        algebra_path = _write(workdir, f"d3x{n}.algebra", fileio.format_algebra(t.algebra))
        r_path = _write(workdir, f"d3x{n}-r.tensor", fileio.format_tensor(r_from_splitting(t)))
        expected = f"tensor degree=3 dim={t.dim}\n" + HCYBE_LINES
        cycle.append(
            cli_op(
                f"hcybe D3x{n}",
                ["hcybe", algebra_path, "--r", r_path, "--json"],
                report_check(0, "pass", result=_text_is(expected)),
            )
        )
    algebras = {"sl2x4": sl2_sum(4), "D3": d3.algebra}
    for key, pairs in TRIALS:
        h = algebras[key]
        lams = [twist_fixed_skew(h, pairs, rng) for _ in range(LATENCY_CYCLES)]
        for turn, lam in enumerate(lams):
            _write(workdir, f"identity-{key}-{turn}.tensor", fileio.format_tensor(lam))
        cycle.append(identity_op(f"identity {key}", h, lams))
    return cycle

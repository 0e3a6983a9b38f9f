"""Plain-text formats for tensors, subspaces, algebras, triples, and matrix
blocks.  Every serializer emits sorted, canonical output and every parser
round-trips it bit-exactly; parse errors carry 1-based line numbers."""
from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from .core import ONE, Matrix, Subspace, SparseTensor, Vector, _span, _transpose_sparse
from .homlie import HomLieAlgebra
from .manin import ManinTriple


class ParseError(ValueError):
    """A malformed input line; `lineno` is 1-based within the parsed text."""

    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def render_rational(x: Fraction) -> str:
    """Canonical text for an exact rational: `p` for integers, else `p/q`."""
    return str(x)


def _parse_rational(token: str, lineno: int, parsed: dict[str, Fraction]) -> Fraction:
    """The rational a token spells, parsed once per document: `parsed` maps the
    tokens read so far to their values, and only successful parses enter it,
    so a malformed token fails with its own line number every time."""
    value = parsed.get(token)
    if value is None:
        try:
            value = parsed[token] = Fraction(token)
        except (ValueError, ZeroDivisionError):
            raise ParseError(lineno, f"malformed rational {token!r}") from None
    return value


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(lineno, f"malformed integer {token!r}") from None


def _parse_dim(token: str, lineno: int) -> int:
    dim = _parse_int(token, lineno)
    if dim < 0:
        raise ParseError(lineno, f"dim must be non-negative, got {dim}")
    return dim


def _parse_header_fields(line: str, lineno: int, kind: str) -> dict[str, str]:
    tokens = line.split()
    if not tokens or tokens[0] != kind:
        raise ParseError(lineno, f"expected a `{kind}` header")
    fields: dict[str, str] = {}
    for token in tokens[1:]:
        if "=" not in token:
            raise ParseError(lineno, f"malformed header field {token!r}")
        key, _, value = token.partition("=")
        if key in fields:
            raise ParseError(lineno, f"duplicate header field {key!r}")
        fields[key] = value
    return fields


def _numbered_lines(text: str) -> list[tuple[int, str]]:
    return [(i, stripped) for i, line in enumerate(text.splitlines(), start=1) if (stripped := line.strip())]


def _dense_text(row: Mapping[int, Fraction], dim: int) -> str:
    """The text of a sparse row written dense: each nonzero entry rendered,
    "0" at every other column of range(dim)."""
    tokens = ["0"] * dim
    for c, x in row.items():
        tokens[c] = render_rational(x)
    return " ".join(tokens)


def _dense_row(tokens: list[str], lineno: int, parsed: dict[str, Fraction]) -> dict[int, Fraction]:
    """{column: value} over the nonzero entries of a row written dense, columns
    increasing.  The "0" tokens are counted, not parsed; the others are parsed
    in order, up to the last of them, so a malformed token fails as it would
    in a scan of every token, and a token that spells zero (`0/3`, `-0`) is
    parsed and dropped.  The caller checks the row's length afterwards."""
    row: dict[int, Fraction] = {}
    left = len(tokens) - tokens.count("0")
    if left:
        for c, tok in enumerate(tokens):
            if tok != "0":
                value = _parse_rational(tok, lineno, parsed)
                if value:
                    row[c] = value
                left -= 1
                if not left:
                    break
    return row


# ---------------------------------------------------------------------------
# Tensors


def format_tensor(t: SparseTensor) -> str:
    lines = [f"tensor degree={t.degree} dim={t.dim}"]
    for idx, value in t.items():
        lines.append(" ".join(str(i) for i in idx) + f" {render_rational(value)}")
    return "\n".join(lines) + "\n"


def parse_tensor(text: str) -> SparseTensor:
    lines = _numbered_lines(text)
    if not lines:
        raise ParseError(1, "empty tensor document")
    lineno, header = lines[0]
    fields = _parse_header_fields(header, lineno, "tensor")
    if "degree" not in fields or "dim" not in fields:
        raise ParseError(lineno, "tensor header needs degree= and dim=")
    degree = _parse_int(fields["degree"], lineno)
    dim = _parse_dim(fields["dim"], lineno)
    entries: dict[tuple[int, ...], Fraction] = {}
    parsed: dict[str, Fraction] = {}
    for lineno, line in lines[1:]:
        tokens = line.split()
        if len(tokens) != degree + 1:
            raise ParseError(lineno, f"expected {degree} indices and one value")
        try:
            idx = tuple(map(int, tokens[:degree]))
        except ValueError:  # name the first malformed token
            idx = tuple(_parse_int(tok, lineno) for tok in tokens[:degree])
        if any(i < 0 or i >= dim for i in idx):
            raise ParseError(lineno, f"index out of range in {line!r}")
        if idx in entries:
            raise ParseError(lineno, f"duplicate entry for index {idx}")
        entries[idx] = _parse_rational(tokens[degree], lineno, parsed)
    # Each line checked its int indices against degree and dim, and its value
    # is an exact rational: with the degree checked and the zeros dropped,
    # the tensor holds every property that its constructor would check.
    if degree not in (1, 2, 3):
        raise ParseError(lines[0][0], f"unsupported tensor degree {degree}")
    return SparseTensor._of_checked(degree, dim, {idx: v for idx, v in entries.items() if v})


# ---------------------------------------------------------------------------
# Subspaces


def format_subspace(s: Subspace) -> str:
    lines = [f"subspace dim={s.ambient_dim}"]
    lines.extend(_dense_text(row, s.ambient_dim) for row in s.echelon)
    return "\n".join(lines) + "\n"


def _parsed_span(dim: int, rows: list[dict[int, Fraction]]) -> Subspace:
    """`_span(dim, rows)`: canonical rows, as the writers emit them, pass the
    `Subspace` constructor's check as they are; only refused rows are reduced."""
    try:
        return Subspace(dim, tuple(rows))
    except ValueError:
        return _span(dim, rows)


def parse_subspace(text: str) -> Subspace:
    lines = _numbered_lines(text)
    if not lines:
        raise ParseError(1, "empty subspace document")
    lineno, header = lines[0]
    fields = _parse_header_fields(header, lineno, "subspace")
    if "dim" not in fields:
        raise ParseError(lineno, "subspace header needs dim=")
    dim = _parse_dim(fields["dim"], lineno)
    rows = []
    parsed: dict[str, Fraction] = {}
    for lineno, line in lines[1:]:
        tokens = line.split()
        row = _dense_row(tokens, lineno, parsed)
        if len(tokens) != dim:
            raise ParseError(lineno, f"expected {dim} entries per row")
        rows.append(row)
    return _parsed_span(dim, rows)


# ---------------------------------------------------------------------------
# Algebras and triples


def _format_algebra_lines(h: HomLieAlgebra) -> list[str]:
    header = f"algebra dim={h.dim}"
    if h.name:
        header += f" name={h.name}"
    lines = [header]
    for (i, j) in sorted(h.brackets):
        coeffs = h.brackets[(i, j)]
        terms = " ".join(f"{k}:{render_rational(v)}" for k, v in sorted(coeffs.items()))
        lines.append(f"bracket {i} {j} : {terms}")
    lines += (f"phi {_dense_text(row, h.dim)}" for row in _transpose_sparse(h.phi_columns, h.dim))
    if h.form_rows is not None:
        lines += (f"form {_dense_text(row, h.dim)}" for row in h.form_rows)
    return lines


def format_algebra(h: HomLieAlgebra) -> str:
    return "\n".join(_format_algebra_lines(h)) + "\n"


def format_triple(t: ManinTriple) -> str:
    """The algebra's lines, then one line per canonical row of each half.  A
    zero-dimensional half has no row to write, and `parse_triple` needs rows
    of both halves, so such a triple is refused, the empty half named."""
    for label, part in (("part1", t.part1), ("part2", t.part2)):
        if not part.echelon:
            raise ValueError(f"{label} is zero-dimensional: the triple text needs at least one {label} row")
    lines = _format_algebra_lines(t.algebra)
    lines += (f"part1 {_dense_text(row, t.dim)}" for row in t.part1.echelon)
    lines += (f"part2 {_dense_text(row, t.dim)}" for row in t.part2.echelon)
    return "\n".join(lines) + "\n"


def _parse_algebra_body(lines: list[tuple[int, str]], allow_parts: bool):
    lineno, header = lines[0]
    fields = _parse_header_fields(header, lineno, "algebra")
    if "dim" not in fields:
        raise ParseError(lineno, "algebra header needs dim=")
    dim = _parse_dim(fields["dim"], lineno)
    name = fields.get("name")
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    seen: set[tuple[int, int]] = set()  # the keys of every bracket line, zero brackets too
    rows: dict[str, list[dict[int, Fraction]]] = {"phi": [], "form": [], "part1": [], "part2": []}
    parsed: dict[str, Fraction] = {"1": ONE}  # `manin._piece_rows`' 1, compared by identity
    for lineno, line in lines[1:]:
        tokens = line.split()
        keyword = tokens[0]
        if keyword == "bracket":
            if len(tokens) < 4 or tokens[3] != ":":
                raise ParseError(lineno, "expected `bracket <i> <j> : <k>:<value> ...`")
            i = _parse_int(tokens[1], lineno)
            j = _parse_int(tokens[2], lineno)
            if not 0 <= i < j < dim:
                raise ParseError(lineno, f"bracket indices must satisfy 0 <= i < j < dim, got {i} {j}")
            if (i, j) in seen:
                raise ParseError(lineno, f"duplicate bracket line for ({i}, {j})")
            coeffs: dict[int, Fraction] = {}
            targets: set[int] = set()  # with the targets of zero values, for the duplicate check
            for term in tokens[4:]:
                target, sep, value = term.partition(":")
                if not sep:
                    raise ParseError(lineno, f"malformed bracket term {term!r}")
                k = _parse_int(target, lineno)
                if not 0 <= k < dim:
                    raise ParseError(lineno, f"bracket target {k} out of range")
                if k in targets:
                    raise ParseError(lineno, f"duplicate bracket target {k}")
                targets.add(k)
                x = _parse_rational(value, lineno, parsed)
                if x:
                    coeffs[k] = x
            seen.add((i, j))
            if coeffs:
                brackets[i, j] = coeffs
        elif keyword in ("phi", "form") or (allow_parts and keyword in rows):
            rest = tokens[1:]
            row = _dense_row(rest, lineno, parsed)
            if len(rest) != dim:
                raise ParseError(lineno, f"expected {dim} entries after {keyword!r}")
            rows[keyword].append(row)
        else:
            raise ParseError(lineno, f"unknown line keyword {keyword!r}")
    phi_rows, form_rows = rows["phi"], rows["form"]
    if len(phi_rows) != dim:
        raise ParseError(lines[0][0], f"expected {dim} phi rows, found {len(phi_rows)}")
    if form_rows and len(form_rows) != dim:
        raise ParseError(lines[0][0], f"expected {dim} form rows, found {len(form_rows)}")
    phi_columns = _transpose_sparse(phi_rows, dim)
    # Lemma (a parsed algebra needs no second check).  The constructor checks
    # that dim is a non-negative int, that each bracket key is (i, j) with ints
    # 0 <= i < j < dim and a nonempty map of int targets in range(dim) to
    # nonzero ints or Fractions, and that phi and the form are dim x dim, as
    # sparse vectors of nonzero exact entries.  `_parse_dim` read dim; each
    # bracket line checked its key and targets, its values are Fractions with
    # the zeros dropped, and a line left with none has no key; each phi and
    # form row has dim entries, nonzero Fractions after `_dense_row`, and there
    # are dim phi rows and none or dim form rows.  So no constructor check can
    # fail, and the fields are set as they are, the twist's identity read from
    # its columns on first use, as for a constructed algebra.
    algebra = HomLieAlgebra._of_checked(dim, brackets, phi_columns, form_rows or None, None, name)
    return algebra, rows


def parse_algebra(text: str) -> HomLieAlgebra:
    lines = _numbered_lines(text)
    if not lines:
        raise ParseError(1, "empty algebra document")
    algebra, _ = _parse_algebra_body(lines, allow_parts=False)
    return algebra


def parse_triple(text: str) -> ManinTriple:
    lines = _numbered_lines(text)
    if not lines:
        raise ParseError(1, "empty triple document")
    algebra, part_rows = _parse_algebra_body(lines, allow_parts=True)
    if not part_rows["part1"] or not part_rows["part2"]:
        raise ParseError(lines[0][0], "triple needs part1 and part2 rows")
    part1, part2 = (_parsed_span(algebra.dim, part_rows[label]) for label in ("part1", "part2"))
    return ManinTriple(algebra, part1, part2, name=algebra.name)


# ---------------------------------------------------------------------------
# Matrix blocks (one matrix per blank-line-separated block)


def parse_matrix_blocks(text: str) -> list[Matrix]:
    blocks: list[Matrix] = []
    current: list[Vector] = []
    width: int | None = None
    parsed: dict[str, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            if current:
                blocks.append(tuple(current))
                current, width = [], None
            continue
        row = tuple(_parse_rational(tok, lineno, parsed) for tok in line.split())
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(lineno, f"ragged matrix row (expected {width} entries)")
        current.append(row)
    if current:
        blocks.append(tuple(current))
    return blocks


# ---------------------------------------------------------------------------
# Multi-document streams


DOCUMENT_KINDS = ("algebra", "tensor", "subspace")


def split_documents(text: str) -> list[tuple[str, str]]:
    """Split a concatenated stream at `algebra`/`tensor`/`subspace` headers,
    returning (kind, document text) in order of appearance."""
    docs: list[tuple[str, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        first = stripped.split(maxsplit=1)[0] if stripped else ""
        if first in DOCUMENT_KINDS:
            docs.append((first, [raw]))
        elif stripped:
            if not docs:
                raise ParseError(lineno, "content before the first document header")
            docs[-1][1].append(raw)
    return [(kind, "\n".join(body) + "\n") for kind, body in docs]

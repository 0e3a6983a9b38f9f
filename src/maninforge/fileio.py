"""Plain-text formats for tensors, subspaces, algebras, triples, and matrix
blocks.  Every serializer emits sorted, canonical output and every parser
round-trips it bit-exactly; parse errors carry 1-based line numbers."""
from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from itertools import islice

from .core import _RATIONAL_TEXT, ONE, ZERO, Matrix, Subspace, SparseTensor, Vector, _span, _transpose_sparse
from .homlie import HomLieAlgebra
from .manin import ManinTriple


class ParseError(ValueError):
    """A malformed input line; `lineno` is 1-based within the parsed text,
    blank lines counted.  `split_documents` pads each document it cuts from a
    stream, so for a CLI input this is the line of the stream."""

    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def render_rational(x: Fraction) -> str:
    """Canonical text for an exact rational: `p` for integers, else `p/q`."""
    return str(x)


def _parse_rational(token: str, lineno: int, parsed: dict[str, Fraction]) -> Fraction:
    """The rational a token spells, parsed once per document: `parsed` maps the
    tokens read so far to their values, and only successful parses enter it,
    so a malformed token fails with its own line number every time.  Only
    `p` and `p/q` are read (`core._RATIONAL_TEXT`, checked on a miss): a
    decimal, an exponent or an underscore is malformed, as is a zero q.  A
    token that spells zero maps to the shared `ZERO`, so a reader drops
    zeros by identity, with no Fraction truth test.  The hot loops look a
    token up in `parsed` themselves and call this on a miss."""
    value = parsed.get(token)
    if value is None:
        try:
            if not _RATIONAL_TEXT.fullmatch(token):
                raise ValueError(token)
            value = Fraction(token)
        except (ValueError, ZeroDivisionError):
            raise ParseError(lineno, f"malformed rational {token!r}") from None
        value = parsed[token] = value or ZERO
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


# The fields each header kind accepts; the writers emit no others.
_HEADER_FIELDS = {"algebra": ("dim", "name"), "tensor": ("degree", "dim"), "subspace": ("dim",)}


def _parse_header_fields(tokens: list[str], lineno: int, kind: str) -> dict[str, str]:
    if tokens[0] != kind:
        raise ParseError(lineno, f"expected a `{kind}` header")
    known = _HEADER_FIELDS[kind]
    fields: dict[str, str] = {}
    for token in tokens[1:]:
        if "=" not in token:
            raise ParseError(lineno, f"malformed header field {token!r}")
        key, _, value = token.partition("=")
        if key not in known:
            raise ParseError(lineno, f"unknown header field {key!r}")
        if key in fields:
            raise ParseError(lineno, f"duplicate header field {key!r}")
        fields[key] = value
    return fields


def _header(text: str, kind: str, document: str) -> tuple[list[str], int, dict[str, str]]:
    """(lines, h, fields): the text's lines, cut as `str.splitlines` cuts them,
    the index h of the header, the first line that is not blank, and the
    header's fields.  Line h is line h + 1 of the text, the number that a
    `ParseError` names; a text with no header is an empty `document`."""
    lines = text.splitlines()
    for h, line in enumerate(lines):
        tokens = line.split()
        if tokens:
            return lines, h, _parse_header_fields(tokens, h + 1, kind)
    raise ParseError(1, f"empty {document} document")


def _dense_text(row: Mapping[int, Fraction], dim: int) -> str:
    """The text of a sparse row written dense: each nonzero entry rendered,
    "0" at every other column of range(dim)."""
    tokens = ["0"] * dim
    for c, x in row.items():
        tokens[c] = render_rational(x)
    return " ".join(tokens)


def _dense_row(tokens: list[str], start: int, lineno: int, parsed: dict[str, Fraction]) -> dict[int, Fraction]:
    """{column: value} over the nonzero entries of a row written dense from
    tokens[start] on, column c at tokens[start + c], columns increasing; no
    token before start is "0".  The "0" tokens are counted, not parsed; the
    others are parsed in order, up to the last of them, so a malformed token
    fails as it would in a scan of every token, and a token that spells zero
    (`0/3`, `-0`) is parsed and dropped.  The caller checks the row's length
    afterwards."""
    row: dict[int, Fraction] = {}
    left = len(tokens) - start - tokens.count("0")
    if left:
        for c, tok in enumerate(islice(tokens, start, None)):
            if tok != "0":
                value = parsed.get(tok)
                if value is None:
                    value = _parse_rational(tok, lineno, parsed)
                if value is not ZERO:
                    row[c] = value
                left -= 1
                if not left:
                    break
    return row


# ---------------------------------------------------------------------------
# Tensors


def format_tensor(t: SparseTensor) -> str:
    """A `tensor degree=<d> dim=<n>` header, then `<i_1> ... <i_d> <value>`
    for each nonzero entry, in the tensor's sorted order."""
    lines = [f"tensor degree={t.degree} dim={t.dim}"]
    for idx, value in t.items():
        lines.append(" ".join(str(i) for i in idx) + f" {render_rational(value)}")
    return "\n".join(lines) + "\n"


def _tensor_index(indices: list[str], lineno: int, dim: int, line: str, index_of: dict[str, int]) -> tuple[int, ...]:
    """The index an entry line's index tokens spell, read in full: a malformed
    token named, the first of several, then the range checked.  Each token read
    enters index_of, the document's cache of tokens known to spell an index in
    range(dim)."""
    try:
        idx = tuple(map(int, indices))
    except ValueError:  # name the first malformed token
        idx = tuple(_parse_int(tok, lineno) for tok in indices)
    if min(idx) < 0 or max(idx) >= dim:
        raise ParseError(lineno, f"index out of range in {line.strip()!r}")
    index_of.update(zip(indices, idx))
    return idx


def parse_tensor(text: str) -> SparseTensor:
    """The tensor of a `format_tensor` text: its entry lines in any order, blank
    lines skipped, entries that spell zero dropped.  A `ParseError` names the
    line of the text where reading stopped: an entry line for a malformed,
    out-of-range or repeated entry, the header for a missing field or an
    unsupported degree, which is checked after the entries."""
    lines, h, fields = _header(text, "tensor", "tensor")
    if "degree" not in fields or "dim" not in fields:
        raise ParseError(h + 1, "tensor header needs degree= and dim=")
    degree = _parse_int(fields["degree"], h + 1)
    dim = _parse_dim(fields["dim"], h + 1)
    width = degree + 1
    entries: dict[tuple[int, ...], Fraction] = {}
    zeros: list[tuple[int, ...]] = []  # entries that spell zero, dropped at the end
    parsed: dict[str, Fraction] = {}
    index_of: dict[str, int] = {}  # index tokens read so far, each in range
    for lineno, line in enumerate(islice(lines, h + 1, None), h + 2):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != width:
            raise ParseError(lineno, f"expected {degree} indices and one value")
        *indices, token = tokens
        idx = tuple(map(index_of.get, indices))
        if None in idx:
            idx = _tensor_index(indices, lineno, dim, line, index_of)
        if idx in entries:
            raise ParseError(lineno, f"duplicate entry for index {idx}")
        value = parsed.get(token)
        if value is None:
            value = _parse_rational(token, lineno, parsed)
        entries[idx] = value
        if value is ZERO:
            zeros.append(idx)
    # Each line checked its int indices against degree and dim, and its value
    # is an exact rational: with the degree checked and the zeros dropped,
    # the tensor holds every property that its constructor would check.
    if degree not in (1, 2, 3):
        raise ParseError(h + 1, f"unsupported tensor degree {degree}")
    for idx in zeros:
        del entries[idx]
    return SparseTensor._of_checked(degree, dim, entries)


# ---------------------------------------------------------------------------
# Subspaces


def format_subspace(s: Subspace) -> str:
    """A `subspace dim=<n>` header, then the canonical rows, each written dense."""
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
    """The span of the rows of a `format_subspace` text; rows that are not
    canonical are reduced.  A `ParseError` names the line of the text where
    reading stopped: a row with a malformed token or the wrong length, or the
    header."""
    lines, h, fields = _header(text, "subspace", "subspace")
    if "dim" not in fields:
        raise ParseError(h + 1, "subspace header needs dim=")
    dim = _parse_dim(fields["dim"], h + 1)
    rows = []
    parsed: dict[str, Fraction] = {}
    for lineno, line in enumerate(islice(lines, h + 1, None), h + 2):
        tokens = line.split()
        if tokens:
            row = _dense_row(tokens, 0, lineno, parsed)
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
    """An `algebra dim=<n> [name=<name>]` header, one `bracket <i> <j> : <k>:<value> ...`
    line per nonzero bracket i < j, then the twist's rows and the form's rows,
    if it has one, each written dense after `phi` or `form`."""
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


def _parse_algebra_body(lines: list[str], h: int, fields: dict[str, str], allow_parts: bool):
    """(algebra, rows) from the lines after the header at lines[h], rows
    holding the dense rows read under each keyword."""
    header_line = h + 1
    if "dim" not in fields:
        raise ParseError(header_line, "algebra header needs dim=")
    dim = _parse_dim(fields["dim"], header_line)
    name = fields.get("name")
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    seen: set[tuple[int, int]] = set()  # the keys of every bracket line, zero brackets too
    rows: dict[str, list[dict[int, Fraction]]] = {"phi": [], "form": [], "part1": [], "part2": []}
    parsed: dict[str, Fraction] = {"1": ONE}  # the 1 of `manin.Chain.rows`' edge rows, compared by identity
    for lineno, line in enumerate(islice(lines, h + 1, None), h + 2):
        tokens = line.split()
        if not tokens:
            continue
        keyword = tokens[0]
        if keyword == "bracket":
            if len(tokens) < 4 or tokens[3] != ":":
                raise ParseError(lineno, "expected `bracket <i> <j> : <k>:<value> ...`")
            try:
                i, j = int(tokens[1]), int(tokens[2])
            except ValueError:  # name the first malformed token
                i, j = _parse_int(tokens[1], lineno), _parse_int(tokens[2], lineno)
            if not 0 <= i < j < dim:
                raise ParseError(lineno, f"bracket indices must satisfy 0 <= i < j < dim, got {i} {j}")
            if (i, j) in seen:
                raise ParseError(lineno, f"duplicate bracket line for ({i}, {j})")
            coeffs: dict[int, Fraction] = {}
            targets: set[int] = set()  # with the targets of zero values, for the duplicate check
            for term in islice(tokens, 4, None):
                target, sep, value = term.partition(":")
                if not sep:
                    raise ParseError(lineno, f"malformed bracket term {term!r}")
                try:
                    k = int(target)
                except ValueError:
                    k = _parse_int(target, lineno)
                if not 0 <= k < dim:
                    raise ParseError(lineno, f"bracket target {k} out of range")
                if k in targets:
                    raise ParseError(lineno, f"duplicate bracket target {k}")
                targets.add(k)
                x = parsed.get(value)
                if x is None:
                    x = _parse_rational(value, lineno, parsed)
                if x is not ZERO:
                    coeffs[k] = x
            seen.add((i, j))
            if coeffs:
                brackets[i, j] = coeffs
        elif keyword in ("phi", "form") or (allow_parts and keyword in rows):
            row = _dense_row(tokens, 1, lineno, parsed)
            if len(tokens) != dim + 1:
                raise ParseError(lineno, f"expected {dim} entries after {keyword!r}")
            rows[keyword].append(row)
        else:
            raise ParseError(lineno, f"unknown line keyword {keyword!r}")
    phi_rows, form_rows = rows["phi"], rows["form"]
    if len(phi_rows) != dim:
        raise ParseError(header_line, f"expected {dim} phi rows, found {len(phi_rows)}")
    if form_rows and len(form_rows) != dim:
        raise ParseError(header_line, f"expected {dim} form rows, found {len(form_rows)}")
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
    """The algebra of a `format_algebra` text: bracket, `phi` and `form` lines
    in any order, blank lines skipped, values that spell zero dropped.  A
    `ParseError` names the line of the text where reading stopped: a line
    with a malformed or out-of-range token, a repeated bracket or an unknown
    keyword, or the header for a missing field or a missing phi or form row."""
    algebra, _ = _parse_algebra_body(*_header(text, "algebra", "algebra"), allow_parts=False)
    return algebra


def parse_triple(text: str) -> ManinTriple:
    """The triple of a `format_triple` text: an algebra text with `part1` and
    `part2` rows, which span the halves.  A `ParseError` names a line as
    `parse_algebra` does, the header also when a half has no row."""
    lines, h, fields = _header(text, "algebra", "triple")
    algebra, part_rows = _parse_algebra_body(lines, h, fields, allow_parts=True)
    if not part_rows["part1"] or not part_rows["part2"]:
        raise ParseError(h + 1, "triple needs part1 and part2 rows")
    part1, part2 = (_parsed_span(algebra.dim, part_rows[label]) for label in ("part1", "part2"))
    return ManinTriple(algebra, part1, part2, name=algebra.name)


# ---------------------------------------------------------------------------
# Matrix blocks (one matrix per blank-line-separated block)


def parse_matrix_blocks(text: str) -> list[Matrix]:
    """The matrices of a text of blank-line-separated blocks, one row of
    rationals per line.  A `ParseError` names the line of the text (1-based,
    blank lines counted) of a malformed token or a ragged row."""
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
    returning (kind, document text) in order of appearance.  Each document
    text starts with one newline per stream line before its header, so that
    a parser numbers its lines as the stream does.

    A stream that holds one keyword, at its start, is one document: it is
    returned whole, with no line split.  Any other stream is cut at its
    header lines, those whose first token is a keyword, from one
    `str.splitlines` pass; a line that is not blank before the first header
    is refused."""
    counts = [text.count(kind) for kind in DOCUMENT_KINDS]
    if sum(counts) == 1:
        kind = DOCUMENT_KINDS[counts.index(1)]
        at = text.index(kind)
        end = at + len(kind)
        if not text[:at].strip() and not text[end:end + 1].strip():
            return [(kind, text)]
    lines = text.splitlines()
    headers: list[tuple[int, str]] = []
    for at, line in enumerate(lines):
        first = line.split(maxsplit=1)[:1]
        if first and first[0] in DOCUMENT_KINDS:
            headers.append((at, first[0]))
        elif first and not headers:
            raise ParseError(at + 1, "content before the first document header")
    ends = [at for at, _ in headers[1:]] + [len(lines)]
    return [(kind, "\n" * at + "\n".join(lines[at:end]) + "\n") for (at, kind), end in zip(headers, ends)]

"""Round-trip and error-position tests for the plain-text formats."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import maninforge.core
from maninforge import fileio
from maninforge.core import SparseTensor, Subspace, _span
from maninforge.reporting import failure, render_tensor, render_vector
from maninforge.homlie import HomLieAlgebra
from maninforge.manin import ManinTriple, hyperbolic_triple, special_linear_data, triple_double
from maninforge.rmatrix import sl2_twisted

rationals = st.builds(
    Fraction, st.integers(-9, 9), st.integers(1, 4)
)


@st.composite
def sparse_tensors(draw):
    degree = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 4))
    indices = st.tuples(*[st.integers(0, dim - 1)] * degree)
    entries = draw(st.dictionaries(indices, rationals, max_size=6))
    return SparseTensor(degree, dim, entries)


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


@given(sparse_tensors())
def test_tensor_round_trip(t):
    text = fileio.format_tensor(t)
    assert fileio.parse_tensor(text) == t
    assert fileio.format_tensor(fileio.parse_tensor(text)) == text


@given(
    st.integers(1, 4).flatmap(
        lambda dim: st.lists(
            st.tuples(*[rationals] * dim), min_size=0, max_size=dim
        ).map(lambda rows: Subspace.span(dim, rows))
    )
)
def test_subspace_round_trip(s):
    text = fileio.format_subspace(s)
    assert fileio.parse_subspace(text) == s
    assert fileio.format_subspace(fileio.parse_subspace(text)) == text


def test_algebra_round_trip_with_and_without_form():
    h = sl2_twisted()
    parsed = fileio.parse_algebra(fileio.format_algebra(h))
    assert parsed.brackets == h.brackets
    assert parsed.phi == h.phi
    assert parsed.form == h.form
    assert parsed.name == h.name
    bare = HomLieAlgebra.create(2, {})
    assert fileio.parse_algebra(fileio.format_algebra(bare)).form is None


def test_triple_round_trip():
    for t in (hyperbolic_triple(), triple_double(special_linear_data(2))):
        parsed = fileio.parse_triple(fileio.format_triple(t))
        assert parsed.algebra.brackets == t.algebra.brackets
        assert parsed.part1 == t.part1
        assert parsed.part2 == t.part2


SPANNED_ROWS = {
    "canonical": [[1, 0, 2, 0], [0, 1, Fraction(-1, 3), 0]],
    "unreduced": [[2, 0, 4, 0], [1, 1, 1, 0]],
    "entry above a pivot": [[1, 1, 0, 0], [0, 1, 0, 0]],
    "permuted": [[0, 1, Fraction(-1, 3), 0], [1, 0, 2, 0]],
    "zero row": [[1, 0, 2, 0], [0, 0, 0, 0], [0, 1, 0, 5]],
    "duplicate row": [[1, 0, 2, 0], [1, 0, 2, 0]],
}


@pytest.mark.parametrize("case", sorted(SPANNED_ROWS))
def test_parsed_rows_give_what_span_gives(case):
    """A subspace document and both halves of a triple parse to the subspace
    that `_span` returns on the rows written, canonical or not."""
    rows = SPANNED_ROWS[case]
    expected = _span(4, [{c: Fraction(x) for c, x in enumerate(row) if x} for row in rows])
    lines = [" ".join(str(x) for x in row) for row in rows]
    subspace = fileio.parse_subspace("subspace dim=4\n" + "\n".join(lines) + "\n")
    phi = ["phi " + " ".join("1" if i == j else "0" for j in range(4)) + "\n" for i in range(4)]
    algebra = "algebra dim=4\n" + "".join(phi)
    triple = fileio.parse_triple(algebra + "".join(f"part{k} {line}\n" for k in (1, 2) for line in lines))
    for got in (subspace, triple.part1, triple.part2):
        assert got == expected
        assert all(type(x) is Fraction for row in got.echelon for x in row.values())


def test_parsing_written_text_eliminates_nothing(monkeypatch):
    """Work-count guard: the writers emit canonical rows, which the parsers
    keep after the `Subspace` constructor's check, so parsing `format_triple`
    and `format_subspace` output runs no elimination stage; rows that are
    not canonical still do."""
    triples = (hyperbolic_triple(), triple_double(special_linear_data(2)), triple_double(special_linear_data(3)))
    calls = []
    eliminated = maninforge.core._eliminated
    monkeypatch.setattr(maninforge.core, "_eliminated", lambda rows: calls.append(1) or eliminated(rows))
    for t in triples:
        parsed = fileio.parse_triple(fileio.format_triple(t))
        assert (parsed.part1, parsed.part2) == (t.part1, t.part2)
        assert fileio.parse_subspace(fileio.format_subspace(t.part2)) == t.part2
    assert calls == []
    fileio.parse_subspace("subspace dim=2\n2 0\n")
    assert calls == [1]


def test_matrix_blocks_parse():
    """A blank line ends a block; CLI `psi` reads its group elements this way."""
    blocks = [
        ((Fraction(1), Fraction(1, 2)), (Fraction(0), Fraction(1))),
        ((Fraction(-3),),),
    ]
    assert fileio.parse_matrix_blocks("1 1/2\n0 1\n\n-3\n") == blocks


def test_render_rational_is_canonical():
    assert fileio.render_rational(Fraction(3)) == "3"
    assert fileio.render_rational(Fraction(-1, 2)) == "-1/2"
    assert fileio.render_rational(Fraction(2, 4)) == "1/2"


def str_without_limit(x) -> str:
    """`str(x)` with Python's int/str digit limit lifted for the one call."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("digits", [1, 599, 600, 601, 1201, 4300, 4301, 9001])
def test_rationals_of_any_size_render_exactly(digits):
    """`render_rational` and the report renderers write what `str` writes
    with the digit limit lifted, numerator and denominator each of up to
    9,001 digits, at either sign; the limit itself is left as it was."""
    rng = random.Random(digits)
    limit = sys.get_int_max_str_digits()
    for _ in range(4):
        p = rng.randrange(10 ** (digits - 1), 10**digits) * rng.choice((1, -1))
        q = rng.randrange(1, 10 ** rng.randrange(1, digits + 1))
        for x in (Fraction(p), Fraction(p, q), Fraction(10 ** (digits - 1)), Fraction(-(10**digits) + 1, 7)):
            text = str_without_limit(x)
            assert fileio.render_rational(x) == text
            assert render_vector((Fraction(0), x)) == f"(0, {text})"
            assert failure("check", None, x).residual == text
            assert render_tensor(SparseTensor(1, 2, {(1,): x})) == f"{text}*e1"
    assert sys.get_int_max_str_digits() == limit


# ---------------------------------------------------------------------------
# error positions
# ---------------------------------------------------------------------------


def expect_parse_error(fn, text, lineno, fragment):
    with pytest.raises(fileio.ParseError) as excinfo:
        fn(text)
    assert excinfo.value.lineno == lineno
    assert str(excinfo.value).startswith(f"line {lineno}:")
    assert fragment in str(excinfo.value)


def test_tensor_errors_carry_line_numbers():
    expect_parse_error(fileio.parse_tensor, "", 1, "empty")
    expect_parse_error(fileio.parse_tensor, "tensor degree=2\n", 1, "dim=")
    expect_parse_error(fileio.parse_tensor, "tensor degree=2 dim=-1\n", 1, "dim must be non-negative")
    expect_parse_error(
        fileio.parse_tensor, "tensor degree=2 dim=2\n0 1\n", 2, "expected 2 indices"
    )
    expect_parse_error(
        fileio.parse_tensor, "tensor degree=1 dim=2\n5 1\n", 2, "out of range"
    )
    expect_parse_error(
        fileio.parse_tensor, "tensor degree=1 dim=2\n0 1\n0 2\n", 3, "duplicate"
    )
    expect_parse_error(
        fileio.parse_tensor, "tensor degree=1 dim=2\n0 1/0\n", 2, "malformed rational"
    )
    expect_parse_error(fileio.parse_tensor, "tensor degree=0 dim=2\n5\n", 1, "unsupported tensor degree 0")
    expect_parse_error(fileio.parse_tensor, "tensor degree=4 dim=2\n", 1, "unsupported tensor degree 4")
    # an entry line is checked before the degree, and a zero entry still counts as a duplicate
    expect_parse_error(fileio.parse_tensor, "tensor degree=4 dim=2\n0 1\n", 2, "expected 4 indices")
    expect_parse_error(fileio.parse_tensor, "tensor degree=2 dim=2\n0 1 0\n0 1 3\n", 3, "duplicate")


REFUSED_RATIONALS = {
    "decimal": "1.5",
    "underscore": "1_000",
    "exponent": "1e3",
    "huge exponent": "1e99999999",
    "negative exponent": "2E-1",
    "nan": "nan",
    "infinity": "-inf",
    "Arabic-Indic digit": "\u0663",
    "zero denominator": "1/0",
    "5,000 digits": "9" * 5000,
}


@pytest.mark.parametrize("name", REFUSED_RATIONALS)
def test_only_p_and_p_over_q_are_read_as_rationals(name):
    """The documented spellings are `p` and `p/q`; `Fraction` reads more,
    and the 12-byte entry line `0 0 1e99999999` used to keep a parse busy
    for minutes.  Every other spelling is a malformed rational at its own
    line, in each reader and after good copies of other tokens; a token
    spelled right but longer than Python's int/str limit is refused there
    too, its message naming the limit.  A signed or zero-padded p/q is
    read."""
    token = REFUSED_RATIONALS[name]
    message = "int/str limit (4300)" if name == "5,000 digits" else "malformed rational"
    expect_parse_error(fileio.parse_tensor, f"tensor degree=2 dim=2\n0 0 1/2\n1 1 {token}\n", 3, message)
    expect_parse_error(fileio.parse_subspace, f"subspace dim=2\n1 {token}\n", 2, message)
    expect_parse_error(fileio.parse_algebra, f"algebra dim=2\nphi 1 0\nphi 0 {token}\n", 3, message)
    expect_parse_error(fileio.parse_matrix_blocks, f"1 2\n\n3 {token}\n", 3, message)
    text = "tensor degree=1 dim=3\n0 +3\n1 -04/6\n2 -0\n"
    assert fileio.parse_tensor(text).entries == {(0,): 3, (1,): Fraction(-2, 3)}


def test_a_malformed_tensor_index_is_named_with_its_line():
    """The indices of an entry line are read together; a malformed one is
    named, the first of several, with the full message and line number."""
    for text, lineno, message in (
        ("tensor degree=2 dim=3\n0 1 1\n1 x 2\n", 3, "malformed integer 'x'"),
        ("tensor degree=3 dim=3\n0 1 2 1\n0 y 1.5 2\n", 3, "malformed integer 'y'"),
        ("tensor degree=2 dim=3\n1/2 0 1\n", 2, "malformed integer '1/2'"),
        ("tensor degree=1 dim=3\n1.0 1\n", 2, "malformed integer '1.0'"),
        ("tensor degree=2 dim=3\n0 1 1\n1 0 1\n0 3 1\n", 4, "index out of range in '0 3 1'"),
        ("tensor degree=2 dim=3\n0 1 1\n1 -1 1\n", 3, "index out of range in '1 -1 1'"),
    ):
        with pytest.raises(fileio.ParseError) as excinfo:
            fileio.parse_tensor(text)
        assert (excinfo.value.lineno, str(excinfo.value)) == (lineno, f"line {lineno}: {message}")
    t = fileio.parse_tensor("tensor degree=2 dim=12\n+1 011 -3\n10 0 1/2\n")
    assert t.entries == {(1, 11): -3, (10, 0): Fraction(1, 2)}


def test_tensor_entries_that_spell_zero_are_dropped():
    t = fileio.parse_tensor("tensor degree=3 dim=2\n1 1 1 -0\n0 1 0 2/4\n1 0 0 0/7\n")
    assert t.entries == {(0, 1, 0): Fraction(1, 2)}
    assert t == SparseTensor(3, 2, {(0, 1, 0): Fraction(1, 2)})


def test_subspace_errors_carry_line_numbers():
    expect_parse_error(fileio.parse_subspace, "subspace\n", 1, "dim=")
    expect_parse_error(fileio.parse_subspace, "subspace dim=-2\n", 1, "dim must be non-negative")
    expect_parse_error(fileio.parse_subspace, "subspace dim=3\n1 0\n", 2, "3 entries")


def test_algebra_errors_carry_line_numbers():
    good_tail = "phi 1 0\nphi 0 1\n"
    expect_parse_error(
        fileio.parse_algebra, "algebra dim=2\nbogus 1\n" + good_tail, 2, "unknown line"
    )
    expect_parse_error(
        fileio.parse_algebra,
        "algebra dim=2\nbracket 1 0 : 0:1\n" + good_tail,
        2,
        "0 <= i < j",
    )
    expect_parse_error(
        fileio.parse_algebra,
        "algebra dim=2\nbracket 0 1 : 0:1\nbracket 0 1 : 0:1\n" + good_tail,
        3,
        "duplicate bracket",
    )
    expect_parse_error(fileio.parse_algebra, "algebra dim=2\nphi 1 0\n", 1, "phi rows")
    expect_parse_error(fileio.parse_algebra, "algebra dim=-1\n", 1, "dim must be non-negative")


def test_repeated_tokens_parse_to_equal_values_and_errors_keep_their_line():
    """Each distinct token is parsed once per document; a malformed token that
    repeats fails at its first line, and one that follows good copies of other
    tokens fails at its own line with its own message."""
    h = fileio.parse_algebra("algebra dim=2\nbracket 0 1 : 0:-1/2 1:3\nphi -1/2 3\nphi 3 -1/2\n")
    assert h.brackets == {(0, 1): {0: Fraction(-1, 2), 1: Fraction(3)}}
    assert h.phi == ((Fraction(-1, 2), Fraction(3)), (Fraction(3), Fraction(-1, 2)))
    expect_parse_error(fileio.parse_algebra, "algebra dim=2\nphi 1 x\nphi x 1\n", 2, "malformed rational 'x'")
    expect_parse_error(fileio.parse_algebra, "algebra dim=2\nphi 1 0\nphi 0 1/0\n", 3, "malformed rational '1/0'")
    expect_parse_error(fileio.parse_algebra, "algebra dim=1\nbracket 0 0 : 0:1\nphi 1\n", 2, "0 <= i < j")
    expect_parse_error(fileio.parse_subspace, "subspace dim=2\n1 0\n1 1.5.\n", 3, "malformed rational '1.5.'")
    expect_parse_error(fileio.parse_tensor, "tensor degree=1 dim=2\n0 1/3\n1 1/3/\n", 3, "malformed rational")
    expect_parse_error(fileio.parse_matrix_blocks, "1 2\n\n3 y\n", 3, "malformed rational 'y'")
    assert fileio.parse_matrix_blocks("1 2\n2 1\n\n1 2\n") == [
        ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(1))),
        ((Fraction(1), Fraction(2)),),
    ]


def test_duplicate_header_fields_are_refused():
    """A header names each field once; `algebra dim=0 dim=2` used to take the
    later dim."""
    expect_parse_error(fileio.parse_algebra, "algebra dim=0 dim=2\nphi 1 0\nphi 0 1\n", 1, "duplicate header field 'dim'")
    expect_parse_error(fileio.parse_algebra, "algebra name=a dim=1 name=b\nphi 1\n", 1, "duplicate header field 'name'")
    expect_parse_error(fileio.parse_subspace, "subspace dim=1 dim=1\n1\n", 1, "duplicate header field 'dim'")
    expect_parse_error(fileio.parse_tensor, "tensor degree=1 degree=1 dim=1\n0 1\n", 1, "duplicate header field")


def test_dense_rows_keep_their_errors_and_drop_every_zero():
    """Rows skip the literal token "0" unparsed, but a row is still parsed
    before its length is checked, and entries that spell zero otherwise are
    dropped from the sparse rows."""
    expect_parse_error(fileio.parse_algebra, "algebra dim=2\nphi 0 0 0\nphi 0 1\n", 2, "expected 2 entries after 'phi'")
    expect_parse_error(fileio.parse_algebra, "algebra dim=2\nphi 0\nphi 0 1\n", 2, "expected 2 entries after 'phi'")
    expect_parse_error(fileio.parse_algebra, "algebra dim=2\nphi 0 x 0\nphi 0 1\n", 2, "malformed rational 'x'")
    expect_parse_error(fileio.parse_triple, "algebra dim=1\nphi 1\npart1 1 0\npart2 1\n", 3, "expected 1 entries after 'part1'")
    h = fileio.parse_algebra("algebra dim=2\nphi 0/3 -1\nphi -0 1/2\nform 0 1\nform 1 00\n")
    assert h.phi_columns == ({}, {0: Fraction(-1), 1: Fraction(1, 2)})
    assert h.form_rows == ({1: Fraction(1)}, {0: Fraction(1)})
    t = fileio.parse_triple("algebra dim=2\nphi 1 0\nphi 0 1\npart1 0 2\npart2 0/1 1\n")
    assert t.part1 == t.part2 == Subspace.span(2, [(0, 1)])


def test_bracket_values_that_spell_zero_are_dropped_and_their_lines_still_count():
    """A zero value leaves its bracket, a bracket left with none has no key,
    and its line still takes part in the duplicate checks: the parsed table
    is the one the constructor would build from the same values."""
    brackets = "bracket 0 1 : 0:0 1:2/4\nbracket 0 2 : 1:-0 2:0/5\nbracket 1 2 :\n"
    h = fileio.parse_algebra("algebra dim=3\n" + brackets + "phi 1 0 0\nphi 0 1 0\nphi 0 0 1\n")
    assert h.brackets == {(0, 1): {1: Fraction(1, 2)}}
    assert h == HomLieAlgebra.unchecked(3, {(0, 1): {0: 0, 1: Fraction(1, 2)}, (0, 2): {1: 0, 2: 0}})
    for lines, lineno, message in (
        ("bracket 0 1 : 0:0\nbracket 0 1 : 1:1\n", 3, "duplicate bracket line"),
        ("bracket 0 1 :\nbracket 0 1 : 1:1\n", 3, "duplicate bracket line"),
        ("bracket 0 1 : 1:0 1:1\n", 2, "duplicate bracket target 1"),
    ):
        expect_parse_error(fileio.parse_algebra, "algebra dim=2\n" + lines + "phi 1 0\nphi 0 1\n", lineno, message)


@pytest.mark.parametrize(
    "text",
    [
        fileio.format_triple(triple_double(special_linear_data(3))),
        fileio.format_algebra(sl2_twisted()),
        "algebra dim=2 name=z\nbracket 0 1 : 0:0 1:-3/6\nphi 0/2 -1\nphi 1 00\nform 0 1\nform 1 -0\n",
        "algebra dim=0\n",
    ],
    ids=["D3", "sl2 twisted", "zeros spelt otherwise", "dim 0"],
)
def test_a_parsed_algebra_holds_what_the_constructor_checks(text):
    """The parser builds its algebra without the constructor's checks (the
    lemma in `_parse_algebra_body`): every field passes them, and the
    constructor rebuilds the same algebra from the parsed fields."""
    h = fileio.parse_algebra(text.split("part1")[0])
    assert HomLieAlgebra(h.dim, h.brackets, h.phi_columns, h.form_rows, h.name) == h
    assert h.untwisted == all(col == {i: 1} for i, col in enumerate(h.phi_columns))


def test_triple_requires_both_parts():
    text = "algebra dim=2\nphi 1 0\nphi 0 1\npart1 1 0\n"
    expect_parse_error(fileio.parse_triple, text, 1, "part1 and part2")


@pytest.mark.parametrize("empty", ["part1", "part2"])
def test_a_triple_with_a_zero_dimensional_half_is_not_written(empty):
    """The text of a triple needs rows of both halves, so `format_triple`
    refuses a triple whose half has none, naming it, rather than write text
    that `parse_triple` refuses."""
    h = HomLieAlgebra.unchecked(1, {}, form=[[1]])
    full, zero = Subspace.span(1, [[1]]), Subspace(1, ())
    t = ManinTriple(h, zero, full) if empty == "part1" else ManinTriple(h, full, zero)
    with pytest.raises(ValueError, match=f"{empty} is zero-dimensional"):
        fileio.format_triple(t)

def test_the_dimension_0_triple_is_not_written():
    t = ManinTriple(HomLieAlgebra.unchecked(0, {}, form=[]), Subspace(0, ()), Subspace(0, ()))
    with pytest.raises(ValueError, match="part1 is zero-dimensional"):
        fileio.format_triple(t)


def test_document_split_rejects_leading_content():
    with pytest.raises(fileio.ParseError) as excinfo:
        fileio.split_documents("1 2 3\ntensor degree=1 dim=1\n")
    assert excinfo.value.lineno == 1


def test_document_split_kinds_in_order():
    text = (
        "algebra dim=1\nphi 1\n"
        "tensor degree=1 dim=1\n0 1\n"
        "subspace dim=1\n1\n"
    )
    kinds = [kind for kind, _ in fileio.split_documents(text)]
    assert kinds == ["algebra", "tensor", "subspace"]
    for kind, body in fileio.split_documents(text):
        parse = {
            "algebra": fileio.parse_algebra,
            "tensor": fileio.parse_tensor,
            "subspace": fileio.parse_subspace,
        }[kind]
        parse(body)


@pytest.mark.parametrize(
    "parse, text, lineno, field",
    [
        (fileio.parse_algebra, "algebra dim=1 foo=1\nphi 1\n", 1, "foo"),
        (fileio.parse_triple, "algebra name=t dim=1 kind=triple\nphi 1\npart1 1\npart2 1\n", 1, "kind"),
        (fileio.parse_tensor, "tensor degree=2 dim=2 kind=r\n0 1 1\n", 1, "kind"),
        (fileio.parse_subspace, "\nsubspace dim=1 degree=1\n1\n", 2, "degree"),
    ],
    ids=["algebra", "triple", "tensor", "subspace"],
)
def test_unknown_header_fields_are_refused(parse, text, lineno, field):
    """A header takes only the fields its writer emits: `dim` and `name` for
    an algebra or a triple, `degree` and `dim` for a tensor, `dim` for a
    subspace."""
    expect_parse_error(parse, text, lineno, f"unknown header field {field!r}")


# Every line boundary of `str.splitlines`.
LINE_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def scanned_documents(text: str) -> list[tuple[str, list[tuple[int, str]]]]:
    """(kind, [(stream line number, stripped line)] over its lines that are
    not blank) per document: the reference, a scan of every line."""
    docs: list[tuple[str, list[tuple[int, str]]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        first = stripped.split(maxsplit=1)[0] if stripped else ""
        if first in fileio.DOCUMENT_KINDS:
            docs.append((first, [(lineno, stripped)]))
        elif stripped:
            docs[-1][1].append((lineno, stripped))
    return docs


def numbered(body: str) -> list[tuple[int, str]]:
    return [(lineno, line.strip()) for lineno, line in enumerate(body.splitlines(), start=1) if line.strip()]


@pytest.mark.parametrize("brk", LINE_BREAKS, ids=repr)
@pytest.mark.parametrize(
    "lines",
    [
        ["", " algebra dim=1", "", "phi 1", " "],
        ["algebra dim=1 name=tensor", "phi 1"],
        ["", "algebra dim=1", "phi 1", "", "tensor degree=1 dim=1", "", "0 1", "subspace dim=1", "1", ""],
        ["tensor degree=1 dim=2", "0 1", "tensor\tdegree=1 dim=2", "1 1"],
    ],
    ids=["one document", "a keyword as a name", "three kinds", "two tensors"],
)
def test_documents_keep_the_lines_and_numbers_of_the_stream(brk, lines):
    """Each document holds the stream's lines from its header to the next
    header, numbered as in the stream, for every line boundary that
    `str.splitlines` knows; a lone document is the stream itself."""
    text = brk.join(lines)
    docs = fileio.split_documents(text)
    assert [(kind, numbered(body)) for kind, body in docs] == scanned_documents(text)
    whole = sum(map(text.count, fileio.DOCUMENT_KINDS)) == 1
    assert (len(docs) == 1 and docs[0][1] is text) == whole
    parse = {"algebra": fileio.parse_algebra, "tensor": fileio.parse_tensor, "subspace": fileio.parse_subspace}
    for kind, body in docs:
        parse[kind](body)


@pytest.mark.parametrize("brk", LINE_BREAKS, ids=repr)
def test_a_document_error_names_the_stream_line(brk):
    text = brk.join(["tensor degree=1 dim=1", "", "0 1", "", "algebra dim=2", "", "phi 1 0", "phi 0 x", ""])
    (_, tensor), (_, algebra) = fileio.split_documents(text)
    assert fileio.parse_tensor(tensor) == SparseTensor(1, 1, {(0,): 1})
    expect_parse_error(fileio.parse_algebra, algebra, 8, "malformed rational 'x'")


def test_a_keyword_that_only_starts_a_token_opens_no_document():
    """A lone keyword hit opens the stream only as a whole first token."""
    for text, lineno in (("algebras dim=1\nphi 1\n", 1), ("\n tensors\n", 2), ("x algebra dim=1\n", 1)):
        expect_parse_error(fileio.split_documents, text, lineno, "content before the first document header")
    assert fileio.split_documents(" \n\t\n") == []

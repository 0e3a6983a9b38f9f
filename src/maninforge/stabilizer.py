"""The subalgebra conditions that make a subspace, such as a point's stabilizer
or a Lagrangian subalgebra of a double, compatible with a quasi-triangular
structure: closure, twist stability, coisotropy with respect to the pairing,
stability of the symmetric part's sharp image, and closure of sharp-image brackets."""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .core import (
    SparseTensor,
    Subspace,
    _annihilator_rows,
    _apply_columns,
    _images_outside,
    _orthogonal_rows,
    _square_columns,
)
from .homlie import HomLieAlgebra, _brackets_outside, _twist_outside
from .manin import ManinTriple, _form_rows
from .rmatrix import _s_sharp_columns
from .reporting import CheckReport, failure


def _require_ambient(q: Subspace, dim: int) -> None:
    if q.ambient_dim != dim:
        raise ValueError(f"subspace has ambient dimension {q.ambient_dim}, expected {dim}")


def is_subalgebra(h: HomLieAlgebra, q: Subspace) -> bool:
    """Closure of a subspace under the bracket."""
    _require_ambient(q, h.dim)
    return not _brackets_outside(h, q.echelon, q)


def check_phi_stable(q: Subspace, phi_columns: Sequence[Mapping[int, Fraction]]) -> bool:
    """Stability of a subspace under the endomorphism with sparse columns
    phi_columns, the format of `HomLieAlgebra.phi_columns`, which must be
    q.ambient_dim of them.  Kept for ROADMAP item 7, whose Yau twist needs
    both halves α-stable."""
    return not _images_outside(_square_columns(phi_columns, q.ambient_dim, "phi"), q.echelon, q)


def _twist_stable(h: HomLieAlgebra, q: Subspace) -> bool:
    """Stability of a subspace under the algebra's twist."""
    _require_ambient(q, h.dim)
    return not _twist_outside(h, q)


def _coisotropic(h: HomLieAlgebra, q: Subspace, form_rows: Sequence[Mapping[int, Fraction]]) -> bool:
    """[c, c] inside q, with c the complement of q under the form with sparse
    rows form_rows: the brackets of any rows spanning c span [c, c]."""
    _require_ambient(q, h.dim)
    return not _brackets_outside(h, _orthogonal_rows(q, form_rows), q)


def check_coisotropy(t: ManinTriple, q: Subspace) -> bool:
    """Coisotropy inside a triple's ambient pairing: the bracket of any two
    elements of the pairing-complement of q lands back in q."""
    return _coisotropic(t.algebra, q, _form_rows(t))


def check_coisotropy_form(h: HomLieAlgebra, q: Subspace, form_rows: Sequence[Mapping[int, Fraction]]) -> bool:
    """Coisotropy with respect to a chosen pairing, given by its sparse rows as
    in `HomLieAlgebra.form_rows`: with c the pairing-complement of q, require
    [c, c] inside q."""
    _require_ambient(q, h.dim)
    return _coisotropic(h, q, _square_columns(form_rows, h.dim, "form"))


def check_s_sharp_condition(h: HomLieAlgebra, s: SparseTensor, q: Subspace) -> bool:
    """Image condition: the symmetric part's sharp map sends the annihilator of q
    into q.  A named condition for ROADMAP item 6's per-check reports."""
    _require_ambient(q, h.dim)
    return not _images_outside(_s_sharp_columns(h, s), _annihilator_rows(q), q)


def check_bracket_sharp_condition(h: HomLieAlgebra, s: SparseTensor, q: Subspace) -> bool:
    """Bracket-image condition: brackets of sharp images of annihilator covectors
    land in q.  A named condition for ROADMAP item 6's per-check reports."""
    _require_ambient(q, h.dim)
    return _sharp_brackets_in(h, _s_sharp_columns(h, s), _annihilator_rows(q), q)


def _sharp_brackets_in(h: HomLieAlgebra, cols: Sequence[Mapping], ann: Sequence[Mapping], q: Subspace) -> bool:
    """Whether the brackets of the images of the rows ann under the map with
    sparse columns cols lie in q."""
    return not _brackets_outside(h, [_apply_columns(cols, xi) for xi in ann], q)


def _sharp_conditions(h: HomLieAlgebra, s: SparseTensor, q: Subspace) -> tuple[bool, bool]:
    """(`check_s_sharp_condition`, `check_bracket_sharp_condition`) with the
    sharp map's columns and the annihilator's rows computed once for both."""
    _require_ambient(q, h.dim)
    cols, ann = _s_sharp_columns(h, s), _annihilator_rows(q)
    return not _images_outside(cols, ann, q), _sharp_brackets_in(h, cols, ann, q)


def stabilizer_report(
    h: HomLieAlgebra, s: SparseTensor | None, q: Subspace, form_rows: Sequence[Mapping] | None = None
) -> CheckReport:
    """Bundle of the subalgebra conditions for one subspace: twist stability,
    coisotropy when a pairing (sparse rows, as in `HomLieAlgebra.form_rows`) is
    supplied, and the two sharp-image conditions when a symmetric part is.
    Kept for ROADMAP item 4, which compares its verdicts before and after
    transport, and item 6, which makes its conditions report residuals."""
    _require_ambient(q, h.dim)
    failures = []
    if not _twist_stable(h, q):
        failures.append(failure("twist_stable"))
    if not is_subalgebra(h, q):
        failures.append(failure("subalgebra"))
    if form_rows is not None and not check_coisotropy_form(h, q, form_rows):
        failures.append(failure("coisotropic"))
    if s is not None:
        image_in, brackets_in = _sharp_conditions(h, s, q)
        if not image_in:
            failures.append(failure("sharp_image"))
        if not brackets_in:
            failures.append(failure("sharp_brackets"))
    return CheckReport("stabilizer_conditions", failures)

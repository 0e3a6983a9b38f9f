"""The stabilizer conditions that make a subspace, such as a point's stabilizer
or a Lagrangian subalgebra of a double, compatible with a quasi-triangular
structure (Drinfeld, "On Poisson homogeneous spaces of Poisson-Lie groups",
1993): twist stability, coisotropy with respect to the pairing, stability of
the symmetric part's sharp image, and closure of sharp-image brackets."""
from __future__ import annotations

from typing import Mapping, Sequence

from .core import (
    SparseTensor,
    Subspace,
    _annihilator_rows,
    _apply_columns,
    _images_outside,
    _orthogonal_rows,
    _quotients,
    _square_columns,
)
from .homlie import HomLieAlgebra, _brackets_outside, _dense, _twist_outside
from .rmatrix import _s_sharp_columns
from .reporting import CheckReport, failure


def stabilizer_report(
    h: HomLieAlgebra, s: SparseTensor | None, q: Subspace, form_rows: Sequence[Mapping] | None = None
) -> CheckReport:
    """The stabilizer conditions for one subspace q of h, each failed one
    reported once, at its first witness:
    - `twist_stable`: the twist keeps q; the index is a canonical row of q;
    - `coisotropic`, when a pairing (sparse rows, as in
      `HomLieAlgebra.form_rows`) is supplied: with c the pairing-complement
      of q, [c, c] lies in q; the index is a pair of `_orthogonal_rows`;
    - `s_sharp_image` and `sharp_brackets`, when a symmetric part s is
      supplied: its sharp map sends the annihilator of q into q, and the
      brackets of those images lie in q; the index is a row, or a pair of
      rows, of `_annihilator_rows(q)`.
    The first witness has the least index; its residual is the image or
    bracket that leaves q, as a dense vector.  The tests return what leaves q
    in integer numerators, and only the first witness of each condition is
    divided.  Closure of q under the bracket is not a stabilizer condition; a
    half's closure is `manin._part_report`'s."""
    if q.ambient_dim != h.dim:
        raise ValueError(f"subspace has ambient dimension {q.ambient_dim}, expected {h.dim}")
    target = q._numerator_rows
    outside = {"twist_stable": _twist_outside(h, q)}
    if form_rows is not None:
        complement = _orthogonal_rows(q, _square_columns(form_rows, h.dim, "form"))
        outside["coisotropic"] = _brackets_outside(h, complement, target)
    if s is not None:
        cols, ann = _s_sharp_columns(h, s), _annihilator_rows(q)
        outside["s_sharp_image"] = _images_outside(cols, ann, target)
        outside["sharp_brackets"] = _brackets_outside(h, [_apply_columns(cols, xi) for xi in ann], target)
    failures = []
    for check, found in outside.items():
        if found:
            index, den, w = min(found, key=lambda item: item[0])
            failures.append(failure(check, index if type(index) is tuple else (index,), _dense(h, _quotients(den, w))))
    return CheckReport("stabilizer_conditions", failures)

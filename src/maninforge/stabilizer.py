"""The stabilizer conditions that make a subspace, such as a point's stabilizer
or a Lagrangian subalgebra of a double, compatible with a quasi-triangular
structure (Drinfeld, "On Poisson homogeneous spaces of Poisson-Lie groups",
1993): twist stability, coisotropy with respect to the pairing, stability of
the symmetric part's sharp image, and closure of sharp-image brackets."""
from __future__ import annotations

from math import lcm
from typing import Mapping, Sequence

from .core import (
    SparseTensor,
    Subspace,
    _annihilator_rows,
    _column_sums,
    _in_span,
    _orthogonal_rows,
    _quotients,
    _square_columns,
)
from .homlie import HomLieAlgebra, _brackets_outside, _dense, _twist_outside
from .rmatrix import _s_sharp_sums
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
    divided, by its own denominator times the scale its test left out: the
    sharp map is kept in integer columns over den_s (`_s_sharp_sums`), and
    its images are brought to int rows over one denominator den_i * den_s for
    the bracket test.  Closure of q under the bracket is not a stabilizer
    condition; a half's closure is `manin._part_report`'s."""
    if q.ambient_dim != h.dim:
        raise ValueError(f"subspace has ambient dimension {q.ambient_dim}, expected {h.dim}")
    target = q._numerator_rows
    outside = {"twist_stable": (_twist_outside(h, q), 1)}  # check -> (what leaves q, scale left out)
    if form_rows is not None:
        complement = _orthogonal_rows(q, _square_columns(form_rows, h.dim, "form"))
        outside["coisotropic"] = (_brackets_outside(h, complement, target), 1)
    if s is not None:
        (den_s, cols), ann = _s_sharp_sums(h, s), _annihilator_rows(q)
        sums = [_column_sums(cols, xi) for xi in ann]  # each image summed once, for both tests
        outside["s_sharp_image"] = ([(a, den, w) for a, (den, w) in enumerate(sums) if not _in_span(target, w)], den_s)
        den_i = lcm(*(den for den, _ in sums))
        images = [{a: n * (den_i // den) for a, n in w.items()} for den, w in sums]
        outside["sharp_brackets"] = (_brackets_outside(h, images, target), (den_i * den_s) ** 2)
    failures = []
    for check, (found, scale) in outside.items():
        if found:
            index, den, w = min(found, key=lambda item: item[0])
            residual = _dense(h, _quotients(den * scale, w))
            failures.append(failure(check, index if type(index) is tuple else (index,), residual))
    return CheckReport("stabilizer_conditions", failures)

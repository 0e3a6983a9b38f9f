"""Twisted classical Yang-Baxter machinery: the residual map, sharp maps of the
skew and symmetric parts, invariance of the symmetric part, the graded bracket
on low-degree multivectors, and the quasi-triangularity classifier."""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Matrix,
    SparseTensor,
    Vector,
    ONE,
    ZERO,
    identity_matrix,
    is_antisymmetric,
    is_symmetric,
    mat_mul,
    mat_vec,
    matrix_rank,
    sparse_columns,
    tensor_skew_sym_split,
    transpose,
    vec_dot,
    wedge_into,
    wedge_t2_v1_into,
)
from .homlie import HomLieAlgebra, _sparse_bracket
from .reporting import CheckReport, failure


def hcyb(h: HomLieAlgebra, r: SparseTensor) -> SparseTensor:
    """The twisted Yang-Baxter residual of a degree-2 tensor r = sum_i x_i (x) y_i:
    sum_ij [x_i,x_j] (x) phi(y_i) (x) phi(y_j) + phi(x_i) (x) [y_i,x_j] (x) phi(y_j)
    + phi(x_i) (x) phi(x_j) (x) [y_i,y_j]."""
    if r.degree != 2 or r.dim != h.dim:
        raise ValueError("r must be a degree-2 tensor over the algebra")
    phi_cols = sparse_columns(h.phi)
    out = SparseTensor.zero(3, h.dim)
    entries = list(r.entries.items())
    for (a, b), v in entries:
        for (c, d), w in entries:
            coeff = v * w
            for k1, c1 in h.bracket_basis(a, c).items():
                for k2, c2 in phi_cols[b].items():
                    for k3, c3 in phi_cols[d].items():
                        out.add_into((k1, k2, k3), coeff * c1 * c2 * c3)
            for k2, c2 in h.bracket_basis(b, c).items():
                for k1, c1 in phi_cols[a].items():
                    for k3, c3 in phi_cols[d].items():
                        out.add_into((k1, k2, k3), coeff * c1 * c2 * c3)
            for k3, c3 in h.bracket_basis(b, d).items():
                for k1, c1 in phi_cols[a].items():
                    for k2, c2 in phi_cols[c].items():
                        out.add_into((k1, k2, k3), coeff * c1 * c2 * c3)
    return out


def cyb(h: HomLieAlgebra, r: SparseTensor) -> SparseTensor:
    """The untwisted Yang-Baxter residual: the same map with the twist replaced by Id."""
    untwisted = HomLieAlgebra(h.dim, h.brackets, identity_matrix(h.dim), h.form)
    return hcyb(untwisted, r)


def _sharp_matrix(h: HomLieAlgebra, t: SparseTensor) -> Matrix:
    """Matrix of xi -> sum_ab t_ab <phi* xi, e_a> e_b, i.e. (transpose t)(transpose phi)."""
    rows = [[ZERO] * h.dim for _ in range(h.dim)]
    for (a, b), v in t.entries.items():
        for c in range(h.dim):
            p = h.phi[c][a]
            if p != 0:
                rows[b][c] += v * p
    return tuple(tuple(row) for row in rows)


def sharp_lambda(h: HomLieAlgebra, lam: SparseTensor, xi: Vector) -> Vector:
    """Contract a covector through the skew part's sharp map."""
    if not is_antisymmetric(lam):
        raise ValueError("sharp of the skew part needs an antisymmetric tensor")
    return mat_vec(_sharp_matrix(h, lam), xi)


def sharp_s(h: HomLieAlgebra, s: SparseTensor, xi: Vector) -> Vector:
    """Contract a covector through the symmetric part's sharp map."""
    if not is_symmetric(s):
        raise ValueError("sharp of the symmetric part needs a symmetric tensor")
    return mat_vec(_sharp_matrix(h, s), xi)


def s_sharp_matrix(h: HomLieAlgebra, s: SparseTensor) -> Matrix:
    """Dense matrix of the symmetric part's sharp map (covectors to vectors)."""
    if not is_symmetric(s):
        raise ValueError("sharp of the symmetric part needs a symmetric tensor")
    return _sharp_matrix(h, s)


def check_hom_ad_invariant(h: HomLieAlgebra, s: SparseTensor) -> CheckReport:
    """Invariance of the symmetric part: for every basis x,
    sum_i [x, x_i] (x) phi(y_i) + phi(x_i) (x) [x, y_i] = 0."""
    if s.degree != 2:
        raise ValueError("invariance is defined for degree-2 tensors")
    phi_cols = sparse_columns(h.phi)
    failures = []
    for k in range(h.dim):
        residual = SparseTensor.zero(2, h.dim)
        for (a, b), v in s.entries.items():
            for k1, c1 in h.bracket_basis(k, a).items():
                for k2, c2 in phi_cols[b].items():
                    residual.add_into((k1, k2), v * c1 * c2)
            for k2, c2 in h.bracket_basis(k, b).items():
                for k1, c1 in phi_cols[a].items():
                    residual.add_into((k1, k2), v * c1 * c2)
        if not residual.is_zero:
            failures.append(failure("hom_ad_invariant", (k,), residual))
    return CheckReport("hom_ad_invariant", failures)


# ---------------------------------------------------------------------------
# Graded bracket on multivectors of degree <= 3


def _is_antisymmetric3(t: SparseTensor) -> bool:
    for (i, j, k), v in t.entries.items():
        if len({i, j, k}) < 3:
            return False
        if t.get((j, i, k)) != -v or t.get((i, k, j)) != -v or t.get((j, k, i)) != v:
            return False
        if t.get((k, i, j)) != v or t.get((k, j, i)) != -v:
            return False
    return True


def hom_schouten(h: HomLieAlgebra, a: SparseTensor, b: SparseTensor) -> SparseTensor:
    """Graded bracket of antisymmetric multivectors for degree pairs
    (1,1), (1,2), (2,1), (2,2), (1,3), (3,1); larger pairs are rejected.

    Terms accumulate into one tensor, phi read from its sparse columns:
    [[x, e_p ^ e_q]] = [x, e_p] ^ phi(e_q) + phi(e_p) ^ [x, e_q],
    [[A, e_p ^ e_q]] = [[A, e_p]] ^ phi(e_q) - [[A, e_q]] ^ phi(e_p), and
    [[x, e_p ^ e_q ^ e_r]] = [[x, e_p ^ e_q]] ^ phi(e_r) + phi(e_p) ^ phi(e_q) ^ [x, e_r]."""
    if a.dim != h.dim or b.dim != h.dim:
        raise ValueError("multivector dimension mismatch")
    if a.degree >= 2 and not (is_antisymmetric(a) if a.degree == 2 else _is_antisymmetric3(a)):
        raise ValueError("first argument is not antisymmetric")
    if b.degree >= 2 and not (is_antisymmetric(b) if b.degree == 2 else _is_antisymmetric3(b)):
        raise ValueError("second argument is not antisymmetric")
    pair = (a.degree, b.degree)
    if pair not in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)):
        raise ValueError(f"degree pair {pair} is not supported")
    vector = lambda t: {i: x for (i,), x in t.entries.items()}
    if pair == (1, 1):
        return SparseTensor(1, h.dim, {(k,): v for k, v in _sparse_bracket(h, vector(a), vector(b)).items()})
    phi = sparse_columns(h.phi)
    ad = lambda x, i: _sparse_bracket(h, x, {i: ONE})  # [x, e_i]

    def add_1_2(out: SparseTensor, x: dict[int, Fraction], terms, coeff: Fraction) -> None:
        """out += coeff * [[x, sum of v e_p ^ e_q]] over the (p, q), v terms with p < q."""
        for (p, q), v in terms:
            if p < q:
                wedge_into(out, ad(x, p), phi[q], coeff * v)
                wedge_into(out, phi[p], ad(x, q), coeff * v)

    def add_1_3(out: SparseTensor, x: dict[int, Fraction], t3: SparseTensor, coeff: Fraction) -> None:
        """out += coeff * [[x, t3]], over the sorted index triples of t3."""
        for (p, q, r), v in t3.entries.items():
            if p < q < r:
                inner, phi_pq = SparseTensor.zero(2, h.dim), SparseTensor.zero(2, h.dim)
                add_1_2(inner, x, [((p, q), ONE)], ONE)
                wedge_into(phi_pq, phi[p], phi[q], ONE)
                wedge_t2_v1_into(out, inner, phi[r], coeff * v)
                wedge_t2_v1_into(out, phi_pq, ad(x, r), coeff * v)

    out = SparseTensor.zero(a.degree + b.degree - 1, h.dim)
    if pair == (1, 2):
        add_1_2(out, vector(a), b.entries.items(), ONE)
    elif pair == (2, 1):
        add_1_2(out, vector(b), a.entries.items(), -ONE)
    elif pair == (1, 3):
        add_1_3(out, vector(a), b, ONE)
    elif pair == (3, 1):
        add_1_3(out, vector(b), a, -ONE)
    else:
        bracket_a = {}  # p -> [[A, e_p]] = -[[e_p, A]], once per index of B
        for p in {i for idx in b.entries for i in idx}:
            bracket_a[p] = SparseTensor.zero(2, h.dim)
            add_1_2(bracket_a[p], {p: ONE}, a.entries.items(), -ONE)
        for (p, q), v in b.entries.items():
            if p < q:
                wedge_t2_v1_into(out, bracket_a[p], phi[q], v)
                wedge_t2_v1_into(out, bracket_a[q], phi[p], -v)
    return out


# ---------------------------------------------------------------------------
# Classification and cross-checks


@dataclass(frozen=True)
class RMatrixReport:
    """Classification of a candidate r: twist-fixedness, invariance of the
    symmetric part, the exact residual, the verdict, and factorizability."""

    phi_fixed: bool
    s_invariant: bool
    hcyb_residual: SparseTensor
    verdict: str  # "quasi-triangular" | "skew-only" | "fails"
    factorizable: bool


def check_quasi_triangular(h: HomLieAlgebra, r: SparseTensor) -> RMatrixReport:
    """Classify r: quasi-triangular when the residual vanishes, the symmetric part
    is invariant, and phi(x)phi(y)-fixedness holds; skew-only when additionally the
    symmetric part is zero; fails otherwise."""
    lam, s = tensor_skew_sym_split(r)
    phi_fixed = r.apply_per_slot((h.phi, h.phi)) == r
    s_invariant = check_hom_ad_invariant(h, s).passed
    residual = hcyb(h, r)
    ok = phi_fixed and s_invariant and residual.is_zero
    if not ok:
        verdict = "fails"
    elif s.is_zero:
        verdict = "skew-only"
    else:
        verdict = "quasi-triangular"
    factorizable = (not s.is_zero) and matrix_rank(s_sharp_matrix(h, s)) == h.dim
    return RMatrixReport(phi_fixed, s_invariant, residual, verdict, factorizable)


def hcyb_pairing_check(
    h: HomLieAlgebra, r: SparseTensor, trials: int = 100, seed: int = 0
) -> CheckReport:
    """Randomized identity check: the residual paired with xi (x) eta (x) zeta equals
    <xi,[r-(eta),r-(zeta)]> + <eta,[r-(zeta),r+(xi)]> + <zeta,[r+(xi),r+(eta)]>.
    Needs an involutive twist fixing r; otherwise inapplicable."""
    from .homlie import check_involutive

    if not check_involutive(h):
        return CheckReport(
            "hcyb_pairing", applicable=False, reason="twist is not involutive"
        )
    if r.apply_per_slot((h.phi, h.phi)) != r:
        return CheckReport(
            "hcyb_pairing", applicable=False, reason="r is not fixed by the twist"
        )
    residual = hcyb(h, r)
    phi_t = transpose(h.phi)
    r_mat = r.to_matrix()
    # r+ = (transpose r)(transpose phi); r- = -(r)(transpose phi)
    r_plus = mat_mul(transpose(r_mat), phi_t)
    r_minus = tuple(tuple(-v for v in row) for row in mat_mul(r_mat, phi_t))
    rng = random.Random(seed)
    failures = []
    for trial in range(trials):
        xi, eta, zeta = (
            tuple(Fraction(rng.randint(-9, 9)) for _ in range(h.dim)) for _ in range(3)
        )
        lhs = residual.contract((xi, eta, zeta))
        rhs = (
            vec_dot(xi, h.bracket(mat_vec(r_minus, eta), mat_vec(r_minus, zeta)))
            + vec_dot(eta, h.bracket(mat_vec(r_minus, zeta), mat_vec(r_plus, xi)))
            + vec_dot(zeta, h.bracket(mat_vec(r_plus, xi), mat_vec(r_plus, eta)))
        )
        if lhs != rhs:
            failures.append(failure("pairing", (trial,), lhs - rhs))
    return CheckReport("hcyb_pairing", failures)


def additivity_check(h: HomLieAlgebra, lam: SparseTensor, s: SparseTensor) -> CheckReport:
    """Residual splits over skew + symmetric parts when the symmetric part is
    invariant and the sum is twist-fixed; otherwise inapplicable."""
    if not is_antisymmetric(lam):
        raise ValueError("first argument must be antisymmetric")
    if not is_symmetric(s):
        raise ValueError("second argument must be symmetric")
    if not check_hom_ad_invariant(h, s).passed:
        return CheckReport(
            "hcyb_additivity", applicable=False, reason="symmetric part is not invariant"
        )
    total = lam + s
    if total.apply_per_slot((h.phi, h.phi)) != total:
        return CheckReport(
            "hcyb_additivity", applicable=False, reason="sum is not fixed by the twist"
        )
    residual = hcyb(h, total) - hcyb(h, lam) - hcyb(h, s)
    failures = [] if residual.is_zero else [failure("additivity", None, residual)]
    return CheckReport("hcyb_additivity", failures)


# ---------------------------------------------------------------------------
# The worked three-dimensional example


def sl2_twisted() -> HomLieAlgebra:
    """Three-dimensional simple algebra [e1,e2]=-2e2, [e1,e3]=2e3, [e2,e3]=e1
    with the involutive twist diag(1, -1, -1)."""
    return HomLieAlgebra.create(
        3,
        {(0, 1): {1: -2}, (0, 2): {2: 2}, (1, 2): {0: 1}},
        phi=[[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        name="sl2-twisted",
    )


def sl2_lie() -> HomLieAlgebra:
    """The same bracket with the identity twist (the untwisted case)."""
    return HomLieAlgebra.create(
        3,
        {(0, 1): {1: -2}, (0, 2): {2: 2}, (1, 2): {0: 1}},
        name="sl2",
    )


def sl2_r() -> SparseTensor:
    """The worked candidate r = e2 (x) e3 + (1/4) e1 (x) e1."""
    return SparseTensor.from_entries(2, 3, {(1, 2): 1, (0, 0): Fraction(1, 4)})

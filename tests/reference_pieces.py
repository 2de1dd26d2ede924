"""The span-matrix graded-piece engine that cmreg.freemod carried before
Hilbert functions were read off regularity.GradedPieces.

Each degree-s piece of a free module gets its monomial basis (standard
monomials over a quotient ring), a submodule's degree-s piece is spanned
by the monomial multiples of its generators, and dim M_s is the ambient
count minus that span's rank.  The four functions are copied verbatim
from freemod (only their imports moved to the top of this file) and are
kept as an independent linear-algebra reference: the tests compare
GradedPieces and Groebner answers against them.
"""

from __future__ import annotations

from cmreg.freemod import (
    GradedFreeModule,
    ModulePresentation,
    vec_degree,
    vec_reduce_entries,
)
from cmreg.linalg import rank
from cmreg.rings import monomial_mul


def vec_mul_term(v, exps, c):
    return tuple(a.mul_term(exps, c) for a in v)


def piece_basis(F: GradedFreeModule, s: int):
    """Monomial basis of the degree-s piece of F, as (position, exps) pairs.

    Over a quotient ring only standard monomials (normal forms mod (z))
    appear, so this is an honest K-basis in both cases.
    """
    out = []
    for k, t in enumerate(F.twists):
        if s - t >= 0:
            out.extend((k, e) for e in F.ring.std_monomials_of_degree(s - t))
    return out


def span_matrix(F: GradedFreeModule, gens, s: int, basis=None):
    """Rows spanning the degree-s piece of the submodule generated by gens.

    Each generator of degree t is multiplied by all degree-(s-t) monomials
    (standard monomials over a quotient ring) and written in coordinates.
    Over Q a multiple's coordinates are its generator's, moved to the
    product monomials; over a quotient they are those of its normal form.
    """
    if basis is None:
        basis = piece_basis(F, s)
    index = {be: i for i, be in enumerate(basis)}
    zero = F.base.field.zero
    monomials = {}
    rows = []
    for g in gens:
        d = vec_degree(F, g)
        if d is None or d > s:
            continue
        if s - d not in monomials:
            monomials[s - d] = F.ring.std_monomials_of_degree(s - d)
        for e in monomials[s - d]:
            row = [zero] * len(basis)
            if F.ring.relations:
                for k, p in enumerate(vec_reduce_entries(F, vec_mul_term(g, e, 1))):
                    for m, c in p.terms.items():
                        row[index[(k, m)]] = c
            else:
                for k, p in enumerate(g):
                    for m, c in p.terms.items():
                        row[index[(k, monomial_mul(m, e))]] = c
            rows.append(row)
    return rows


def presentation_hilbert(M: ModulePresentation, s: int) -> int:
    """dim_K of the degree-s piece of coker(relations).

    Over a quotient ring the piece basis already consists of standard
    monomials, so the (z)-relations need no extra rows here.
    """
    basis = piece_basis(M.cover, s)
    if not basis:
        return 0
    rows = span_matrix(M.cover, M.relations.columns(), s, basis)
    return len(basis) - rank(rows, M.cover.base.field)

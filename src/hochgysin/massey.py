"""Massey triple products through the secondary multiplication.

For classes with xy = yz = 0 the secondary multiplication collapses to
(-1)^{|x|} s(x) q(y,z) - q(x,y) s(z), the classical triple product; it
is well defined in H / (xH + Hz), and the coset is independent of the
section package.  The representative is read off the chain-level theta
block of the degrees (|x|, |y|, |z|), applied to x (x) y (x) z and
projected by pi, so theta and Massey products share one formula.  Coset
equality is always decided by a membership solve against the
indeterminacy generators, never by comparing normal forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exactlin import Subquotient, as_columns, vec_is_zero, zero_vector
from .hochschild import theta_chain_block
from .sections import CohomologySections


class NotAMasseyTripleError(Exception):
    def __init__(self, which, value):
        self.which = which
        self.value = value
        super().__init__(f"{which} is nonzero in cohomology: {list(value)}")


@dataclass
class MasseyResult:
    degrees: tuple                 # (|x|, |y|, |z|)
    target_degree: int             # |x| + |y| + |z| - 1
    representative: np.ndarray     # class coordinates in H^{target_degree}
    indeterminacy: Subquotient     # span of x H^{|y|+|z|-1} + H^{|x|+|y|-1} z

    def is_zero_coset(self) -> bool:
        return self.same_coset(zero_vector(self.indeterminacy.ring, len(self.representative)))

    def same_coset(self, other_rep: np.ndarray) -> bool:
        if len(self.representative) == 0:
            return len(other_rep) == 0
        return self.indeterminacy.is_member(
            self.indeterminacy.ring.reduce_array(self.representative - other_rep))


def indeterminacy_submodule(co: CohomologySections, px: int, x, py: int, y,
                            pz: int, z) -> Subquotient:
    """x H^{|y|+|z|-1} + H^{|x|+|y|-1} z inside H^{|x|+|y|+|z|-1}."""
    h = co.h()
    x_col = as_columns(h.ring, x)
    gens = h.left_mult(px, x_col, py + pz - 1).hstack(h.right_mult(px + py - 1, pz, z))
    return Subquotient.from_gens_rels(h.ring, gens)


def massey_triple(co: CohomologySections, px: int, x, py: int, y,
                  pz: int, z) -> MasseyResult:
    """<x, y, z> for a Massey triple (xy = yz = 0), with its indeterminacy."""
    h = co.h()
    xy = h.left_mult(px, as_columns(h.ring, x), py).matvec(y)
    if not vec_is_zero(xy):
        raise NotAMasseyTripleError("x*y", xy)
    yz = h.left_mult(py, as_columns(h.ring, y), pz).matvec(z)
    if not vec_is_zero(yz):
        raise NotAMasseyTripleError("y*z", yz)
    n = px + py + pz - 1
    xyz = np.outer(np.outer(x, y), z).reshape(-1)
    rep = co.pi(n, theta_chain_block(co, px, py, pz).matvec(xyz)) if 0 <= n <= co.top \
        else zero_vector(co.ring, 0)
    return MasseyResult((px, py, pz), n, rep,
                        indeterminacy_submodule(co, px, x, py, y, pz, z))

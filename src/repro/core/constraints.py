"""Structural constraint matrices T, G and H (Section IV-C).

The largely-decrease matrix ``X_D`` (shape ``M x N/M``) has two exploitable
properties:

* **Neighbouring-location continuity** — the RSS readings at neighbouring
  grid locations along the same link differ little.  This is encoded by the
  relationship matrix ``T`` (1 where two stripe offsets are neighbours) and
  the continuity matrix ``G``, a column-normalised combination of ``T`` and a
  diagonal degree matrix (each column scaled so its diagonal entry is 1, as
  in the worked example of Eq. 14) such that ``X_D @ G`` computes, for each
  element, the difference between that element and the average of its
  neighbours.
  Because the RSS profile along a link rises and then falls (largest decrease
  near the transceivers, smallest at the midpoint), the paper replaces the
  mid-column of ``G`` with a first-difference stencil so the penalty does not
  fight the expected peak shape.
* **Adjacent-link similarity** — two adjacent (parallel) links see similar
  RSS when the target stands at the same relative position, encoded by the
  first-difference Toeplitz matrix ``H`` so that ``H @ X_D`` computes
  differences between adjacent rows.

Minimising ``||X_D G||_F^2 + ||H X_D||_F^2`` therefore pulls the estimate
towards a smooth, cross-link-consistent largely-decrease structure, which is
what suppresses short-term RSS outliers (Claim 3 / Fig. 17).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "relationship_matrix",
    "degree_matrix",
    "continuity_matrix",
    "similarity_matrix",
]


def relationship_matrix(stripe_width: int) -> np.ndarray:
    """Neighbour-relationship matrix ``T`` of size ``(N/M) x (N/M)``.

    ``T[p, q] = 1`` when stripe offsets ``p`` and ``q`` are neighbouring grid
    locations along a link, 0 otherwise (Eq. 4).  Because all links share the
    same stripe layout, a single ``T`` serves every link.
    """
    if stripe_width < 2:
        raise ValueError("stripe_width must be at least 2")
    t = np.zeros((stripe_width, stripe_width), dtype=float)
    for p in range(stripe_width - 1):
        t[p, p + 1] = 1.0
        t[p + 1, p] = 1.0
    return t


def degree_matrix(stripe_width: int) -> np.ndarray:
    """Negative degree matrix paired with ``T`` when forming ``G``.

    The diagonal holds minus the number of neighbours of each stripe offset
    (1 at the ends of a link, 2 in the interior), matching the worked 3x3
    example in Section IV-C.1.
    """
    t = relationship_matrix(stripe_width)
    return -np.diag(t.sum(axis=0))


def continuity_matrix(stripe_width: int, midpoint_adjustment: bool = True) -> np.ndarray:
    """Continuity matrix ``G`` of size ``(N/M) x (N/M)``.

    ``G`` is the column-normalised version of ``T + D`` where ``D`` is the
    negative degree matrix: each column is divided by (minus) its diagonal
    entry so the diagonal becomes 1, reproducing the worked 3x3 example of
    Eq. (14).  For a row vector ``x`` of stripe RSS values, ``(x @ G)[p]``
    equals ``x[p]`` minus the average of ``x`` at ``p``'s neighbours — a
    discrete Laplacian along the link.

    When ``midpoint_adjustment`` is True the column(s) at the middle of the
    stripe are replaced by a first-difference stencil (Eqs. 15-16): the RSS
    decrease is expected to peak near the transceivers and dip at the
    midpoint, so penalising the Laplacian there would bias the estimate.
    """
    if stripe_width < 2:
        raise ValueError("stripe_width must be at least 2")
    g_star = relationship_matrix(stripe_width) + degree_matrix(stripe_width)
    # Scale each column by minus its diagonal entry (the neighbour count) so
    # the diagonal becomes +1, matching the paper's example.
    g = g_star / (-np.diag(g_star))[None, :]
    g = -g

    if midpoint_adjustment and stripe_width >= 3:
        # Paper indexing is 1-based: p = (N/M - 1)/2 + 1.  Convert to 0-based.
        p_one_based = (stripe_width - 1) / 2.0 + 1.0
        if float(p_one_based).is_integer():
            p = int(p_one_based) - 1
            g[:, p] = 0.0
            g[p, p] = 0.0
            if p + 1 < stripe_width:
                g[p + 1, p] = 1.0
            if p - 1 >= 0:
                g[p - 1, p] = -1.0
        else:
            lower = int(math.floor(p_one_based)) - 1
            upper = int(math.ceil(p_one_based)) - 1
            for p in (lower, upper):
                if not 0 <= p < stripe_width:
                    continue
                g[:, p] = 0.0
                g[p, p] = 0.0
                if p + 1 < stripe_width:
                    g[p + 1, p] = 1.0
                if p - 1 >= 0:
                    g[p - 1, p] = -1.0
    return g


def similarity_matrix(link_count: int) -> np.ndarray:
    """Adjacent-link similarity matrix ``H`` of size ``M x M`` (Eq. 17).

    ``H`` is lower-bidiagonal Toeplitz with 1 on the main diagonal and -1 on
    the first sub-diagonal, so ``(H @ X_D)[i] = X_D[i] - X_D[i-1]`` for
    ``i >= 1``: the row-wise differences between adjacent links.
    """
    if link_count < 2:
        raise ValueError("link_count must be at least 2")
    h = np.eye(link_count, dtype=float)
    for i in range(1, link_count):
        h[i, i - 1] = -1.0
    return h

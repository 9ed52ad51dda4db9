"""Test-side oracles: published formulas kept for traceability, which no
taskload computation uses.

The crossing safe zone's published boundary equations live here. The
library sizes the zone with ``flow.solve_safe_zone``; these residuals
and their root finder only back the tests' claim that the printed
equality system admits no positive root pair.
"""

import math

import numpy as np
from scipy.optimize import fsolve

from taskload import CrossingGeometry


def safe_zone_printed_residuals(g: CrossingGeometry, x1: float,
                                x2: float) -> tuple[float, float]:
    """Residuals of the published boundary equations.

    Both equations as printed (with the first equation's leading
    parenthesis squared, by symmetry with the second and the squared
    right-hand side):

      (x1 + x2 cos a - e2/2 cos a)^2 + (-e1/2 + x2 sin a + e2/2 sin a)^2 = D^2
      (x1 + x2 cos a - e2/2 sin a)^2 + (-e1/2 + x2 sin a + e2/2 cos a)^2 = D^2

    The equality system generally admits no positive root pair (checked
    against a brute-force corner oracle), so the geometric solver
    ``flow.solve_safe_zone`` is the production route.
    """
    a = math.radians(g.alpha_deg)
    c, s = math.cos(a), math.sin(a)
    h2 = g.e2_nm / 2.0
    h1 = g.e1_nm / 2.0
    d2 = g.d_min_nm ** 2
    r1 = (x1 + x2 * c - h2 * c) ** 2 + (-h1 + x2 * s + h2 * s) ** 2 - d2
    r2 = (x1 + x2 * c - h2 * s) ** 2 + (-h1 + x2 * s + h2 * c) ** 2 - d2
    return r1, r2


def solve_safe_zone_printed(g: CrossingGeometry,
                            span: float = 25.0) -> list[tuple[float, float]]:
    """All real roots of the published equality system inside [-span, span].

    Uses dense Newton polishing from a coarse grid of starts; duplicates
    collapse to 6-decimal resolution.
    """
    def system(v):
        return safe_zone_printed_residuals(g, v[0], v[1])

    roots: set[tuple[float, float]] = set()
    starts = np.linspace(-span, span, 9)
    for s1 in starts:
        for s2 in starts:
            sol, _, ier, _ = fsolve(system, [s1, s2], full_output=True)
            if ier == 1 and max(abs(r) for r in system(sol)) < 1e-8:
                roots.add((round(float(sol[0]), 6), round(float(sol[1]), 6)))
    return sorted(roots)

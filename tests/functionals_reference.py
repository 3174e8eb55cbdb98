"""The hand-grouped Lyapunov functionals, kept as the test oracle.

The record's f1, g1, f2, g2 and h2 are evaluated from the monomial lists of
`functionals.lyapunov_monomials`, the lists the H1/H2 identities use. These are the earlier direct sums of `integral_of_product`
terms, grouped by hand; f1, f2 and h2 on the admissible branches come out
bitwise equal, g1 and g2 (and h2 off the branches) only to rounding, since
their sums are grouped differently.
"""
from __future__ import annotations

from ggkdv.model import SimState, ValidatedCoefficients
from ggkdv.spectral import derivative, inner, integral_of_product


def lyapunov_h1(state: SimState, c: ValidatedCoefficients
                ) -> tuple[float, float]:
    """H1 Lyapunov pair: f1 quadratic in first derivatives, g1 cubic."""
    u, v = state.u, state.v
    u1, v1 = derivative(u), derivative(v)
    f1 = inner(u1, u1) + inner(v1, v1) + 2.0 * c.a3 * inner(u1, v1)
    g1 = (-(integral_of_product(u, u, u) + integral_of_product(v, v, v)) / 3.0
          - c.a1 * integral_of_product(u, v, v)
          - c.a2 * integral_of_product(u, u, v))
    return f1, g1


def lyapunov_h2(state: SimState, c: ValidatedCoefficients
                ) -> tuple[float, float, float]:
    """H2 Lyapunov triple (f2, g2, h2)."""
    u, v = state.u, state.v
    u1, v1 = derivative(u), derivative(v)
    u2, v2 = derivative(u, 2), derivative(v, 2)
    u3, v3 = derivative(u, 3), derivative(v, 3)
    f2 = inner(u2, u2) + inner(v2, v2) + 2.0 * c.a3 * inner(u2, v2)
    g2 = -(5.0 / 3.0) * (
        integral_of_product(u1, u1, u) + integral_of_product(v1, v1, v)
        + c.a1 * (2.0 * integral_of_product(u1, v1, v)
                  + integral_of_product(v1, v1, u))
        + c.a2 * (2.0 * integral_of_product(u1, v1, u)
                  + integral_of_product(u1, u1, v)))
    h2 = (2.0 / 3.0) * c.a3 * (
        (1.0 - c.a1) * (2.0 * integral_of_product(u3, v2, u)
                        + integral_of_product(u2, v2, u1))
        + (1.0 - c.a2) * (2.0 * integral_of_product(v3, u2, v)
                          + integral_of_product(u2, v2, v1)))
    return f2, g2, h2

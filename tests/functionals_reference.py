"""The record's functionals computed by hand, kept as the test oracle.

Every record column is evaluated from the monomial lists of
`functionals.functional_record`, the lists the identities use. These are
the earlier direct routes. `energy` is the coefficient pairing, bitwise the
record's energy. `hs_seminorm_sq` weighs |u|^2 + |v|^2 by Parseval weights
and (2 pi kappa)^(2n) in one sum, so the record's seminorms match it only
to rounding. f1..h2 are direct sums of `integral_of_product` terms, grouped
by hand; f1, f2 and h2 on the admissible branches come out bitwise equal,
g1 and g2 (and h2 off the branches) only to rounding, since their sums are
grouped differently.
"""
from __future__ import annotations

import numpy as np

from ggkdv.model import SimState, ValidatedCoefficients
from ggkdv.spectral import TWO_PI, _parseval_weights, integral_of_product

from spectral_reference import derivative, inner


def energy(state: SimState, c: ValidatedCoefficients) -> float:
    """Weighted L2 energy (1/2) int b2 u^2 + b1 v^2."""
    return 0.5 * (c.b2 * inner(state.u, state.u)
                  + c.b1 * inner(state.v, state.v))


def hs_seminorm_sq(state: SimState, n: int) -> float:
    """int (d^n u)^2 + (d^n v)^2, computed modewise."""
    if n < 0:
        raise ValueError("derivative order must be >= 0")
    grid = state.grid
    w = _parseval_weights(grid.n_coeffs)
    omega2n = (TWO_PI * np.arange(grid.n_coeffs)) ** (2 * n)
    mag = (np.abs(state.u.coeffs) ** 2 + np.abs(state.v.coeffs) ** 2)
    return float(np.sum(w * omega2n * mag))


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

"""Energies, Sobolev seminorms, and the Lyapunov functionals.

All quantities are exact integrals of the trig interpolants: quadratic ones via
the coefficient pairing, cubic ones via alias-free padded quadrature. The H1
Lyapunov pair (f1, g1) satisfies (f1 + g1)' = -2k f1 - 3k g1 along zero-mean
solutions; the H2 triple (f2, g2, h2) satisfies (f2 + g2)' ~= -2k f2 + h2 up to
higher-order terms, and h2 vanishes identically on both admissible coefficient
branches.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SimState, ValidatedCoefficients
from .spectral import (TWO_PI, _parseval_weights, derivative, inner,
                       integral_of_product)


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
    omega2n = (TWO_PI * grid.wavenumbers()) ** (2 * n)
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


@dataclass(frozen=True)
class FunctionalRecord:
    """All standard diagnostics of one state, in CSV column order."""

    t: float
    energy: float
    seminorm_sq: tuple  # (int u^2+v^2, int u1^2+v1^2, ..., up to n_max)
    f1: float
    g1: float
    f2: float
    g2: float
    h2: float

    def as_columns(self) -> dict:
        cols = {"t": self.t, "energy": self.energy}
        for n, val in enumerate(self.seminorm_sq):
            cols[f"seminorm_sq_{n}"] = val
        cols.update(f1=self.f1, g1=self.g1, f2=self.f2, g2=self.g2, h2=self.h2)
        return cols


def functional_record(state: SimState, c: ValidatedCoefficients,
                      n_max: int = 4) -> FunctionalRecord:
    f1, g1 = lyapunov_h1(state, c)
    f2, g2, h2 = lyapunov_h2(state, c)
    return FunctionalRecord(
        t=state.t,
        energy=energy(state, c),
        seminorm_sq=tuple(hs_seminorm_sq(state, n) for n in range(n_max + 1)),
        f1=f1, g1=g1, f2=f2, g2=g2, h2=h2)

"""Closed forms of the linear, mean-free system: oracles of the stepper.

`linear_symbol` is the 2x2 symbol at one wavenumber with its eigenpairs,
checked against `model.linear_rates`; `linear_exact_solution` marches the
linear part exactly in the eigenbasis, which `evolve` must reproduce when
the nonlinear flux is replaced by zero.
"""
from dataclasses import dataclass

import numpy as np

from ggkdv.model import (SimState, ValidatedCoefficients, _require_validated,
                         _rotate, linear_rates)
from ggkdv.spectral import TWO_PI, SpectralField


@dataclass(frozen=True)
class LinearSymbol:
    """2x2 symbol of the linearized, mean-free system at one wavenumber."""

    kappa: int
    matrix: np.ndarray        # (2, 2) complex
    eigenvalues: np.ndarray   # (2,), plus branch first
    eigenvectors: np.ndarray  # (2, 2), columns match eigenvalues


def linear_symbol(c: ValidatedCoefficients, kappa: int) -> LinearSymbol:
    _require_validated(c)
    i_omega3 = (1j * TWO_PI * kappa) ** 3
    damp = c.k if kappa != 0 else 0.0
    matrix = -np.array([[i_omega3 + damp, c.a3 * i_omega3],
                        [c.a3 * i_omega3, i_omega3 + damp]])
    eigenvalues = np.array([-i_omega3 * (1.0 + c.a3) - damp,
                            -i_omega3 * (1.0 - c.a3) - damp])
    s = 1.0 / np.sqrt(2.0)
    eigenvectors = np.array([[s, s], [s, -s]], dtype=np.complex128)
    return LinearSymbol(kappa=kappa, matrix=matrix,
                        eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def linear_exact_solution(initial: SimState, c: ValidatedCoefficients,
                          t: float) -> SimState:
    """Closed-form solution of the linear part after elapsed time t >= 0."""
    if t < 0.0:
        raise ValueError("elapsed time must be >= 0")
    lam = linear_rates(initial.grid, c)
    w = (_rotate(np.stack([initial.u.coeffs, initial.v.coeffs]))
         * np.exp(lam * t))
    u_hat, v_hat = _rotate(w)
    return SimState(u=SpectralField(initial.grid, u_hat),
                    v=SpectralField(initial.grid, v_hat),
                    t=initial.t + t,
                    mean_u=initial.mean_u, mean_v=initial.mean_v)

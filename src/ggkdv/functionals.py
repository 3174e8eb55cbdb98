"""Energies, Sobolev seminorms, the Lyapunov functionals and their calculus.

All quantities are exact integrals of the trig interpolants: quadratic ones via
the coefficient pairing, cubic ones via alias-free padded quadrature. The H1
Lyapunov pair (f1, g1) satisfies (f1 + g1)' = -2k f1 - 3k g1 along zero-mean
solutions; the H2 triple (f2, g2, h2) satisfies (f2 + g2)' ~= -2k f2 + h2 up to
higher-order terms, and h2 vanishes identically on both admissible coefficient
branches.

f1, g1, f2, g2 and h2 are written once, as monomial lists
(`lyapunov_monomials`). `functional_record` evaluates them through a
`StateCalculus`, and the identity battery in `verification` builds H1_MAIN and
H2_MAIN from the same lists.
"""
from __future__ import annotations

from dataclasses import dataclass
import functools

import numpy as np

from .model import SimState, ValidatedCoefficients, rhs
from .spectral import (TWO_PI, SpectralField, _next_pow2, _parseval_weights,
                       derivative, inner, integral, padded_samples)


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


# -- monomial calculus -------------------------------------------------------
#
# A monomial is (coefficient, factors) with each factor a (field, order) pair;
# "u2" below is shorthand for ("u", 2). Chain-rule differentiation replaces one
# factor at a time by the matching spatial derivative of du or dv.

@functools.lru_cache(maxsize=None)
def _factor(tag: str) -> tuple[str, int]:
    return tag[0], int(tag[1:] or 0)


def mono(coeff: float, *tags: str) -> tuple:
    return coeff, tuple(_factor(t) for t in tags)


class StateCalculus:
    """The functional calculus of one state, each piece computed once.

    A key names one derived field: (ddt, letter, order) is the order-th
    spatial derivative of u or v (ddt False) or of its time derivative from
    the model's right-hand side (ddt True). The right-hand side is evaluated
    at the first time-derivative key, so values alone never call it; each
    keyed field and its band, its padded samples per grid size m, and each
    integral per ordered key tuple are cached. Integrals follow the rule of
    `integral_of_product`, so they equal it bitwise. Every `ddt` key tuple
    holds a time-derivative factor and no `value` tuple does, so the two
    routes of an identity never share a cached integral.
    """

    def __init__(self, state: SimState, c: ValidatedCoefficients):
        self.state, self.c = state, c
        self._sources = {(False, "u"): state.u, (False, "v"): state.v}
        self._fields: dict = {}
        self._samples: dict = {}
        self._integrals: dict = {}

    def _field(self, key) -> tuple[SpectralField, int]:
        if key not in self._fields:
            ddt, letter, order = key
            if (ddt, letter) not in self._sources:
                du, dv = rhs(self.state, self.c)
                self._sources.update({(True, "u"): du, (True, "v"): dv})
            f = derivative(self._sources[ddt, letter], order)
            self._fields[key] = f, f.band()
        return self._fields[key]

    def _padded(self, key, m: int) -> np.ndarray:
        if (key, m) not in self._samples:
            self._samples[key, m] = padded_samples(self._field(key)[0], m)
        return self._samples[key, m]

    def integral(self, keys: tuple) -> float:
        """Integral over [0, 1) of the product of the keyed fields."""
        if keys not in self._integrals:
            if len(keys) == 1:
                value = integral(self._field(keys[0])[0])
            elif len(keys) == 2:
                value = inner(self._field(keys[0])[0], self._field(keys[1])[0])
            else:
                bands = [self._field(key)[1] for key in keys]
                m = _next_pow2(max(sum(bands) + 1, 2 * max(bands) + 2, 8))
                prod = self._padded(keys[0], m)
                for key in keys[1:]:
                    prod = prod * self._padded(key, m)
                value = float(np.mean(prod))
            self._integrals[keys] = value
        return self._integrals[keys]

    def value(self, monomials) -> float:
        return sum(coeff * self.integral(tuple((False, *f) for f in factors))
                   for coeff, factors in monomials)

    def ddt(self, monomials) -> float:
        """d/dt of an integral functional, one product-rule slot at a time."""
        total = 0.0
        for coeff, factors in monomials:
            for i in range(len(factors)):
                total += coeff * self.integral(
                    tuple((j == i, *f) for j, f in enumerate(factors)))
        return total


@functools.lru_cache(maxsize=None)
def lyapunov_monomials(c: ValidatedCoefficients) -> dict:
    """f1, g1, f2, g2 and h2 as monomial lists, built once per coefficient set.

    f1 and f2 are quadratic in first and second derivatives, g1 and g2 cubic;
    h2 is the cubic remainder of the H2 identity.
    """
    a1, a2, a3 = c.a1, c.a2, c.a3
    return {
        "f1": (mono(1.0, "u1", "u1"), mono(1.0, "v1", "v1"),
               mono(2 * a3, "u1", "v1")),
        "g1": (mono(-1 / 3, "u", "u", "u"), mono(-1 / 3, "v", "v", "v"),
               mono(-a1, "u", "v", "v"), mono(-a2, "u", "u", "v")),
        "f2": (mono(1.0, "u2", "u2"), mono(1.0, "v2", "v2"),
               mono(2 * a3, "u2", "v2")),
        "g2": (mono(-5 / 3, "u1", "u1", "u"), mono(-5 / 3, "v1", "v1", "v"),
               mono(-10 / 3 * a1, "u1", "v1", "v"),
               mono(-5 / 3 * a1, "v1", "v1", "u"),
               mono(-10 / 3 * a2, "u1", "v1", "u"),
               mono(-5 / 3 * a2, "u1", "u1", "v")),
        "h2": (mono(4 / 3 * a3 * (1 - a1), "u3", "v2", "u"),
               mono(2 / 3 * a3 * (1 - a1), "u2", "v2", "u1"),
               mono(4 / 3 * a3 * (1 - a2), "v3", "u2", "v"),
               mono(2 / 3 * a3 * (1 - a2), "u2", "v2", "v1")),
    }


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
    calc = StateCalculus(state, c)
    return FunctionalRecord(
        t=state.t,
        energy=energy(state, c),
        seminorm_sq=tuple(hs_seminorm_sq(state, n) for n in range(n_max + 1)),
        **{name: calc.value(monomials)
           for name, monomials in lyapunov_monomials(c).items()})

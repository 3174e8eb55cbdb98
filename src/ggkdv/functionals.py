"""The CSV record and the Lyapunov functionals as monomial lists, and the
plan that integrates them.

Every record column is a monomial list (`functional_record`): the energy
(1/2) int b2 u^2 + b1 v^2, the seminorms int (d^n u)^2 + (d^n v)^2, and the
Lyapunov functionals. All integrals are exact integrals of the trig
interpolants: quadratic ones via the coefficient pairing, cubic ones via
alias-free padded quadrature. The H1 Lyapunov pair (f1, g1) satisfies
(f1 + g1)' = -2k f1 - 3k g1 along zero-mean solutions; the H2 triple
(f2, g2, h2) satisfies (f2 + g2)' ~= -2k f2 + h2 up to higher-order terms,
and h2 vanishes identically on both admissible coefficient branches.

The identities in `verification` reuse these lists: GEN_N(n), H1_SUB(4.2)
and H2_SUB(5.2) take the seminorms as their functionals, H1_MAIN and
H2_MAIN take f1, g1, f2, g2 and h2. `verification.observation_plan` compiles
them with the record columns `observe` is asked for into one cached
`IntegralPlan`; the lists are built only while a plan compiles.
"""
from __future__ import annotations

import functools

import numpy as np

from .model import SimState, ValidatedCoefficients, rhs
from .spectral import _parseval_weights, derivative, sample_rows


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


def value_sum(monomials) -> tuple:
    """A functional as (coefficient, keys) terms, keys the ordered tuple of
    the factors whose product is integrated. A key (ddt, letter, order) is
    the order-th spatial derivative of u or v, or of its time derivative
    from the model's right-hand side when ddt is True."""
    return tuple((coeff, tuple((False, *f) for f in factors))
                 for coeff, factors in monomials)


def ddt_sum(monomials) -> tuple:
    """d/dt of a functional, one product-rule slot at a time: every key
    tuple holds a time-derivative factor."""
    return tuple((coeff, tuple((j == i, *f) for j, f in enumerate(factors)))
                 for coeff, factors in monomials for i in range(len(factors)))


class IntegralPlan:
    """Sums of integrals of field products, compiled to index tables.

    Built once from a sequence of sums of (coefficient, keys) terms; the
    distinct key tuples (two or more keys each) are its `integrals`, their
    keys its `fields`. Per state, `values` derives each field once (calling
    the right-hand side only if a time-derivative key is present) and
    evaluates each integral by the rule of `integral_of_product`, bitwise
    equal to it: all pairings as one weighted row sum; longer products with
    one batched resampling per padded size m, then one gather, left-to-right
    product and row mean per (m, arity). `evaluate` adds up each sum column
    by column, left to right from 0.0, as a `total += term` loop over its
    terms would; overflow gives inf or NaN sums, without a warning. A plan
    without a time-derivative key never calls `rhs` or reads coefficients.
    """

    def __init__(self, sums):
        sums = [tuple(terms) for terms in sums]
        width = max(map(len, sums), default=0)
        self._coeffs = np.zeros((len(sums), width))
        # padding terms read index -1, a 0.0 appended after the integrals
        self._terms = np.full((len(sums), width), -1)
        index = {}
        for row, terms in enumerate(sums):
            for col, (coeff, keys) in enumerate(terms):
                self._coeffs[row, col] = coeff
                self._terms[row, col] = index.setdefault(keys, len(index))
        self.integrals = tuple(index)
        self.fields = tuple(sorted({key for keys in index for key in keys}))
        self.needs_rhs = any(ddt for ddt, _, _ in self.fields)
        column = {key: i for i, key in enumerate(self.fields)}
        by_arity = {}  # rows of (integral index, field of each factor)
        for keys, i in index.items():
            by_arity.setdefault(len(keys), []).append(
                [i] + [column[key] for key in keys])
        self._tables = [np.array(rows) for _, rows in sorted(by_arity.items())]

    def _derived(self, state: SimState, c: ValidatedCoefficients
                 ) -> np.ndarray:
        """(n_fields, n_coeffs) coefficients of every keyed field."""
        sources = {(False, "u"): state.u, (False, "v"): state.v}
        if self.needs_rhs:
            sources[True, "u"], sources[True, "v"] = rhs(state, c)
        return np.array([derivative(sources[ddt, letter], order).coeffs
                         for ddt, letter, order in self.fields]
                        ).reshape(len(self.fields), state.grid.n_coeffs)

    def values(self, state: SimState, c: ValidatedCoefficients
               ) -> np.ndarray:
        """Every integral of the plan at one state, in `integrals` order."""
        fields = self._derived(state, c)
        n_coeffs = fields.shape[1]
        if self._tables and self._tables[-1].shape[1] > 3:  # any 3+ factors
            nonzero = fields != 0
            bands = np.where(nonzero.any(axis=1), n_coeffs - 1
                             - np.argmax(nonzero[:, ::-1], axis=1), 0)
        out = np.zeros(len(self.integrals))
        products = {}  # m -> [(integral indices, field table)]
        for rows in self._tables:
            index, table = rows[:, 0], rows[:, 1:]
            if table.shape[1] == 2:
                pairs = fields[table[:, 0]] * np.conj(fields[table[:, 1]])
                out[index] = np.sum(_parseval_weights(n_coeffs) * pairs.real,
                                    axis=1)
            else:
                b = bands[table]
                size = np.maximum(np.maximum(b.sum(axis=1) + 1,
                                             2 * b.max(axis=1) + 2), 8)
                m_of = 1 << np.frexp(size - 1)[1]  # next power of two
                for m in set(m_of.tolist()):
                    products.setdefault(m, []).append(
                        (index[m_of == m], table[m_of == m]))
        for m, group in sorted(products.items()):
            rows = sorted(set().union(*(table.ravel().tolist()
                                        for _, table in group)))
            sampled = np.empty((len(fields), m))  # rows not in `rows` unread
            sampled[rows] = sample_rows(fields[rows], bands[rows], m)
            for index, table in group:
                prod = sampled[table[:, 0]]
                for col in range(1, table.shape[1]):
                    prod *= sampled[table[:, col]]
                out[index] = np.mean(prod, axis=1)
        return out

    def evaluate(self, state: SimState, c: ValidatedCoefficients) -> list:
        """Every sum of the plan at one state, as floats in input order."""
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.append(self.values(state, c), 0.0)
            total = np.zeros(len(self._terms))
            for column in (self._coeffs * values[self._terms]).T:
                total += column
        return total.tolist()


def lyapunov_monomials(c: ValidatedCoefficients) -> dict:
    """f1, g1, f2, g2 and h2 as monomial lists.

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


def seminorm_monomials(n: int) -> tuple:
    """int (d^n u)^2 + (d^n v)^2 as a monomial list."""
    return mono(1.0, f"u{n}", f"u{n}"), mono(1.0, f"v{n}", f"v{n}")


def functional_record(c: ValidatedCoefficients, n_max: int) -> dict:
    """The CSV columns after t, in order, as monomial lists: the energy,
    the seminorms of orders 0..n_max, then f1, g1, f2, g2 and h2."""
    return {"energy": (mono(0.5 * c.b2, "u", "u"), mono(0.5 * c.b1, "v", "v")),
            **{f"seminorm_sq_{n}": seminorm_monomials(n)
               for n in range(n_max + 1)},
            **lyapunov_monomials(c)}

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

The identities (`identities`) reuse these lists: GEN_N(n), H1_SUB(4.2)
and H2_SUB(5.2) take the seminorms as their functionals, H1_MAIN and
H2_MAIN take f1, g1, f2, g2 and h2. `verification.observation_plan` compiles
them with the record columns it is asked for into one cached `IntegralPlan`;
the lists are built only while a plan compiles.
"""
from __future__ import annotations

import functools

import numpy as np

from .model import ValidatedCoefficients, rhs
from .spectral import (_parseval_weights, _row_bands, differentiate,
                       padded_samples)


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


# Samples in one chunk of products: the buffers of `IntegralPlan.values`
# stay near the size one state's products took, whatever the stack's
PRODUCT_CHUNK = 2 ** 13


class IntegralPlan:
    """Sums of integrals of field products, compiled to index tables.

    Built once from a sequence of sums of (coefficient, keys) terms; the
    distinct key tuples (two or more keys each) are its `integrals`, their
    keys its `fields`. `values` takes a stack of states on one grid and
    evaluates every integral of each by the rule of `integral_of_product`,
    bitwise equal to it: it derives each field of the stack at once
    (`spectral.differentiate`, after one `model.rhs` of the stack if a
    time-derivative key is present), forms all pairings as one weighted row
    sum, and longer products with one `spectral.padded_samples` per padded
    size m, which each state's bands pick, then one product of gathered
    rows, left to right, and one row mean per m. `evaluate` adds up each sum
    by `with_zero_column` and `sum_columns`, as `verification.Observation`
    does; overflow gives inf or NaN sums, without a warning. A plan without
    a time-derivative key never calls `rhs` or reads coefficients.
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
        # each field as a row of (u, v, du, dv) and an order of d/dx
        self._sources = [2 * ddt + "uv".index(letter)
                         for ddt, letter, _ in self.fields]
        self._moved = [j for j, (_, _, order) in enumerate(self.fields)
                       if order]
        self._orders = tuple(self.fields[j][2] for j in self._moved)
        column = {key: i for i, key in enumerate(self.fields)}
        # rows (integral, factor fields): the pairings, and the longer
        # products padded with field n_fields, which samples to 1.0
        self._pairs = np.array([[i] + [column[key] for key in keys]
                                for keys, i in index.items()
                                if len(keys) == 2], dtype=int).reshape(-1, 3)
        longer = [[i] + [column[key] for key in keys]
                  for keys, i in index.items() if len(keys) > 2]
        arity = max(map(len, longer), default=1)
        self._products = np.array([row + [len(self.fields)]
                                   * (arity - len(row)) for row in longer],
                                  dtype=int).reshape(len(longer), arity)

    def _derived(self, states, c: ValidatedCoefficients) -> np.ndarray:
        """(S, n_fields, n_coeffs) coefficients of every keyed field of each
        state: its source, differentiated to its order."""
        sources = np.array([(st.u.coeffs, st.v.coeffs) for st in states])
        if self.needs_rhs:
            sources = np.concatenate([sources, rhs(states, c)], axis=1)
        fields = sources[:, self._sources]
        fields[:, self._moved] = differentiate(fields[:, self._moved],
                                               self._orders)
        return fields

    def _pairings(self, fields: np.ndarray) -> np.ndarray:
        """The pairing integrals of the plan, one row per state."""
        _, first, second = self._pairs.T
        pairs, conj = fields[:, first], fields[:, second]
        pairs *= np.conjugate(conj, out=conj)
        return np.sum(_parseval_weights(fields.shape[2]) * pairs.real, axis=2)

    def values(self, states, c: ValidatedCoefficients) -> np.ndarray:
        """Every integral of the plan at each of a stack of states on one
        grid: one row per state, in `integrals` order."""
        fields = self._derived(states, c)
        n_states, n_fields, n_coeffs = fields.shape
        out = np.zeros((n_states, len(self.integrals)))
        out[:, self._pairs[:, 0]] = self._pairings(fields)
        if not len(self._products):
            return out
        # state s's field f is row s n_fields + f of `flat`, and its
        # integral i entry s n_integrals + i of `out`; the padding field is
        # row len(flat), of band 0, and samples to 1.0
        flat = fields.reshape(n_states * n_fields, n_coeffs)
        bands = np.append(_row_bands(flat), 0)
        index, table = self._products[:, 0], self._products[:, 1:]
        rows = np.arange(n_states)[:, None, None] * n_fields + table
        rows[:, table == n_fields] = len(flat)
        entries = np.arange(n_states)[:, None] * out.shape[1] + index
        b = bands[rows]
        size = np.maximum(np.maximum(b.sum(axis=2) + 1,
                                     2 * b.max(axis=2) + 2), 8)
        m_of = 1 << np.frexp(size - 1)[1]  # next power of two
        out_flat = out.reshape(-1)
        for m in sorted(set(m_of.ravel().tolist())):
            group, where = rows[m_of == m], entries[m_of == m]
            used = np.zeros(len(flat) + 1, dtype=bool)
            used[group] = True
            needed = np.flatnonzero(used[:-1])
            at = np.full(len(flat) + 1, len(needed))  # row of `sampled`
            at[needed] = np.arange(len(needed))
            group = at[group]
            sampled = np.empty((len(needed) + 1, m))
            sampled[:-1] = padded_samples(flat[needed], bands[needed], m)
            sampled[-1] = 1.0
            # the products a chunk of rows at a time, into reused buffers
            step = max(1, PRODUCT_CHUNK // m)
            factor = np.empty((min(step, len(group)), m))
            for lo in range(0, len(group), step):
                table = group[lo:lo + step]
                prod = sampled[table[:, 0]]
                for col in range(1, table.shape[1]):
                    prod *= sampled.take(table[:, col], 0,
                                         factor[:len(table)], "clip")
                out_flat[where[lo:lo + step]] = np.mean(prod, axis=1)
        return out

    def evaluate(self, states, c: ValidatedCoefficients) -> np.ndarray:
        """Every sum of the plan at each of a stack of states: one row per
        state, in input order."""
        with np.errstate(over="ignore", invalid="ignore"):
            values = with_zero_column(self.values(states, c))
            return sum_columns(self._coeffs * values[:, self._terms])


def with_zero_column(values: np.ndarray) -> np.ndarray:
    """`values` and a last column of 0.0, which a padding index -1 reads."""
    padded = np.zeros(values.shape[:-1] + (values.shape[-1] + 1,))
    padded[..., :-1] = values
    return padded


def sum_columns(columns: np.ndarray) -> np.ndarray:
    """The sum over the last axis, left to right from 0.0, as a `total +=
    term` loop adds floats; under the caller's error state."""
    total = np.zeros(columns.shape[:-1])
    for column in np.moveaxis(columns, -1, 0):
        total += column
    return total


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

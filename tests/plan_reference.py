"""The per-state observation: oracles of the stacked one.

`rhs`, `values`, `evaluate` and `report` are `model.rhs`,
`IntegralPlan.values`, `IntegralPlan.evaluate` and `Observation.report` as
they were before they took a stack of states: one state at a time, each
field derived by `spectral_reference.derivative`, the products grouped by
arity and resampled by the `resample_rows` below, the report summed in
Python floats. The stacked evaluation must give each state bitwise these
numbers.
"""
import numpy as np

from ggkdv.model import _rotate, eigen_mixing, nonlinear_remainder
from ggkdv.spectral import TWO_PI, SpectralField, _parseval_weights
from ggkdv.verification import NORMALIZER_FLOOR

from spectral_reference import derivative


def rhs(state, c):
    """(du, dv) of one reduced state."""
    grid = state.grid
    kept = grid.dealias_cutoff + 1
    uv = np.stack([state.u.coeffs[:kept], state.v.coeffs[:kept]])
    w = _rotate(uv)
    flux = nonlinear_remainder(w, eigen_mixing(state, c), grid,
                               np.empty_like(w))
    disp = (1j * (TWO_PI * np.arange(kept))) ** 3
    damp = np.full(kept, c.k)
    damp[0] = 0.0
    out = np.zeros((2, grid.n_coeffs), dtype=np.complex128)
    ddx = -1j * (TWO_PI * np.arange(kept))
    out[:, :kept] = (_rotate(ddx * flux)
                     - disp * (uv + c.a3 * uv[::-1]) - damp * uv)
    return SpectralField(grid, out[0]), SpectralField(grid, out[1])


def resample_rows(coeffs, bands, m):
    width = min(m // 2 + 1, coeffs.shape[1])
    padded = np.zeros((len(coeffs), m // 2 + 1), dtype=np.complex128)
    padded[:, :width] = np.where(
        np.arange(width) <= bands[:, None], coeffs[:, :width], 0.0)
    return np.fft.irfft(padded * m, n=m)


def values(plan, state, c):
    """Every integral of the `functionals.IntegralPlan` `plan` at one
    state, in `plan.integrals` order."""
    sources = {(False, "u"): state.u, (False, "v"): state.v}
    if plan.needs_rhs:
        sources[True, "u"], sources[True, "v"] = rhs(state, c)
    fields = np.array([derivative(sources[ddt, letter], order).coeffs
                       for ddt, letter, order in plan.fields]
                      ).reshape(len(plan.fields), state.grid.n_coeffs)
    column = {key: i for i, key in enumerate(plan.fields)}
    by_arity = {}
    for i, keys in enumerate(plan.integrals):
        by_arity.setdefault(len(keys), []).append(
            [i] + [column[key] for key in keys])
    n_coeffs = fields.shape[1]
    nonzero = fields != 0
    bands = np.where(nonzero.any(axis=1), n_coeffs - 1
                     - np.argmax(nonzero[:, ::-1], axis=1), 0)
    out = np.zeros(len(plan.integrals))
    products = {}  # m -> [(integral indices, field table)]
    for _, rows in sorted(by_arity.items()):
        rows = np.array(rows)
        index, table = rows[:, 0], rows[:, 1:]
        if table.shape[1] == 2:
            pairs = fields[table[:, 0]] * np.conj(fields[table[:, 1]])
            out[index] = np.sum(_parseval_weights(n_coeffs) * pairs.real,
                                axis=1)
        else:
            b = bands[table]
            size = np.maximum(np.maximum(b.sum(axis=1) + 1,
                                         2 * b.max(axis=1) + 2), 8)
            m_of = 1 << np.frexp(size - 1)[1]
            for m in set(m_of.tolist()):
                products.setdefault(m, []).append(
                    (index[m_of == m], table[m_of == m]))
    for m, group in sorted(products.items()):
        rows = sorted(set().union(*(table.ravel().tolist()
                                    for _, table in group)))
        sampled = np.empty((len(fields), m))
        sampled[rows] = resample_rows(fields[rows], bands[rows], m)
        for index, table in group:
            prod = sampled[table[:, 0]]
            for col in range(1, table.shape[1]):
                prod *= sampled[table[:, col]]
            out[index] = np.mean(prod, axis=1)
    return out


def evaluate(plan, state, c) -> list:
    """Every sum of `plan` at one state, as floats in input order."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.append(values(plan, state, c), 0.0)
        total = np.zeros(len(plan._terms))
        for column in (plan._coeffs * vals[plan._terms]).T:
            total += column
    return total.tolist()


def report(plan, sums: list, identity_id: str) -> tuple:
    """(lhs, rhs, terms, normalizer, relative residual) of one identity of
    the `verification.ObservationPlan` `plan`, from one state's `sums`."""
    j = list(plan.identities).index(identity_id)
    sums = list(sums) + [0.0]  # index -1 reads 0.0
    lhs = sums[plan.lhs[j]]
    terms = {label: float(plan.factors[j, w]) * sums[plan.terms[j, w]]
             for w, label in enumerate(plan.identities[identity_id])}
    total = sum(terms.values())
    reference = 2 * plan.c.k * sum(abs(sums[i]) for i in plan.scale_by[j])
    normalizer = max(abs(lhs) + sum(abs(v) for v in terms.values())
                     + reference, NORMALIZER_FLOOR)
    return lhs, total, terms, normalizer, abs(lhs - total) / normalizer

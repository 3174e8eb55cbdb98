"""Certification machinery: identity residuals, inequalities, decay fits.

Every differential identity is checked by comparing two independent routes:
the left side d/dt(functional) is expanded by the chain rule with the model's
right-hand side substituted for the time derivatives, while the right side is
the literal combination of integrals from the corresponding identity, evaluated
by alias-free padded quadrature. Exact identities must agree to rounding error;
approximate ones (valid modulo higher-order terms in the solution size) must
show residuals that shrink linearly with the amplitude.

The identities are monomial lists (`identities`). `observation_plan`
compiles the identities a command asks for, plus the record columns
`observe_states` is asked for, into one cached `functionals.IntegralPlan`,
which evaluates a stack of states at once; one vectorized reduction then
gives every identity's sides over the stack (`Observation`). Every left-side
product holds a time derivative and no right-side product does, so the two
routes of an identity share no integral; the record shares its value
integrals with the right sides. `product_bound_violations` evaluates one
more cached plan on a stack of field pairs, and `check_poincare_holder`
resamples a stack of fields at once; each takes the whole stack, and a lone
item is a stack of one.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .functionals import (IntegralPlan, ddt_sum, functional_record,
                          seminorm_monomials, sum_columns, value_sum,
                          with_zero_column)
from .identities import ZERO_MEAN_CHECKS, _Damped, _identity
from .model import SimState, ValidatedCoefficients
from .spectral import _next_pow2, _row_bands, differentiate, padded_samples

NORMALIZER_FLOOR = 1e-30


@dataclass(frozen=True)
class IdentityReport:
    """One identity at a state, in floats; over a stack of states
    (`Observation.report`), each number an array with one entry per state."""

    identity_id: str
    lhs: float        # d/dt of the functional via the model rhs
    rhs: float        # sum of the identity's right-hand terms
    terms: dict       # label -> value of each right-hand term
    normalizer: float
    relative_residual: float


# -- the compiled battery ----------------------------------------------------

class ObservationPlan(NamedTuple):
    """What a stack of states is observed for, compiled once per coefficient
    set. Sum index -1 reads a 0.0 appended to the sums."""

    c: ValidatedCoefficients
    sums: IntegralPlan
    columns: tuple     # (record column, sum index) of each observed column
    identities: dict   # id -> the labels of its right-hand terms, in order
    lhs: np.ndarray    # (ids,) left-side sum index of each identity
    terms: np.ndarray  # (ids, width) sum index of each right-hand term
    factors: np.ndarray  # (ids, width) its `_Damped` factor, or 1.0
    scale_by: np.ndarray  # (ids, width') sum index of each `scale_by` list


@functools.lru_cache(maxsize=None)
def observation_plan(c: ValidatedCoefficients, ids: tuple, n_max: int = 0,
                     columns: tuple | None = ()) -> ObservationPlan:
    """The `columns` of `functional_record(c, n_max)` (all of them when None)
    and the sides of the identities `ids`, as one plan. Equal sums are
    compiled once; left sides are `ddt_sum`s and right sides `value_sum`s,
    so they share no integral."""
    sums = {}

    def add(terms: tuple) -> int:
        return sums.setdefault(terms, len(sums))

    def table(rows: list, fill) -> np.ndarray:
        width = max(map(len, rows), default=0)
        return np.array([row + [fill] * (width - len(row)) for row in rows],
                        dtype=type(fill)).reshape(len(rows), width)

    record = functional_record(c, n_max)
    columns = tuple((name, add(value_sum(record[name])))
                    for name in (record if columns is None else columns))
    identities, lhs, terms, factors, scale_by = {}, [], [], [], []
    for identity_id in ids:
        identity = _identity(identity_id, c)
        identities[identity_id] = tuple(identity.terms)
        lhs.append(add(ddt_sum(identity.functional)))
        right = [(term.factor, term.monomials) if isinstance(term, _Damped)
                 else (1.0, term) for term in identity.terms.values()]
        terms.append([add(value_sum(monomials)) for _, monomials in right])
        factors.append([factor for factor, _ in right])
        scale_by.append([add(value_sum(m)) for m in identity.scale_by])
    return ObservationPlan(c, IntegralPlan(list(sums)), columns, identities,
                           np.array(lhs, dtype=int), table(terms, -1),
                           table(factors, 1.0), table(scale_by, -1))


class Observation:
    """A stack of states' evaluated plan, `sums` one row per state, and the
    sides and residuals of its identities over the stack, from one
    vectorized reduction: each number of a state is summed as a report of
    that state alone is, abs(lhs) + (0 + sum |term|), then + reference."""

    def __init__(self, plan: ObservationPlan, sums: np.ndarray):
        self.plan, self.sums = plan, sums
        padded = with_zero_column(sums)
        self.lhs = padded[:, plan.lhs]
        with np.errstate(over="ignore", invalid="ignore"):  # as floats do
            # 1.0 x is x, and + 0.0 leaves a sum from 0 unchanged
            self.terms = plan.factors * padded[:, plan.terms]
            self.total = sum_columns(self.terms)
            magnitude = sum_columns(abs(self.terms))
            reference = sum_columns(abs(padded[:, plan.scale_by]))
            self.normalizer = np.maximum(
                abs(self.lhs) + magnitude + 2 * plan.c.k * reference,
                NORMALIZER_FLOOR)
            self.residual = abs(self.lhs - self.total) / self.normalizer

    def report(self, identity_id: str) -> IdentityReport:
        """The identity's report over the stack."""
        j = list(self.plan.identities).index(identity_id)
        return IdentityReport(
            identity_id=identity_id, lhs=self.lhs[:, j], rhs=self.total[:, j],
            terms={label: self.terms[:, j, w] for w, label
                   in enumerate(self.plan.identities[identity_id])},
            normalizer=self.normalizer[:, j],
            relative_residual=self.residual[:, j])


# Each report is made by its family's function: L2, GEN_N (with
# GEN_N_APPROX), H1 and H2, the per-family names the benchmark traces. Tests
# replace `residual_l2` to break one identity.

def residual_l2(obs: Observation) -> IdentityReport:
    """(int u^2 + v^2)' = -2k int u^2 + v^2, exact for any means."""
    return obs.report("L2")


def residual_general_n(obs: Observation, identity_id: str) -> IdentityReport:
    """GEN_N(n) or its damping-only truncation; any means."""
    return obs.report(identity_id)


def residual_h1(obs: Observation, identity_id: str) -> IdentityReport:
    """An H1 identity; `observe_states` has checked the zero means it
    needs."""
    return obs.report(identity_id)


def residual_h2(obs: Observation, identity_id: str) -> IdentityReport:
    """An H2 identity; `observe_states` has checked the zero means it
    needs."""
    return obs.report(identity_id)


def _report(obs: Observation, identity_id: str) -> IdentityReport:
    if identity_id == "L2":
        return residual_l2(obs)
    if identity_id.startswith("GEN_N"):
        return residual_general_n(obs, identity_id)
    family = residual_h1 if identity_id.startswith("H1_") else residual_h2
    return family(obs, identity_id)


def observe_states(states, c: ValidatedCoefficients, ids, n_max: int,
                   columns: tuple | None = None) -> tuple[list, dict]:
    """The record rows {"t": t, column: value} of a stack of states on one
    grid, over the `columns` of `functional_record(c, n_max)` (all of them
    when None), and the reports of the identities `ids` over the stack (H1
    and H2 ones need zero means), from one evaluation of one plan: the two
    share their value integrals."""
    if any(i.startswith(ZERO_MEAN_CHECKS) for i in ids):
        for st in states:
            if st.mean_u != 0.0 or st.mean_v != 0.0:
                raise ValueError("identity requires zero means; got "
                                 f"M = {st.mean_u}, N = {st.mean_v}")
    plan = observation_plan(c, tuple(ids), n_max, columns)
    obs = Observation(plan, plan.sums.evaluate(states, c))
    names = [name for name, _ in plan.columns]
    values = obs.sums[:, [i for _, i in plan.columns]].tolist()
    return ([{"t": st.t, **dict(zip(names, row))}
             for st, row in zip(states, values)],
            {i: _report(obs, i) for i in ids})


# -- inequalities ------------------------------------------------------------

def check_poincare_holder(fields, exponents, slack: float = 1e-10) -> list:
    """Per field of a stack on one grid, the (p, q) pairs over `exponents`
    that fail the mean-free Poincare bound ||f - [f]||_p <= ||f_x||_q, or,
    where p <= q, L^p monotonicity ||f||_p <= ||f||_q (p, q >= 1 or inf).

    The samples of every field, of its mean-free part and of its
    x-derivative are taken in one resampling on 4 n points, rounded up to
    a power of two, and their discrete L^p norms for each exponent in one
    reduction."""
    grid = fields[0].grid
    full = np.array([f.coeffs for f in fields])
    mean_free = full.copy()
    mean_free[:, 0] = 0.0
    dx = differentiate(full[:, None].copy(), (1,))[:, 0]
    coeffs = np.concatenate([mean_free, dx, full])
    samples = np.abs(padded_samples(coeffs, _row_bands(coeffs),
                                    _next_pow2(4 * grid.n_points)))
    norms = []  # (p, row) of `samples`
    for p in exponents:
        if p == math.inf:
            norms.append(np.max(samples, axis=1))
            continue
        p = float(p)
        if p < 1.0:
            raise ValueError(f"p must be >= 1 or inf, got {p}")
        norms.append(np.array([m ** (1.0 / p) for m in
                               np.mean(samples ** p, axis=1).tolist()]))
    mf, fx, f = np.moveaxis(np.reshape(norms, (len(norms), 3, len(fields))),
                            0, -1)
    # fails[field, p, q]: the Poincare bound, and monotonicity where p <= q
    fails = ~(mf[:, :, None] <= fx[:, None, :] + slack)
    order = np.array([[p <= q for q in exponents] for p in exponents],
                     dtype=bool).reshape(len(exponents), len(exponents))
    fails |= order & ~(f[:, :, None] <= f[:, None, :] + slack)
    return [[(exponents[i], exponents[j]) for i, j in np.argwhere(bad)]
            for bad in fails]


def admissible_exponent_tuples(n: int, d_max: int = 4):
    """All (alphas, betas) over orders 0..n within the bound's hypotheses,
    ordered by total degree d = 2..d_max."""
    if n < 1:
        raise ValueError("n must be >= 1")

    def compositions(total, slots):
        if slots == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for tail in compositions(total - head, slots - 1):
                yield (head,) + tail

    for d in range(2, d_max + 1):
        for combo in compositions(d, 2 * (n + 1)):
            alphas, betas = combo[:n + 1], combo[n + 1:]
            if 2 * (alphas[-1] + betas[-1]) + alphas[-2] + betas[-2] > 4:
                continue
            yield alphas, betas


@functools.lru_cache(maxsize=None)
def _product_bound_plan(n_values: tuple, d_max: int) -> tuple:
    """The seminorms of orders 0..max(n_values), then one integral per
    admissible tuple of each n, its factors u_0^alpha_0 v_0^beta_0 u_1 ...
    in that order, as one plan; each tuple as (n, alphas, betas); each
    distinct power (n - 1, (d - 2) / 2) of a bound; and per tuple its n and
    the index of its power."""
    sums = [value_sum(seminorm_monomials(j)) for j in range(max(n_values) + 1)]
    cases, powers, power_of = [], {}, []
    for n in n_values:
        for alphas, betas in admissible_exponent_tuples(n, d_max):
            sums.append(value_sum([(1.0, tuple(
                f for j in range(n + 1)
                for f in [("u", j)] * alphas[j] + [("v", j)] * betas[j]))]))
            cases.append((n, alphas, betas))
            d = sum(alphas) + sum(betas)
            power_of.append(powers.setdefault((n - 1, (d - 2) / 2.0),
                                              len(powers)))
    return (IntegralPlan(sums), tuple(cases), tuple(powers),
            np.array([n for n, _, _ in cases]), np.array(power_of))


def product_bound_violations(pairs, n_values=(1, 2, 3), d_max: int = 4,
                             slack: float = 1e-10) -> list:
    """Per (u, v) of a stack of pairs on one grid, the admissible tuples
    whose product bound fails, each as (n, alphas, betas, lhs, bound).
    The sides come from one evaluation of one cached plan per
    (n_values, d_max) over the stack, each bitwise what
    `integral_of_product` gives for that tuple; each S_(n-1)^((d-2)/2) is a
    Python float power, and the bounds are tested all at once."""
    plan, cases, powers, n_of, power_of = _product_bound_plan(
        tuple(n_values), d_max)
    s = plan.evaluate([SimState(u, v, 0.0, 0.0, 0.0) for u, v in pairs], None)
    seminorms = s[:, :s.shape[1] - len(cases)].tolist()
    power = np.array([[row[j] ** e for j, e in powers] for row in seminorms])
    lhs = np.abs(s[:, s.shape[1] - len(cases):])
    with np.errstate(over="ignore", invalid="ignore"):  # as floats do
        bound = s[:, n_of] * power[:, power_of]
        fails = lhs > bound + slack * np.fmax(1.0, bound)
    return [[(*cases[k], lhs[row, k].item(), bound[row, k].item())
             for k in np.flatnonzero(fails[row])] for row in range(len(s))]


# -- decay fits ---------------------------------------------------------------

@dataclass(frozen=True)
class DecayFit:
    quantity_id: str
    window: tuple
    fitted_rate: float
    intercept: float
    target_rate: float
    r_squared: float
    n_points: int


def fit_decay_rate(series, quantity_id: str, window: tuple,
                   target_rate: float) -> DecayFit:
    """Least-squares slope of log(quantity) over the time window, in closed
    form on the times centred and divided by their largest magnitude, so
    that no sum overflows or underflows, whatever the time scale.

    Values that have decayed below 1e-13 of the series' initial value are
    excluded so the fit never chases rounding noise, and so are values that
    are not finite (an overflowed seminorm). A window whose kept values
    differ by no more than 16 eps of the largest is refused: rounding alone
    makes such a spread. Far from 1, a wider spread can still vanish in the
    logarithms, and such a window leaves no finite fit.
    """
    t = np.asarray(series.t, dtype=float)
    q = np.asarray(series.columns[quantity_id], dtype=float)
    t0, t1 = window
    floor = 1e-13 * q[0]
    keep = (t >= t0) & (t <= t1) & np.isfinite(q) & (q > max(floor, 0.0))
    if int(np.sum(keep)) < 3:
        raise ValueError(f"window {window} leaves fewer than 3 usable points")
    tt, kept = t[keep], q[keep]
    top = np.max(kept)
    if top - np.min(kept) <= 16 * np.finfo(float).eps * top:
        raise ValueError(f"window {window} leaves no resolved fit: its "
                         "values agree to rounding")
    log_q = np.log(kept)
    with np.errstate(all="ignore"):  # a fit that is not finite fails below
        t_mid, log_mid = np.mean(tt), np.mean(log_q)
        x = tt - t_mid
        x_max = np.max(np.abs(x))
        x = x / x_max
        slope = np.sum(x * (log_q - log_mid)) / np.sum(x * x) / x_max
        intercept = log_mid - slope * t_mid
        fitted = slope * tt + intercept
        r_sq = 1.0 - (np.sum((log_q - fitted) ** 2)
                      / np.sum((log_q - log_mid) ** 2))
    if not all(map(math.isfinite, (slope, intercept, r_sq))):
        raise ValueError(f"window {window} leaves no finite fit")
    return DecayFit(quantity_id=quantity_id, window=(float(t0), float(t1)),
                    fitted_rate=float(slope), intercept=float(intercept),
                    target_rate=float(target_rate), r_squared=float(r_sq),
                    n_points=int(np.sum(keep)))

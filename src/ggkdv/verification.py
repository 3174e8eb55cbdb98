"""Certification machinery: identity residuals, inequalities, decay fits.

Every differential identity is checked by comparing two independent routes:
the left side d/dt(functional) is expanded by the chain rule with the model's
right-hand side substituted for the time derivatives, while the right side is
the literal combination of integrals from the corresponding identity, evaluated
by alias-free padded quadrature. Exact identities must agree to rounding error;
approximate ones (valid modulo higher-order terms in the solution size) must
show residuals that shrink linearly with the amplitude.

Each identity's monomial lists are built from the lists the CSV record is
evaluated from (`functionals.functional_record`): GEN_N(n), H1_SUB(4.2) and
H2_SUB(5.2) take the seminorms as their functionals, H1_MAIN and H2_MAIN take
f1, g1, f2, g2 and h2. `observation_plan` compiles the identities a command
asks for, plus the record columns `observe` is asked for, into one cached
`functionals.IntegralPlan`, so the lists are built only while a plan compiles.
Per state the right-hand side is evaluated once and each integral once,
bitwise equal to `integral_of_product`. Every left-side product holds a time
derivative and no right-side product does, so the two routes of an identity
share no integral; the record shares its value integrals with the right
sides. The product-bound sweep is one more cached plan, evaluated once per
field pair; the Poincare sweep samples each field once.

Identity ids:
    L2              exact L2 decay law (quadratic functional, any means)
    GEN_N(n)        exact derivative-energy identity at order n >= 0
    GEN_N_APPROX(n) its damping-only truncation (residual is the cubic part)
    H1_MAIN         (f1 + g1)' = -2k f1 - 3k g1
    H1_SUB(4.2..5)  the four sub-identities behind H1_MAIN
    H2_MAIN         (f2 + g2)' ~= -2k f2 + h2
    H2_SUB(5.2..6)  the five sub-identities behind H2_MAIN; 5.2 and 5.3 are
                    exact, 5.4-5.6 hold modulo cubic damping and quartic terms
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .functionals import (IntegralPlan, ddt_sum, functional_record,
                          lyapunov_monomials, mono, seminorm_monomials,
                          value_sum)
from .model import SimState, ValidatedCoefficients
from .spectral import SpectralField, derivative, sample_rows, _next_pow2

NORMALIZER_FLOOR = 1e-30

EXACT_IDENTITY_IDS = ("L2", "GEN_N(0)", "GEN_N(1)", "GEN_N(2)", "GEN_N(3)",
                      "GEN_N(4)", "H1_MAIN", "H1_SUB(4.2)", "H1_SUB(4.3)",
                      "H1_SUB(4.4)", "H1_SUB(4.5)", "H2_SUB(5.2)",
                      "H2_SUB(5.3)")
APPROX_IDENTITY_IDS = ("H2_MAIN", "H2_SUB(5.4)", "H2_SUB(5.5)", "H2_SUB(5.6)",
                       "GEN_N_APPROX(3)")
ZERO_MEAN_CHECKS = ("H1", "H2")  # their identities assume M = N = 0


def check_identities(checks, n_max: int) -> tuple[list, list]:
    """The exact and the approximate identity ids behind the named checks,
    in the order L2, GEN_N(0..n_max), H1, H2; L2, H1 and H2 stand for the
    ids they prefix (H1 -> H1_MAIN, H1_SUB(4.2), ...)."""
    exact = []
    for check in ("L2", "GEN_N", "H1", "H2"):
        if check == "GEN_N" and check in checks:
            exact += [f"GEN_N({n})" for n in range(n_max + 1)]
        elif check in checks:
            exact += [i for i in EXACT_IDENTITY_IDS if i.startswith(check)]
    approx = ([i for i in APPROX_IDENTITY_IDS if i.startswith("H2")]
              if "H2" in checks else [])
    return exact, approx


@dataclass(frozen=True)
class IdentityReport:
    identity_id: str
    lhs: float        # d/dt of the functional via the model rhs
    rhs: float        # sum of the identity's right-hand terms
    terms: dict       # label -> value of each right-hand term
    normalizer: float
    relative_residual: float


class _Damped(NamedTuple):
    """Right-hand term factor * (integral of the monomials)."""

    factor: float
    monomials: tuple


class _Identity(NamedTuple):
    """One identity: the left side is d/dt of the functional, each right-hand
    term a monomial list or a `_Damped` one. The normalizer of a truncated
    identity also carries 2k times the |integral| of each `scale_by` list."""

    functional: tuple
    terms: dict
    scale_by: tuple = ()


# -- exact identities --------------------------------------------------------

def _gen_n_identity(n: int, c: ValidatedCoefficients) -> _Identity:
    """The order-n derivative-energy identity."""
    fn = seminorm_monomials(n)
    self_interaction = []
    for j in range(n + 1):
        w = -2.0 * math.comb(n, j)
        self_interaction.append(mono(w, f"u{n}", f"u{1 + j}", f"u{n - j}"))
        self_interaction.append(mono(w, f"v{n}", f"v{1 + j}", f"v{n - j}"))

    a1_coupling = []
    a2_coupling = []
    for j in range(n + 1):
        w = math.comb(n, j)
        a1_coupling.append(mono(-2.0 * c.a1 * w, f"u{n}", f"v{j}",
                                f"v{n - j + 1}"))
        a2_coupling.append(mono(-2.0 * c.a2 * w, f"v{n}", f"u{j}",
                                f"u{n - j + 1}"))
    for j in range(n + 2):
        w = math.comb(n + 1, j)
        a1_coupling.append(mono(-2.0 * c.a1 * w, f"v{n}", f"u{j}",
                                f"v{n + 1 - j}"))
        a2_coupling.append(mono(-2.0 * c.a2 * w, f"u{n}", f"u{j}",
                                f"v{n + 1 - j}"))
    return _Identity(fn, {"damping": _Damped(-2.0 * c.k, fn),
                          "self_interaction": self_interaction,
                          "a1_coupling": a1_coupling,
                          "a2_coupling": a2_coupling})


def _damping_only(identity: _Identity) -> _Identity:
    return _Identity(identity.functional,
                     {"damping": identity.terms["damping"]})


def _h1_identities(c: ValidatedCoefficients) -> dict:
    a1, a2, a3, k = c.a1, c.a2, c.a3, c.k
    f1, g1 = (lyapunov_monomials(c)[name] for name in ("f1", "g1"))
    grad = seminorm_monomials(1)
    cross = (mono(1.0, "u1", "v1"),)
    cubes = (mono(1.0, "u", "u", "u"), mono(1.0, "v", "v", "v"))
    mixed = (mono(a1, "u", "v", "v"), mono(a2, "u", "u", "v"))
    return {
        "H1_MAIN": _Identity(f1 + g1, {"-2k f1": _Damped(-2 * k, f1),
                                       "-3k g1": _Damped(-3 * k, g1)}),
        "H1_SUB(4.2)": _Identity(grad, {
            "damping": _Damped(-2 * k, grad),
            "cubic": [mono(-1.0, "u1", "u1", "u1"),
                      mono(-1.0, "v1", "v1", "v1")],
            "a1": [mono(-3 * a1, "u1", "v1", "v1")],
            "a2": [mono(-3 * a2, "u1", "u1", "v1")]}),
        "H1_SUB(4.3)": _Identity(cross, {
            "damping": _Damped(-2 * k, cross),
            "dispersive": [mono(1.0, "u", "u1", "v2"),
                           mono(1.0, "v", "v1", "u2")],
            "a1": [mono(-a1, "v2", "u1", "u"),
                   mono(-1.5 * a1, "v1", "u1", "u1"),
                   mono(-0.5 * a1, "v1", "v1", "v1")],
            "a2": [mono(-a2, "u2", "v1", "v"),
                   mono(-1.5 * a2, "u1", "v1", "v1"),
                   mono(-0.5 * a2, "u1", "u1", "u1")]}),
        "H1_SUB(4.4)": _Identity(cubes, {
            "damping": _Damped(-3 * k, cubes),
            "cubic": [mono(-3.0, "u1", "u1", "u1"),
                      mono(-3.0, "v1", "v1", "v1")],
            "a1": [mono(-3 * a1, "u", "u", "v", "v1"),
                   mono(-2 * a1, "v", "v", "v", "u1")],
            "a2": [mono(-3 * a2, "v", "v", "u", "u1"),
                   mono(-2 * a2, "u", "u", "u", "v1")],
            "a3": [mono(6 * a3, "u", "u1", "v2"),
                   mono(6 * a3, "v", "v1", "u2")]}),
        "H1_SUB(4.5)": _Identity(mixed, {
            "damping": _Damped(-3 * k, mixed),
            "a1": [mono(2 / 3 * a1, "v", "v", "v", "u1"),
                   mono(a1, "u", "u", "v", "v1"),
                   mono(-3 * a1, "v1", "v1", "u1")],
            "a2": [mono(2 / 3 * a2, "u", "u", "u", "v1"),
                   mono(a2, "v", "v", "u", "u1"),
                   mono(-3 * a2, "u1", "u1", "v1")],
            "a1 a3": [mono(-2 * a1 * a3, "v2", "u1", "u"),
                      mono(-3 * a1 * a3, "v1", "u1", "u1"),
                      mono(-a1 * a3, "v1", "v1", "v1")],
            "a2 a3": [mono(-2 * a2 * a3, "u2", "v1", "v"),
                      mono(-3 * a2 * a3, "u1", "v1", "v1"),
                      mono(-a2 * a3, "u1", "u1", "u1")]}),
    }


def _h2_identities(c: ValidatedCoefficients) -> dict:
    a1, a2, a3, k = c.a1, c.a2, c.a3, c.k
    f2, g2, h2 = (lyapunov_monomials(c)[name] for name in ("f2", "g2", "h2"))
    curv = seminorm_monomials(2)
    cross2 = (mono(1.0, "u2", "v2"),)
    # "Approximate" means accurate relative to the quadratic leading part,
    # so that scale enters the truncations' normalizers.
    quadratic = (curv, (mono(2 * a3, "u2", "v2"),))
    return {
        "H2_MAIN": _Identity(f2 + g2, {"-2k f2": _Damped(-2 * k, f2),
                                       "h2": h2}),
        "H2_SUB(5.2)": _Identity(curv, {
            "damping": _Damped(-2 * k, curv),
            "self": [mono(-5.0, "u2", "u2", "u1"),
                     mono(-5.0, "v2", "v2", "v1")],
            "a1": [mono(-10 * a1, "u2", "v2", "v1"),
                   mono(-5 * a1, "v2", "v2", "u1")],
            "a2": [mono(-10 * a2, "u2", "v2", "u1"),
                   mono(-5 * a2, "u2", "u2", "v1")]}),
        "H2_SUB(5.3)": _Identity(cross2, {
            "damping": _Damped(-2 * k, cross2),
            "cubic": [mono(-1.0, "u3", "v2", "u"),
                      mono(-1.0, "v3", "u2", "v"),
                      mono(-3.0, "u2", "v2", "u1"),
                      mono(-3.0, "u2", "v2", "v1")],
            "a1": [mono(-2.5 * a1, "u2", "u2", "v1"),
                   mono(-2.5 * a1, "v2", "v2", "v1"),
                   mono(-2 * a1, "u2", "v2", "u1"),
                   mono(a1, "u3", "v2", "u")],
            "a2": [mono(-2.5 * a2, "u2", "u2", "u1"),
                   mono(-2.5 * a2, "v2", "v2", "u1"),
                   mono(-2 * a2, "u2", "v2", "v1"),
                   mono(a2, "v3", "u2", "v")]}),
        "H2_SUB(5.4)": _Identity(
            (mono(1.0, "u1", "u1", "u"), mono(1.0, "v1", "v1", "v")),
            {"main": [mono(-3.0, "u2", "u2", "u1"),
                      mono(-3.0, "v2", "v2", "v1")],
             "a3": [mono(-2 * a3, "u3", "v2", "u"),
                    mono(-2 * a3, "v3", "u2", "v"),
                    mono(-4 * a3, "u2", "v2", "u1"),
                    mono(-4 * a3, "u2", "v2", "v1")]},
            scale_by=quadratic),
        "H2_SUB(5.5)": _Identity(
            (mono(2.0, "u1", "v1", "v"), mono(1.0, "v1", "v1", "u")),
            {"main": [mono(-6.0, "u2", "v2", "v1"),
                      mono(-3.0, "v2", "v2", "u1")],
             "a3": [mono(-3 * a3, "u2", "u2", "v1"),
                    mono(-3 * a3, "v2", "v2", "v1"),
                    mono(2 * a3, "u3", "v2", "u"),
                    mono(-2 * a3, "u2", "v2", "u1")]},
            scale_by=quadratic),
        "H2_SUB(5.6)": _Identity(
            (mono(2.0, "u1", "v1", "u"), mono(1.0, "u1", "u1", "v")),
            {"main": [mono(-6.0, "u2", "v2", "u1"),
                      mono(-3.0, "u2", "u2", "v1")],
             "a3": [mono(-3 * a3, "u2", "u2", "u1"),
                    mono(-3 * a3, "v2", "v2", "u1"),
                    mono(2 * a3, "v3", "u2", "v"),
                    mono(-2 * a3, "u2", "v2", "v1")]},
            scale_by=quadratic),
    }


def _identity(identity_id: str, c: ValidatedCoefficients) -> _Identity:
    if identity_id == "L2":
        return _damping_only(_gen_n_identity(0, c))
    if identity_id.startswith("GEN_N_APPROX("):
        return _damping_only(_gen_n_identity(int(identity_id[13:-1]), c))
    if identity_id.startswith("GEN_N("):
        n = int(identity_id[6:-1])
        if n < 0:
            raise ValueError("derivative order must be >= 0")
        return _gen_n_identity(n, c)
    family = _h1_identities if identity_id.startswith("H1_") else _h2_identities
    return family(c)[identity_id]


# -- the compiled battery ----------------------------------------------------

class ObservationPlan(NamedTuple):
    """What one state is observed for, compiled once per coefficient set."""

    c: ValidatedCoefficients
    sums: IntegralPlan
    columns: tuple     # (record column, sum index) of each observed column
    identities: dict   # id -> (left-side sum index, right-hand terms as
                       # (label, `_Damped` factor or None, sum index),
                       # sum indices of the `scale_by` lists)


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

    record = functional_record(c, n_max)
    columns = tuple((name, add(value_sum(record[name])))
                    for name in (record if columns is None else columns))
    identities = {}
    for identity_id in ids:
        identity = _identity(identity_id, c)
        terms = tuple(
            (label, term.factor, add(value_sum(term.monomials)))
            if isinstance(term, _Damped)
            else (label, None, add(value_sum(term)))
            for label, term in identity.terms.items())
        identities[identity_id] = (
            add(ddt_sum(identity.functional)), terms,
            tuple(add(value_sum(m)) for m in identity.scale_by))
    return ObservationPlan(c, IntegralPlan(list(sums)), columns, identities)


class Observation(NamedTuple):
    """One state's evaluated plan."""

    plan: ObservationPlan
    sums: list

    def report(self, identity_id: str) -> IdentityReport:
        lhs, terms, scale_by = self.plan.identities[identity_id]
        sums = self.sums
        lhs = sums[lhs]
        terms = {label: sums[i] if factor is None else factor * sums[i]
                 for label, factor, i in terms}
        total = sum(terms.values())
        reference = 2 * self.plan.c.k * sum(abs(sums[i]) for i in scale_by)
        normalizer = max(abs(lhs) + sum(abs(v) for v in terms.values())
                         + reference, NORMALIZER_FLOOR)
        return IdentityReport(identity_id=identity_id, lhs=lhs, rhs=total,
                              terms=terms, normalizer=normalizer,
                              relative_residual=abs(lhs - total) / normalizer)


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
    """An H1 identity; `observe` has checked the zero means it needs."""
    return obs.report(identity_id)


def residual_h2(obs: Observation, identity_id: str) -> IdentityReport:
    """An H2 identity; `observe` has checked the zero means it needs."""
    return obs.report(identity_id)


def _report(obs: Observation, identity_id: str) -> IdentityReport:
    if identity_id == "L2":
        return residual_l2(obs)
    if identity_id.startswith("GEN_N"):
        return residual_general_n(obs, identity_id)
    family = residual_h1 if identity_id.startswith("H1_") else residual_h2
    return family(obs, identity_id)


def identity_reports(state: SimState, c: ValidatedCoefficients,
                     ids) -> dict:
    """IdentityReport for each of `ids` at one state, from one evaluation
    of their compiled plan; only the requested identities are evaluated."""
    return observe(state, c, ids, 0, ())[1]


def observe(state: SimState, c: ValidatedCoefficients, ids, n_max: int,
            columns: tuple | None = None) -> tuple[dict, dict]:
    """The record row {"t": t, column: value} of one state, over the
    `columns` of `functional_record(c, n_max)` (all of them when None), and
    the reports of the identities `ids` (H1 and H2 ones need zero means),
    from one evaluation of one plan: the two share their value integrals."""
    if (any(i.startswith(ZERO_MEAN_CHECKS) for i in ids)
            and (state.mean_u != 0.0 or state.mean_v != 0.0)):
        raise ValueError("identity requires zero means; got "
                         f"M = {state.mean_u}, N = {state.mean_v}")
    plan = observation_plan(c, tuple(ids), n_max, columns)
    obs = Observation(plan, plan.sums.evaluate(state, c))
    return ({"t": state.t, **{name: obs.sums[i] for name, i in plan.columns}},
            {i: _report(obs, i) for i in ids})


# -- inequalities ------------------------------------------------------------

def _abs_samples(*fields: SpectralField) -> np.ndarray:
    """|f| of each field, one row each, on the grid the L^p norms use."""
    return np.abs(sample_rows(np.array([f.coeffs for f in fields]),
                              np.array([f.band() for f in fields]),
                              _next_pow2(4 * fields[0].grid.n_points)))


def _norm_of_abs(s: np.ndarray, p) -> float:
    """Discrete L^p norm of nonnegative samples (p >= 1 or inf)."""
    if p == math.inf:
        return float(np.max(s))
    p = float(p)
    if p < 1.0:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return float(np.mean(s ** p) ** (1.0 / p))


def check_poincare_holder(f: SpectralField, p, q,
                          slack: float = 1e-10) -> bool:
    """Mean-free Poincare bound ||f - [f]||_p <= ||f_x||_q for any p, q >= 1,
    plus L^p monotonicity ||f||_p <= ||f||_q whenever p <= q."""
    def norm(g, r):
        return _norm_of_abs(_abs_samples(g)[0], r)

    mean_free = SpectralField(f.grid,
                              np.concatenate([[0.0], f.coeffs[1:]]))
    ok = norm(mean_free, p) <= norm(derivative(f), q) + slack
    if p <= q:
        ok = ok and norm(f, p) <= norm(f, q) + slack
    return ok


def poincare_holder_violations(f: SpectralField, exponents,
                               slack: float = 1e-10) -> list:
    """The (p, q) pairs over `exponents` that fail `check_poincare_holder`,
    with the samples of f, of its mean-free part and of f_x taken in one
    resampling and each of their norms once per exponent."""
    mean_free = SpectralField(f.grid,
                              np.concatenate([[0.0], f.coeffs[1:]]))
    mf, dx, full = ({p: _norm_of_abs(s, p) for p in exponents}
                    for s in _abs_samples(mean_free, derivative(f), f))
    bad = []
    for p in exponents:
        for q in exponents:
            ok = mf[p] <= dx[q] + slack
            if p <= q:
                ok = ok and full[p] <= full[q] + slack
            if not ok:
                bad.append((p, q))
    return bad


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
    in that order, as one plan; and each tuple as (n, alphas, betas, d)."""
    sums = [value_sum(seminorm_monomials(j)) for j in range(max(n_values) + 1)]
    cases = []
    for n in n_values:
        for alphas, betas in admissible_exponent_tuples(n, d_max):
            sums.append(value_sum([(1.0, tuple(
                f for j in range(n + 1)
                for f in [("u", j)] * alphas[j] + [("v", j)] * betas[j]))]))
            cases.append((n, alphas, betas, sum(alphas) + sum(betas)))
    return IntegralPlan(sums), tuple(cases)


def product_bound_violations(u: SpectralField, v: SpectralField,
                             n_values=(1, 2, 3), d_max: int = 4,
                             slack: float = 1e-10) -> list:
    """Sweep every admissible tuple; returns the violating ones. The sides
    come from one evaluation of one cached plan per (n_values, d_max), each
    bitwise what `integral_of_product` gives for that tuple."""
    plan, cases = _product_bound_plan(tuple(n_values), d_max)
    s = plan.evaluate(SimState(u, v, 0.0, 0.0, 0.0), None)
    bad = []
    for (n, alphas, betas, d), value in zip(cases, s[len(s) - len(cases):]):
        bound = s[n] * s[n - 1] ** ((d - 2) / 2.0)
        if abs(value) > bound + slack * max(1.0, bound):
            bad.append((n, alphas, betas, abs(value), bound))
    return bad


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
    """Least-squares slope of log(quantity) over the time window.

    Values that have decayed below 1e-13 of the series' initial value are
    excluded so the fit never chases rounding noise.
    """
    t = np.asarray(series.t, dtype=float)
    q = np.asarray(series.columns[quantity_id], dtype=float)
    t0, t1 = window
    floor = 1e-13 * q[0]
    keep = (t >= t0) & (t <= t1) & (q > max(floor, 0.0))
    if int(np.sum(keep)) < 3:
        raise ValueError(f"window {window} leaves fewer than 3 usable points")
    tt, log_q = t[keep], np.log(q[keep])
    slope, intercept = np.polyfit(tt, log_q, 1)
    fitted = slope * tt + intercept
    ss_res = float(np.sum((log_q - fitted) ** 2))
    ss_tot = float(np.sum((log_q - np.mean(log_q)) ** 2))
    r_sq = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(quantity_id=quantity_id, window=(float(t0), float(t1)),
                    fitted_rate=float(slope), intercept=float(intercept),
                    target_rate=float(target_rate), r_squared=r_sq,
                    n_points=int(np.sum(keep)))

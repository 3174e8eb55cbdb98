"""Certification machinery: identity residuals, inequalities, decay fits.

Every differential identity is checked by comparing two independent routes:
the left side d/dt(functional) is expanded by the chain rule with the model's
right-hand side substituted for the time derivatives, while the right side is
the literal combination of integrals from the corresponding identity, evaluated
by alias-free padded quadrature. Exact identities must agree to rounding error;
approximate ones (valid modulo higher-order terms in the solution size) must
show residuals that shrink linearly with the amplitude.

All identities of one state share one `StateCalculus` (from `functionals`):
the right-hand side is evaluated once, each derived field is sampled once per
padded grid, and each integral is computed once per ordered factor tuple,
bitwise equal to `integral_of_product`. The two routes of an identity never
share an integral: every left-side product holds a time derivative, no
right-side product does. Each identity's monomial lists are built once per
coefficient set; H1_MAIN and H2_MAIN take f1, g1, f2, g2 and h2 from
`functionals.lyapunov_monomials`, the lists the CSV columns are evaluated from.
`identity_reports` is the battery's one entry point and evaluates only the
identities it is asked for. The Poincare and product-bound sweeps likewise
sample each field once; `check_poincare_holder` and `check_product_bound`
check one pair or tuple at a time.

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

from .functionals import StateCalculus, lyapunov_monomials, mono
from .model import SimState, ValidatedCoefficients
from .spectral import (SpectralField, derivative, integral_of_product,
                       padded_samples, _next_pow2)

NORMALIZER_FLOOR = 1e-30

EXACT_IDENTITY_IDS = ("L2", "GEN_N(0)", "GEN_N(1)", "GEN_N(2)", "GEN_N(3)",
                      "GEN_N(4)", "H1_MAIN", "H1_SUB(4.2)", "H1_SUB(4.3)",
                      "H1_SUB(4.4)", "H1_SUB(4.5)", "H2_SUB(5.2)",
                      "H2_SUB(5.3)")
APPROX_IDENTITY_IDS = ("H2_MAIN", "H2_SUB(5.4)", "H2_SUB(5.5)", "H2_SUB(5.6)",
                       "GEN_N_APPROX(3)")


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


def _report(calc: StateCalculus, identity_id: str,
            identity: _Identity) -> IdentityReport:
    lhs = calc.ddt(identity.functional)
    terms = {label: (term.factor * calc.value(term.monomials)
                     if isinstance(term, _Damped) else calc.value(term))
             for label, term in identity.terms.items()}
    total = sum(terms.values())
    reference = 2 * calc.c.k * sum(abs(calc.value(m))
                                   for m in identity.scale_by)
    normalizer = max(abs(lhs) + sum(abs(v) for v in terms.values())
                     + reference, NORMALIZER_FLOOR)
    return IdentityReport(identity_id=identity_id, lhs=lhs, rhs=total,
                          terms=terms, normalizer=normalizer,
                          relative_residual=abs(lhs - total) / normalizer)


def _battery(calc: StateCalculus, identities: dict, ids) -> dict:
    """The zero-mean identities named in `ids` (all when None)."""
    state = calc.state
    if state.mean_u != 0.0 or state.mean_v != 0.0:
        raise ValueError("identity requires zero means; got "
                         f"M = {state.mean_u}, N = {state.mean_v}")
    return {identity_id: _report(calc, identity_id, identities[identity_id])
            for identity_id in (identities if ids is None else ids)}


# -- exact identities --------------------------------------------------------
#
# Each identity's monomial lists depend only on the coefficients, so they are
# built once per coefficient set.

@functools.lru_cache(maxsize=None)
def _gen_n_identity(n: int, c: ValidatedCoefficients) -> _Identity:
    """The order-n derivative-energy identity."""
    fn = (mono(1.0, f"u{n}", f"u{n}"), mono(1.0, f"v{n}", f"v{n}"))
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


def residual_l2(calc: StateCalculus) -> IdentityReport:
    """(int u^2 + v^2)' = -2k int u^2 + v^2, exact for any means."""
    return _report(calc, "L2", _damping_only(_gen_n_identity(0, calc.c)))


def residual_general_n(calc: StateCalculus, n: int) -> IdentityReport:
    """Exact identity for (int u_n^2 + v_n^2)'; holds for any means."""
    if n < 0:
        raise ValueError("derivative order must be >= 0")
    return _report(calc, f"GEN_N({n})", _gen_n_identity(n, calc.c))


def approx_residual_general_n(calc: StateCalculus, n: int) -> IdentityReport:
    """Damping-only truncation; the residual is the dropped cubic part."""
    return _report(calc, f"GEN_N_APPROX({n})",
                   _damping_only(_gen_n_identity(n, calc.c)))


@functools.lru_cache(maxsize=None)
def _h1_identities(c: ValidatedCoefficients) -> dict:
    a1, a2, a3, k = c.a1, c.a2, c.a3, c.k
    f1, g1 = (lyapunov_monomials(c)[name] for name in ("f1", "g1"))
    grad = (mono(1.0, "u1", "u1"), mono(1.0, "v1", "v1"))
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


def residual_h1(calc: StateCalculus, ids=None) -> dict:
    """The H1 Lyapunov identity and its four sub-identities (all exact), or
    those of them named in `ids`."""
    return _battery(calc, _h1_identities(calc.c), ids)


@functools.lru_cache(maxsize=None)
def _h2_identities(c: ValidatedCoefficients) -> dict:
    a1, a2, a3, k = c.a1, c.a2, c.a3, c.k
    f2, g2, h2 = (lyapunov_monomials(c)[name] for name in ("f2", "g2", "h2"))
    curv = (mono(1.0, "u2", "u2"), mono(1.0, "v2", "v2"))
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


def residual_h2(calc: StateCalculus, ids=None) -> dict:
    """The H2 Lyapunov identity and sub-identities, or those named in `ids`.

    5.2 and 5.3 are exact. The main identity 5.1 and the cubic-functional
    identities 5.4-5.6 hold modulo higher-order terms in the solution size:
    their relative residuals must scale linearly with the state amplitude.
    """
    return _battery(calc, _h2_identities(calc.c), ids)


def identity_reports(state: SimState, c: ValidatedCoefficients,
                     ids) -> dict:
    """IdentityReport for each of `ids` at one state, all from one calculus;
    only the requested identities are evaluated."""
    calc = StateCalculus(state, c)
    out = {}
    for prefix, battery in (("H1_", residual_h1), ("H2_", residual_h2)):
        wanted = [i for i in ids if i.startswith(prefix)]
        if wanted:
            out.update(battery(calc, wanted))
    for identity_id in ids:
        if identity_id == "L2":
            out[identity_id] = residual_l2(calc)
        elif identity_id.startswith("GEN_N("):
            out[identity_id] = residual_general_n(calc, int(identity_id[6:-1]))
        elif identity_id.startswith("GEN_N_APPROX("):
            out[identity_id] = approx_residual_general_n(
                calc, int(identity_id[13:-1]))
    return {identity_id: out[identity_id] for identity_id in ids}


# -- seeded states and amplitude scaling -------------------------------------

def random_smooth_field(grid, rng, kmax: int = 8) -> SpectralField:
    """Zero-mean field with e^{-kappa} spectrum up to kmax, random phases."""
    c = np.zeros(grid.n_coeffs, dtype=np.complex128)
    kmax = min(kmax, grid.dealias_cutoff)
    kappa = np.arange(1, kmax + 1)
    c[1:kmax + 1] = (np.exp(-kappa.astype(float))
                     * (rng.standard_normal(kmax)
                        + 1j * rng.standard_normal(kmax)))
    return SpectralField(grid, c)


def random_smooth_state(grid, seed: int, amplitude: float = 1.0,
                        kmax: int = 8) -> SimState:
    """Seeded zero-mean state pair, jointly normalized to sup amplitude."""
    rng = np.random.default_rng(seed)
    u = random_smooth_field(grid, rng, kmax)
    v = random_smooth_field(grid, rng, kmax)
    peak = max(np.max(np.abs(u.samples())), np.max(np.abs(v.samples())))
    scale = amplitude / peak
    return SimState(u=scale * u, v=scale * v, t=0.0, mean_u=0.0, mean_v=0.0)


def scale_state(state: SimState, factor: float) -> SimState:
    return SimState(u=factor * state.u, v=factor * state.v, t=state.t,
                    mean_u=factor * state.mean_u, mean_v=factor * state.mean_v)


def scaling_ratios(report_fn, state: SimState, n_halvings: int = 2) -> list:
    """relative_residual(eps/2) / relative_residual(eps), per halving."""
    rels = [report_fn(scale_state(state, 0.5 ** i)).relative_residual
            for i in range(n_halvings + 1)]
    return [rels[i + 1] / rels[i] for i in range(n_halvings)]


# -- inequalities ------------------------------------------------------------

def _abs_samples(f: SpectralField, oversample: int = 4) -> np.ndarray:
    """|f| on the oversampled grid the L^p norms are taken on."""
    m = _next_pow2(max(oversample * f.grid.n_points, 2 * f.band() + 2))
    return np.abs(padded_samples(f, m))


def _norm_of_abs(s: np.ndarray, p) -> float:
    """Discrete L^p norm of nonnegative samples (p >= 1 or inf)."""
    if p == math.inf:
        return float(np.max(s))
    p = float(p)
    if p < 1.0:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return float(np.mean(s ** p) ** (1.0 / p))


def lp_norm(f: SpectralField, p, oversample: int = 4) -> float:
    """L^p norm of the trig interpolant on an oversampled grid (p >= 1 or inf)."""
    return _norm_of_abs(_abs_samples(f, oversample), p)


def check_poincare_holder(f: SpectralField, p, q,
                          slack: float = 1e-10) -> bool:
    """Mean-free Poincare bound ||f - [f]||_p <= ||f_x||_q for any p, q >= 1,
    plus L^p monotonicity ||f||_p <= ||f||_q whenever p <= q."""
    mean_free = SpectralField(f.grid,
                              np.concatenate([[0.0], f.coeffs[1:]]))
    ok = lp_norm(mean_free, p) <= lp_norm(derivative(f), q) + slack
    if p <= q:
        ok = ok and lp_norm(f, p) <= lp_norm(f, q) + slack
    return ok


def poincare_holder_violations(f: SpectralField, exponents,
                               slack: float = 1e-10) -> list:
    """The (p, q) pairs over `exponents` that fail `check_poincare_holder`,
    with the samples of f, of its mean-free part and of f_x taken once and
    each of their norms once per exponent."""
    mean_free = SpectralField(f.grid,
                              np.concatenate([[0.0], f.coeffs[1:]]))
    mf, dx, full = ({p: _norm_of_abs(s, p) for p in exponents}
                    for s in (_abs_samples(mean_free),
                              _abs_samples(derivative(f)), _abs_samples(f)))
    bad = []
    for p in exponents:
        for q in exponents:
            ok = mf[p] <= dx[q] + slack
            if p <= q:
                ok = ok and full[p] <= full[q] + slack
            if not ok:
                bad.append((p, q))
    return bad


class HypothesisError(ValueError):
    """Exponent tuple outside the product bound's hypotheses."""


def _check_exponents(alphas, betas) -> int:
    if len(alphas) != len(betas) or len(alphas) < 2:
        raise HypothesisError("need exponent lists over orders 0..n with n >= 1")
    if any(a < 0 for a in alphas) or any(b < 0 for b in betas):
        raise HypothesisError("exponents must be nonnegative")
    d = sum(alphas) + sum(betas)
    if d < 2:
        raise HypothesisError(f"total degree must be >= 2, got {d}")
    top = 2 * (alphas[-1] + betas[-1]) + alphas[-2] + betas[-2]
    if top > 4:
        raise HypothesisError(
            f"2(a_n + b_n) + a_(n-1) + b_(n-1) must be <= 4, got {top}")
    return d


def check_product_bound(u: SpectralField, v: SpectralField, alphas, betas,
                        slack: float = 1e-10) -> bool:
    """|int prod u_m^alpha_m v_m^beta_m| <= S_n S_(n-1)^((d-2)/2) where
    S_m = int u_m^2 + v_m^2, for admissible exponents (raises otherwise)."""
    d = _check_exponents(alphas, betas)
    n = len(alphas) - 1
    factors = []
    for m in range(n + 1):
        factors.extend([derivative(u, m)] * alphas[m])
        factors.extend([derivative(v, m)] * betas[m])
    lhs = abs(integral_of_product(*factors))
    un, vn = derivative(u, n), derivative(v, n)
    um, vm = derivative(u, n - 1), derivative(v, n - 1)
    s_n = integral_of_product(un, un) + integral_of_product(vn, vn)
    s_m = integral_of_product(um, um) + integral_of_product(vm, vm)
    bound = s_n * s_m ** ((d - 2) / 2.0)
    return lhs <= bound + slack * max(1.0, bound)


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
def _exponent_table(n: int, d_max: int) -> tuple:
    """The admissible tuples of one n, their degrees, and their exponents as
    an (n_tuples, 2(n + 1)) array with columns alpha_0, beta_0, alpha_1, ..."""
    tuples = tuple(admissible_exponent_tuples(n, d_max))
    degrees = tuple(sum(a) + sum(b) for a, b in tuples)
    exponents = np.array([[e for pair in zip(a, b) for e in pair]
                          for a, b in tuples]).reshape(-1, 2 * (n + 1))
    exponents.flags.writeable = False  # shared by every later call
    return tuples, degrees, exponents


def product_bound_violations(u: SpectralField, v: SpectralField,
                             n_values=(1, 2, 3), d_max: int = 4,
                             slack: float = 1e-10) -> list:
    """Sweep every admissible tuple; returns the violating ones. The
    derivative samples are taken once, and each n's tuples are multiplied
    out as one array, factor by factor in the order u_0, v_0, u_1, ..."""
    n_top = max(n_values)
    band = max(u.band(), v.band(), 1)
    m = _next_pow2(max(d_max * band + 1, 2 * band + 2, 8))
    du = [padded_samples(derivative(u, j), m) for j in range(n_top + 1)]
    dv = [padded_samples(derivative(v, j), m) for j in range(n_top + 1)]
    s = [float(np.mean(du[j] ** 2) + np.mean(dv[j] ** 2))
         for j in range(n_top + 1)]
    factors = [f for j in range(n_top + 1) for f in (du[j], dv[j])]

    bad = []
    for n in n_values:
        tuples, degrees, exponents = _exponent_table(n, d_max)
        prod = np.ones((len(tuples), m))
        for column, samples in zip(exponents.T, factors):
            for e in np.unique(column[column > 0]):
                rows = column == e
                prod[rows] = prod[rows] * samples ** int(e)
        lhs = np.abs(np.mean(prod, axis=1))
        for (alphas, betas), d, value in zip(tuples, degrees, lhs):
            bound = s[n] * s[n - 1] ** ((d - 2) / 2.0)
            if value > bound + slack * max(1.0, bound):
                bad.append((n, alphas, betas, float(value), bound))
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

"""The per-state functional calculus, kept as the oracle of the compiled plan.

`functionals.IntegralPlan` compiles the monomial sums of the record and the
identity battery to index tables and evaluates them in a few batched numpy
calls. This is the route it replaces: one `StateCalculus` per state that
memoizes each derived field, its padded samples and each integral, and
reports built term by term in Python. The plan must reproduce every integral,
record column and report field of this route bitwise.
"""
from __future__ import annotations

import numpy as np

from ggkdv.model import SimState, ValidatedCoefficients, rhs, scale_state
from ggkdv.spectral import SpectralField, _next_pow2
from ggkdv.identities import (_Damped, _Identity, _damping_only,
                              _gen_n_identity, _h1_identities, _h2_identities)
from ggkdv.verification import NORMALIZER_FLOOR, IdentityReport

from spectral_reference import derivative, inner, integral, padded_samples


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
                du, dv = (SpectralField(self.state.grid, d)
                          for d in rhs([self.state], self.c)[0])
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
        """An integral functional, its terms added left to right from 0.0."""
        total = 0.0
        for coeff, factors in monomials:
            total += coeff * self.integral(tuple((False, *f) for f in factors))
        return total

    def ddt(self, monomials) -> float:
        """d/dt of an integral functional, one product-rule slot at a time."""
        total = 0.0
        for coeff, factors in monomials:
            for i in range(len(factors)):
                total += coeff * self.integral(
                    tuple((j == i, *f) for j, f in enumerate(factors)))
        return total


def report(calc: StateCalculus, identity_id: str,
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
    return {identity_id: report(calc, identity_id, identities[identity_id])
            for identity_id in (identities if ids is None else ids)}


def residual_l2(calc: StateCalculus) -> IdentityReport:
    """(int u^2 + v^2)' = -2k int u^2 + v^2, exact for any means."""
    return report(calc, "L2", _damping_only(_gen_n_identity(0, calc.c)))


def residual_general_n(calc: StateCalculus, n: int) -> IdentityReport:
    """Exact identity for (int u_n^2 + v_n^2)'; holds for any means."""
    if n < 0:
        raise ValueError("derivative order must be >= 0")
    return report(calc, f"GEN_N({n})", _gen_n_identity(n, calc.c))


def approx_residual_general_n(calc: StateCalculus, n: int) -> IdentityReport:
    """Damping-only truncation; the residual is the dropped cubic part."""
    return report(calc, f"GEN_N_APPROX({n})",
                  _damping_only(_gen_n_identity(n, calc.c)))


def residual_h1(calc: StateCalculus, ids=None) -> dict:
    """The H1 Lyapunov identity and its four sub-identities (all exact), or
    those of them named in `ids`."""
    return _battery(calc, _h1_identities(calc.c), ids)


def residual_h2(calc: StateCalculus, ids=None) -> dict:
    """The H2 Lyapunov identity and sub-identities, or those named in `ids`.

    5.2 and 5.3 are exact. The main identity 5.1 and the cubic-functional
    identities 5.4-5.6 hold modulo higher-order terms in the solution size:
    their relative residuals must scale linearly with the state amplitude.
    """
    return _battery(calc, _h2_identities(calc.c), ids)


def reports(state: SimState, c: ValidatedCoefficients, ids) -> dict:
    """IdentityReport for each of `ids`, all from one calculus."""
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


def scaling_ratios(report_fn, state: SimState, n_halvings: int = 2) -> list:
    """relative_residual(eps/2) / relative_residual(eps), per halving."""
    rels = [report_fn(scale_state(state, 0.5 ** i)).relative_residual
            for i in range(n_halvings + 1)]
    return [rels[i + 1] / rels[i] for i in range(n_halvings)]

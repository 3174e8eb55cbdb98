"""The identities the certificate checks, as monomial lists.

Each identity's lists are built from the lists the CSV record is evaluated
from (`functionals.functional_record`): GEN_N(n), H1_SUB(4.2) and
H2_SUB(5.2) take the seminorms as their functionals, H1_MAIN and H2_MAIN
take f1, g1, f2, g2 and h2. `verification` compiles and evaluates them.

Identity ids, each the key of its definition here:
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

import math
from typing import NamedTuple

from .functionals import lyapunov_monomials, mono, seminorm_monomials
from .model import ValidatedCoefficients

ZERO_MEAN_CHECKS = ("H1", "H2")  # their identities assume M = N = 0


class _Damped(NamedTuple):
    """Right-hand term factor * (integral of the monomials)."""

    factor: float
    monomials: tuple


class _Identity(NamedTuple):
    """One identity: the left side is d/dt of the functional, each right-hand
    term a monomial list or a `_Damped` one. One not `exact` holds modulo
    higher-order terms, and the normalizer of a truncated one also carries
    2k times the |integral| of each `scale_by` list."""

    functional: tuple
    terms: dict
    scale_by: tuple = ()
    exact: bool = True


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
    """The damping term alone; the residual is the dropped cubic part."""
    return _Identity(identity.functional,
                     {"damping": identity.terms["damping"]}, exact=False)


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
                                       "h2": h2}, exact=False),
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
            scale_by=quadratic, exact=False),
        "H2_SUB(5.5)": _Identity(
            (mono(2.0, "u1", "v1", "v"), mono(1.0, "v1", "v1", "u")),
            {"main": [mono(-6.0, "u2", "v2", "v1"),
                      mono(-3.0, "v2", "v2", "u1")],
             "a3": [mono(-3 * a3, "u2", "u2", "v1"),
                    mono(-3 * a3, "v2", "v2", "v1"),
                    mono(2 * a3, "u3", "v2", "u"),
                    mono(-2 * a3, "u2", "v2", "u1")]},
            scale_by=quadratic, exact=False),
        "H2_SUB(5.6)": _Identity(
            (mono(2.0, "u1", "v1", "u"), mono(1.0, "u1", "u1", "v")),
            {"main": [mono(-6.0, "u2", "v2", "u1"),
                      mono(-3.0, "u2", "u2", "v1")],
             "a3": [mono(-3 * a3, "u2", "u2", "u1"),
                    mono(-3 * a3, "v2", "v2", "u1"),
                    mono(2 * a3, "v3", "u2", "v"),
                    mono(-2 * a3, "u2", "v2", "v1")]},
            scale_by=quadratic, exact=False),
    }


def _identity(identity_id: str, c: ValidatedCoefficients) -> _Identity:
    if identity_id == "L2":  # GEN_N(0)'s cubic terms integrate to zero
        return _damping_only(_gen_n_identity(0, c))._replace(exact=True)
    if identity_id.startswith("GEN_N_APPROX("):
        return _damping_only(_gen_n_identity(int(identity_id[13:-1]), c))
    if identity_id.startswith("GEN_N("):
        n = int(identity_id[6:-1])
        if n < 0:
            raise ValueError("derivative order must be >= 0")
        return _gen_n_identity(n, c)
    family = _h1_identities if identity_id.startswith("H1_") else _h2_identities
    return family(c)[identity_id]


def check_identities(checks, n_max: int,
                     c: ValidatedCoefficients) -> tuple[list, list]:
    """The exact and the approximate identity ids behind the named checks,
    in the order L2, GEN_N(0..n_max), H1, H2, split by `_Identity.exact`."""
    named = {}
    if "L2" in checks:
        named["L2"] = _identity("L2", c)
    if "GEN_N" in checks:
        named.update((f"GEN_N({n})", _gen_n_identity(n, c))
                     for n in range(n_max + 1))
    if "H1" in checks:
        named.update(_h1_identities(c))
    if "H2" in checks:
        named.update(_h2_identities(c))
    return ([i for i, identity in named.items() if identity.exact],
            [i for i, identity in named.items() if not identity.exact])

"""Per-tuple product bound: oracles of the plan-based sweep.

`product_bound_sides` gives one tuple's two sides from `integral_of_product`,
one padded size per product; `verification.product_bound_violations` must
reproduce them bitwise. `check_product_bound` checks one tuple through them,
and rejects exponents outside the bound's hypotheses.
`product_bound_violations` is the sweep that the plan replaced: every product
on one padded size m for the pair, one product and one mean per admissible
tuple. It agrees with the plan to round-off, not bitwise.
"""
import numpy as np

from ggkdv.spectral import _next_pow2, integral_of_product
from ggkdv.verification import admissible_exponent_tuples

from spectral_reference import derivative, padded_samples


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


def product_bound_sides(u, v, alphas, betas) -> tuple:
    """(|int prod u_m^alpha_m v_m^beta_m|, S_n S_(n-1)^((d-2)/2)) where
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
    return lhs, s_n * s_m ** ((d - 2) / 2.0)


def check_product_bound(u, v, alphas, betas, slack: float = 1e-10) -> bool:
    """The product bound for one admissible tuple (raises otherwise)."""
    lhs, bound = product_bound_sides(u, v, alphas, betas)
    return lhs <= bound + slack * max(1.0, bound)


def product_bound_violations(u, v, n_values=(1, 2, 3), d_max=4,
                             slack=1e-10):
    n_top = max(n_values)
    band = max(u.band(), v.band(), 1)
    m = _next_pow2(max(d_max * band + 1, 2 * band + 2, 8))
    du = [padded_samples(derivative(u, j), m) for j in range(n_top + 1)]
    dv = [padded_samples(derivative(v, j), m) for j in range(n_top + 1)]
    s = [float(np.mean(du[j] ** 2) + np.mean(dv[j] ** 2))
         for j in range(n_top + 1)]

    bad = []
    for n in n_values:
        for alphas, betas in admissible_exponent_tuples(n, d_max):
            prod = np.ones(m)
            for j in range(n + 1):
                if alphas[j]:
                    prod = prod * du[j] ** alphas[j]
                if betas[j]:
                    prod = prod * dv[j] ** betas[j]
            lhs = abs(float(np.mean(prod)))
            d = sum(alphas) + sum(betas)
            bound = s[n] * s[n - 1] ** ((d - 2) / 2.0)
            if lhs > bound + slack * max(1.0, bound):
                bad.append((n, alphas, betas, lhs, bound))
    return bad

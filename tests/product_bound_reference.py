"""Per-tuple product-bound sweep: oracle of the batched sweep.

This is `product_bound_violations` as it was before the tuples of one order
were multiplied out as one array: one product and one mean per admissible
tuple. `verification.product_bound_violations` must reproduce its left and
right sides bitwise.
"""
import numpy as np

from ggkdv.spectral import _next_pow2, derivative, padded_samples
from ggkdv.verification import admissible_exponent_tuples


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

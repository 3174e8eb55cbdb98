"""The allocating flux and ETDRK4 step: oracles of the in-place stepper.

`nonlinear_remainder` and `step` are the stepper's flux and step as they
were before `model.Workspace`: every call allocates its buffer, slices and
views, and every stage a new array for each intermediate result. The
workspace flux and `integrator._step` must give bitwise their numbers.
"""
import numpy as np


def nonlinear_remainder(w, mix, grid, transforms=None):
    """The flux F_hat of `w` (..., 2, kept) under `mix` (..., 2, 5), by the
    FFT pair, or by the (synth, anal) matrices of `model.flux_transforms`."""
    buf = np.empty(w.shape[:-2] + (5, grid.n_points))
    phys = buf[..., 3:, :]
    if transforms is None:
        phys[...] = np.fft.irfft(w, n=grid.n_points, norm="forward")
    else:
        np.matmul(w.view(np.float64), transforms[0], out=phys)
    np.multiply(phys, phys, out=buf[..., :2, :])
    np.multiply(buf[..., 3, :], buf[..., 4, :], out=buf[..., 2, :])
    if transforms is None:
        return np.fft.rfft(mix @ buf, norm="forward")[..., :w.shape[-1]]
    return ((mix @ buf) @ transforms[1]).view(np.complex128)


def step(w, tables, mix, grid, transforms):
    """One ETDRK4 step of the (P, 2, kept) eigenbasis state, returned as a
    new array, under the six table rows of `integrator.build_tables`."""
    exp_full, exp_half, q, w1, w2x2, w3 = tables
    n0 = nonlinear_remainder(w, mix, grid, transforms)
    half = exp_half * w
    a = half + q * n0
    na = nonlinear_remainder(a, mix, grid, transforms)
    b = half + q * na
    nb = nonlinear_remainder(b, mix, grid, transforms)
    c = exp_half * a + q * (2.0 * nb - n0)
    nc = nonlinear_remainder(c, mix, grid, transforms)
    out = exp_full * w + w1 * n0 + w2x2 * (na + nb) + w3 * nc
    out[..., 0] = 0.0
    return out

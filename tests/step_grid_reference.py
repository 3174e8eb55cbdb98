"""The step-grid arithmetic from before `ExperimentConfig.resolved_dt`: the
oracles of `integrator.step_count` and of the default step.

`loader_step_count` is the arithmetic the loader applied to an explicit
`run.dt` before the loader and `evolve` shared one rule. On finite positive
`t_final` and `dt` and `stride >= 1` (the loader refused anything else
first), `step_count` must accept and refuse the same inputs and agree on
the step count wherever both accept, except that it refuses a count of
2**53 or more, which `round` cannot tell from its neighbours.

`default_step` is the default `run.dt` as the commands made it, from the
advective step 0.4 / ((1 + |a3|) 2 pi n_modes); `resolved_dt` must return
it bitwise wherever it accepts the step.
"""
import math

import numpy as np


def loader_step_count(t_final: float, dt: float, stride: int):
    """The whole steps of dt in t_final, or None if they do not tile it in
    whole strides."""
    ratio = t_final / dt
    n_steps = round(ratio) if math.isfinite(ratio) else 0
    if (n_steps >= 1
            and abs(n_steps * dt - t_final) <= 1e-9 * max(1.0, t_final)
            and n_steps % stride == 0):
        return n_steps
    return None


def default_step(t_final: float, stride: int, n_points: int, a3: float):
    """The advective step, rounded down so that whole steps and whole
    strides tile [0, t_final]; None where the step count overflows."""
    advective = 0.4 / ((1.0 + abs(a3)) * 2.0 * np.pi * (n_points // 2))
    ratio = t_final / advective
    if not math.isfinite(ratio):
        return None
    n_steps = max(stride, int(math.ceil(ratio)))
    n_steps = ((n_steps + stride - 1) // stride) * stride
    return t_final / n_steps

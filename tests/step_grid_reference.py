"""The config loader's own step-grid test: oracle of `integrator.step_count`.

`loader_step_count` is the arithmetic the loader applied to an explicit
`run.dt` before the loader and `evolve` shared one rule. On finite positive
`t_final` and `dt` and `stride >= 1` (the loader refused anything else
first), `step_count` must accept and refuse the same inputs and agree on
the step count wherever both accept.
"""
import math


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

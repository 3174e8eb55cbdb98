"""The decay fit through `np.polyfit`, used by tests only.

`fit_decay_rate` is `verification.fit_decay_rate` as it was before the
closed-form line: the same floor and keep rules, then LAPACK's least
squares through `np.polyfit`, behind a guard that keeps a NaN away from
LAPACK. It is the oracle of the closed form: wherever it gives a finite fit,
the closed form must agree with it to within the bounds its test states.
"""
import math

import numpy as np

from ggkdv.verification import DecayFit


def fit_decay_rate(series, quantity_id: str, window: tuple,
                   target_rate: float) -> DecayFit:
    t = np.asarray(series.t, dtype=float)
    q = np.asarray(series.columns[quantity_id], dtype=float)
    t0, t1 = window
    floor = 1e-13 * q[0]
    keep = (t >= t0) & (t <= t1) & np.isfinite(q) & (q > max(floor, 0.0))
    if int(np.sum(keep)) < 3:
        raise ValueError(f"window {window} leaves fewer than 3 usable points")
    tt, log_q = t[keep], np.log(q[keep])
    with np.errstate(all="ignore"):  # a fit that is not finite fails below
        # polyfit divides the times by their norm, which must be a normal
        # float: else LAPACK gets a NaN, and prints a complaint to stderr
        scalable = np.finfo(float).tiny <= np.sqrt(np.sum(tt * tt)) < np.inf
        slope, intercept = (np.polyfit(tt, log_q, 1) if scalable
                            else (math.nan, math.nan))
        fitted = slope * tt + intercept
        ss_res = float(np.sum((log_q - fitted) ** 2))
        ss_tot = float(np.sum((log_q - np.mean(log_q)) ** 2))
    r_sq = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    if not all(map(math.isfinite, (slope, intercept, r_sq))):
        raise ValueError(f"window {window} leaves no finite fit")
    return DecayFit(quantity_id=quantity_id, window=(float(t0), float(t1)),
                    fitted_rate=float(slope), intercept=float(intercept),
                    target_rate=float(target_rate), r_squared=r_sq,
                    n_points=int(np.sum(keep)))

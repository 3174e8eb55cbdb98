from dataclasses import asdict, is_dataclass
import functools
from pathlib import Path

import numpy as np
import pytest
import yaml

from ggkdv import model, spectral as sp
from ggkdv.config import (LAYOUT, atomic_write_text, build_initial_state,
                          load_config)
from ggkdv.integrator import evolve
from ggkdv.model import random_smooth_state

ROOT = Path(__file__).resolve().parents[1]
COUPLED = model.validate_coefficients(
    model.CoefficientSet(a1=1.0, a2=1.0, a3=0.5, k=1.0))


@pytest.fixture
def grid128():
    return sp.make_grid(128)


@pytest.fixture
def grid64():
    return sp.make_grid(64)


@pytest.fixture
def coeffs_coupled():
    """Dispersively coupled branch: 0 < |a3| < 1 forces a1 = a2 = 1."""
    return model.validate_coefficients(
        model.CoefficientSet(a1=1.0, a2=1.0, a3=0.5, k=1.0))


@pytest.fixture
def coeffs_uncoupled():
    """a3 = 0 branch with an asymmetric admissible pair (a1, a2) = (1, 0)."""
    return model.validate_coefficients(
        model.CoefficientSet(a1=1.0, a2=0.0, a3=0.0, k=1.0))


def make_sine_state(grid, amp=0.1, mean_u=0.0, mean_v=0.0):
    x = grid.nodes()
    phi = sp.from_samples(grid, mean_u + amp * np.sin(2 * np.pi * x))
    psi = sp.from_samples(grid, mean_v + amp * np.cos(2 * np.pi * x))
    return model.reduce_mean(phi, psi)


@functools.lru_cache(maxsize=None)
def seeded_or_marched_state(n_points, seed, marched):
    """A seeded state (band 8), or the same state after 20 steps, whose
    nonlinear term has filled every mode up to the dealiasing cutoff."""
    grid = sp.make_grid(n_points)
    state = random_smooth_state(grid, seed=seed, amplitude=0.5)
    if marched:
        state = evolve([state], [COUPLED], 0.02, 1e-3)[0].meta["final_state"]
        assert state.u.band() == state.v.band() == grid.dealias_cutoff
    return state


@functools.lru_cache(maxsize=None)
def decay_marched_state():
    """The config of `gg run configs/decay.yaml`, its coefficients, and its
    initial state marched to t = 0.2."""
    cfg = load_config(str(ROOT / "configs/decay.yaml"))
    c = model.validate_coefficients(cfg.coefficients)
    state = evolve([build_initial_state(cfg)], [c], 0.2,
                   cfg.dt)[0].meta["final_state"]
    return cfg, c, state


def _plain(value):
    """YAML has no tuples: sequences are saved as lists."""
    return list(value) if isinstance(value, tuple) else value


def config_to_dict(cfg) -> dict:
    """The YAML mapping of a config, inverse of `config.config_from_dict`."""
    out = {}
    for name, keys in LAYOUT:
        if keys is not None:
            out[name] = {key: _plain(getattr(cfg, attr))
                         for key, attr in keys.items()}
        else:
            value = getattr(cfg, name)
            out[name] = asdict(value) if is_dataclass(value) else _plain(value)
    return out


def save_config(cfg, path: str) -> None:
    atomic_write_text(path, yaml.safe_dump(config_to_dict(cfg),
                                           sort_keys=False))

"""The shipped configs load, and every config or script the README names exists."""
import json
from pathlib import Path
import re

import pytest
import yaml

from ggkdv import cli
from ggkdv.config import load_config
from ggkdv.model import validate_coefficients

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))


def test_configs_are_shipped():
    assert CONFIGS


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_loads(path):
    cfg = load_config(str(path))
    validate_coefficients(cfg.coefficients)


def test_readme_paths_exist():
    readme = (ROOT / "README.md").read_text("utf-8")
    named = set(re.findall(r"\b(?:configs|scripts)/[\w/-]+(?:\.\w+)*",
                           readme))
    assert named
    assert sorted(p for p in named if not (ROOT / p).exists()) == []


def test_sweep_linear_rates_are_exact(tmp_path):
    """At tiny amplitude the fitted energy rate is -2k to fit accuracy."""
    raw = yaml.safe_load((ROOT / "configs/sweep_linear.yaml").read_text())
    raw["output"] = {"summary": str(tmp_path / "sweep.json")}
    path = tmp_path / "sweep_linear.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert cli.main(["sweep", str(path), "--axis", "k=0.25,0.5,1.0"]) == 0
    points = json.loads((tmp_path / "sweep.json").read_text())["points"]
    assert [p["point"]["k"] for p in points] == [0.25, 0.5, 1.0]
    for p in points:
        assert p["fitted_rate"] == pytest.approx(p["target_rate"], abs=1e-9)

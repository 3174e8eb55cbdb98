"""Config round-trips, CLI artifacts, exit codes, and sweep behavior."""
import contextlib
import copy
import csv
from dataclasses import replace
import io
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
import xml.etree.ElementTree as ET

from hypothesis import example, given, settings, strategies as st
import jsonschema
import numpy as np
import pytest
import yaml

from ggkdv import cli, identities, integrator, model, verification
from ggkdv.config import (MAX_POINT_STEPS, ConfigError, ExperimentConfig,
                          InitialSpec, VerifySpec, apply_overrides,
                          SWEEP_AXES, atomic_write_text,
                          build_initial_state, config_from_dict, load_config)
from ggkdv.integrator import DiagnosticSeries, evolve, step_count
from ggkdv.model import CoefficientSet
from ggkdv.spectral import make_grid
from ggkdv.verification import IdentityReport
from conftest import (ROOT, config_to_dict, observe_one, per_state,
                      save_config, tiny_config)
from step_grid_reference import default_step, loader_step_count
import step_reference


def base_config_dict(tmp_path, **run_overrides):
    run = {"dt": 0.01, "t_final": 0.5, "stride": 10, "n_max": 2}
    run.update(run_overrides)
    return {
        "grid": {"n_points": 32},
        "coefficients": {"a1": 1.0, "a2": 1.0, "a3": 0.5, "k": 1.0},
        "initial": {"preset": "single-mode", "amplitude": 0.1},
        "run": run,
        "checks": ["L2", "GEN_N"],
        "output": {
            "csv": str(tmp_path / "diag.csv"),
            "summary": str(tmp_path / "summary.json"),
            "plot": str(tmp_path / "energy.svg"),
        },
        "verify": {"n_states": 9, "amplitude": 0.05, "kmax": 5,
                   "poincare_fields": 4, "product_fields": 2},
    }


def write_config(tmp_path, raw, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw, sort_keys=False))
    return str(path)


class TestConfigRoundTrip:
    def test_defaults_round_trip(self, tmp_path):
        cfg = ExperimentConfig()
        path = tmp_path / "cfg.yaml"
        save_config(cfg, str(path))
        assert load_config(str(path)) == cfg

    def test_fully_specified_round_trip(self, tmp_path):
        cfg = ExperimentConfig(
            n_points=64,
            coefficients=CoefficientSet(a1=1.0, a2=1.0, a3=-0.25, k=0.75),
            initial=InitialSpec(preset="random-smooth", amplitude=0.31,
                                seed=11, kmax=6, mean_u=0.2, mean_v=-0.1),
            dt=1.25e-3, t_final=2.5, stride=4, n_max=3,
            fit_window=(1.0, 2.5),
            checks=("L2", "H1"),
            csv_path="out/d.csv", summary_path="out/s.json",
            plot_path="out/p.svg",
            verify=VerifySpec(n_states=7, amplitude=0.2, seed=3, kmax=5,
                              poincare_fields=17, product_fields=9))
        path = tmp_path / "cfg.yaml"
        save_config(cfg, str(path))
        assert load_config(str(path)) == cfg

    def test_dict_round_trip_is_identity(self):
        cfg = ExperimentConfig(dt=0.5, fit_window=(2.0, 8.0))
        assert config_from_dict(config_to_dict(cfg)) == cfg

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d.update(extra=1), "unknown keys"),
        (lambda d: d["grid"].update(n_points=31), "even integer"),
        (lambda d: d["initial"].update(preset="bogus"), "unknown preset"),
        (lambda d: d["run"].update(dt=-1.0), "dt must be positive"),
        (lambda d: d["run"].update(fit_window=[3.0, 1.0]), "fit_window"),
        (lambda d: d.update(checks=["L2", "NOPE"]), "unknown checks"),
        (lambda d: d["coefficients"].update(zz=1.0), "in coefficients"),
        (lambda d: d["run"].update(dt="abc"), "run.dt must be a finite"),
        (lambda d: d["coefficients"].update(a1="abc"), "coefficients.a1"),
        (lambda d: d["run"].update(fit_window="abc"), "must be a list"),
        (lambda d: d["run"].update(fit_window=[1.0, "x"]),
         "run.fit_window must be a finite"),
        (lambda d: d["run"].update(t_final=math.inf), "run.t_final"),
        (lambda d: d["coefficients"].update(k=math.nan), "coefficients.k"),
        (lambda d: d["initial"].update(amplitude=True), "initial.amplitude"),
        (lambda d: d["run"].update(stride=2.5), "stride must be an integer"),
        (lambda d: d["run"].update(n_max=2.7), "n_max must be an integer"),
        (lambda d: d["initial"].update(preset=3), "must be a string"),
        (lambda d: d["output"].update(csv=5), "output.csv"),
        (lambda d: d["verify"].update(n_states=0), "n_states must be >= 1"),
        (lambda d: d["initial"].update(kmax=-3), "kmax must be >= 1"),
        (lambda d: d["verify"].update(seed=-1), "seed must be >= 0"),
        (lambda d: d["verify"].update(product_fields=-1),
         "product_fields must be >= 0"),
        (lambda d: d["run"].update(dt=0.3), "does not divide"),
    ])
    def test_malformed_configs_rejected(self, tmp_path, mutate, message):
        # the loader refuses all but the step, which is resolved where a
        # command marches
        raw = base_config_dict(tmp_path)
        mutate(raw)
        with pytest.raises(ConfigError, match=message):
            config_from_dict(raw).resolved_dt()

    def test_numeric_text_and_integral_values_accepted(self, tmp_path):
        raw = base_config_dict(tmp_path)
        raw["initial"]["amplitude"] = "1e-6"  # how PyYAML reads `1e-6`
        raw["coefficients"]["k"] = 2
        raw["run"]["stride"] = 10.0
        cfg = config_from_dict(raw)
        assert cfg.initial.amplitude == 1e-6
        assert cfg.coefficients.k == 2.0
        assert cfg.stride == 10 and isinstance(cfg.stride, int)

    def test_yaml_exponent_without_dot_loads_as_float(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("initial:\n  amplitude: 1e-6\n")
        assert load_config(str(path)).initial.amplitude == 1e-6

    def test_merge_keys_may_override_what_they_merge(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("initial: &shared {amplitude: 0.2, seed: 3, kmax: 5}\n"
                        "verify: {<<: *shared, seed: 4}\n")
        vs = load_config(str(path)).verify
        assert (vs.amplitude, vs.seed, vs.kmax) == (0.2, 4, 5)

    def test_unhashable_key_keeps_pyyaml_error(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("? [a, b]\n: 1\n")
        with pytest.raises(ConfigError, match="found unhashable key"):
            load_config(str(path))

    def test_shipped_configs_load_as_safe_load_reads_them(self):
        for path in sorted((ROOT / "configs").glob("*.yaml")):
            assert load_config(str(path)) == config_from_dict(
                yaml.safe_load(path.read_text())), path.name

    def test_coefficients_section_optional(self, tmp_path):
        raw = base_config_dict(tmp_path)
        del raw["coefficients"]
        assert (config_from_dict(raw).coefficients
                == ExperimentConfig().coefficients)
        raw["coefficients"] = {"k": 0.5}
        assert (config_from_dict(raw).coefficients
                == replace(ExperimentConfig().coefficients, k=0.5))

    def test_sweep_overrides(self, tmp_path):
        cfg = config_from_dict(base_config_dict(tmp_path))
        swept = apply_overrides(cfg, {"k": 0.25, "amplitude": 0.05})
        assert swept.coefficients.k == 0.25
        assert swept.initial.amplitude == 0.05
        assert swept.coefficients.a3 == cfg.coefficients.a3
        with pytest.raises(ConfigError, match="unknown sweep axis"):
            apply_overrides(cfg, {"n_points": 64})


def _json_like():
    scalars = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.text(max_size=6)
               | st.sampled_from(["1e-6", "0.5", "nan", "-inf", "7"]))
    return st.recursive(
        scalars, lambda inner: (st.lists(inner, max_size=3)
                                | st.dictionaries(st.text(max_size=6), inner,
                                                  max_size=3)),
        max_leaves=6)


# built once: a recursive strategy rebuilt at every draw dominates the test
JSON_LIKE = _json_like()


@st.composite
def _known_key_configs(draw):
    """Mappings over the config's own sections and keys, each value either
    the default or arbitrary JSON-like data."""
    raw = {}
    for name, section in config_to_dict(ExperimentConfig()).items():
        if not draw(st.booleans()):
            continue
        if isinstance(section, dict) and draw(st.integers(0, 3)):
            keys = draw(st.lists(st.sampled_from(sorted(section)),
                                 unique=True))
            raw[name] = {key: draw(st.just(section[key]) | JSON_LIKE)
                         for key in keys}
        else:
            raw[name] = draw(st.just(section) | JSON_LIKE)
    return raw


@settings(max_examples=200, deadline=None)
@given(_known_key_configs())
def test_config_from_dict_yields_config_or_config_error(raw):
    try:
        cfg = config_from_dict(raw)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)
    assert config_from_dict(config_to_dict(cfg)) == cfg


@settings(max_examples=200, deadline=None)
@given(t_final=st.floats(0.0, 1e308, exclude_min=True),
       dt=st.none() | st.floats(0.0, exclude_min=True, allow_infinity=False),
       stride=st.integers(1, 10 ** 18),
       n_points=st.integers(4, 32768).map(lambda half: 2 * half),
       a3=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
@example(t_final=1e20, dt=None, stride=10, n_points=32, a3=0.5)
@example(t_final=1e308, dt=None, stride=1, n_points=16, a3=0.5)
@example(t_final=0.2, dt=None, stride=10 ** 18, n_points=32, a3=0.5)
@example(t_final=1e14, dt=None, stride=1, n_points=32, a3=0.5)
@example(t_final=1e6, dt=1e-10, stride=1, n_points=32, a3=0.5)
@example(t_final=10.0, dt=None, stride=100, n_points=128, a3=0.5)
def test_resolved_dt_tiles_the_run_or_names_the_key(t_final, dt, stride,
                                                    n_points, a3):
    """A step that tiles [0, t_final] in whole strides, fewer than 2**53 of
    them, and bitwise the old default arithmetic; or a ConfigError naming
    the key at fault, also for a run of MAX_POINT_STEPS or more."""
    cfg = ExperimentConfig(n_points=n_points, coefficients=CoefficientSet(
        a1=1.0, a2=1.0, a3=a3, k=1.0), dt=dt, t_final=t_final, stride=stride)
    want = dt if dt is not None else default_step(t_final, stride, n_points,
                                                  a3)
    count = loader_step_count(t_final, want, stride) if want else None
    try:
        got = cfg.resolved_dt()
    except ConfigError as exc:
        key = "run.dt = " if dt is not None else "run.t_final = "
        assert str(exc).startswith(key)
        assert (count is None or count >= 2 ** 53
                or count * n_points >= MAX_POINT_STEPS)
        return
    assert got == want
    assert step_count(t_final, got, stride) == count < 2 ** 53


@pytest.mark.parametrize("preset, kmax, refused", [
    ("random-smooth", 10, False), ("random-smooth", 11, True),
    # no other preset reads kmax
    ("single-mode", 11, False), ("two-soliton-like", 11, False),
])
def test_initial_kmax_past_the_cutoff_is_refused_where_read(tmp_path, preset,
                                                            kmax, refused):
    raw = base_config_dict(tmp_path)  # 32 points: the cutoff is 10
    raw["initial"] = {"preset": preset, "amplitude": 0.1, "kmax": kmax}
    if not refused:
        assert config_from_dict(raw).initial.kmax == kmax
        return
    with pytest.raises(ConfigError, match=r"^initial\.kmax = 11 > 10, the "
                                          "dealiasing cutoff$"):
        config_from_dict(raw)


class TestInitialPresets:
    def test_single_mode_mean_exactly_zero_at_any_amplitude(self):
        cfg = ExperimentConfig(
            n_points=32, initial=InitialSpec(preset="single-mode",
                                             amplitude=500.0))
        state = build_initial_state(cfg)
        assert state.u.coeffs[0] == 0.0 and state.v.coeffs[0] == 0.0
        assert state.mean_u == 0.0 and state.mean_v == 0.0

    def test_two_soliton_like_carries_nonzero_means(self):
        cfg = ExperimentConfig(
            n_points=128, initial=InitialSpec(preset="two-soliton-like",
                                              amplitude=1.0))
        state = build_initial_state(cfg)
        assert state.u.coeffs[0] == 0.0 and state.v.coeffs[0] == 0.0
        assert state.mean_u > 0.0 and state.mean_v > 0.0

    def test_random_smooth_seeded_and_band_limited(self):
        cfg = ExperimentConfig(
            n_points=64, initial=InitialSpec(preset="random-smooth",
                                             amplitude=0.4, seed=9, kmax=5))
        s1 = build_initial_state(cfg)
        s2 = build_initial_state(cfg)
        assert (s1.u.coeffs == s2.u.coeffs).all()
        assert s1.u.band() <= 5 and s1.v.band() <= 5
        assert abs(s1.u.samples()).max() <= 0.4 + 1e-12


class TestRunCommand:
    def test_run_writes_artifacts_and_passes(self, tmp_path):
        path = write_config(tmp_path, base_config_dict(tmp_path))
        assert cli.main(["run", path]) == 0

        csv_lines = (tmp_path / "diag.csv").read_text().strip().split("\n")
        header = csv_lines[0].split(",")
        assert header == ["t", "energy", "seminorm_sq_0", "seminorm_sq_1",
                          "seminorm_sq_2", "f1", "g1", "f2", "g2", "h2"]
        assert len(csv_lines) == 1 + 6  # t = 0.0, 0.1, ..., 0.5

        summary = json.loads((tmp_path / "summary.json").read_text())
        jsonschema.validate(summary, cli._summary_schema())
        assert summary["status"] == "ok"
        assert summary["command"] == "run"
        assert set(summary["identity_residuals"]) == {
            "L2", "GEN_N(0)", "GEN_N(1)", "GEN_N(2)"}
        assert all(v <= 1e-8 for v in summary["identity_residuals"].values())

        # full-precision cells: the CSV round-trips through float exactly
        first_energy = csv_lines[1].split(",")[1]
        assert first_energy == format(float(first_energy), ".17g")
        assert float(first_energy) == summary["energy"]["initial"]

        svg = ET.parse(tmp_path / "energy.svg").getroot()
        assert svg.tag.endswith("svg")

    def test_run_is_deterministic(self, tmp_path):
        path = write_config(tmp_path, base_config_dict(tmp_path))
        assert cli.main(["run", path]) == 0
        first = (tmp_path / "diag.csv").read_bytes()
        assert cli.main(["run", path]) == 0
        assert (tmp_path / "diag.csv").read_bytes() == first

    def test_zero_initial_data_writes_zero_csv(self, tmp_path):
        raw = base_config_dict(tmp_path)
        raw["initial"]["amplitude"] = 0.0
        path = write_config(tmp_path, raw)
        assert cli.main(["run", path]) == 0
        rows = (tmp_path / "diag.csv").read_text().strip().split("\n")[1:]
        for row in rows:
            cells = [float(x) for x in row.split(",")]
            assert all(v == 0.0 for v in cells[1:])
        assert not (tmp_path / "energy.svg").exists()

    def test_failed_fits_are_named_in_failures(self, tmp_path):
        # the fits are information, not a gate: still status ok and exit 0
        raw = base_config_dict(tmp_path)
        raw["initial"]["amplitude"] = 0.0
        path = write_config(tmp_path, raw)
        assert cli.main(["run", path]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        jsonschema.validate(summary, cli._summary_schema())
        assert summary["status"] == "ok" and summary["decay_fits"] == []
        assert [f.partition(":")[0] for f in summary["failures"]] == [
            "energy", "seminorm_sq_1", "seminorm_sq_2"]
        assert all("fit failed (" in f for f in summary["failures"])

    def test_sparse_fit_window_is_named_in_failures(self, tmp_path):
        # the window overlaps the run but holds one observation, t = 0.5
        raw = base_config_dict(tmp_path, fit_window=[0.45, 10.0])
        assert cli.main(["run", write_config(tmp_path, raw)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status"] == "ok" and summary["decay_fits"] == []
        assert [f.partition(":")[0] for f in summary["failures"]] == [
            "energy", "seminorm_sq_1", "seminorm_sq_2"]
        assert all("fewer than 3" in f for f in summary["failures"])

    def test_invalid_coefficients_exit_2(self, tmp_path, capsys):
        raw = base_config_dict(tmp_path)
        raw["coefficients"]["a3"] = 1.0
        path = write_config(tmp_path, raw)
        assert cli.main(["run", path]) == 2
        assert "a3_magnitude" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "nope.yaml")]) == 2

    def test_unparsable_yaml_exit_2(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("grid: [unbalanced")
        assert cli.main(["run", str(path)]) == 2

    def test_indivisible_dt_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config_dict(tmp_path, dt=0.3))
        assert cli.main(["run", path]) == 2
        assert "divide" in capsys.readouterr().err

    def test_blow_up_exit_3(self, tmp_path, capsys):
        raw = base_config_dict(tmp_path, dt=10.0, t_final=100.0, stride=1)
        raw["initial"]["amplitude"] = 500.0
        raw["checks"] = []
        path = write_config(tmp_path, raw)
        assert cli.main(["run", path]) == 3
        assert "blow-up" in capsys.readouterr().err
        summary = json.loads((tmp_path / "summary.json").read_text())
        jsonschema.validate(summary, cli._summary_schema())
        assert summary["status"] == "blow_up"
        assert 0.0 < summary["blow_up_time"] <= 100.0

    def test_identity_failure_exit_4(self, tmp_path, monkeypatch, capsys):
        def broken_l2(calc):
            return IdentityReport(identity_id="L2", lhs=1.0, rhs=0.0,
                                  terms={"x": 0.0}, normalizer=1.0,
                                  relative_residual=1.0)
        monkeypatch.setattr(verification, "residual_l2", broken_l2)
        path = write_config(tmp_path, base_config_dict(tmp_path))
        assert cli.main(["run", path]) == 4
        assert "L2" in capsys.readouterr().err
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status"] == "identity_failure"

    def test_residuals_are_the_run_maxima_of_defect_and_normalizer(self):
        # the old route: per tracked identity, the max over the observed
        # states of |lhs - rhs| and of the normalizer, each state observed
        # alone
        cfg = replace(load_config(str(ROOT / "configs/decay.yaml")),
                      t_final=0.2, stride=10)
        p = cli._prepare(cfg, True)
        ids = identities.check_identities(cfg.checks, cfg.n_max, p.c)[0]
        states = []
        evolve([p.state], [p.c], cfg.t_final, p.dt, stride=cfg.stride,
               observer=per_state(lambda i, st: states.append(st) or {}))
        reports = [observe_one(st, p.c, ids, cfg.n_max)[1] for st in states]
        got = cli.run_experiment([p])[0].residuals
        assert len(states) == 11 and list(got) == ids
        for i in ids:
            defect = float(np.max([abs(r[i].lhs - r[i].rhs) for r in reports]))
            norm = float(np.max([r[i].normalizer for r in reports]))
            assert got[i].hex() == (defect / max(norm, 1e-30)).hex(), i

    @staticmethod
    def _run_at(tmp_path, amplitude):
        """`gg run` of one configuration at the given initial amplitude."""
        raw = base_config_dict(tmp_path)
        raw["coefficients"]["k"] = 0.5
        raw["initial"] = {"preset": "random-smooth", "amplitude": amplitude,
                          "seed": 7, "kmax": 8}
        return cli.main(["run", write_config(tmp_path, raw)])

    def test_a_skipped_plot_removes_the_earlier_one(self, tmp_path, capsys):
        svg = tmp_path / "energy.svg"
        assert self._run_at(tmp_path, 0.5) == 0 and svg.exists()
        capsys.readouterr()
        assert self._run_at(tmp_path, 0.0) == 0
        assert not svg.exists()
        out = capsys.readouterr().out
        assert f"removed {svg}" in out
        assert f"wrote {tmp_path / 'diag.csv'}" in out

    def test_a_blow_up_removes_the_earlier_csv_and_plot(self, tmp_path,
                                                        capsys):
        assert self._run_at(tmp_path, 0.5) == 0
        capsys.readouterr()
        assert self._run_at(tmp_path, 300.0) == 3
        out = capsys.readouterr().out
        for name in ("diag.csv", "energy.svg"):
            assert not (tmp_path / name).exists()
            assert f"removed {tmp_path / name}" in out
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status"] == "blow_up"
        assert summary["blow_up_time"] == pytest.approx(0.03)

    @pytest.mark.parametrize("mean", [{"mean_u": 0.2}, {"mean_v": -0.1}])
    def test_nonzero_initial_mean_skips_h1_and_h2(self, tmp_path, mean):
        raw = base_config_dict(tmp_path)
        raw["initial"].update(mean)
        raw["checks"] = ["L2", "GEN_N", "H1", "H2"]
        assert cli.main(["run", write_config(tmp_path, raw)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status"] == "ok"
        assert list(summary["identity_residuals"]) == [
            "L2", "GEN_N(0)", "GEN_N(1)", "GEN_N(2)"]
        assert summary["failures"] == [
            f"{name}: skipped (identities require zero-mean data)"
            for name in ("H1", "H2")]

    def test_nonzero_mean_run_skips_h_batteries(self, tmp_path):
        raw = base_config_dict(tmp_path)
        raw["initial"] = {"preset": "two-soliton-like", "amplitude": 0.5}
        raw["checks"] = ["L2", "GEN_N", "H1", "H2"]
        path = write_config(tmp_path, raw)
        assert cli.main(["run", path]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary["identity_residuals"]) == {
            "L2", "GEN_N(0)", "GEN_N(1)", "GEN_N(2)"}
        assert any("H1" in f for f in summary["failures"])


class TestVerifyCommand:
    def test_small_battery_passes(self, tmp_path, capsys):
        raw = base_config_dict(tmp_path)
        raw["checks"] = ["L2", "GEN_N", "H1", "H2", "POINCARE",
                         "PRODUCT_BOUND", "DECAY"]
        raw["initial"]["amplitude"] = 1e-5  # linear regime for the decay fit
        path = write_config(tmp_path, raw)
        assert cli.main(["verify", path]) == 0
        out = capsys.readouterr().out
        assert "PASS  L2" in out and "PASS  DECAY" in out
        summary = json.loads((tmp_path / "summary.json").read_text())
        jsonschema.validate(summary, cli._summary_schema())
        assert summary["status"] == "ok"
        assert summary["failures"] == []

    def test_check_list_filters_reports(self, tmp_path):
        raw = base_config_dict(tmp_path)
        raw["checks"] = ["L2"]
        path = write_config(tmp_path, raw)
        assert cli.main(["verify", path]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert [c["check_id"] for c in summary["checks"]] == ["L2"]

    def test_invalid_coefficients_exit_2(self, tmp_path, capsys):
        raw = base_config_dict(tmp_path)
        raw["coefficients"] = {"a1": 1.0, "a2": 1.0, "a3": 0.5, "k": 0.0}
        path = write_config(tmp_path, raw)
        assert cli.main(["verify", path]) == 2
        assert "k_positive" in capsys.readouterr().err

    def test_refused_default_dt_exits_2_before_any_battery(self, tmp_path,
                                                           monkeypatch,
                                                           capsys):
        for battery in ("observe_states", "check_poincare_holder",
                        "product_bound_violations"):
            monkeypatch.setattr(cli, battery, pytest.fail)
        raw = base_config_dict(tmp_path)
        raw["run"] = {"t_final": 1e308}  # no dt: the default rule picks it
        raw["checks"] = ["L2", "H2", "POINCARE", "PRODUCT_BOUND", "DECAY"]
        assert cli.main(["verify", write_config(tmp_path, raw)]) == 2
        err = capsys.readouterr().err
        assert ("run.t_final = 1e+308 is too long for the default dt: its "
                "step count overflows") in err
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == ["config.yaml"]

    def test_a_failed_decay_fit_fails_the_check(self, tmp_path, capsys):
        raw = base_config_dict(tmp_path)
        raw["initial"]["amplitude"] = 0.0  # zero energy: no rate to fit
        raw["checks"] = ["L2", "DECAY"]
        assert cli.main(["verify", write_config(tmp_path, raw)]) == 4
        assert "FAIL  DECAY" in capsys.readouterr().out
        summary = load_finite_json(tmp_path / "summary.json")
        jsonschema.validate(summary, cli._summary_schema())
        decay, = [c for c in summary["checks"] if c["check_id"] == "DECAY"]
        assert decay["value"] is None and not decay["passed"]
        assert decay["detail"].startswith("fit failed: ")
        assert summary["failures"] == ["DECAY"]
        assert summary["decay_fits"] == []

    H_CHECKS = ["L2", "GEN_N", "H1", "H2"]

    @pytest.mark.parametrize("n_points, kmax, checks, code", [
        # the cubic identities are exact only while 2 kmax <= the cutoff
        (16, 2, H_CHECKS, 0), (16, 3, H_CHECKS, 2),
        (32, 5, H_CHECKS, 0), (32, 6, H_CHECKS, 2),
        (32, 6, ["H2"], 2),
        # without H1 and H2 the seeded band may fill the cutoff, not pass it
        (16, 5, ["L2", "GEN_N", "POINCARE", "PRODUCT_BOUND"], 0),
        (16, 6, ["L2", "GEN_N", "POINCARE", "PRODUCT_BOUND"], 2),
    ])
    def test_seeded_band_is_refused_past_the_exact_range(
            self, tmp_path, capsys, monkeypatch, n_points, kmax, checks,
            code):
        if code == 2:
            monkeypatch.setattr(cli, "random_smooth_state", pytest.fail)
        raw = base_config_dict(tmp_path)
        raw["grid"]["n_points"] = n_points
        raw["verify"]["kmax"] = kmax
        raw["checks"] = checks
        assert cli.main(["verify", write_config(tmp_path, raw)]) == code
        if code == 2:
            cutoff = n_points // 3
            limit = cutoff // 2 if {"H1", "H2"} & set(checks) else cutoff
            assert (f"verify.kmax = {kmax} > {limit}: dealiasing cutoff "
                    f"{cutoff} (halved for H1, H2)"
                    in capsys.readouterr().err)
            assert os.listdir(tmp_path) == ["config.yaml"]

    def test_gg_run_does_not_read_the_verify_band(self, tmp_path):
        # the benchmark's smoke test runs decay.yaml at 32 points with the
        # default verify.kmax of 8: gg verify refuses it, gg run does not
        raw = base_config_dict(tmp_path)
        raw["verify"]["kmax"] = 8
        raw["checks"] = self.H_CHECKS
        path = write_config(tmp_path, raw)
        assert cli.main(["verify", path]) == 2
        assert cli.main(["run", path]) == 0

    @pytest.mark.parametrize("key, check", [
        ("n_states", "L2"), ("poincare_fields", "POINCARE"),
        ("product_fields", "PRODUCT_BOUND")])
    def test_a_battery_past_its_bound_exits_2_at_once(
            self, tmp_path, capsys, monkeypatch, key, check):
        # 1e12 states of 8 points used to be built in one list, without end
        for name in ("observe_states", "check_poincare_holder",
                     "product_bound_violations", "random_smooth_state",
                     "random_smooth_field"):
            monkeypatch.setattr(cli, name, pytest.fail)
        raw = base_config_dict(tmp_path)
        raw["grid"]["n_points"] = 8
        raw["checks"] = [check]
        raw["verify"].update({"kmax": 2, key: 10 ** 12})
        start = time.perf_counter()
        assert cli.main(["verify", write_config(tmp_path, raw)]) == 2
        assert time.perf_counter() - start < 1.0
        assert (f"verify.{key} = 1000000000000 on grid.n_points = 8 takes "
                f"8e+12 field-points; a battery takes fewer than 1e+07"
                in capsys.readouterr().err)
        assert os.listdir(tmp_path) == ["config.yaml"]

    def test_a_battery_not_asked_for_is_not_bounded(self, tmp_path):
        raw = base_config_dict(tmp_path)
        raw["checks"] = ["L2"]
        raw["verify"].update(poincare_fields=10 ** 12,
                             product_fields=10 ** 12)
        assert cli.main(["verify", write_config(tmp_path, raw)]) == 0

    def test_one_run_section_rule(self, tmp_path, capsys):
        # verify marches only for DECAY: it resolves neither step below,
        # while gg run refuses both by the work bound
        for run, named in (({"t_final": 1.0e12, "dt": 1.0e-3}, "run.dt"),
                           ({"t_final": 1.0e13}, "run.t_final")):
            raw = base_config_dict(tmp_path)
            raw["run"], raw["checks"] = run, ["L2"]
            path = write_config(tmp_path, raw)
            assert cli.main(["run", path]) == 2
            err = capsys.readouterr().err
            assert named in err and "a run takes fewer than 1e+12" in err
            assert cli.main(["verify", path]) == 0
            os.remove(tmp_path / "summary.json")

    def test_failed_check_exit_4_names_identity(self, tmp_path, monkeypatch,
                                                capsys):
        def broken_l2(calc):
            return IdentityReport(identity_id="L2", lhs=1.0, rhs=0.0,
                                  terms={"x": 0.0}, normalizer=1.0,
                                  relative_residual=1.0)
        monkeypatch.setattr(verification, "residual_l2", broken_l2)
        raw = base_config_dict(tmp_path)
        raw["checks"] = ["L2"]
        path = write_config(tmp_path, raw)
        assert cli.main(["verify", path]) == 4
        captured = capsys.readouterr()
        assert "FAIL  L2" in captured.out
        assert "L2" in captured.err
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status"] == "check_failure"
        assert summary["failures"] == ["L2"]


class TestSweepCommand:
    def sweep_config(self, tmp_path):
        raw = base_config_dict(tmp_path, dt=0.01, t_final=2.0, stride=20)
        raw["initial"]["amplitude"] = 1e-6
        raw["checks"] = ["L2"]
        return write_config(tmp_path, raw)

    def test_rates_track_k(self, tmp_path):
        path = self.sweep_config(tmp_path)
        assert cli.main(["sweep", path, "--axis", "k=0.25,0.5,1.0"]) == 0
        lines = (tmp_path / "diag.csv").read_text().strip().split("\n")
        assert lines[0] == "k,fitted_rate,target_rate,r_squared,status"
        ks, rates = [], []
        for line in lines[1:]:
            cells = line.split(",")
            ks.append(float(cells[0]))
            rates.append(float(cells[1]))
            assert cells[4] == "ok"
        assert ks == [0.25, 0.5, 1.0]
        for k, rate in zip(ks, rates):
            assert rate == pytest.approx(-2.0 * k, abs=1e-3)
        summary = json.loads((tmp_path / "summary.json").read_text())
        jsonschema.validate(summary, cli._summary_schema())
        assert summary["status"] == "ok"
        assert len(summary["points"]) == 3

    def test_two_axes_cartesian_product(self, tmp_path):
        path = self.sweep_config(tmp_path)
        assert cli.main(["sweep", path, "--axis", "k=0.5,1.0",
                         "--axis", "a3=0.0,0.5"]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        points = [p["point"] for p in summary["points"]]
        assert points == [{"k": 0.5, "a3": 0.0}, {"k": 0.5, "a3": 0.5},
                          {"k": 1.0, "a3": 0.0}, {"k": 1.0, "a3": 0.5}]
        # The decay rate is set by the damping k, not by the coupling a3.
        for p in summary["points"]:
            assert p["fitted_rate"] == pytest.approx(-2.0 * p["point"]["k"],
                                                     abs=1e-3)

    def test_a_window_within_rounding_fails_its_fit(self, tmp_path, capsys):
        # 30 steps of 6e-180 move no observed value by more than rounding:
        # the window holds no rate, so the row fails its fit
        raw = yaml.safe_load((ROOT / "configs/decay.yaml").read_text())
        raw["grid"]["n_points"] = 32
        raw["run"] = {"dt": 6e-180, "t_final": 1.8e-178, "stride": 3}
        for command in ("sweep", "run", "verify"):
            raw["output"] = {"csv": str(tmp_path / f"{command}.csv"),
                             "summary": str(tmp_path / f"{command}.json")}
            raw["checks"] = ["DECAY"] if command == "verify" else ["L2"]
            write_config(tmp_path, raw, f"{command}.yaml")
        code, _ = gg_quietly(capsys, "sweep", str(tmp_path / "sweep.yaml"),
                             "--axis", "k=0.5")
        assert code == 4
        row, = load_finite_json(tmp_path / "sweep.json")["points"]
        assert row["status"] == "fit_failed" and row["fitted_rate"] is None
        # the fits are information to `gg run`: named, and still exit 0
        assert gg_quietly(capsys, "run", str(tmp_path / "run.yaml"))[0] == 0
        summary = load_finite_json(tmp_path / "run.json")
        assert summary["decay_fits"] == []
        assert [f.partition(":")[0] for f in summary["failures"]] == [
            "energy", *(f"seminorm_sq_{n}" for n in range(1, 5))]
        assert all("leaves no resolved fit" in f for f in summary["failures"])
        code, _ = gg_quietly(capsys, "verify", str(tmp_path / "verify.yaml"))
        assert code == 4
        decay, = load_finite_json(tmp_path / "verify.json")["checks"]
        assert not decay["passed"] and "no resolved fit" in decay["detail"]

    def test_a_failed_fit_names_its_reason_on_stderr(self, tmp_path, capsys):
        # at k = 10 the energy falls past resolution before the fit window
        # (2, 4) opens: the point fails its fit, and stderr says why
        path = tiny_config(tmp_path, "sweep_linear.yaml", 64)
        code, err = gg_quietly(capsys, "sweep", path, "--axis", "k=10")
        assert code == 4
        assert err.splitlines() == [
            "decay fit failed at sweep points [{'k': 10.0}]",
            "{'k': 10.0}: fit failed: window (2.0, 4.0) leaves fewer than "
            "3 usable points"]

    def test_empty_axis_exit_2(self, tmp_path, capsys):
        path = self.sweep_config(tmp_path)
        assert cli.main(["sweep", path]) == 2
        assert "empty sweep" in capsys.readouterr().err

    def test_malformed_axis_exit_2(self, tmp_path):
        path = self.sweep_config(tmp_path)
        assert cli.main(["sweep", path, "--axis", "k="]) == 2
        assert cli.main(["sweep", path, "--axis", "k=a,b"]) == 2

    def test_points_past_the_work_bound_together_exit_2(self, tmp_path,
                                                        capsys, monkeypatch):
        # each point takes 2e10 steps of 32 points, 6.4e11: within the
        # bound alone, past it together
        monkeypatch.setattr(cli, "evolve", pytest.fail)
        raw = base_config_dict(tmp_path, dt=1e-3, t_final=2e7, stride=1)
        assert config_from_dict(raw).resolved_dt() == 1e-3
        path = write_config(tmp_path, raw)
        assert cli.main(["sweep", path, "--axis", "k=0.5,1.0"]) == 2
        assert ("the --axis points take 1.28e+12 point-steps; a sweep takes "
                "fewer than 1e+12") in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["config.yaml"]

    def test_the_work_bound_holds_before_any_point_is_built(
            self, tmp_path, capsys, monkeypatch):
        # the work is read from each point's gate and dt alone: a sweep
        # past the bound builds no initial state and prepares no point
        def refuse(*args):
            pytest.fail("a point was built before the work bound held")
        monkeypatch.setattr(cli, "build_initial_state", refuse)
        monkeypatch.setattr(cli, "_prepare", refuse)
        raw = base_config_dict(tmp_path, dt=1e-3, t_final=2e7, stride=1)
        path = write_config(tmp_path, raw)
        assert cli.main(["sweep", path, "--axis", "k=0.5,1.0"]) == 2
        assert ("the --axis points take 1.28e+12 point-steps; a sweep takes "
                "fewer than 1e+12") in capsys.readouterr().err

    def test_invalid_point_exit_2(self, tmp_path, capsys):
        path = self.sweep_config(tmp_path)
        assert cli.main(["sweep", path, "--axis", "k=0.5,0.0"]) == 2
        assert "k_positive" in capsys.readouterr().err

    @pytest.fixture
    def ensemble_sizes(self, monkeypatch):
        """Member counts of each evolve call the CLI makes."""
        sizes = []
        evolve = cli.evolve

        def counting_evolve(states, *args, **kwargs):
            sizes.append(len(states))
            return evolve(states, *args, **kwargs)
        monkeypatch.setattr(cli, "evolve", counting_evolve)
        return sizes

    def sweep_rows(self, tmp_path, raw, axis):
        """(CSV data rows, exit code) of one sweep."""
        code = cli.main(["sweep", write_config(tmp_path, raw), "--axis", axis])
        return (tmp_path / "diag.csv").read_text().split("\n")[1:-1], code

    def test_blow_up_point_leaves_other_rows_unchanged(self, tmp_path,
                                                       ensemble_sizes):
        raw = base_config_dict(tmp_path, dt=0.01, t_final=2.0, stride=20)
        rows, code = self.sweep_rows(tmp_path, raw, "amplitude=0.1,500,0.2")
        assert code == 3  # after every point has run
        assert ensemble_sizes == [3]  # an explicit dt: one ensemble
        assert rows[1].endswith(",blow_up")
        for value, row in (("0.1", rows[0]), ("0.2", rows[2])):
            alone, alone_code = self.sweep_rows(tmp_path, raw,
                                                f"amplitude={value}")
            assert alone_code == 0
            assert alone == [row]

    def test_default_dt_groups_match_lone_points(self, tmp_path,
                                                 ensemble_sizes):
        # the default dt depends on |a3|: a3 = +-0.5 share one ensemble
        raw = base_config_dict(tmp_path, t_final=0.5, stride=10)
        del raw["run"]["dt"]
        rows, code = self.sweep_rows(tmp_path, raw, "a3=0.25,0.5,-0.5")
        assert code == 0
        assert ensemble_sizes == [1, 2]
        for value, row in zip(("0.25", "0.5", "-0.5"), rows):
            alone, alone_code = self.sweep_rows(tmp_path, raw, f"a3={value}")
            assert alone_code == 0
            assert alone == [row]

    def test_a_sweep_past_eight_points_at_128_matches_lone_points(
            self, tmp_path, ensemble_sizes):
        # 12 members at 128 points
        raw = base_config_dict(tmp_path, dt=0.01, t_final=0.5, stride=10)
        raw["grid"]["n_points"] = 128
        raw["initial"] = {"preset": "random-smooth", "amplitude": 0.5,
                          "seed": 7}
        ks = [str(0.25 * i) for i in range(1, 13)]
        rows, code = self.sweep_rows(tmp_path, raw, "k=" + ",".join(ks))
        assert code == 0
        assert ensemble_sizes == [12]
        for k, row in zip(ks, rows):
            alone, alone_code = self.sweep_rows(tmp_path, raw, f"k={k}")
            assert alone_code == 0
            assert alone == [row]


class TestRouteOracle:
    """`gg run configs/decay.yaml` at 128 points on the FFT route, against
    the same run by the 128-point matmul flux of `step_reference`, which
    the test binds into the march on both branches."""

    # The routes agree to round-off: measured, every column within 1.6e-15
    # of its largest magnitude and every fitted rate within 4.4e-16
    # relative.
    COLUMN_TOL = 1e-13
    RATE_RTOL = 1e-12

    @staticmethod
    def run_decay(directory, monkeypatch, matmul):
        """The routes the march's fluxes took, the CSV columns and the decay
        fits of `gg run configs/decay.yaml`, by the matmul flux if
        `matmul`."""
        routes = []

        def recorded(grid, mix, *pairs):
            routes.append("matmul" if matmul else "fft")
            # the matmul flux transforms both branches
            return (step_reference.bind_matmul_flux if matmul
                    else model._bind_flux)(grid, mix, *pairs)
        directory.mkdir()
        with monkeypatch.context() as patch:
            patch.setattr(integrator, "_bind_flux", recorded)
            assert cli.main(
                ["run", tiny_config(directory, "decay.yaml", 128)]) == 0
        with open(directory / "decay.csv", newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        columns = dict(zip(header, np.array(rows, dtype=float).T))
        summary = json.loads((directory / "decay.json").read_text("utf-8"))
        return routes, columns, summary["decay_fits"]

    def test_fft_route_matches_the_matmul_route_within_bound(
            self, tmp_path, monkeypatch):
        routes, got, got_fits = self.run_decay(
            tmp_path / "fft", monkeypatch, False)
        oracle, want, want_fits = self.run_decay(
            tmp_path / "matmul", monkeypatch, True)
        assert (routes, oracle) == (["fft"], ["matmul"])
        assert list(got) == list(want)
        assert len(got["t"]) == 51
        for name, column in want.items():
            assert (np.max(np.abs(got[name] - column))
                    <= self.COLUMN_TOL * np.max(np.abs(column))), name
        assert want_fits
        assert ([f["quantity_id"] for f in got_fits]
                == [f["quantity_id"] for f in want_fits])
        for fit, oracle_fit in zip(got_fits, want_fits):
            assert (abs(fit["fitted_rate"] - oracle_fit["fitted_rate"])
                    <= self.RATE_RTOL * abs(oracle_fit["fitted_rate"]))


def _broken_l2(calc):
    return IdentityReport(identity_id="L2", lhs=1.0, rhs=0.0,
                          terms={"x": 0.0}, normalizer=1.0,
                          relative_residual=1.0)


COMMAND_ARGS = {"run": [], "verify": [], "sweep": ["--axis", "k=0.5"]}


def gg(command, path, *extra):
    return cli.main([command, path, *COMMAND_ARGS[command], *extra])


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
class TestExitCodes:
    """One meaning per exit code in every subcommand: 2 for a bad config or
    coefficient set (named on stderr, no traceback), 3 for a blow-up, 4 for a
    check that ran and failed."""

    @pytest.mark.parametrize("section, key, value, named", [
        ("run", "dt", "abc", "run.dt"),
        ("coefficients", "a1", "abc", "coefficients.a1"),
        ("run", "fit_window", "abc", "run.fit_window"),
        ("run", "t_final", math.inf, "run.t_final"),
        ("coefficients", "a1", math.nan, "coefficients.a1"),
        ("run", "stride", 2.5, "run.stride"),
        ("run", "n_max", 2.7, "run.n_max"),
        ("verify", "n_states", 0, "verify.n_states"),
        ("initial", "kmax", -3, "initial.kmax"),
        ("verify", "poincare_fields", -1, "verify.poincare_fields"),
        ("run", "dt", 0.3, "does not divide"),
        ("run", "dt", 5e-17, "run.dt"),  # 1e16 steps: a march never ending
        ("coefficients", "a3", 1.0, "a3_magnitude"),
        ("grid", "n_points", 1e30, "grid.n_points"),
        ("run", "fit_window", [5.0, 10.0], "run.fit_window"),
        ("run", "fit_window", [-1.0, 0.0], "run.fit_window"),
    ])
    def test_bad_config_exit_2(self, tmp_path, capsys, command, section, key,
                               value, named):
        raw = base_config_dict(tmp_path)
        raw[section][key] = value
        if command == "verify":  # it resolves the step for DECAY alone
            raw["checks"] = ["L2", "GEN_N", "DECAY"]
        assert gg(command, write_config(tmp_path, raw)) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("n_points, run", [
        (16, {"t_final": 1e308}),  # the ratio overflows
        (32, {"t_final": 1e20, "stride": 10}),  # 3.8e22 steps
        # counts past 2**53 that the old tiling test accepted: marches
        # that never ended
        (32, {"t_final": 0.2, "stride": 10 ** 18}),  # 1e18 steps
        (32, {"t_final": 1e14, "stride": 1}),  # 3.8e16 steps
    ], ids=["1e308", "1e20", "stride-1e18", "t_final-1e14"])
    def test_default_dt_step_count_overflow_exit_2(self, tmp_path, capsys,
                                                   command, n_points, run):
        raw = base_config_dict(tmp_path)
        raw["grid"]["n_points"] = n_points
        raw["run"] = run  # no dt: the default rule picks it
        raw["checks"] = ["L2", "DECAY"]
        assert gg(command, write_config(tmp_path, raw)) == 2
        err = capsys.readouterr().err
        assert "run.t_final" in err and "Traceback" not in err
        assert os.listdir(tmp_path) == ["config.yaml"]

    @pytest.mark.parametrize("run, named, not_named", [
        # dt divides t_final exactly, into 1e16 steps
        ({"dt": 1e-10, "t_final": 1e6, "stride": 1},
         "run.dt = 1e-10 over run.t_final = 1000000.0 takes 1e+16 steps",
         "does not divide"),
        # the stride, not t_final, sets the count of the default dt
        ({"t_final": 0.2, "stride": 10 ** 18},
         "in strides of run.stride = 1000000000000000000 with the default "
         "dt takes 1e+18 steps", "too long"),
    ], ids=["dt", "stride"])
    def test_a_count_past_2_53_names_its_cause(self, tmp_path, capsys,
                                               command, run, named,
                                               not_named):
        raw = base_config_dict(tmp_path)
        raw["run"] = run
        raw["checks"] = ["L2", "DECAY"]
        assert gg(command, write_config(tmp_path, raw)) == 2
        err = capsys.readouterr().err
        assert named in err and "fewer than 2**53" in err
        assert not_named not in err and "Traceback" not in err
        assert os.listdir(tmp_path) == ["config.yaml"]

    @pytest.mark.parametrize("run, named", [
        # fewer than 2**53 steps: before the bound, marches that never ended
        ({"t_final": 1e13, "stride": 1}, "run.t_final = 10000000000000.0 "
         "with the default dt takes 3.77e+15 steps"),
        ({"t_final": 1e12, "dt": 1e-3, "stride": 1}, "run.dt = 0.001 over "
         "run.t_final = 1000000000000.0 takes 1e+15 steps"),
    ], ids=["default-dt", "explicit-dt"])
    def test_a_run_past_the_work_bound_exits_2_at_once(
            self, tmp_path, capsys, monkeypatch, command, run, named):
        for name in ("evolve", "observe_states", "random_smooth_state"):
            monkeypatch.setattr(cli, name, pytest.fail)
        raw = yaml.safe_load((ROOT / "configs/decay.yaml").read_text())
        raw["grid"]["n_points"] = 32
        raw["run"] = run
        raw["checks"] = ["L2", "DECAY"]
        raw["output"] = {key: str(tmp_path / os.path.basename(path))
                         for key, path in raw["output"].items()}
        path = write_config(tmp_path, raw)
        start = time.perf_counter()
        assert gg(command, path) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert (f"{named}; a run takes fewer than 1e+12 steps x "
                "grid.n_points (32)") in err
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == ["config.yaml"]

    def test_a_stride_past_the_floats_exit_2(self, tmp_path, capsys,
                                             command):
        # the default step divides t_final by a count of whole strides,
        # which no float can hold
        raw = base_config_dict(tmp_path)
        raw["run"] = {"t_final": 0.2, "stride": 10 ** 400}
        raw["checks"] = ["L2", "DECAY"]
        assert gg(command, write_config(tmp_path, raw)) == 2
        err = capsys.readouterr().err
        assert "run.stride must be a finite number" in err
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == ["config.yaml"]

    def test_coefficient_gate_precedes_the_default_dt(self, tmp_path,
                                                      capsys, command):
        # the default step of a3 = 1e300 would take 5e301 steps: the gate
        # names a3 before the step is resolved
        raw = base_config_dict(tmp_path)
        raw["coefficients"]["a3"] = 1e300
        raw["run"] = {"t_final": 0.2, "stride": 10}
        raw["checks"] = ["L2", "DECAY"]
        assert gg(command, write_config(tmp_path, raw)) == 2
        err = capsys.readouterr().err
        assert "a3_magnitude" in err and "run.t_final" not in err
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == ["config.yaml"]

    @pytest.mark.parametrize("text, key, line", [
        ("run: {t_final: 1.0}\ngrid: {n_points: 16}\nrun: {t_final: 0.2}\n",
         "'run'", 3),
        ("grid: {n_points: 16}\ncoefficients:\n  k: 1.0\n  a3: 0.5\n"
         "  k: 2.0\n", "'k'", 5),
    ], ids=["top-level", "nested"])
    def test_duplicate_yaml_key_exit_2(self, tmp_path, capsys, command, text,
                                       key, line):
        path = tmp_path / "dup.yaml"
        path.write_text(text)
        assert gg(command, str(path)) == 2
        err = capsys.readouterr().err
        assert f"found duplicate key {key}" in err and f"line {line}," in err
        assert "could not parse" in err and "Traceback" not in err

    @pytest.mark.parametrize("other", ["summary", "plot"])
    def test_outputs_naming_one_file_exit_2(self, tmp_path, capsys, command,
                                            other):
        raw = base_config_dict(tmp_path)
        raw["output"][other] = os.path.join(str(tmp_path), ".", "diag.csv")
        assert gg(command, write_config(tmp_path, raw)) == 2
        err = capsys.readouterr().err
        assert "output.csv" in err and f"output.{other}" in err
        assert os.listdir(tmp_path) == ["config.yaml"]

    @pytest.mark.parametrize("case", ["empty", "nul byte", "trailing slash",
                                      "directory", "below a file",
                                      "through a file"])
    @pytest.mark.parametrize("key", ["csv", "summary", "plot"])
    def test_unwritable_output_path_exit_2_before_anything_runs(
            self, tmp_path, capsys, monkeypatch, command, key, case):
        def no_march(*args, **kwargs):
            raise AssertionError("evolve was called")

        monkeypatch.setattr(cli, "evolve", no_march)
        (tmp_path / "taken").mkdir()
        (tmp_path / "plain").write_text("kept")
        raw = base_config_dict(tmp_path)
        raw["output"][key] = {"empty": "", "nul byte": "a\0b",
                              "trailing slash": str(tmp_path / "fresh") + "/",
                              "directory": str(tmp_path / "taken"),
                              "below a file": str(tmp_path / "plain" / "x"),
                              "through a file": os.path.join(
                                  str(tmp_path), "plain", "..", "x")}[case]
        assert gg(command, write_config(tmp_path, raw)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no PASS line, no `wrote <path>`
        assert f"output.{key}" in captured.err
        assert "Traceback" not in captured.err
        assert sorted(os.listdir(tmp_path)) == ["config.yaml", "plain",
                                                "taken"]
        assert os.listdir(tmp_path / "taken") == []
        assert (tmp_path / "plain").read_text() == "kept"

    def test_missing_config_exit_2(self, tmp_path, capsys, command):
        assert gg(command, str(tmp_path / "nope.yaml")) == 2
        assert "nope.yaml" in capsys.readouterr().err

    def test_blow_up(self, tmp_path, capsys, command):
        raw = base_config_dict(tmp_path, dt=10.0, t_final=100.0, stride=1)
        raw["initial"]["amplitude"] = 500.0
        raw["checks"] = ["DECAY"] if command == "verify" else []
        path = write_config(tmp_path, raw)
        code = gg(command, path)
        captured = capsys.readouterr()
        summary = json.loads((tmp_path / "summary.json").read_text())
        jsonschema.validate(summary, cli._summary_schema())
        assert code == cli.EXIT_CODES[summary["status"]]
        assert f"wrote {tmp_path / 'summary.json'}" in captured.out
        if command == "verify":  # a blow-up inside a check fails the check
            assert code == 4
            assert "FAIL  DECAY" in captured.out
            assert "blow-up" in summary["checks"][0]["detail"]
        else:
            assert code == 3
            assert "blow-up" in captured.err
            assert summary["status"] == "blow_up"

    def test_failed_check_exit_4(self, tmp_path, monkeypatch, capsys,
                                 command):
        raw = base_config_dict(tmp_path)
        if command == "sweep":
            raw["initial"]["amplitude"] = 0.0  # no energy to fit a rate to
        else:
            monkeypatch.setattr(verification, "residual_l2", _broken_l2)
        code = gg(command, write_config(tmp_path, raw))
        assert code == 4
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert code == cli.EXIT_CODES[summary["status"]]
        err = capsys.readouterr().err
        assert ("L2" in err if command != "sweep" else "fit failed" in err)
        assert "Traceback" not in err


class TestSweepAxisValues:
    @pytest.mark.parametrize("axis, named", [
        ("a1=nan", "sweep axis a1"),
        ("k=inf", "sweep axis k"),
        ("amplitude=nan", "sweep axis amplitude"),
        ("k=0.5,-inf", "sweep axis k"),
    ])
    def test_non_finite_axis_exit_2(self, tmp_path, capsys, axis, named):
        path = write_config(tmp_path, base_config_dict(tmp_path))
        assert cli.main(["sweep", path, "--axis", axis]) == 2
        err = capsys.readouterr().err
        assert named in err and "finite" in err
        assert not (tmp_path / "diag.csv").exists()

    def test_repeated_axis_exit_2_before_any_point(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config_dict(tmp_path))
        assert cli.main(["sweep", path, "--axis", "k=0.25",
                         "--axis", "k=1.0"]) == 2
        assert "sweep axis k given twice" in capsys.readouterr().err
        assert not (tmp_path / "diag.csv").exists()

    def test_inadmissible_base_exit_2_before_any_point(self, tmp_path,
                                                       capsys):
        # the summary reports the base set, so it must pass the gate too
        raw = base_config_dict(tmp_path)
        raw["coefficients"]["k"] = 0.0
        path = write_config(tmp_path, raw)
        assert cli.main(["sweep", path, "--axis", "k=0.5"]) == 2
        assert "k_positive" in capsys.readouterr().err
        assert not (tmp_path / "diag.csv").exists()


class TestHugeCoefficients:
    """Coefficient sets whose squares overflow a float: refused by name."""

    @pytest.mark.parametrize("command, coefficients, axis, named", [
        ("run", {"a1": 1e200}, [], "a1_a2_quadratic"),
        ("sweep", {}, ["--axis", "a1=1e308"],
         "sweep point {'a1': 1e+308} violates: a1_a2_quadratic"),
        # the squares are inf, and the quadratic defect inf - inf = NaN
        ("run", {"a1": 1e308, "a2": 1e308, "a3": 0.0}, [],
         "a1_a2_quadratic"),
    ])
    def test_exit_2_naming_the_constraint(self, tmp_path, capsys, command,
                                          coefficients, axis, named):
        raw = base_config_dict(tmp_path)
        raw["coefficients"].update(coefficients)
        path = write_config(tmp_path, raw)
        assert cli.main([command, path, *axis]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.yaml"]


def energy_overflow_config(tmp_path) -> dict:
    """A run whose sampled state stays finite while its energy overflows:
    a single mode of amplitude 1000 with a nonzero mean on 8 points."""
    return {"grid": {"n_points": 8},
            "coefficients": {"a1": 1.0, "a2": 1.0, "a3": -0.5, "k": 1.0},
            "initial": {"preset": "single-mode", "amplitude": 1000.0,
                        "mean_u": 0.1},
            "run": {"dt": 0.005, "t_final": 0.01, "stride": 1,
                    "fit_window": [0.0, 0.01]},
            "verify": {"kmax": 2},
            "output": {"csv": str(tmp_path / "diag.csv"),
                       "summary": str(tmp_path / "summary.json")}}


def fresh_python(script: str, *argv):
    """The finished run of `script` in a new interpreter that imports
    `ggkdv` from this tree."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)


def load_finite_json(path):
    """The JSON at path, refusing the bare NaN and Infinity that Python's
    json module writes and reads but JSON does not allow."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


def gg_quietly(capsys, *argv):
    """Exit code and stderr of `gg *argv`, with any Python warning raised
    as an error; stderr must hold no warning and no traceback."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(list(argv))
    err = capsys.readouterr().err
    assert "Warning" not in err and "Traceback" not in err
    return code, err


class TestOverflowingInputs:
    """Inputs whose numbers overflow a float: a failed check or a refusal
    by name, valid JSON, and no numpy warning on stderr."""

    @pytest.mark.parametrize("amplitude, n_null", [(1e80, 7), (1e200, 12)])
    def test_verify_fails_each_non_finite_value_as_null(
            self, tmp_path, capsys, amplitude, n_null):
        raw = base_config_dict(tmp_path)
        raw["grid"]["n_points"] = 64
        raw["checks"] = ["L2", "H1", "H2"]
        raw["verify"].update(n_states=3, amplitude=amplitude, kmax=8)
        code, _ = gg_quietly(capsys, "verify", write_config(tmp_path, raw))
        assert code == 4
        checks = load_finite_json(tmp_path / "summary.json")["checks"]
        null = [check for check in checks if check["value"] is None]
        assert len(null) == n_null
        for check in null:
            assert not check["passed"] and "not finite" in check["detail"]

    @pytest.mark.parametrize("amplitude, n_states, check_id", [
        # one state's residual is NaN, the other seven's near 1e-15
        (10 ** 76.65, 8, "H1_SUB(4.4)"),
        # the halving ratios are [NaN, 1.0, NaN]
        (10 ** 76.25, 3, "H2_MAIN scaling"),
    ])
    def test_one_non_finite_state_fails_its_check(
            self, tmp_path, capsys, amplitude, n_states, check_id):
        raw = base_config_dict(tmp_path)
        raw["grid"]["n_points"] = 64
        raw["checks"] = ["L2", "H1", "H2"]
        raw["verify"].update(n_states=n_states, amplitude=amplitude, kmax=8)
        code, _ = gg_quietly(capsys, "verify", write_config(tmp_path, raw))
        assert code == 4
        checks = load_finite_json(tmp_path / "summary.json")["checks"]
        check, = [c for c in checks if c["check_id"] == check_id]
        assert check["value"] is None and not check["passed"]

    def test_run_blow_up_from_a_huge_state(self, tmp_path, capsys):
        raw = base_config_dict(tmp_path)
        raw["initial"] = {"preset": "random-smooth", "amplitude": 1e80,
                          "seed": 7}
        raw["checks"] = ["L2", "GEN_N", "H1", "H2"]
        code, err = gg_quietly(capsys, "run", write_config(tmp_path, raw))
        assert code == 3 and "blow-up" in err
        summary = load_finite_json(tmp_path / "summary.json")
        assert summary["status"] == "blow_up"

    def test_run_names_a_non_finite_residual_as_null(self, tmp_path,
                                                     capsys):
        # One vanishing step keeps a huge state finite, while its quartic
        # H1 integrals overflow: a NaN residual is an identity failure.
        raw = base_config_dict(tmp_path, dt=1e-100, t_final=1e-100,
                               stride=1)
        raw["initial"] = {"preset": "random-smooth", "amplitude": 1e77,
                          "seed": 7}
        raw["checks"] = ["L2", "H1"]
        code, err = gg_quietly(capsys, "run", write_config(tmp_path, raw))
        assert code == 4
        summary = load_finite_json(tmp_path / "summary.json")
        assert summary["status"] == "identity_failure"
        null = [i for i, r in summary["identity_residuals"].items()
                if r is None]
        assert null and all(f"{i} relative residual nan is not finite"
                            in err for i in null)
        jsonschema.validate(summary, cli._summary_schema())

    @pytest.mark.parametrize("command, k, axis", [
        ("run", 1e300, []), ("run", 1e155, []),
        ("verify", 1e300, []), ("sweep", 1.0, ["--axis", "k=0.5,1e300"]),
    ])
    def test_huge_damping_exit_2_naming_k_and_dt(self, tmp_path, capsys,
                                                 command, k, axis):
        raw = base_config_dict(tmp_path)
        raw["coefficients"]["k"] = k
        raw["checks"] = ["L2", "DECAY"] if command == "verify" else ["L2"]
        code, err = gg_quietly(capsys, command, write_config(tmp_path, raw),
                               *axis)
        assert code == 2
        assert "finite_tables" in err and "k = 1e+" in err
        assert "dt = 0.01" in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.yaml"]

    def test_large_damping_below_the_overflow_runs(self, tmp_path, capsys):
        raw = base_config_dict(tmp_path)
        raw["coefficients"]["k"] = 1e150
        code, _ = gg_quietly(capsys, "run", write_config(tmp_path, raw))
        assert code == 0
        load_finite_json(tmp_path / "summary.json")

    @pytest.mark.parametrize("command, checks, axis, code", [
        ("run", ["L2"], [], 3), ("verify", ["DECAY"], [], 4),
        ("sweep", ["L2"], ["--axis", "k=1.0"], 3)])
    def test_an_overflowed_energy_is_a_blow_up(self, tmp_path, capsys,
                                              command, checks, axis, code):
        # the state stays finite, its energy (and the seminorms before it)
        # overflows: the first such state is the blow-up
        raw = energy_overflow_config(tmp_path)
        raw["checks"] = checks
        got, err = gg_quietly(capsys, command, write_config(tmp_path, raw),
                              *axis)
        assert got == code
        summary = load_finite_json(tmp_path / "summary.json")
        jsonschema.validate(summary, cli._summary_schema())
        if command == "verify":
            check, = summary["checks"]
            assert check["detail"] == "blow-up at t = 0.01"
        else:
            assert err == cli.BLOW_UP_TEXT.format(0.01) + "\n"
            assert (summary.get("blow_up_time")
                    or summary["points"][0]["blow_up_time"]) == 0.01

    def test_a_fit_drops_overflowed_samples(self):
        series = DiagnosticSeries(t=np.arange(6.0), columns={"q": np.array(
            [1.0, np.exp(-1.0), np.exp(-2.0), np.inf, np.exp(-4.0), np.nan])},
                                  meta={})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = verification.fit_decay_rate(series, "q", (0.0, 5.0), -1.0)
        assert fit.n_points == 4
        assert fit.fitted_rate == pytest.approx(-1.0, rel=1e-12)


@pytest.fixture(scope="module")
def summaries(tmp_path_factory):
    """The summaries of a tiny `gg run`, `gg verify` and `gg sweep`."""
    out = {}
    for command, extra in (("run", []), ("verify", []),
                           ("sweep", ["--axis", "k=0.5,1.0"])):
        tmp_path = tmp_path_factory.mktemp(command)
        raw = base_config_dict(tmp_path)
        raw["initial"]["amplitude"] = 1e-5  # linear regime for the fits
        if command == "verify":
            raw["checks"] = ["L2", "GEN_N", "H1", "POINCARE", "DECAY"]
        assert cli.main([command, write_config(tmp_path, raw), *extra]) == 0
        out[command] = json.loads((tmp_path / "summary.json").read_text())
    return out


def _nodes(value, path=()):
    """(path, value) of every node of a JSON value, the root first."""
    yield path, value
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _nodes(item, path + (key,))


# values of every JSON type, the enum and const values among them
_SWAPS = [None, True, False, 0, 1, 2, -1, 8, 1.0, 0.5, -0.5, 0.0, -0.0,
          "", "ok", "run", "blow_up", "bogus", [], [0.0, 1.0], {},
          {"extra": 1.0}]


def _mutate(draw, summary):
    """Change one node of `summary` in place, or return a new root."""
    path, value = draw(st.sampled_from(list(_nodes(summary))))
    kinds = ["swap"]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        kinds += ["float", "bool", "non-finite"]
    if isinstance(value, dict):
        kinds += ["add", "drop"] if value else ["add"]
    if isinstance(value, list):
        kinds += ["grow", "shrink"] if value else ["grow"]
    kind = draw(st.sampled_from(kinds))
    if kind == "float":  # an int as a float, integral or not
        value = float(value) + draw(st.sampled_from([0.0, 0.5]))
    elif kind == "bool":
        value = draw(st.booleans())
    elif kind == "non-finite":
        value = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == "add":  # a key unknown, or one another node knows
        key = draw(st.sampled_from(["extra", "n_points", "a1", "dt", "x"]))
        value[key] = draw(st.sampled_from(_SWAPS))
    elif kind == "drop":
        value.pop(draw(st.sampled_from(sorted(value))))
    elif kind == "grow":  # a window of 3, or an item of another type
        value.append(copy.deepcopy(draw(st.sampled_from(value + _SWAPS))))
    elif kind == "shrink":
        value.pop(draw(st.integers(0, len(value) - 1)))
    else:
        value = copy.deepcopy(draw(st.sampled_from(_SWAPS)))
    return _replace(summary, path, value)


def _replace(summary, path, value):
    """`summary` with its node at `path` set to `value`, in place."""
    if not path:
        return value
    parent = summary
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return summary


def checker_accepts(summary) -> bool:
    try:
        cli._check(summary, cli._summary_schema())
    except ValueError:
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_checker_agrees_with_draft7_on_mutated_summaries(summaries, data):
    validator = jsonschema.Draft7Validator(cli._summary_schema())
    summary = copy.deepcopy(summaries[data.draw(
        st.sampled_from(sorted(summaries)))])
    for _ in range(data.draw(st.integers(1, 3))):
        summary = _mutate(data.draw, summary)
    assert checker_accepts(summary) == validator.is_valid(summary)


class TestSchema:
    def test_shipped_schema_is_valid_draft7(self):
        schema = cli._summary_schema()
        jsonschema.Draft7Validator.check_schema(schema)

    def test_summary_missing_required_fails(self):
        with pytest.raises(ValueError, match=r"summary \$ fails required"):
            cli.write_summary(None, {"schema_version": 1, "command": "run"})

    def test_exit_codes_cover_exactly_the_summary_statuses(self):
        schema = cli._summary_schema()
        statuses = schema["properties"]["status"]["enum"]
        assert sorted(cli.EXIT_CODES) == sorted(statuses)

    def test_shipped_summaries_pass_both(self, summaries):
        assert sorted(summaries) == ["run", "sweep", "verify"]
        for summary in summaries.values():
            jsonschema.validate(summary, cli._summary_schema())
            assert checker_accepts(summary)

    @pytest.mark.parametrize("path, value, valid", [
        (("schema_version",), True, False),  # a bool is not the const 1
        (("schema_version",), 1.0, True),
        (("grid", "n_points"), 128.0, True),  # 1.0 is an integer
        (("grid", "n_points"), True, False),  # a bool is no number
        (("energy", "initial"), math.nan, True),  # NaN < 0 is false
        (("run", "dt"), math.nan, True),  # so is NaN <= 0
        (("run", "dt"), 0.0, False),
        (("energy", "final"), -math.inf, False),
        (("decay_fits", 0, "window"), [0.0], False),
        (("command",), "bogus", False),
    ])
    def test_checker_matches_draft7_at_the_edges(self, summaries, path,
                                                 value, valid):
        summary = _replace(copy.deepcopy(summaries["run"]), path, value)
        assert jsonschema.Draft7Validator(
            cli._summary_schema()).is_valid(summary) is valid
        assert checker_accepts(summary) is valid

    def test_a_failure_names_the_path_and_the_keyword(self, summaries):
        summary = copy.deepcopy(summaries["sweep"])
        summary["points"][1]["status"] = "bogus"
        with pytest.raises(ValueError, match=r"\$\.points\[1\]\.status "
                                             "fails enum"):
            cli.write_summary(None, summary)

    @pytest.mark.parametrize("where", [
        (), ("properties", "command"), ("properties", "grid", "properties",
                                        "n_points")])
    def test_checker_refuses_an_unimplemented_keyword(self, summaries,
                                                      where):
        schema = copy.deepcopy(cli._summary_schema())
        node = schema
        for key in where:
            node = node[key]
        node["pattern"] = "^.*$"  # Draft-7, and every value here matches it
        for summary in summaries.values():
            assert jsonschema.Draft7Validator(schema).is_valid(summary)
            with pytest.raises(ValueError,
                               match="unimplemented schema keyword pattern"):
                cli._check(summary, schema)

    def test_gg_runs_without_jsonschema(self, tmp_path):
        path = write_config(tmp_path, base_config_dict(tmp_path))
        done = fresh_python(
            "import sys; sys.modules['jsonschema'] = None; "
            "from ggkdv import cli; sys.exit(cli.main(sys.argv[1:]))",
            "run", path)
        assert done.returncode == 0, done.stderr
        summary = json.loads((tmp_path / "summary.json").read_text())
        jsonschema.validate(summary, cli._summary_schema())
        assert summary["status"] == "ok"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=40))
def test_median_is_np_median_bitwise(values):
    # the verify summary's scaling medians are statistics.median's, as
    # `cli._median` takes them
    with np.errstate(over="ignore"):  # both overflow alike, to inf
        ref = float(np.median(values))
    ours = statistics.median(values)
    assert ours == ref
    # a zero median's sign comes from np.median's own summation; the
    # amplitude-halving ratios it takes are never -0.0
    if ref != 0.0:
        assert np.float64(ours).tobytes() == np.float64(ref).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=2, max_size=41))
def test_median_is_statistics_median_bitwise(values):
    # a list and the list less its last value: one of odd, one of even length
    for sample in (values, values[:-1]):
        assert (np.float64(cli._median(sample)).tobytes()
                == np.float64(statistics.median(sample)).tobytes())


class TestAtomicWrite:
    @pytest.fixture(autouse=True)
    def umask_022(self):
        old = os.umask(0o022)
        yield
        os.umask(old)

    @staticmethod
    def mode(path):
        return os.stat(path).st_mode & 0o7777

    def test_a_path_through_a_new_directory_is_written(self, tmp_path):
        atomic_write_text(os.path.join(str(tmp_path), "new", "..", "x"), "x")
        assert (tmp_path / "x").read_text() == "x"
        assert sorted(os.listdir(tmp_path)) == ["new", "x"]

    def test_a_new_file_takes_the_mode_open_gives(self, tmp_path):
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("x")
        atomic_write_text(str(tmp_path / "out.txt"), "x")
        assert self.mode(tmp_path / "out.txt") == self.mode(
            tmp_path / "plain.txt")
        assert sorted(os.listdir(tmp_path)) == ["out.txt", "plain.txt"]

    def test_a_rewrite_of_a_0644_file_takes_the_mode_open_gives(self,
                                                                 tmp_path):
        for name in ("plain.txt", "out.txt"):
            (tmp_path / name).write_text("old")
            (tmp_path / name).chmod(0o644)
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("new")
        atomic_write_text(str(tmp_path / "out.txt"), "new")
        assert (tmp_path / "out.txt").read_text() == "new"
        assert self.mode(tmp_path / "out.txt") == self.mode(
            tmp_path / "plain.txt") == 0o644

    def test_a_failed_rename_leaves_the_directory_as_it_was(self, tmp_path):
        (tmp_path / "target").mkdir()
        (tmp_path / "target" / "keep").write_text("kept")
        (tmp_path / "other.tmp").write_text("not ours")
        with pytest.raises(OSError):
            atomic_write_text(str(tmp_path / "target"), "x")
        assert sorted(os.listdir(tmp_path)) == ["other.tmp", "target"]
        assert (tmp_path / "target" / "keep").read_text() == "kept"


class TestSharedOutputs:
    def test_sweep_refuses_a_runs_summary_and_leaves_its_outputs(
            self, tmp_path, capsys):
        path = write_config(tmp_path, base_config_dict(tmp_path))
        assert cli.main(["run", path]) == 0
        outputs = [tmp_path / name
                   for name in ("diag.csv", "summary.json", "energy.svg")]
        before = [f.read_bytes() for f in outputs]
        capsys.readouterr()
        assert cli.main(["sweep", path, "--axis", "k=0.5"]) == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "summary.json") in err and "gg run" in err
        assert [f.read_bytes() for f in outputs] == before
        assert cli.main(["verify", path]) == 2
        assert [f.read_bytes() for f in outputs] == before

    @pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
    def test_same_command_reruns(self, tmp_path, command):
        path = write_config(tmp_path, base_config_dict(tmp_path))
        assert gg(command, path) == 0
        assert gg(command, path) == 0


class TestEnergyOnlyObservation:
    @pytest.mark.parametrize("ks", [(0.5,), (0.25, 0.5, 1.0)],
                             ids=["lone", "ensemble"])
    def test_energy_and_fit_equal_the_full_record_bitwise(self, tmp_path, ks):
        raw = base_config_dict(tmp_path, dt=0.01, t_final=2.0, stride=20)
        raw["initial"] = {"preset": "random-smooth", "amplitude": 0.5,
                          "seed": 3}
        cfg = config_from_dict(raw)
        cfgs = [apply_overrides(cfg, {"k": k}) for k in ks]
        full = cli.run_experiment([cli._prepare(cfg, True) for cfg in cfgs])
        lean = cli.run_experiment([cli._prepare(cfg, False) for cfg in cfgs])
        for whole, energy_only in zip(full, lean):
            series = energy_only.series
            assert list(series.columns) == ["t", "energy"]
            assert series.t.tobytes() == whole.series.t.tobytes()
            assert (series["energy"].tobytes()
                    == whole.series["energy"].tobytes())
            assert list(energy_only.fits) == ["energy"]
            assert repr(energy_only.fits["energy"]) == repr(
                whole.fits["energy"])
            assert energy_only.residuals == {}


# -- no LAPACK at run time ----------------------------------------------------

# numpy's routines that call LAPACK; the first call adds about 1.1 MB of
# resident memory to a process, so no command may reach one
LAPACK_ROUTINES = ("lstsq", "solve", "inv", "pinv", "svd", "qr", "eig",
                   "eigh", "eigvals", "det", "cholesky")


def test_no_command_calls_lapack(tmp_path):
    """In a new interpreter, no command calls LAPACK or imports `statistics`
    (which loads `fractions` and `decimal`, about 0.5 MB resident)."""
    run = tiny_config(tmp_path, "decay.yaml", 32,
                      run={"dt": 0.002, "t_final": 0.2, "stride": 10,
                           "fit_window": [0.1, 0.2]})
    verify = tiny_config(tmp_path, "verify.yaml", 64,
                         run={"dt": 0.001, "t_final": 0.1, "stride": 10},
                         verify={"poincare_fields": 2, "product_fields": 2})
    sweep = tiny_config(tmp_path, "sweep_linear.yaml", 32,
                        run={"t_final": 0.2, "stride": 10})
    script = f"""if True:
        import json, sys
        import numpy as np
        from ggkdv import cli

        def refuse(*args, **kwargs):
            raise AssertionError("a command called LAPACK")

        np.polyfit = refuse
        for name in {LAPACK_ROUTINES!r}:
            setattr(np.linalg, name, refuse)
        for argv in json.loads(sys.argv[1]):
            assert cli.main(argv) == 0, argv
        assert "statistics" not in sys.modules, "statistics was imported"
    """
    done = fresh_python(script, json.dumps(
        [["run", run], ["verify", verify],
         ["sweep", sweep, "--axis", "k=0.5,1.0"]]))
    assert done.returncode == 0, done.stderr


def test_setup_leaves_numpy_fft_unloaded():
    """In a new interpreter, importing the CLI and loading a config leave
    `numpy.fft` unloaded: the flux looks pocketfft up when a march binds
    it, so no transform's import moves from the run into setup."""
    script = """if True:
        import sys
        import ggkdv.cli
        from ggkdv.config import load_config

        load_config(sys.argv[1])
        assert "numpy.fft" not in sys.modules, "numpy.fft was imported"
    """
    done = fresh_python(script, str(ROOT / "configs" / "verify.yaml"))
    assert done.returncode == 0, done.stderr


# -- every input through the whole command -----------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)
# admissible (a1, a2) of the a3 = 0 branch
A3_ZERO_PAIRS = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.0, 0.0)]


@st.composite
def _commands(draw):
    """A command line and its config on a grid of 8 to 32 points. The
    numbers range over the finite floats, but a march stays small by
    construction: an explicit dt tiles t_final in at most 32 steps, and the
    default step is drawn only over a t_final of at most 0.1, or of 1e12 or
    more, which the work bound refuses."""
    branch = draw(st.sampled_from(["a1=a2=1", "a3=0", "any"]))
    a1, a2, a3 = ((1.0, 1.0, draw(st.floats(-0.99, 0.99) | FINITE))
                  if branch == "a1=a2=1" else
                  (*draw(st.sampled_from(A3_ZERO_PAIRS)), 0.0)
                  if branch == "a3=0" else
                  (draw(FINITE), draw(FINITE), draw(FINITE)))
    small = st.floats(1e-4, 1e-1)
    stride = draw(st.integers(1, 4))
    if draw(st.booleans()):
        dt = draw(small | FINITE)
        t_final = dt * stride * draw(st.integers(1, 32 // stride))
    else:
        dt, t_final = None, draw(small | st.floats(1e12, 1e308) | FINITE
                                 .filter(lambda t: t <= 0.0))
    run = {"dt": dt, "t_final": t_final, "stride": stride,
           "n_max": draw(st.integers(0, 8))}
    if draw(st.booleans()):
        run["fit_window"] = sorted([draw(FINITE), draw(FINITE)])
    raw = {"grid": {"n_points": draw(st.sampled_from([8, 16, 24, 32]))},
           "coefficients": {"a1": a1, "a2": a2, "a3": a3,
                            "k": draw(st.floats(1e-3, 1e3) | FINITE)},
           "initial": {"preset": draw(st.sampled_from(
                           ["single-mode", "random-smooth",
                            "two-soliton-like"])),
                       "amplitude": draw(st.floats(-10.0, 10.0) | FINITE),
                       "seed": draw(st.integers(0, 9)),
                       "kmax": draw(st.integers(1, 12)),
                       "mean_u": draw(st.just(0.0) | FINITE),
                       "mean_v": draw(st.just(0.0) | FINITE)},
           "run": run,
           "checks": draw(st.lists(st.sampled_from(
               ["L2", "GEN_N", "H1", "H2", "POINCARE", "PRODUCT_BOUND",
                "DECAY"]), unique=True)),
           "verify": {"n_states": draw(st.integers(1, 3)),
                      "amplitude": draw(st.floats(-10.0, 10.0) | FINITE),
                      "seed": draw(st.integers(0, 9)),
                      "kmax": draw(st.integers(1, 12)),
                      "poincare_fields": draw(st.integers(0, 2)),
                      "product_fields": draw(st.integers(0, 2))}}
    command = draw(st.sampled_from(["run", "verify", "sweep"]))
    axes = []
    if command == "sweep":
        value = (st.floats(-1.0, 2.0) | FINITE).map(repr) | st.sampled_from(
            ["1", "x", ""])
        for _ in range(draw(st.integers(0, 2))):
            name = draw(st.sampled_from(["k", "k", "a3", "amplitude", "a1",
                                         "a2", "n_points"]))
            values = draw(st.lists(value, min_size=1, max_size=2))
            axes += ["--axis", f"{name}={','.join(values)}"]
    return command, raw, axes


@st.composite
def _admissible_commands(draw):
    """A command line and its config that every admission rule passes: the
    coefficients inside the gate, an explicit dt and stride that tile
    t_final in at most 32 steps or the default step over a t_final of at
    most 0.1, kmax within the cutoff (within half of it for the battery),
    a fit window inside the run, and for `gg sweep` one or two axes of two
    or three admissible values each. So every draw marches or runs its
    battery, and a sweep marches two to nine points."""
    n_points = draw(st.sampled_from([8, 16, 24, 32]))
    cutoff = n_points // 3
    if draw(st.booleans()):
        (a1, a2), a3 = (1.0, 1.0), draw(st.floats(-0.99, 0.99))
    else:
        (a1, a2), a3 = draw(st.sampled_from(A3_ZERO_PAIRS)), 0.0
    stride = draw(st.integers(1, 4))
    if draw(st.booleans()):
        dt = draw(st.floats(1e-4, 1e-2))
        count = draw(st.sampled_from(range(1, 32 // stride + 1)))
        t_final = dt * stride * count
    else:
        dt, t_final = None, draw(st.floats(1e-3, 0.1))
    run = {"dt": dt, "t_final": t_final, "stride": stride,
           "n_max": draw(st.integers(0, 4))}
    if draw(st.booleans()):
        run["fit_window"] = [t_final * draw(st.sampled_from([0.0, 0.25, 0.5])),
                             t_final * draw(st.sampled_from([0.75, 1.0]))]
    amplitude = st.floats(-2.0, 2.0) | st.floats(-1e4, 1e4)
    raw = {"grid": {"n_points": n_points},
           "coefficients": {"a1": a1, "a2": a2, "a3": a3,
                            "k": draw(st.floats(0.05, 5.0))},
           "initial": {"preset": draw(st.sampled_from(
                           ["single-mode", "random-smooth",
                            "two-soliton-like"])),
                       "amplitude": draw(amplitude),
                       "seed": draw(st.integers(0, 9)),
                       "kmax": draw(st.integers(1, cutoff)),
                       "mean_u": draw(st.just(0.0) | st.floats(-1.0, 1.0)),
                       "mean_v": draw(st.just(0.0) | st.floats(-1.0, 1.0))},
           "run": run,
           "checks": draw(st.lists(st.sampled_from(
               ["L2", "GEN_N", "H1", "H2", "POINCARE", "PRODUCT_BOUND",
                "DECAY"]), unique=True)),
           "verify": {"n_states": draw(st.integers(1, 3)),
                      "amplitude": draw(st.floats(-1.0, 1.0)),
                      "seed": draw(st.integers(0, 9)),
                      "kmax": draw(st.integers(1, max(1, cutoff // 2))),
                      "poincare_fields": draw(st.integers(0, 2)),
                      "product_fields": draw(st.integers(0, 2))}}
    command = draw(st.sampled_from(["run", "verify", "sweep"]))
    axes = []
    if command == "sweep":
        # a1 and a2 only on the a3 = 0 branch, where any pair of 0 and 1 is
        # admissible; a3 only on the a1 = a2 = 1 branch
        values = {"k": st.floats(0.05, 5.0), "amplitude": amplitude,
                  **({"a1": st.sampled_from([0.0, 1.0]),
                      "a2": st.sampled_from([0.0, 1.0])} if a3 == 0.0
                     else {"a3": st.floats(-0.99, 0.99)})}
        for name in draw(st.lists(st.sampled_from(sorted(values)),
                                  min_size=1, max_size=2, unique=True)):
            spec = draw(st.lists(values[name], min_size=2, max_size=3))
            axes += ["--axis", f"{name}={','.join(map(repr, spec))}"]
    return command, raw, axes


def _probe(command, checks, axes=(), **sections) -> tuple:
    """A case of the property: the energy-overflow config with `checks`,
    its sections updated by `sections`."""
    raw = {**energy_overflow_config(pathlib.Path(".")), "checks": checks}
    for name, values in sections.items():
        raw[name] = {**raw[name], **values}
    return command, raw, list(axes)


def _gg_in(directory, command, raw, axes):
    """Exit code, stdout and stderr of `gg` on `raw`, its outputs in
    directory/out; no Python warning may be issued."""
    raw = {**raw, "output": {
        "csv": os.path.join(directory, "out", "diag.csv"),
        "summary": os.path.join(directory, "out", "summary.json"),
        "plot": os.path.join(directory, "out", "energy.svg")}}
    path = os.path.join(directory, "config.yaml")
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(raw, fh)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main([command, path, *axes])
    assert [str(w.message) for w in caught] == []
    return code, out.getvalue(), err.getvalue()


def _exits_by_its_table(directory, command, raw, axes) -> tuple:
    """`gg` on `raw` in `directory`: exit 0, 2, 3 or 4, never a traceback
    or a warning; a summary that passes the schema and is strict JSON on 0,
    3 and 4, and nothing written on 2. Returns the exit code and the
    summary, None on 2."""
    code, _, err = _gg_in(directory, command, raw, axes)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err and "Warning" not in err
    out = os.path.join(directory, "out")
    written = sorted(os.listdir(out) if os.path.isdir(out) else [])
    if code == 2:
        assert written == [] and err.startswith("error: ")
        return code, None
    summary = load_finite_json(pathlib.Path(out, "summary.json"))
    jsonschema.validate(summary, cli._summary_schema())
    assert cli.EXIT_CODES[summary["status"]] == code
    return code, summary


@settings(max_examples=100, deadline=None)
@given(_commands())
# a finite state whose energy overflows: a blow-up, not a traceback
@example(_probe("run", ["L2"]))
@example(_probe("sweep", ["L2"], ["--axis", "k=1.0"]))
@example(_probe("verify", ["DECAY"]))
# an initial state or mean past the float range: a blow-up, no warning
@example(_probe("run", ["L2"], initial={"amplitude": 4.5e307, "mean_u": 0.0}))
@example(_probe("run", [], initial={"preset": "random-smooth", "kmax": 1,
                                    "amplitude": -1.7976931348623157e308}))
@example(_probe("run", ["L2"], initial={"preset": "two-soliton-like",
                                        "amplitude": 1.7976931348623157e308}))
@example(_probe("run", [], initial={"mean_u": 1.7976931348623157e308}))
@example(_probe("verify", ["H2"], verify={"amplitude": 1e308, "kmax": 1}))
# a step past the float range: refused by the tables, without a warning
@example(_probe("run", [], run={"dt": 9e307, "t_final": 9e307}))
# a run shorter than rounding, whose times' squares underflow: each fit
# fails by name, its data constant to rounding, and there is no warning
@example(_probe("run", [], initial={"amplitude": 0.1},
                run={"dt": 6e-180, "t_final": 1.8e-178, "stride": 3,
                     "fit_window": None}))
def test_every_command_line_exits_by_its_table(case):
    """Any config and --axis: exit 0, 2, 3 or 4, never a traceback or a
    warning; a summary that passes the schema and is strict JSON on 0, 3
    and 4, and nothing written on 2."""
    with tempfile.TemporaryDirectory() as directory:
        _exits_by_its_table(directory, *case)


@settings(max_examples=60, deadline=None)
@given(_admissible_commands())
def test_admissible_command_lines_march_and_sweep_rows_equal_runs(case):
    """An admissible config and --axis: exit 0, 3 or 4 by the table, and
    each row of a sweep holds bitwise the energy fit, or the blow-up, of a
    `gg run` of its point alone."""
    command, raw, axes = case
    with tempfile.TemporaryDirectory() as directory:
        code, summary = _exits_by_its_table(directory, command, raw, axes)
        assert code != 2
        for i, row in enumerate(summary.get("points", [])):
            point = copy.deepcopy(raw)
            for name, value in row["point"].items():
                point[SWEEP_AXES[name]][name] = value
            alone = os.path.join(directory, f"point-{i}")
            os.mkdir(alone)
            run_code, run = _exits_by_its_table(alone, "run", point, [])
            fit = {f["quantity_id"]: f
                   for f in run.get("decay_fits", [])}.get("energy")
            if row["status"] == "blow_up":
                assert run_code == 3
                assert run["blow_up_time"] == row["blow_up_time"]
            elif row["status"] == "ok":
                assert fit is not None
                for key in ("fitted_rate", "r_squared"):
                    assert float(fit[key]).hex() == float(row[key]).hex()
            else:
                assert run_code != 3 and fit is None

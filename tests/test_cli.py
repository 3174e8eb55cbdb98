"""Config round-trips, CLI artifacts, exit codes, and sweep behavior."""
from dataclasses import replace
import json
import math
import os
import statistics
import xml.etree.ElementTree as ET

from hypothesis import given, settings, strategies as st
import jsonschema
import numpy as np
import pytest
import yaml

from ggkdv import cli, verification
from ggkdv.config import (ConfigError, ExperimentConfig, InitialSpec,
                          VerifySpec, apply_overrides, atomic_write_text,
                          build_initial_state, config_from_dict, load_config)
from ggkdv.integrator import evolve
from ggkdv.model import CoefficientSet
from ggkdv.spectral import make_grid
from ggkdv.verification import IdentityReport, observe
from conftest import ROOT, config_to_dict, save_config


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
        raw = base_config_dict(tmp_path)
        mutate(raw)
        with pytest.raises(ConfigError, match=message):
            config_from_dict(raw)

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
            raw[name] = {key: draw(st.just(section[key]) | _json_like())
                         for key in keys}
        else:
            raw[name] = draw(st.just(section) | _json_like())
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
        jsonschema.validate(summary, cli._summary_validator().schema)
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
        jsonschema.validate(summary, cli._summary_validator().schema)
        assert summary["status"] == "ok" and summary["decay_fits"] == []
        assert [f.partition(":")[0] for f in summary["failures"]] == [
            "energy", "seminorm_sq_1", "seminorm_sq_2"]
        assert all("fit failed (" in f for f in summary["failures"])

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
        jsonschema.validate(summary, cli._summary_validator().schema)
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
        # states of |lhs - rhs| and of the normalizer, taken from `observe`
        cfg = replace(load_config(str(ROOT / "configs/decay.yaml")),
                      t_final=0.2, stride=10)
        ids = verification.check_identities(cfg.checks, cfg.n_max)[0]
        p = cli._prepare(cfg, True)
        states = []
        evolve([p.state], [p.c], cfg.t_final, p.dt, stride=cfg.stride,
               observers=[lambda i, st: states.append(st) or {}])
        reports = [observe(st, p.c, ids, cfg.n_max)[1] for st in states]
        got = cli.run_experiment([cfg])[0].residuals
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
        jsonschema.validate(summary, cli._summary_validator().schema)
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
        for battery in ("identity_reports", "poincare_holder_violations",
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
        jsonschema.validate(summary, cli._summary_validator().schema)
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

    def test_empty_axis_exit_2(self, tmp_path, capsys):
        path = self.sweep_config(tmp_path)
        assert cli.main(["sweep", path]) == 2
        assert "empty sweep" in capsys.readouterr().err

    def test_malformed_axis_exit_2(self, tmp_path):
        path = self.sweep_config(tmp_path)
        assert cli.main(["sweep", path, "--axis", "k="]) == 2
        assert cli.main(["sweep", path, "--axis", "k=a,b"]) == 2

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
        ("coefficients", "a3", 1.0, "a3_magnitude"),
        ("grid", "n_points", 1e30, "grid.n_points"),
    ])
    def test_bad_config_exit_2(self, tmp_path, capsys, command, section, key,
                               value, named):
        raw = base_config_dict(tmp_path)
        raw[section][key] = value
        assert gg(command, write_config(tmp_path, raw)) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "summary.json").exists()

    def test_default_dt_step_count_overflow_exit_2(self, tmp_path, capsys,
                                                   command):
        raw = base_config_dict(tmp_path)
        raw["grid"]["n_points"] = 16
        raw["run"] = {"t_final": 1e308}  # no dt: the default rule picks it
        raw["checks"] = ["L2", "DECAY"]
        assert gg(command, write_config(tmp_path, raw)) == 2
        err = capsys.readouterr().err
        assert "run.t_final" in err and "Traceback" not in err
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
        jsonschema.validate(summary, cli._summary_validator().schema)
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


class TestSchema:
    def test_shipped_schema_is_valid_draft7(self):
        schema = cli._summary_validator().schema
        jsonschema.Draft7Validator.check_schema(schema)

    def test_summary_missing_required_fails(self):
        with pytest.raises(jsonschema.ValidationError):
            cli.write_summary(None, {"schema_version": 1, "command": "run"})

    def test_exit_codes_cover_exactly_the_summary_statuses(self):
        schema = cli._summary_validator().schema
        statuses = schema["properties"]["status"]["enum"]
        assert sorted(cli.EXIT_CODES) == sorted(statuses)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=40))
def test_median_is_np_median_bitwise(values):
    # the verify summary's scaling medians are statistics.median's
    with np.errstate(over="ignore"):  # both overflow alike, to inf
        ref = float(np.median(values))
    ours = statistics.median(values)
    assert ours == ref
    # a zero median's sign comes from np.median's own summation; the
    # amplitude-halving ratios it takes are never -0.0
    if ref != 0.0:
        assert np.float64(ours).tobytes() == np.float64(ref).tobytes()


class TestAtomicWrite:
    @pytest.fixture(autouse=True)
    def umask_022(self):
        old = os.umask(0o022)
        yield
        os.umask(old)

    @staticmethod
    def mode(path):
        return os.stat(path).st_mode & 0o7777

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
        full = cli.run_experiment(cfgs)
        lean = cli.run_experiment(cfgs, record=False)
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

"""The names the benchmark traces are the functions that do the work.

`BENCHMARK.json` lists per-layer metrics by span name, `<module>.<function>`
or `<module>.<Class>.<method>` of `ggkdv`, and the benchmark's tracer wraps
the public functions of the loaded modules by name. A span whose function
is gone, private or idle reads 0 and measures nothing, so every span must
name a public function, and the stacked paths must be the ones that run.
"""
import functools
import importlib
import inspect
import json
import sys

from ggkdv import cli

from conftest import ROOT, tiny_config

# the statistics the tracer keeps per span; the other metrics are counters
SPAN_STATS = {"calls", "busy_s", "wait_s", "p50_us", "p99_us"}
# numpy's rfft/irfft pair, which the tracer books under this name
NUMPY_FFT_SPAN = "spectral.fft"
# each must run at least once in `gg run` or `gg verify` on a tiny config
MUST_RUN = ("model.rhs", "model.nonlinear_remainder",
            "spectral.padded_samples", "verification.check_poincare_holder",
            "verification.product_bound_violations",
            "verification.residual_l2", "verification.residual_general_n",
            "verification.residual_h1", "verification.residual_h2")


def _traced_spans() -> set:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    spans = set()
    for metric in bench["per_layer"]:
        span, _, stat = metric["name"].rpartition(".")
        if stat in SPAN_STATS and span != NUMPY_FFT_SPAN:
            spans.add(span)
    return spans


def _count_calls(monkeypatch, names) -> dict:
    """Wrap each named function in every `ggkdv` namespace that holds it,
    as the tracer does, counting its calls."""
    calls = dict.fromkeys(names, 0)
    modules = [m for key, m in sys.modules.items()
               if key == "ggkdv" or key.startswith("ggkdv.")]

    def counting(name, real):
        @functools.wraps(real)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in names:
        short, attr = name.split(".")
        real = getattr(importlib.import_module(f"ggkdv.{short}"), attr)
        wrapper = counting(name, real)
        for module in modules:
            if vars(module).get(attr) is real:
                monkeypatch.setattr(module, attr, wrapper)
    return calls


def test_every_traced_span_is_public_and_the_stacked_paths_run(
        tmp_path, monkeypatch, capsys):
    spans = _traced_spans()
    assert set(MUST_RUN) <= spans
    for span in sorted(spans):
        short, *path = span.split(".")
        module = importlib.import_module(f"ggkdv.{short}")
        obj = module
        for attr in path:
            assert not attr.startswith("_"), span
            obj = getattr(obj, attr, None)
        assert inspect.isfunction(obj), span
        if len(path) == 1:  # the tracer wraps a module's own functions
            assert obj.__module__ == module.__name__, span

    calls = _count_calls(monkeypatch, MUST_RUN)
    run = tiny_config(tmp_path, "decay.yaml", 32,
                      run={"dt": 0.002, "t_final": 0.2, "stride": 10,
                           "fit_window": [0.1, 0.2]})
    assert cli.main(["run", run]) == 0
    verify = tiny_config(tmp_path, "verify.yaml", 64,
                         run={"dt": 0.001, "t_final": 0.1, "stride": 10},
                         verify={"poincare_fields": 2, "product_fields": 2})
    assert cli.main(["verify", verify]) == 0, capsys.readouterr().out
    assert {name: n for name, n in calls.items() if n < 1} == {}

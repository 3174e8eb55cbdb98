"""One benchmark invocation in a fresh interpreter.

    python3 child.py RESULT_JSON [--setup-only] [--spans SPANS_JSON] -- ARGV...

Imports ``ggkdv.cli`` (numpy, yaml and jsonschema with it), loads the config
named in ARGV, then, unless ``--setup-only``, calls ``ggkdv.cli.main(ARGV)``.
With ``--spans`` the call runs under the tracer and the spans are written to
that file afterwards. RESULT_JSON receives the exit code and measurements;
``ready`` is ``time.monotonic()`` after set-up, which the parent compares
with its own clock at spawn time (CLOCK_MONOTONIC is system-wide on Linux).
``probe_s`` holds the host-speed probe timed right after set-up and, unless
``--setup-only``, right after the call (see ``hostspeed.py``).
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback


def main() -> None:
    split = sys.argv.index("--")
    parser = argparse.ArgumentParser()
    parser.add_argument("result")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(sys.argv[1:split])
    argv = sys.argv[split + 1:]

    import ggkdv.cli
    from ggkdv.config import load_config
    load_config(argv[1])
    out = {"ready": time.monotonic()}

    import hostspeed
    out["probe_s"] = [hostspeed.probe()]

    if not args.setup_only:
        tracer = None
        if args.spans:
            import tracer as tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out["exit_code"] = ggkdv.cli.main(argv)
        except Exception:  # reported as a failed invocation, not a crash
            out["exit_code"] = None
            out["error"] = traceback.format_exc()
        out["wall_s"] = time.perf_counter() - t0
        out["cpu_s"] = time.process_time() - c0
        out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024.0)
        out["probe_s"].append(hostspeed.probe())
        if tracer is not None:
            out["trace"] = tracing.summarize(tracer)
            tracer.write_spans(args.spans)

    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()

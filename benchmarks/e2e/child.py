"""Child process of the e2e benchmark: one timed ``savat`` invocation.

    python child.py --times FILE [--stdout FILE] [--spans DIR]
                     [--calibrate MACHINE@METERS ...] [-- SAVAT_ARGV...]

The child times ``import repro`` (the CLI and the modules its
subcommands import), calibrates every ``--calibrate`` machine so the
CLI's own calls hit the in-process memo, then runs
``repro.cli.main(SAVAT_ARGV)`` with stdout sent to ``--stdout``.  It
writes its :func:`time.monotonic` timestamps to ``--times``; the parent
takes spawn and exit times on the same clock.  Without ``SAVAT_ARGV``
it stops after calibration (a set-up probe).  With ``--spans`` every
layer's entry point is wrapped first (see ``tracing.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--times", required=True)
    parser.add_argument("--stdout", default=os.devnull)
    parser.add_argument("--spans")
    parser.add_argument("--calibrate", action="append", default=[])
    parser.add_argument("savat_argv", nargs="*")
    options = parser.parse_args(argv)

    recorder = None
    if options.spans:
        from tracing import SpanRecorder

        recorder = SpanRecorder(options.spans)

    times = {"pid": os.getpid(), "start": time.monotonic()}
    import repro
    import repro.cli
    import repro.core.campaign
    import repro.core.study
    import repro.machines.calibrated

    times["imported"] = time.monotonic()
    times["repro_file"] = repro.__file__
    if recorder is not None:
        recorder.add("import", times["start"], times["imported"])
        recorder.install()

    for item in options.calibrate:
        machine, _, distance = item.partition("@")
        repro.machines.calibrated.load_calibrated_machine(machine, float(distance))
    times["calibrated"] = time.monotonic()

    status = 0
    if options.savat_argv:
        with open(options.stdout, "w") as out, contextlib.redirect_stdout(out):
            status = repro.cli.main(options.savat_argv)
    times["done"] = time.monotonic()

    if recorder is not None:
        recorder.write()
    with open(options.times, "w") as handle:
        json.dump(times, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

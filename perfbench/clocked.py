"""Run a module the way `python -m MODULE ARGS...` does, under the
calibration sampler of `clock.py`, so that the parent can calibrate the
process's elapsed time.

    python3 perfbench/clocked.py MODULE [ARGS...]

The module's output and exit code pass through unchanged.  Standard error
gets one more line, `clock: <unit seconds> <samples>`, even when the
module raises.
"""

from __future__ import annotations

import runpy
import sys

import clock


def main():
    module, *args = sys.argv[1:]
    sys.argv = [module, *args]
    code = 0
    sampler = clock.Sampler()
    try:
        with sampler:
            try:
                runpy.run_module(module, run_name="__main__",
                                 alter_sys=True)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdout.flush()
        print("clock: %r %d" % (sampler.unit_s, sampler.samples),
              file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

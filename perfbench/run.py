"""Benchmark of the shirshov library and its command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  One run builds the workload's inputs from the seed, then repeats
whole passes of its operations (library calls in this process, then CLI
invocations, each in a fresh process) until S seconds have gone, checks
the outputs, and prints a report whose last line is one JSON object.
With --trace 0 its metrics are the end-to-end ones; with --trace 1 a
profiled pass follows and the metrics are per layer.  See README.md in
this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_PROBES = 7
STARTUP_PROBES = 5
CHILD_TIMEOUT = 60

END_TO_END = {"setup_s": "s", "wall_s": "s", "cli_s": "s",
              "peak_rss_mb": "MiB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import shirshov and build the inputs, then "
                        "print the seconds that took")
    return p.parse_args(argv)


def child_env():
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def run_child(args):
    """Run a fresh Python process; returns (seconds, exit code, stdout,
    stderr)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    return (time.perf_counter() - t0, proc.returncode, proc.stdout,
            proc.stderr)


def run_cli(argv):
    """Run `shirshov ARGV` in a fresh process under the calibration
    sampler; returns (calibrated seconds, elapsed, exit code, lines)."""
    elapsed, code, out, err = run_child([str(HERE / "clocked.py"),
                                         "shirshov", *argv])
    _, unit_s, samples = [line for line in err.splitlines()
                          if line.startswith("clock: ")][-1].split()
    return (clock.calibrated(elapsed, float(unit_s), int(samples)),
            elapsed, code, out.splitlines())


def setup_probe(workload, seed):
    _, code, out, _ = run_child([str(HERE / "run.py"), "--setup-probe",
                                 "--workload", workload, "--seed",
                                 str(seed)])
    if code != 0:
        raise RuntimeError("setup probe exited with %d" % code)
    return float(out.split()[-1])


class Pass:
    """One whole round of a workload's operations; times are calibrated
    seconds (see clock.py), `*_elapsed` the plain elapsed ones."""

    def __init__(self, wl):
        self.attempted = self.failed = 0
        self.op_s = {}
        self.results = {}
        self.wall_elapsed = 0.0
        for op in wl.lib_ops:
            with clock.Sampler() as sampler:
                self.results[op.name] = op.run()
            self.op_s[op.name] = sampler.seconds
            self.wall_elapsed += sampler.elapsed
            self.attempted += op.count
        self.wall_s = sum(self.op_s.values())
        self.cli = []
        for op in wl.cli_ops:
            seconds, elapsed, code, lines = run_cli(op.argv)
            faulty = op.fault is not None and op.fault(code, lines)
            self.cli.append((seconds, elapsed, code, lines, faulty))
            self.attempted += 1
            self.failed += faulty
        self.cli_s = sum(c[0] for c in self.cli)
        self.cli_elapsed = sum(c[1] for c in self.cli)

    def outputs(self):
        return self.results, [c[2:] for c in self.cli]


def traced_metrics(wl, wall_s, setup_profile, layers):
    """Per-layer metrics from one profiled pass of the library operations,
    the CLI invocations run in-process under the profiler, and fresh
    processes that only import the package."""
    counts = layers.Counts()
    with layers.counting(counts):
        _, profile = layers.profiled(
            lambda: [op.run() for op in wl.lib_ops])
    out = layers.library_metrics(profile, counts)

    from shirshov import cli

    def run_cli_ops():
        for op in wl.cli_ops:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                try:
                    cli.main(op.argv)
                except SystemExit:
                    pass
                except Exception:
                    # A crashing invocation already fails its check in
                    # the untraced passes; profile the rest.
                    pass

    _, cli_profile = layers.profiled(run_cli_ops)
    out.update(layers.cli_metrics(cli_profile))
    out.update(layers.setup_metrics(setup_profile))
    out["cli.startup_s"] = median(
        [run_child(["-c", "import shirshov"])[0]
         for _ in range(STARTUP_PROBES)])
    out["trace.wall_s"] = profile.seconds
    out["trace.overhead"] = profile.seconds / wall_s - 1
    return out


def work_metrics(work):
    def total(suffix, value=lambda v: v):
        return sum(value(v) for k, v in work.items() if k.endswith(suffix))

    return {"gsb.added": work.get("complete.added", 0),
            "gsb.rounds": work.get("complete.rounds", 0),
            "work.compositions_checked": total(".compositions"),
            "work.span_rank_top": total(".rank_top"),
            "work.irr_words": total(".irr", sum)}


def fmt_value(v):
    if isinstance(v, list):
        return " ".join(map(str, v))
    return str(v)


def benchmark(args, build, workdir):
    setup = []
    if args.trace:
        import layers
        wl, setup_profile = layers.profiled(
            lambda: build(args.seed, workdir))
    else:
        setup = [setup_probe(args.workload, args.seed)
                 for _ in range(SETUP_PROBES)]
        wl = build(args.seed, workdir)

    start = time.perf_counter()
    first = Pass(wl)
    passes = [first]
    repeat_ok = True
    while time.perf_counter() - start < args.seconds:
        p = Pass(wl)
        repeat_ok &= p.outputs() == first.outputs()
        p.results = None
        passes.append(p)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    wall_s = median([p.wall_s for p in passes])
    cli_s = median([p.cli_s for p in passes])
    op_s = {op.name: median([p.op_s[op.name] for p in passes])
            for op in wl.lib_ops}
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    print("workload: %s seed: %d seconds: %g trace: %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("python: %s on %s, %d cpus" % (platform.python_version(),
                                         platform.machine(), os.cpu_count()))
    print("passes: %d" % len(passes))
    if setup:
        print("setup samples (s): %s" % " ".join("%.4f" % s for s in setup))
    print("medians over passes, calibrated seconds (elapsed seconds):")
    print("wall_s: %.4f (%.4f)"
          % (wall_s, median([p.wall_elapsed for p in passes])))
    print("cli_s: %.4f (%.4f)"
          % (cli_s, median([p.cli_elapsed for p in passes])))
    for name, s in op_s.items():
        print("op %s: %.4f" % (name, s))
    for i, op in enumerate(wl.cli_ops):
        code, faulty = first.cli[i][2], first.cli[i][4]
        print("cli %s: %.4f, exit %d%s"
              % (op.name, median([p.cli[i][0] for p in passes]), code,
                 ", known fault" if faulty else ""))
    work = wl.work(first.results)
    for label, value in work.items():
        print("work %s: %s" % (label, fmt_value(value)))

    checks = [("repeat.identical_outputs", repeat_ok,
               "%d passes" % len(passes))]
    checks += wl.checks(first.results)
    for op, (_, _, code, lines, faulty) in zip(wl.cli_ops, first.cli):
        if not faulty:
            ok, detail = op.check(code, lines)
            checks.append(("cli.%s" % op.name, ok, detail))
    for name, ok, detail in checks:
        print("check %s: %s (%s)" % (name, "ok" if ok else "FAIL", detail))
    print("attempted: %d failed: %d" % (attempted, failed))

    if args.trace:
        metrics = {"op.%s_s" % name: op_s.get(name, 0.0)
                   for name in layers.OPS}
        metrics.update(work_metrics(work))
        metrics.update(traced_metrics(wl, wall_s, setup_profile, layers))
        units = {name: unit for name, (unit, _) in layers.LAYERS.items()}
    else:
        metrics = {"setup_s": median(setup), "wall_s": wall_s,
                   "cli_s": cli_s, "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    return {"correct": all(ok for _, ok, _ in checks),
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "shirshov" / "__init__.py").is_file():
        print("error: no package at %s; run from a source checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        if args.setup_probe:
            with clock.Sampler() as sampler:
                import workloads
                workloads.BUILDERS[args.workload](args.seed, workdir)
            print(sampler.seconds)
            return 0
        import workloads
        build = workloads.BUILDERS.get(args.workload)
        if build is None:
            print("error: unknown workload %r; choose from %s"
                  % (args.workload, ", ".join(workloads.BUILDERS)),
                  file=sys.stderr)
            return 2
        result = benchmark(args, build, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the amr-logic-aug CLI on four seeded workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {build,check,prompt,penman} \\
        --seed N --seconds S --trace {0,1}

Load is a closed loop: one caller runs one CLI call at a time, each in a
fresh single-threaded ``python3 -m amr_logic_aug`` process, and starts the
next only when the previous one has exited.  Inputs are generated from the
seed before timing starts.  One iteration is the workload's list of CLI
calls; iterations repeat until the measured CLI wall time is as near
``--seconds`` as whole iterations allow.

The benchmark and every process it starts run on one CPU.  With
``--trace 0`` a ``speedometer.Speedometer`` samples that CPU's speed
throughout the run, and every time is scaled to the reference speed before
it is reported: a shared host's CPUs drift by up to 1.8x within a run,
which would hide most changes to the program.  The end-to-end metrics are
``items_per_s`` (items of every iteration over their summed, scaled CLI
wall time), ``setup_s`` (the median over ``SETUP_PROBES`` fresh
interpreters, spread evenly through the run, each timing the import of
``amr_logic_aug.cli`` and a ``default_lexicon()`` load, scaled) and
``peak_rss_mb`` (largest ``ru_maxrss`` of any CLI process).  The report
line keeps the unscaled figures too.  ``--trace 1`` alternates untraced
iterations with iterations run under ``tracer.py`` and reports the
per-layer metrics of ``layers.py`` (the lower median over traced
iterations; counts repeat exactly) plus ``trace.overhead_s``, the median
traced minus the median untraced iteration wall time, unscaled.

Every iteration's outputs are checked: the first one in full (pinned
digests for seed 0, counts, oracle replays, the planted-fault verdicts,
prompt invariants), and every later one, traced or not, must be
byte-identical to it.  An item counts as failed when its output is wrong
or its CLI call exited with an unexpected code; a run that aborts, for
instance because the package fails to import, counts every item as failed
and still prints its result line.  The last line of standard output is
the result object; the line before it records the machine and every
measurement of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speedometer import Speedometer, pin_to_one_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
LEXICON_ENV = "AMR_LOGIC_AUG_LEXICON"
SETUP_PROBES = 24
CALL_TIMEOUT_S = 120
SETUP_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import amr_logic_aug.cli as cli\n"
    "cli.default_lexicon()\n"
    "print(repr(time.perf_counter() - start))\n"
)


def machine_record(lexicon_env_was_set: bool) -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "loadavg_before": [round(load, 2) for load in os.getloadavg()],
        "lexicon_env": f"{LEXICON_ENV} unset for every call"
        + (" (the caller had set it)" if lexicon_env_was_set else ""),
    }


def child_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key != LEXICON_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_call(argv: list[str], cwd: Path, stdout: Path, stderr: Path) -> tuple[float, float, int]:
    """Run one process to completion: (start, end, exit code), times by ``perf_counter``."""
    with stdout.open("wb") as out, stderr.open("wb") as err:
        start = time.perf_counter()
        done = subprocess.run(
            argv, cwd=cwd, env=child_env(), stdout=out, stderr=err, timeout=CALL_TIMEOUT_S,
        )
        return start, time.perf_counter(), done.returncode


def output_digest(outdir: Path, exit_codes: list[int]) -> str:
    """Digest of the exit codes, data files and standard output of an iteration.

    Logs on standard error are left out, and so are manifests: prompt-aug
    writes its ``laws`` list in frozenset order, which follows the
    interpreter's string-hash seed and so differs between processes.
    """
    digest = hashlib.sha256(json.dumps(exit_codes).encode())
    for path in sorted(outdir.iterdir()):
        if not path.name.startswith("stderr-") and not path.name.endswith(".manifest.json"):
            digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


class Iteration:
    """One pass over a workload's CLI calls, in its own output directory."""

    def __init__(self, workload, workdir: Path, index: int, traced: bool) -> None:
        self.outdir = workdir / f"it{index}"
        self.outdir.mkdir()
        self.spans = []
        self.intervals = []  # (start, end) of each CLI call
        self.exit_codes = []
        for number, call in enumerate(workload.calls()):
            if traced:
                spans = workdir / f"it{index}-{number}.spans"
                argv = [sys.executable, str(HERE / "tracer.py"), str(spans), "--", "-q", *call.args]
                self.spans.append(spans)
            else:
                argv = [sys.executable, "-m", "amr_logic_aug", "-q", *call.args]
            start, end, code = run_call(
                argv, self.outdir,
                self.outdir / f"stdout-{number}.txt", self.outdir / f"stderr-{number}.txt",
            )
            self.intervals.append((start, end))
            self.exit_codes.append(code)
        self.wall = sum(end - start for start, end in self.intervals)
        self.digest = output_digest(self.outdir, self.exit_codes)
        self.exit_ok = self.exit_codes == [call.expect_exit for call in workload.calls()]

    def stderr_tail(self) -> str:
        tails = [path.read_text(errors="replace")[-400:] for path in sorted(self.outdir.glob("stderr-*"))]
        return " | ".join(tail.strip() for tail in tails if tail.strip())


def score(workload, iterations: list[Iteration]) -> tuple[int, int, list[str]]:
    """(attempted items, failed items, problems) over every iteration.

    The first iteration whose calls exit as expected is checked in full;
    every other iteration must reproduce its output bytes.
    """
    attempted = failed = 0
    problems: list[str] = []
    reference = None
    for iteration in iterations:
        attempted += workload.items
        if not iteration.exit_ok:
            failed += workload.items
            problems.append(
                f"{iteration.outdir.name}: exit codes {iteration.exit_codes}: {iteration.stderr_tail()}"
            )
        elif reference is None:
            reference = iteration
            try:
                bad, found = workload.verify(iteration.outdir)
            except Exception:  # a crash while checking output is a wrong output
                bad, found = workload.items, [traceback.format_exc(limit=3)]
            failed += bad
            problems.extend(f"{iteration.outdir.name}: {problem}" for problem in found)
        elif iteration.digest != reference.digest:
            failed += workload.items
            problems.append(f"{iteration.outdir.name}: outputs differ from {reference.outdir.name}")
    return attempted, failed, problems


def measure_setup(workdir: Path, probes: int) -> list[tuple[float, float, float]]:
    """(set-up seconds, process start, process end) of each of ``probes`` fresh interpreters."""
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], cwd=workdir, env=child_env(),
            capture_output=True, text=True, check=True, timeout=CALL_TIMEOUT_S,
        )
        times.append((float(done.stdout), start, time.perf_counter()))
    return times


def measure(workload, seconds: int, trace: bool, workdir: Path):
    """Run rounds of iterations for about ``seconds`` of CLI wall time.

    Returns the untraced and traced iterations, the per-layer metrics of
    each traced one, and the set-up probes.  Set-up probes run only when
    ``trace`` is off, spread over the run: two first, then an even share
    after each round.
    """
    from layers import layer_metrics, load_spans

    untraced: list[Iteration] = []
    traced: list[Iteration] = []
    layers: list[dict] = []
    setup = [] if trace else measure_setup(workdir, 2)
    measured = 0.0
    rounds = 0
    # Stop at the round count whose measured time lands nearest --seconds.
    while not rounds or measured + measured / rounds / 2 < seconds:
        rounds += 1
        for is_traced in ((False, True) if trace else (False,)):
            iteration = Iteration(workload, workdir, len(untraced) + len(traced), is_traced)
            (traced if is_traced else untraced).append(iteration)
            measured += iteration.wall
            if is_traced:
                layers.append(layer_metrics(load_spans(path) for path in iteration.spans))
                for path in iteration.spans:
                    path.unlink()
        if not trace:
            later_rounds = max(0, round(seconds * rounds / measured) - rounds)
            setup += measure_setup(workdir, math.ceil((SETUP_PROBES - len(setup)) / (later_rounds + 1)))
    if not trace:
        setup += measure_setup(workdir, SETUP_PROBES - len(setup))
    return untraced, traced, layers, setup


def run(workload, seconds: int, trace: bool, workdir: Path) -> tuple[dict, dict]:
    """Measure a prepared workload: (report fields, result object)."""
    measure_setup(workdir, 1)  # compiles the package's bytecode once
    if trace:
        untraced, traced, layers, setup = measure(workload, seconds, trace, workdir)
    else:
        with Speedometer() as speed:
            untraced, traced, layers, setup = measure(workload, seconds, trace, workdir)
    attempted, failed, problems = score(workload, untraced + traced)
    report = {
        "items_per_iteration": workload.items,
        "cli_calls": len(workload.calls()) * (len(untraced) + len(traced)),
        "iterations_untraced_s": [it.wall for it in untraced],
        "iterations_traced_s": [it.wall for it in traced],
    }

    if trace:
        metrics = {
            name: statistics.median_low(values[name] for values in layers) for name in layers[0]
        }
        metrics["trace.overhead_s"] = (
            statistics.median(it.wall for it in traced) - statistics.median(it.wall for it in untraced)
        )
        for name in layers[0]:
            if not name.endswith(("_s", "_us", "_ms")) and len({values[name] for values in layers}) > 1:
                problems.append(f"traced count {name} differs between traced iterations")
        units = {name: unit_of(name) for name in metrics}
    else:
        scaled_iterations = [
            sum((end - start) * speed.scale(start, end) for start, end in it.intervals)
            for it in untraced
        ]
        scaled_setup = [value * speed.scale(start, end) for value, start, end in setup]
        # Only untraced CLI calls and set-up probes, which are smaller, have run.
        peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "items_per_s": workload.items * len(untraced) / sum(scaled_iterations),
            "setup_s": statistics.median(scaled_setup),
            "peak_rss_mb": peak_rss_kb / 1024,
        }
        units = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
        probe_s = [cost for _, cost in speed.samples]
        report.update(
            iterations_untraced_scaled_s=scaled_iterations,
            items_per_s_unscaled=workload.items * len(untraced) / sum(it.wall for it in untraced),
            setup_probes_s=[value for value, _, _ in setup],
            setup_probes_scaled_s=scaled_setup,
            speed_probes=len(probe_s),
            speed_probe_quartiles_s=statistics.quantiles(probe_s, n=4),
        )
    report.update(failed_frac=failed / attempted, problems=problems[:20], problem_count=len(problems))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return report, result


def unit_of(name: str) -> str:
    field = name.rsplit(".", 1)[1]
    if field.endswith("_s"):
        return "s"
    if field.endswith("_us"):
        return "us"
    if field.endswith("_ms"):
        return "ms"
    if field.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("build", "check", "prompt", "penman"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "amr_logic_aug" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    lexicon_env_was_set = os.environ.pop(LEXICON_ENV, None) is not None
    machine = machine_record(lexicon_env_was_set)
    machine["pinned_cpu"] = pin_to_one_cpu()
    sys.path[:0] = [str(SRC), str(HERE)]
    workdir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    report: dict = {"workload": args.workload, "seed": args.seed}
    workload = None
    try:
        from workloads import WORKLOADS

        inputs_dir = workdir / "inputs"
        inputs_dir.mkdir()
        started = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, inputs_dir)
        report["prepare_s"] = time.perf_counter() - started
        measured, result = run(workload, args.seconds, bool(args.trace), workdir)
        report.update(measured)
    except Exception:
        # An aborted run counts every item as failed: one iteration's items,
        # or a single item when not even the inputs could be prepared.
        items = workload.items if workload is not None else 1
        report.update(failed_frac=1.0, problems=[traceback.format_exc(limit=4)], problem_count=1)
        result = {"correct": False, "attempted": items, "failed": items, "metrics": {}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    report["machine"] = machine
    for problem in report["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"perfbench_report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

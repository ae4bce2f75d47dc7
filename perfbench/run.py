"""streamfdr benchmark: one workload per run, measured from outside the package.

    python3 perfbench/run.py --workload sim-dense --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each exists):

* ``sim-dense``  -- `streamfdr simulate` on the pinned grid, beta = 0.2;
* ``sim-sparse`` -- the same grid with beta = 0.6;
* ``stream-cli`` -- `python -m streamfdr.cli stream --procedure lond --adaptive`
  fed a seeded P-value file, in a closed loop and then saturated;
* ``online-long`` -- ``lond_step``/``lord_step`` resumed at index 2e7.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:
medians over the run, timed next to reference work that does not import
streamfdr and scaled to the host's nominal speed (see ``reference.py``);
with ``--trace 1`` it holds the per-layer metrics of a traced run. Every
output is checked against a definition-level re-derivation, and the run
exits with code 1 if any check fails. The full result, with machine info
and the source revision, is written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path
from statistics import median
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
PYTHON = sys.executable
sys.path.insert(0, str(SRC))

import check  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
from reference import (  # noqa: E402
    DEPS_CODE,
    DEPS_NOMINAL_S,
    ECHO_CODE,
    ECHO_LINE_NOMINAL_S,
    ECHO_TRIP_NOMINAL_S,
    HostSpeed,
)

# Fresh interpreters timed per run for set-up, half before and half after
# the measured work, each next to a reference interpreter (DEPS_CODE).
SETUP_SAMPLES = 6
STREAM_CMD = [PYTHON, "-m", "streamfdr.cli", "stream", "--procedure", "lond", "--adaptive"]
STREAM_TRAILER = b"# discoveries="

# A fresh interpreter imports the CLI and builds the sim/online schedule,
# then says so: the set-up of every in-process workload.
SETUP_CODE = (
    f"import sys; sys.path.insert(0, {str(SRC)!r}); import streamfdr.cli; "
    "from streamfdr.schedules import make_power_schedule; make_power_schedule(1.05, 0.1); "
    "print('ready', flush=True)"
)
FLOOR_CODE = "print('ready', flush=True)"
PROBE_CODE = f"""
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, {str(SRC)!r})
import streamfdr.cli
imported = time.perf_counter()
from streamfdr.schedules import make_adaptive_schedule, make_power_schedule
make_power_schedule(1.05, 0.1)
power = time.perf_counter()
make_adaptive_schedule(0.1)
adaptive = time.perf_counter()
print(json.dumps([imported - start, power - imported, adaptive - power]), flush=True)
"""

# Mean time per call of single functions, as named in the benchmark's
# layer map: (metric, span name, inclusive or self time, unit).
FUNCTION_VIEW = (
    ("engines.lord_levels_ms", "engines.lord_levels", "total_ns", "ms"),
    ("engines.lond_levels_ms", "engines.lond_levels", "total_ns", "ms"),
    ("engines.bh_mask_ms", "engines.bh_mask", "total_ns", "ms"),
    ("engines.lond_step_us", "engines.lond_step", "total_ns", "us"),
    ("engines.lord_step_us", "engines.lord_step", "total_ns", "us"),
    ("schedules.lambda_at_us", "schedules.lambda_at", "total_ns", "us"),
    ("schedules.slice_us", "schedules.slice", "total_ns", "us"),
    ("simulation.make_mixture_ms", "simulation.make_mixture", "total_ns", "ms"),
    ("simulation.run_cell_self_ms", "simulation.run_cell", "self_ns", "ms"),
    ("simulation.write_csv_ms", "simulation.write_csv", "total_ns", "ms"),
    ("distributions.gg_sample_ms", "distributions.gg_sample", "total_ns", "ms"),
    ("distributions.pvalue_ms", "distributions.pvalue", "total_ns", "ms"),
    ("metrics.truth_labels_ms", "metrics.TruthLabels", "total_ns", "ms"),
    ("metrics.signal_mask_ms", "metrics.signal_mask", "total_ns", "ms"),
    ("metrics.fdp_fnp_ms", "metrics.fdp_fnp_from_mask", "total_ns", "ms"),
    ("metrics.pool_ms", "metrics.pool", "total_ns", "ms"),
    ("cli.parse_config_ms", "cli.parse_config", "total_ns", "ms"),
)
SCALE = {"ms": 1e6, "us": 1e3}


class BenchError(Exception):
    """The program under test failed to run."""


def wait_rusage(proc: subprocess.Popen) -> float:
    """Wait for ``proc`` and return its peak resident set size in MiB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


def first_line_seconds(code: str) -> tuple[float, bytes]:
    """Seconds from spawning ``python -c code`` until its first output line; and that line."""
    start = time.perf_counter()
    proc = subprocess.Popen([PYTHON, "-c", code], cwd=ROOT, stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    seconds = time.perf_counter() - start
    proc.stdout.read()
    proc.stdout.close()
    proc.wait()
    if proc.returncode != 0 or not line.endswith(b"\n"):
        raise BenchError(f"a fresh interpreter exited with code {proc.returncode} before its first line")
    return seconds, line


def setup_samples(count: int) -> list[tuple[float, float]]:
    """``count`` set-up times of fresh interpreters, each with the reference set-up time after it."""
    return [(first_line_seconds(SETUP_CODE)[0], first_line_seconds(DEPS_CODE)[0]) for _ in range(count)]


class Piped:
    """A child process fed lines on stdin; everything it prints is kept.

    Its set-up is the time from spawning it until the reply to the first
    line arrives.
    """

    def __init__(self, cmd, cwd, first: bytes, what: str):
        self.what = what
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=cwd, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.fd = self.proc.stdout.fileno()
        try:
            os.write(self.proc.stdin.fileno(), first)
            self.out = [self.read_line()]
        except BaseException:
            self.kill()
            raise
        self.setup = time.perf_counter() - start

    def read_line(self) -> bytes:
        data = b""
        while not data.endswith(b"\n"):
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                raise BenchError(f"{self.what} closed its output early")
            data += chunk
        return data

    def trade(self, lines) -> list[int]:
        """Write each line and wait for its reply line: the round trips in ns."""
        fd_in, clock = self.proc.stdin.fileno(), time.perf_counter_ns
        trips = []
        for line in lines:
            start = clock()
            os.write(fd_in, line)
            self.out.append(self.read_line())
            trips.append(clock() - start)
        return trips

    def pour(self, lines, done) -> float:
        """Pipe all of ``lines`` in and close the input; seconds per line until ``done(output)``."""

        def feed():
            try:
                self.proc.stdin.write(b"".join(lines))
                self.proc.stdin.close()
            except BrokenPipeError:
                pass

        writer = threading.Thread(target=feed)
        start = time.perf_counter()
        writer.start()
        received = 0
        tail = b""
        while not done(tail, received):
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                break
            self.out.append(chunk)
            received += len(chunk)
            tail = (tail + chunk)[-128:]
        seconds = time.perf_counter() - start
        writer.join()
        return seconds / max(len(lines), 1)

    def end(self) -> tuple[bytes, float]:
        """Wait for the process to exit; everything it printed, and its peak RSS in MiB."""
        if not self.proc.stdin.closed:
            self.proc.stdin.close()
        while chunk := os.read(self.fd, 1 << 16):
            self.out.append(chunk)
        self.proc.stdout.close()
        peak = wait_rusage(self.proc)
        if self.proc.returncode != 0:
            raise BenchError(f"{self.what} exited with code {self.proc.returncode}")
        return b"".join(self.out), peak

    def kill(self) -> None:
        """Stop the process on an error path and wait for it."""
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()


def stream_done(tail: bytes, received: int) -> bool:
    return STREAM_TRAILER in tail and tail.endswith(b"\n")


class Cycle(NamedTuple):
    """One `stream` process and one echo process taken through the same lines."""
    setup: float  # seconds from spawn to the first decision line
    reference: float  # spawn-to-first-line seconds of DEPS_CODE, just before
    trips: list  # closed-loop round trips in ns
    echo_trips: list
    line_seconds: float  # saturated: seconds per decision line
    echo_line_seconds: float
    output: bytes
    peak_rss_mb: float


def stream_cycle(lines: list[bytes], loop_lines: int) -> Cycle:
    """Spawn a `stream` process and an echo process and feed both the file.

    The first ``loop_lines`` lines go through a closed loop: one caller
    writes a line and waits for its reply, in blocks of 500 lines that
    alternate between the two processes. The caller and both
    processes share one CPU meanwhile: across two CPUs a round trip pays
    a cross-CPU wake-up or not, as the scheduler happens to place them,
    and the round-trip median jumps between about 13 and 19 us from one
    block to the next. The rest of the file is then piped in whole
    (saturated), first to the `stream` process, then to the echo process.
    """
    block = 500
    reference = first_line_seconds(DEPS_CODE)[0]
    echo = Piped([PYTHON, "-c", ECHO_CODE], ROOT, lines[0], "echo process")
    stream = None
    allowed = os.sched_getaffinity(0)
    try:
        stream = Piped(STREAM_CMD, SRC, lines[0], "stream command")
        cpu = {min(allowed)}
        for pid in (0, echo.proc.pid, stream.proc.pid):
            os.sched_setaffinity(pid, cpu)
        trips, echo_trips = [], []
        for k in range(1, loop_lines, block):
            trips += stream.trade(lines[k:min(k + block, loop_lines)])
            echo_trips += echo.trade(lines[k:min(k + block, loop_lines)])
        for pid in (0, echo.proc.pid, stream.proc.pid):
            os.sched_setaffinity(pid, allowed)
        rest = lines[loop_lines:]
        line_seconds = stream.pour(rest, stream_done)
        echo_bytes = sum(map(len, rest))
        echo_line_seconds = echo.pour(rest, lambda tail, received: received >= echo_bytes)
        output, peak = stream.end()
        echoed, _ = echo.end()
    except BaseException:
        for child in (echo, stream):
            if child is not None:
                child.kill()
        raise
    finally:
        os.sched_setaffinity(0, allowed)
    if echoed != b"".join(lines):
        raise BenchError("the echo process did not echo its input")
    return Cycle(stream.setup, reference, trips, echo_trips, line_seconds, echo_line_seconds, output, peak)


def quantile(sorted_values, share: float):
    return sorted_values[min(len(sorted_values) - 1, int(share * len(sorted_values)))]


def function_view(functions: dict) -> dict:
    view = {}
    for metric, name, key, unit in FUNCTION_VIEW:
        row = functions.get(name)
        if row and row["calls"]:
            view[metric] = (row[key] / row["calls"] / SCALE[unit], unit)
    return view


class Run:
    """One benchmark run: its arguments, checks and measurements."""

    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.size = args.size
        self.tally = check.Tally()
        self.metrics = {}  # reported metrics: name -> (value, unit)
        self.extra = {}  # diagnostics: name -> (value, unit)
        self.functions = {}

    def path(self, suffix: str) -> Path:
        return RESULTS / f"{self.workload}.{suffix}"

    def check_pinned(self, key: str, data: bytes) -> None:
        """Compare ``data`` with its digest pinned for the default seed."""
        pinned = json.loads((HERE / "pinned.json").read_text())
        if self.size == "full" and self.seed == pinned["seed"] and key in pinned:
            digest = hashlib.sha256(data).hexdigest()
            self.tally.check(digest == pinned[key], f"{key} sha256 {digest} differs from the pinned digest")

    def set_up_around(self, body):
        """Run ``body`` between two halves of the set-up samples.

        With tracing, the per-layer set-up probes run first instead.
        """
        if self.trace:
            self.probe()
            return body()
        samples = setup_samples(SETUP_SAMPLES // 2)
        result = body()
        samples += setup_samples(SETUP_SAMPLES - len(samples))
        self.report_setup([s for s, _ in samples], [f for _, f in samples])
        return result

    def report_setup(self, seconds: list, references: list) -> None:
        """Set-up times, scaled by the reference set-up times (``DEPS_CODE``) taken next to them."""
        self.metrics["setup_s"] = (DEPS_NOMINAL_S * median(s / r for s, r in zip(seconds, references)), "s")
        self.extra["setup_s_raw"] = (median(seconds), "s")
        self.extra["deps_setup_s"] = (median(references), "s")
        self.extra["setup_samples"] = (len(seconds), "count")

    def probe(self) -> None:
        """Per-layer set-up costs, each in a fresh interpreter."""
        floor = [first_line_seconds(FLOOR_CODE)[0] for _ in range(SETUP_SAMPLES)]
        probes = [json.loads(first_line_seconds(PROBE_CODE)[1]) for _ in range(SETUP_SAMPLES)]
        self.metrics["cli.spawn_floor_ms"] = (1e3 * median(floor), "ms")
        for k, name in enumerate(("cli.import_ms", "schedules.make_power_schedule_ms",
                                  "schedules.make_adaptive_schedule_ms")):
            self.metrics[name] = (1e3 * median(p[k] for p in probes), "ms")

    def traced(self, layers: dict, functions: dict, overhead_pct: float) -> None:
        self.metrics.update((k, tuple(v)) for k, v in layers.items())
        self.metrics["trace.overhead_pct"] = (overhead_pct, "%")
        self.functions = functions
        self.extra.update(function_view(functions))


def run_worker(run: Run, mode: str, *args) -> tuple[dict, float]:
    """Run ``worker.py <mode>`` for the measured time; its result and peak RSS."""
    result = run.path("worker.json")
    proc = subprocess.Popen(
        [PYTHON, str(HERE / "worker.py"), mode, "--seed", str(run.seed), "--size", run.size,
         "--seconds", str(run.seconds), "--trace", str(int(run.trace)), "--result", str(result),
         "--spans", str(run.path("spans.tsv")), *map(str, args)],
        cwd=ROOT,
    )
    peak = wait_rusage(proc)
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(result.read_text()), peak


def run_sim(run: Run) -> None:
    params = inputs.sim_params(run.workload, run.seed, run.size)
    config, csv_path = run.path("cfg"), run.path("csv")
    config.write_text(inputs.sim_config(params))
    out, peak = run.set_up_around(lambda: run_worker(run, "sim", "--config", config, "--csv", csv_path))
    data = csv_path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    for k, call in enumerate(out["calls"]):
        traced = " (traced)" if call["traced"] else ""
        run.tally.check(call["sha256"] == digest, f"simulate call {k}{traced} wrote different CSV bytes")
    run.check_pinned(run.workload, data)
    check.check_sim_csv(data, params, run.tally)

    rows = sum(1 for line in data.splitlines()[1:] if not line.startswith(b"pooled"))
    raw = median(c["seconds"] for c in out["calls"][1:] if not c["traced"])
    run.extra["simulate_calls"] = (len(out["calls"]) - 1, "count")
    run.extra["rows_per_call"] = (rows, "count")
    if run.trace:
        traced = median(c["seconds"] for c in out["calls"] if c["traced"])
        run.traced(out["layers"], out["functions"], 100.0 * (traced / raw - 1.0))
        return
    # Call 0 warms up.
    seconds = median(HostSpeed(out["kernel"], out["kernel_marks"]).scaled([c["seconds"] for c in out["calls"]])[1:])
    run.metrics["throughput_per_s"] = (rows / seconds, "1/s")
    run.metrics["latency_ms"] = (1e3 * seconds, "ms")
    run.metrics["peak_rss_mb"] = (peak, "MB")
    run.extra["sim_rows_per_s_raw"] = (rows / raw, "1/s")


def run_stream(run: Run) -> None:
    from streamfdr.schedules import make_adaptive_schedule

    pvalues = inputs.stream_pvalues(run.seed, run.size).tolist()
    lines = inputs.pvalue_lines(pvalues)
    outputs = []
    if run.trace:
        run.probe()
        pass_spans = run.path("pass.spans.tsv")
        traced_cmd = [PYTHON, str(HERE / "worker.py"), "stream", "--spans", str(pass_spans)]
        passes = {False: [], True: []}
        traced_spans = []
        deadline = time.perf_counter() + run.seconds
        # Untraced and traced passes alternate, starting untraced.
        while len(passes[False]) < 2 or time.perf_counter() < deadline:
            traced = len(outputs) % 2 == 1
            child = Piped(traced_cmd, ROOT, lines[0], "traced stream command") if traced else \
                Piped(STREAM_CMD, SRC, lines[0], "stream command")
            passes[traced].append(child.pour(lines[1:], stream_done))
            output, _ = child.end()
            if traced:
                traced_spans += [(len(outputs),) + s[1:] for s in spans.read_spans(pass_spans)]
            outputs.append((("traced " if traced else "") + "saturated pass", output))
        pass_spans.unlink()
        spans.write_spans(run.path("spans.tsv"), traced_spans)
        functions = spans.function_table(traced_spans)
        run.traced(spans.layer_metrics(traced_spans, 0), functions,
                   100.0 * (median(passes[True]) / median(passes[False]) - 1.0))
        stream_self = functions.get("cli.cmd_stream", {}).get("self_ns", 0)
        run.extra["cli.stream_self_us_per_line"] = (stream_self / 1e3 / (len(lines) * len(passes[True])), "us")
        expected = check.stream_expected(pvalues, make_adaptive_schedule(0.1))
    else:
        # Each cycle gives a set-up sample, closed-loop round trips and a
        # saturated rate of a fresh `stream` process, each with its echo
        # reference taken next to it; the metrics are medians over the
        # cycles of the ratios to the reference.
        deadline = time.perf_counter() + run.seconds
        cycles = []
        while len(cycles) < 2 or time.perf_counter() < deadline:
            cycles.append(stream_cycle(lines, inputs.SIZES[run.size]["loop_lines"]))
            outputs.append(("stream process", cycles[-1].output))
        trips = sorted(t for c in cycles for t in c.trips)
        run.report_setup([c.setup for c in cycles], [c.reference for c in cycles])
        run.metrics["throughput_per_s"] = (
            1.0 / (ECHO_LINE_NOMINAL_S * median(c.line_seconds / c.echo_line_seconds for c in cycles)), "1/s")
        run.metrics["latency_ms"] = (
            1e3 * ECHO_TRIP_NOMINAL_S * median(median(c.trips) / median(c.echo_trips) for c in cycles), "ms")
        run.metrics["peak_rss_mb"] = (median(c.peak_rss_mb for c in cycles), "MB")
        run.extra.update({
            "stream_lines_per_s_raw": (1.0 / median(c.line_seconds for c in cycles), "1/s"),
            "decision_p50_us": (quantile(trips, 0.5) / 1e3, "us"),
            "decision_p99_us": (quantile(trips, 0.99) / 1e3, "us"),
            "decision_samples": (len(trips), "count"),
            "echo_lines_per_s": (1.0 / median(c.echo_line_seconds for c in cycles), "1/s"),
            "echo_p50_us": (median(t for c in cycles for t in c.echo_trips) / 1e3, "us"),
            "cycles": (len(cycles), "count"),
        })
        expected = check.stream_expected(pvalues, make_adaptive_schedule(0.1))
    for what, output in outputs:
        check.check_stream_output(output, expected, run.tally, what)
        run.check_pinned(run.workload, output)


def run_online(run: Run) -> None:
    import numpy as np
    from streamfdr.schedules import make_power_schedule

    decisions = run.path("decisions.bin")
    out, peak = run.set_up_around(lambda: run_worker(run, "online", "--decisions", decisions))
    check.check_online(np.fromfile(decisions, dtype=inputs.DECISION_DTYPE),
                       inputs.OnlineStreams(run.seed, run.size), make_power_schedule(1.05, 0.1), run.tally)

    blocks = out["blocks"][1:]  # block 0 warms up
    step_ns = {traced: median(b["ns"] / b["steps"] for b in blocks if b["traced"] == traced)
               for traced in {b["traced"] for b in blocks}}
    if run.trace:
        run.traced(out["layers"], out["functions"], 100.0 * (step_ns[True] / step_ns[False] - 1.0))
        return
    scaled_ns = median(HostSpeed(out["kernel"], out["kernel_marks"]).scaled([b["ns"] / b["steps"] for b in out["blocks"]])[1:])
    run.metrics["throughput_per_s"] = (1e9 / scaled_ns, "1/s")
    run.metrics["latency_ms"] = (scaled_ns / 1e6, "ms")
    run.metrics["peak_rss_mb"] = (peak, "MB")
    run.extra["online_steps_per_s_raw"] = (1e9 / step_ns[False], "1/s")
    run.extra["blocks"] = (len(blocks), "count")


WORKLOADS = {"sim-dense": run_sim, "sim-sparse": run_sim, "stream-cli": run_stream, "online-long": run_online}


def git_revision():
    """The checkout's git commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "streamfdr").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="streamfdr benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(inputs.SIZES), default="full",
                        help="'tiny' only proves that every path runs")
    args = parser.parse_args(argv)
    if not (SRC / "streamfdr" / "__init__.py").is_file():
        print(f"error: no streamfdr sources under {SRC}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    run = Run(args)
    try:
        WORKLOADS[args.workload](run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, notes = run.tally.result()
    run.extra["error_rate"] = (failed / max(attempted, 1), "share")
    report = {
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds, "trace": int(run.trace),
        "size": run.size, "git_revision": git_revision(), "source_sha256": source_digest(),
        "machine": machine(), "attempted": attempted, "failed": failed, "failures": notes,
        "metrics": run.metrics, "diagnostics": run.extra, "functions": run.functions,
    }
    (RESULTS / f"{run.workload}-seed{run.seed}-trace{int(run.trace)}.json").write_text(
        json.dumps(report, indent=1) + "\n")

    m = report["machine"]
    print(f"# {run.workload} seed={run.seed} trace={int(run.trace)} revision={report['git_revision']} "
          f"python={m['python']} numpy={m['numpy']} scipy={m['scipy']} nproc={m['nproc']}")
    for name, (value, unit) in {**run.metrics, **run.extra}.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"{'checked outputs':40s} {attempted:14d} ({failed} failed)")
    for note in notes:
        print(f"FAILED: {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in run.metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Child-process side of the benchmark.

Each measured run happens in a fresh interpreter started by ``run.py``:

* ``sim``: calls ``streamfdr.cli.main(["simulate", ...])`` until the time is
  up and records each call's time and CSV digest;
* ``online``: steps ``lond_step`` and ``lord_step`` far past the schedule's
  cache limit, block by block, and records every decision and each
  block's time;
* ``stream``: the `stream` command with tracing on (the untraced command
  runs as ``python -m streamfdr.cli``).

The sim and online runs time a reference kernel (``reference.py``) after
each unit of work and return its times, so the parent can scale the
program's times to the host's nominal speed. With ``--trace 1`` they
alternate untraced and traced units of work, so the tracing overhead is
measured in the same process.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from inputs import DECISION_DTYPE, FAR_INDEX, OnlineStreams  # noqa: E402
from reference import HostSpeed  # noqa: E402
from spans import Tracer, function_table, layer_metrics, write_spans  # noqa: E402


def _traced_summary(tracer: Tracer, spans_path: str, replicates: int) -> dict:
    write_spans(spans_path, tracer.spans)
    return {
        "layers": layer_metrics(tracer.spans, replicates),
        "functions": function_table(tracer.spans),
        "missing_patch_points": tracer.missing,
    }


def run_sim(args) -> dict:
    import streamfdr.cli as cli

    argv = ["simulate", args.config, "--out", args.csv]
    tracer = Tracer() if args.trace else None
    calls = []
    speed = HostSpeed("mixed")
    speed.mark()
    deadline = time.perf_counter() + args.seconds
    # Call 0 is a warm-up; with tracing, odd calls are traced.
    while len(calls) < 3 or time.perf_counter() < deadline:
        traced = tracer is not None and len(calls) % 2 == 1
        if traced:
            tracer.unit = len(calls)
            tracer.install()
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        if code != 0:
            raise SystemExit(f"simulate exited with code {code}")
        speed.mark()
        digest = hashlib.sha256(Path(args.csv).read_bytes()).hexdigest()
        calls.append({"traced": traced, "seconds": seconds, "sha256": digest})
    out = {"calls": calls, "kernel": "mixed", "kernel_marks": speed.marks}
    if tracer is not None:
        rows = csv.DictReader(Path(args.csv).read_text().splitlines())
        replicates = {(row["r"], row["replicate"]) for row in rows if row["replicate"] != "pooled"}
        out.update(_traced_summary(tracer, args.spans, len(replicates) * sum(c["traced"] for c in calls)))
    return out


def run_online(args) -> dict:
    import numpy as np
    from streamfdr import engines
    from streamfdr.schedules import make_power_schedule

    schedule = make_power_schedule(1.05, 0.1)
    streams = OnlineStreams(args.seed, args.size)
    states = {"lond": engines.LondState(next_index=FAR_INDEX), "lord": engines.LordState(next_index=FAR_INDEX)}
    blocks = []
    tracer = Tracer() if args.trace else None
    clock = time.perf_counter_ns
    speed = HostSpeed("python")
    speed.mark()
    deadline = time.perf_counter() + args.seconds
    # Decisions go to disk block by block, so memory does not grow with speed.
    with open(args.decisions, "wb") as sink:
        # With tracing, odd blocks are traced.
        while len(blocks) < 3 or time.perf_counter() < deadline:
            pvalues = dict(zip(("lond", "lord"), streams.next_block()))
            traced = tracer is not None and len(blocks) % 2 == 1
            if traced:
                tracer.unit = len(blocks)
                tracer.install()
            decided = {}
            start = clock()
            for name, state in states.items():
                step = getattr(engines, f"{name}_step")
                decided[name] = [step(state, schedule, p) for p in pvalues[name]]
            block_ns = clock() - start
            if traced:
                tracer.uninstall()
            for name in states:
                sink.write(np.array([(d.index, d.alpha, d.rejected) for d in decided[name]],
                                    dtype=DECISION_DTYPE).tobytes())
            blocks.append({"traced": traced, "steps": sum(map(len, decided.values())), "ns": block_ns})
            speed.mark()
    out = {"blocks": blocks, "kernel": "python", "kernel_marks": speed.marks}
    if tracer is not None:
        out.update(_traced_summary(tracer, args.spans, 0))
    return out


def run_stream_traced(args) -> int:
    import streamfdr.cli as cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(["stream", "--procedure", "lond", "--adaptive"])
    finally:
        tracer.uninstall()
    write_spans(args.spans, tracer.spans)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("sim", "online", "stream"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--config")
    parser.add_argument("--csv")
    parser.add_argument("--decisions")
    parser.add_argument("--spans")
    parser.add_argument("--result")
    args = parser.parse_args(argv)
    if args.mode == "stream":
        return run_stream_traced(args)
    out = run_sim(args) if args.mode == "sim" else run_online(args)
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

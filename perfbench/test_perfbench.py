"""Self-tests of the benchmark: every workload runs, and the checks fire.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import inputs  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
                 "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_sim_check_catches_a_corrupted_byte(tmp_path):
    from streamfdr.cli import main

    params = inputs.sim_params("sim-sparse", 5, "tiny")
    config, out = tmp_path / "grid.cfg", tmp_path / "grid.csv"
    config.write_text(inputs.sim_config(params))
    assert main(["simulate", str(config), "--out", str(out)]) == 0
    data = out.read_bytes()
    good = check.Tally()
    check.check_sim_csv(data, params, good)
    assert good.failed == 0
    # The last byte before the final newline is the last digit of a count.
    position = len(data) - 2
    corrupted = data[:position] + (b"7" if data[position:position + 1] != b"7" else b"8") + data[position + 1:]
    bad = check.Tally()
    check.check_sim_csv(corrupted, params, bad)
    assert bad.failed >= 1 and bad.attempted == good.attempted


def test_stream_check_catches_a_flipped_decision():
    from streamfdr.schedules import make_adaptive_schedule

    pvalues = inputs.stream_pvalues(5, "tiny").tolist()
    expected = check.stream_expected(pvalues, make_adaptive_schedule(0.1))
    discoveries = sum(line.endswith(b"REJECT\n") for line in expected)
    output = expected + [f"# discoveries={discoveries} n={len(expected)}\n".encode()]
    good = check.Tally()
    check.check_stream_output(b"".join(output), expected, good, "stream")
    assert good.failed == 0
    flipped = list(output)
    flipped[7] = flipped[7].replace(b"ACCEPT", b"REJECT") if b"ACCEPT" in flipped[7] else \
        flipped[7].replace(b"REJECT", b"ACCEPT")
    bad = check.Tally()
    check.check_stream_output(b"".join(flipped), expected, bad, "stream")
    assert bad.failed == 1


def test_online_check_catches_a_flipped_decision():
    from streamfdr import engines
    from streamfdr.schedules import make_power_schedule

    schedule = make_power_schedule(1.05, 0.1)
    streams = inputs.OnlineStreams(5, "tiny")
    records = []
    states = [engines.LondState(next_index=inputs.FAR_INDEX), engines.LordState(next_index=inputs.FAR_INDEX)]
    steps = [engines.lond_step, engines.lord_step]
    for _ in range(2):
        for state, step, pvalues in zip(states, steps, streams.next_block()):
            records += [(d.index, d.alpha, d.rejected) for d in (step(state, schedule, p) for p in pvalues)]
    decisions = np.array(records, dtype=inputs.DECISION_DTYPE)
    good = check.Tally()
    check.check_online(decisions, inputs.OnlineStreams(5, "tiny"), schedule, good)
    assert good.failed == 0 and good.attempted == len(records)
    decisions["rejected"][3] ^= 1
    bad = check.Tally()
    check.check_online(decisions, inputs.OnlineStreams(5, "tiny"), schedule, bad)
    assert bad.failed == 1

"""Full-size byte checks: simulate CSVs, stream bytes, discovery chains, digits and zeta bits.

LORD and LOND control the FDR only if every decision the package emits is
exactly the rule's, so these checks run the commands and kernels at full
size against pinned digests and definition-level references.

Run them from the repository root with
``PYTHONPATH=src python -m pytest tests/full_size.py`` (``taskset`` must be
on the path). The name does not start with ``test_``, so the tier-1 run
does not collect this module; CI runs each test function here as its own
step, and ``tests/test_ci.py`` checks that every one is named by a step.
"""

import hashlib
import json
import pathlib
import re
import shlex
import subprocess
import sys
import threading

import numpy as np
import pytest
from scipy import special

from perfbench.inputs import pvalue_lines, sim_config, sim_params, stream_pvalues
from streamfdr import (LambdaSchedule, LondState, LordState, lond_levels, lond_step, lord_levels, lord_step,
                       make_power_schedule)
from test_decimal import assert_matches_repr
from test_schedules import zeta_mismatches

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
# The benchmark's pinned digests; this module only reads them.
PINNED = json.loads((ROOT / "perfbench" / "pinned.json").read_text())
CLI = [sys.executable, "-m", "streamfdr.cli"]

KERNELS = ("n_values = 2000, 20000\nbeta = 0.4\nr_values = 0.5, 1.1\nq = 0.1\nprocedures = lord, lond, bh\n"
           "reps = 5\nseed = 11\n")
GRIDS = {  # name: (config text, sha256 of the CSV it writes)
    # The one grid of adaptive cells and of a budget that changes with n
    # (inverse-log), so each n of the grid builds its own lambda.
    "adaptive-inverse-log": ("n_values = 2000, 20000\nbeta = 0.4\nr_values = 0.5, 1.1\ngamma = 2\n"
                             "q_rule = inverse-log\nschedule = adaptive\nprocedures = lord, lond, bh\n"
                             "reps = 5\nseed = 11\n",
                             "fe68e508b42a39cdbad4362503a77fe0674bc0aaa8dda6826bb92f62ec2cd688"),
    # Every other grid runs gamma = 2. gamma = 1 is the one kernel whose
    # cells keep every position (no cut); 1.5 and 3 take the
    # sign-and-magnitude sampler and the incomplete-gamma survival.
    "gamma-1": (KERNELS + "gamma = 1\n", "6438b362881dbdf60b8e1d980711dd4521c7fab9edd36ad99b953f5db3716d33"),
    "gamma-1.5": (KERNELS + "gamma = 1.5\n", "5bad70bc3a822e673673a8c92ef41b81e5a6c1948f3f503641fd12999ba72f12"),
    "gamma-3": (KERNELS + "gamma = 3\n", "bee71b2ed5c6d171abe3ceec837d4e5459c44c8694976f52ff37ec1e06607f79"),
    # Every other grid's lord and lond candidates are all settled in
    # rounds. In this near-dense gamma = 1 grid the lord rounds stop early
    # and walk about a fifth of the candidates in Python, on the worker
    # threads beside other units.
    "walk": ("n_values = 20000\nbeta = 0.01\nr_values = 0.5, 1.1\ngamma = 1\nq = 0.1\n"
             "procedures = lord, lond, bh\nreps = 2\nseed = 0\n",
             "b834c188586efd563ed4452f93178268c8448da51cd4a9e9fc4017868e5ba94b"),
    # The benchmark's seed-0 sim experiments at full size.
    **{workload: (sim_config(sim_params(workload, PINNED["seed"], "full")), PINNED[workload])
       for workload in ("sim-dense", "sim-sparse")},
}


@pytest.mark.parametrize("pin", [["taskset", "-c", "0"], []], ids=["one-cpu", "every-cpu"])
@pytest.mark.parametrize("grid", GRIDS)
def test_simulate_bytes(grid, pin, tmp_path):
    """Pinned to one CPU (one thread) and on every CPU (a pool of threads), a grid writes its pinned bytes."""
    config, digest = GRIDS[grid]
    (tmp_path / "grid.cfg").write_text(config)
    subprocess.run([*pin, *CLI, "simulate", str(tmp_path / "grid.cfg"), "--out", str(tmp_path / "grid.csv")],
                   check=True)
    assert hashlib.sha256((tmp_path / "grid.csv").read_bytes()).hexdigest() == digest


def test_readme_cli_examples():
    """Each ``$ ... streamfdr stream|schedule ...`` example in README.md prints the lines quoted under it."""
    examples = re.findall(r"```sh\n\$ ([^\n]*streamfdr (?:stream|schedule)\b[^\n]*)\n(.*?)```", README, re.S)
    assert len(examples) == 3, "expected the two stream examples and the schedule example"
    for command, expected in examples:
        shell = command.replace("streamfdr ", f"PYTHONPATH=src {shlex.quote(sys.executable)} -m streamfdr.cli ", 1)
        run = subprocess.run(shell, shell=True, capture_output=True, text=True, cwd=ROOT)
        assert (run.returncode, run.stdout.splitlines()) == (0, expected.splitlines()), command


@pytest.mark.filterwarnings("error::DeprecationWarning", "error::ResourceWarning")
def test_readme_library_examples():
    """The README's ```python blocks run in order in one namespace, with the tests' warnings as errors."""
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert len(blocks) == 2, "expected the batch and the stepwise library examples"
    namespace = {"__name__": "__main__"}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def lord_from_carried_level(pvalues, schedule):
    """lord from next index 2e7 and last discovery 1, with the first P-value set to that state's level.

    The first value ties the carried level lambda_{2e7 - 1}, so it rejects
    and starts the chain that the values after it continue.
    """
    state = LordState(next_index=2 * 10**7, last_discovery=1)
    pvalues[0] = schedule.lambda_at(state.next_index - state.last_discovery)
    return state._decide(schedule, pvalues)


CHAINS = {  # name: (rule, P-values at n from lambda_1 .. lambda_n)
    "lord-chain": (lord_levels, lambda lam: np.full(len(lam), np.nextafter(lam[0], 0.0))),  # each link at lambda_1
    "lond-chain": (lond_levels, lambda lam: np.nextafter(np.minimum(lam * np.arange(1.0, len(lam) + 1.0), 1.0),
                                                         0.0)),  # each link at lambda_i * i
    "400-zeros-then-lord-chain": (lord_levels, lambda lam: np.where(np.arange(len(lam)) < 400, 0.0,
                                                                    np.nextafter(lam[0], 0.0))),
    "lord-chain-from-carried-level": (lord_from_carried_level,
                                      lambda lam: np.full(len(lam), np.nextafter(lam[0], 0.0))),
    "lord-all-zero": (lord_levels, np.zeros_like),
    "lond-all-zero": (lond_levels, np.zeros_like),
}


@pytest.mark.parametrize("chain", CHAINS)
def test_discovery_chains(chain):
    """Each stream rejects at every position under its rule, as the fold of the step functions does.

    A discovery chain settles one link per round, so the lord and lond
    cores must stop their rounds at once and walk it: at n = 1e6 that
    takes about a second, where rounds to the end would take hours. CI
    runs this test under ``timeout 300``.
    """
    levels, pvalues = CHAINS[chain]
    n = 10**6
    schedule = make_power_schedule(1.05, 0.1)
    assert np.count_nonzero(levels(pvalues(schedule.prefix(n)), schedule)[1]) == n


def stream(args, lines, k=None):
    """Exit status and stdout of the ``stream`` command with ``args``, fed the byte ``lines``.

    With no ``k``, the lines go in one write (from a thread, as stdout is
    read meanwhile), so the block reader sees whole 64 KB reads. With
    ``k``, they go in awaited writes of k lines, each followed by reading
    its k decision lines, so every block holds k lines.
    """
    with subprocess.Popen([*CLI, "stream", *args], stdin=subprocess.PIPE, stdout=subprocess.PIPE) as proc:
        if k is None:
            def feed():
                proc.stdin.write(b"".join(lines))
                proc.stdin.close()
            writer = threading.Thread(target=feed)
            writer.start()
            out = proc.stdout.read()
            writer.join()
        else:
            out = []
            for start in range(0, len(lines), k):
                block = lines[start:start + k]
                proc.stdin.write(b"".join(block))
                proc.stdin.flush()
                out += [proc.stdout.readline() for _ in block]
            proc.stdin.close()
            out = b"".join(out) + proc.stdout.read()
    return proc.returncode, out


SEED0 = stream_pvalues(PINNED["seed"], "full").tolist()  # the benchmark's seed-0 stream file


@pytest.mark.parametrize("k", [None, 1, 31, 32, 159, 160],
                         ids=lambda k: "one-write" if k is None else f"{k}-line-writes")
def test_pinned_stream_bytes(k):
    """The seed-0 file under lond adaptive gives the stdout pinned for the benchmark.

    k = 1, 31, 32 and 159 take the step fold and the per-line f-string,
    160 the core and the vectorized formatter.
    """
    code, out = stream(["--procedure", "lond", "--adaptive"], pvalue_lines(SEED0), k)
    assert (code, hashlib.sha256(out).hexdigest()) == (0, PINNED["stream-cli"])


def u40_file():
    """U**40 P-values, nearly all in exponent notation, and a few subnormal lines."""
    powers = (np.random.default_rng(40).random(60000) ** 40).tolist()
    for k, subnormal in zip((100, 30000, 59999), (5e-324, 8e-323, 2.225073858507201e-308)):
        powers[k] = subnormal
    return powers


@pytest.mark.parametrize("rule", ["lord", "lond"])
@pytest.mark.parametrize("file, nu", [("seed-0", None), ("U**40", None), ("seed-0", 1020)],
                         ids=["seed-0", "U**40", "seed-0-nu-1020"])
def test_stream_against_step_fold(file, nu, rule):
    """Fed in one write under a power schedule, ``stream`` prints a fold of the rule's step.

    The fold's lines are written by the per-line f-string here. Under the
    default nu 1.05 the command decides its 64 KB blocks through the
    shared core, which run_stream shares too, and writes them with its
    vectorized formatter, so the fold is the reference for both. The
    U**40 file's blocks that hold a subnormal P-value, and every block
    under nu 1020 (lambda_2 is subnormal, every later lambda 0.0), take
    the command's own step fold instead, as its check before deciding
    finds them. The fold's schedule takes L = q / zeta(nu) from scipy,
    not from make_power_schedule, so a drift in L shows here.
    """
    pvalues = SEED0 if file == "seed-0" else u40_file()
    flags = [] if nu is None else ["--nu", str(nu)]
    nu = 1.05 if nu is None else float(nu)
    schedule = LambdaSchedule("power", 0.1, nu, 0.1 / float(special.zeta(nu)))
    state, step = {"lord": (LordState(), lord_step), "lond": (LondState(), lond_step)}[rule]
    decisions = [step(state, schedule, p) for p in pvalues]
    expected = [f"{d.index} {d.alpha!r} {d.p!r} {'REJECT' if d.rejected else 'ACCEPT'}".encode() for d in decisions]
    expected += [f"# discoveries={sum(d.rejected for d in decisions)} n={len(decisions)}".encode(), b""]
    code, out = stream(["--procedure", rule, *flags], pvalue_lines(pvalues))
    assert code == 0
    assert out.split(b"\n") == expected  # the first line that differs, if one does


@pytest.mark.parametrize("family", ["edges", *range(1, 11)], ids=lambda f: f if f == "edges" else f"random-{f}-of-10")
def test_shortest_digits(family):
    """``_decimal.shortest``, which the stream formatter writes from, gives repr's digits and point.

    On every power of two in [2**-1022, 1] with both neighbours and 1- to
    17-digit decimals at every exponent there ("edges"), and on 1e7 seeded
    normal floats in that range: ten draws of 1e6 from one generator,
    family k taking the k-th.
    """
    if family == "edges":
        powers = np.ldexp(1.0, np.arange(-1022, 1))
        decimals = np.array([float(f"{m}e{e}") for n in range(1, 18)
                             for m in (10**n - 1, 10 ** (n - 1), 5 * 10 ** (n - 1) + 1, int("31415926535897932"[:n]))
                             for e in range(-325, 1)])
        x = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, 2.0), decimals])
        x = x[(x >= 2.0**-1022) & (x <= 1.0)]
    else:
        rng = np.random.default_rng(2024)
        for _ in range(family):
            x = rng.integers(1 << 52, 1023 << 52, 10**6, dtype=np.uint64, endpoint=True).view(np.float64)
    assert_matches_repr(x)


@pytest.mark.parametrize("seed, lo, hi", [(0, 1.0, 10.0), (1, 10.0, 50.0), (2, 50.0, 130.0)])
def test_zeta_against_scipy(seed, lo, hi):
    """make_power_schedule's ``schedules._zeta`` gives scipy.special.zeta's bits on 1e5 seeded nu a branch.

    (10, 50] is the range passed to scipy.
    """
    nus = lo + (hi - lo) * (1.0 - np.random.default_rng(seed).random(10**5))  # in (lo, hi]
    assert zeta_mismatches(nus) == []

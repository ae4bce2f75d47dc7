"""scipy is loaded only by the functions whose values need it.

Every check runs in a fresh interpreter, because this process has loaded
scipy already. The child finds the package the way this process does.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import special

import streamfdr

PRELUDE = f"import sys; sys.path.insert(0, {os.path.dirname(streamfdr.__path__[0])!r})\n"
# The child prints whether any scipy module is loaded as its last line.
SCIPY_LOADED = "\nprint(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
PVALUES = "0.01\n0.002\n0.3\n0.04\n0.9\n"


def run_python(code, stdin=""):
    return subprocess.run(
        [sys.executable, "-c", PRELUDE + code],
        input=stdin, capture_output=True, text=True, timeout=120,
    )


def stream(procedure, *flags):
    return (
        "from streamfdr.cli import main\n"
        f"assert main(['stream', '--procedure', {procedure!r}, *{flags!r}]) == 0\n"
    )


@pytest.mark.parametrize(
    "code, stdin, loaded",
    [
        ("import streamfdr", "", False),
        ("import streamfdr.cli", "", False),
        (stream("lond", "--adaptive"), PVALUES, False),
        (stream("lord", "--adaptive"), PVALUES, False),
        (stream("lord"), PVALUES, False),
        ("from streamfdr.cli import main\n"
         "assert main(['schedule', '--adaptive', '--head', '3']) == 0", "", False),
        ("from streamfdr.cli import main\n"
         "assert main(['schedule', '--head', '3']) == 0", "", False),
        ("from streamfdr import make_power_schedule; make_power_schedule(1.05, 0.1)", "", False),
        # gamma = 1 P-values are one exp, and no quantile cut is taken for them.
        ("from streamfdr import MixtureConfig, run_cell\n"
         "config = MixtureConfig(n=2000, beta=0.5, r=0.8, gamma=1.0, schedule='adaptive', reps=2)\n"
         "assert all(run_cell(config, proc) for proc in ('lord', 'lond', 'bh'))", "", False),
        ("from streamfdr import MixtureConfig, run_cell\n"
         "config = MixtureConfig(n=2000, beta=0.5, r=0.8, gamma=1.0, nu=1.05, reps=2)\n"
         "assert all(run_cell(config, proc) for proc in ('lord', 'lond', 'bh'))", "", False),
        # Controls: the probe sees scipy where a value needs it. zeta on a
        # non-integer nu in (10, 50] is scipy's own.
        ("from streamfdr import make_power_schedule; make_power_schedule(12.5, 0.1)", "", True),
        ("from streamfdr import GGKernel, pvalue; pvalue(GGKernel(2.0), 1.0)", "", True),
    ],
    ids=["import", "import-cli", "stream-lond-adaptive", "stream-lord-adaptive", "stream-lord-power",
         "schedule-adaptive", "schedule-power", "power-schedule", "cell-gamma-1-adaptive",
         "cell-gamma-1-power", "power-schedule-nu-12.5", "pvalue"],
)
def test_scipy_loaded_only_where_needed(code, stdin, loaded):
    result = run_python(code + SCIPY_LOADED, stdin)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == str(loaded)


@pytest.mark.parametrize("procedure, flags", [("lond", ("--adaptive",)), ("lord", ())])
def test_vectorized_block_loads_no_scipy(procedure, flags):
    # One block of _FORMAT_LINES lines is written by the vectorized pass,
    # which loads the digits kernel and no scipy. Short lines keep the input
    # under PIPE_BUF, so the child reads it as one block.
    from streamfdr import cli

    values = np.random.default_rng(4).random(cli._FORMAT_LINES).round(3)
    pvalues = "".join(f"{x!r}\n" for x in values.tolist())
    assert len(pvalues) < 4096
    code = (stream(procedure, *flags) + "print('streamfdr._decimal' in sys.modules)" + SCIPY_LOADED)
    result = run_python(code, pvalues)
    assert result.returncode == 0, result.stderr
    summary, kernel_loaded, scipy_loaded = result.stdout.splitlines()[-3:]
    assert summary.endswith(f" n={cli._FORMAT_LINES}")
    assert (kernel_loaded, scipy_loaded) == ("True", "False")


def test_cli_import_leaves_the_digits_kernel_unloaded():
    # Its tables are built when it is first imported, by the first large block.
    result = run_python("import streamfdr.cli\nprint('streamfdr._decimal' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


def test_cli_import_loads_no_thread_pool():
    # simulate imports concurrent.futures, which loads logging, only to run a pool.
    result = run_python("import streamfdr.cli\nprint('concurrent.futures' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("procedure", ["lord", "lond"])
@pytest.mark.parametrize("flags, discoveries", [(("--adaptive",), 2), ((), 1)],
                         ids=["adaptive", "power"])
def test_stream_runs_with_scipy_blocked(procedure, flags, discoveries):
    # A None entry in sys.modules makes every scipy import raise ImportError.
    blocked = run_python("sys.modules['scipy'] = None\n" + stream(procedure, *flags), PVALUES)
    free = run_python(stream(procedure, *flags), PVALUES)
    assert blocked.returncode == free.returncode == 0, blocked.stderr + free.stderr
    assert blocked.stdout == free.stdout
    assert free.stdout.splitlines()[-1] == f"# discoveries={discoveries} n=5"


X = [-40.0, -3.5, -1e-3, -0.0, 0.0, 1e-300, 0.7, 2.0, 9.0, 38.0]
P = [1e-300, 1e-12, 0.01, 0.3, 0.5, 0.5000001, 0.9, 1.0 - 1e-12]
GAMMAS = [1.0, 1.5, 2.0]


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def test_first_use_bits_match_scipy_special_formulas():
    code = (
        "import json\n"
        "from streamfdr import GGKernel, gg_quantile, make_power_schedule, pvalue\n"
        "hexes = lambda a: [float(v).hex() for v in __import__('numpy').ravel(a)]\n"
        "out = {'power': hexes(make_power_schedule(1.05, 0.1).slice(1, 9))}\n"
        f"for g in {GAMMAS!r}:\n"
        f"    out[f'p{{g}}'] = hexes(pvalue(GGKernel(g), {X!r}))\n"
        f"    out[f'q{{g}}'] = hexes(gg_quantile(GGKernel(g), {P!r}))\n"
        "print(json.dumps(out))\n"
    )
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    got = json.loads(result.stdout)
    # The expressions the functions evaluate, with scipy.special loaded up front.
    i = np.arange(1, 4097, dtype=np.float64)  # a longer range: a value's bits do not depend on it
    assert got["power"] == hexes((0.1 / float(special.zeta(1.05)) * i ** (-1.05))[:8])
    x = np.array(X)
    p = np.array(P)
    for g in GAMMAS:
        az = np.abs(x)
        if g == 2.0:
            tail = 0.5 * special.erfc(az / np.sqrt(2.0))
        elif g == 1.0:
            tail = 0.5 * np.exp(-az)
        else:
            tail = 0.5 * special.gammaincc(1.0 / g, az**g / g)
        assert got[f"p{g}"] == hexes(np.where(x < 0.0, 1.0 - tail, tail))
        y = special.gammainccinv(1.0 / g, 2.0 * np.minimum(p, 1.0 - p))
        q = (g * y) ** (1.0 / g)
        assert got[f"q{g}"] == hexes(np.where(p > 0.5, -q, q))

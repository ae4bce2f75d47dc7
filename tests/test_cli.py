"""Command-line surface tests: exit codes, stream protocol, determinism."""

import io
import math
import subprocess
import sys
import threading
import types

import numpy as np
import pytest
from scipy import special

from streamfdr import (LondState, LordState, cli, lond_step, lord_step, make_adaptive_schedule,
                       make_power_schedule, run_stream)
from streamfdr.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_STREAM,
    EXIT_UNWRITABLE,
    ConfigError,
    cmd_schedule,
    cmd_simulate,
    cmd_stream,
    main,
    parse_config,
)

GOOD_CONFIG = """\
# minimal experiment
n = 2000
beta = 0.5
r = 0.8
gamma = 2
q = 0.1
seed = 7
reps = 3
procedures = lord, bh
"""


class TestParseConfig:
    def test_minimal(self):
        base, r_values, n_values = parse_config(GOOD_CONFIG)
        assert base.n == 2000
        assert base.procedures == ("lord", "bh")
        assert r_values == [0.8]
        assert n_values == [2000]

    def test_grid_keys(self):
        text = "n_values = 100, 200\nbeta = 0.5\nr_values = 0.1, 0.2\nreps = 2\n"
        base, r_values, n_values = parse_config(text)
        assert n_values == [100, 200]
        assert r_values == [0.1, 0.2]

    def test_unknown_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config(GOOD_CONFIG + "bogus = 3\n")
        assert err.value.key == "bogus"

    def test_duplicate_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config(GOOD_CONFIG + "beta = 0.7\n")
        assert err.value.key == "beta"

    def test_scalar_and_grid_conflict(self):
        with pytest.raises(ConfigError):
            parse_config(GOOD_CONFIG + "n_values = 10, 20\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError) as err:
            parse_config("beta = 0.5\nr = 0.3\n")
        assert err.value.key == "n"

    def test_beta_bound_message(self):
        with pytest.raises(ConfigError) as err:
            parse_config(GOOD_CONFIG.replace("beta = 0.5", "beta = 1.5"))
        assert err.value.key == "beta"
        assert "(0, 1)" in str(err.value)

    @staticmethod
    def assert_exit_2_naming(text, key, tmp_path, capsys):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.key == key
        config = tmp_path / "exp.cfg"
        config.write_text(text)
        assert cmd_simulate(str(config), str(tmp_path / "out.csv")) == EXIT_CONFIG
        assert f"config key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, key",
        [("gamma = 2", "gamma = inf", "gamma"), ("r = 0.8", "r = inf", "r"),
         ("gamma = 2", "gamma = 1e308", "gamma")],  # the last overflows the shift mu
    )
    def test_non_finite_model_values_exit_2_naming_the_key(self, old, new, key, tmp_path, capsys):
        self.assert_exit_2_naming(GOOD_CONFIG.replace(old, new), key, tmp_path, capsys)

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("n = 2000", "n = 0", "n"),
            ("beta = 0.5", "beta = 0", "beta"),
            ("r = 0.8", "r = -1", "r"),
            ("gamma = 2", "gamma = 0.5", "gamma"),
            # mu overflows: the larger of gamma and r is at fault.
            ("r = 0.8\ngamma = 2", "r = 1e308\ngamma = 1", "r"),
            ("q = 0.1", "q = 1", "q"),
            ("q = 0.1", "q_rule = bogus", "q_rule"),
            ("n = 2000\n", "n = 2\nq_rule = inverse-log\n", "n"),
            ("seed = 7", "seed = -1", "seed"),
            ("reps = 3", "reps = 0", "reps"),
            ("procedures = lord, bh", "procedures = lord, storey", "procedures"),
            ("q = 0.1", "q = 0.1\nschedule = bogus", "schedule"),
            ("q = 0.1", "q = 0.1\nnu = 1", "nu"),
            # A bad grid point names the grid key.
            ("n = 2000", "n_values = 100, 0", "n_values"),
            ("r = 0.8", "r_values = 0.5, -1", "r_values"),
            ("n = 2000\n", "n_values = 2, 100\nq_rule = inverse-log\n", "n_values"),
            # An entry that changes nothing.
            ("procedures = lord, bh", "procedures = lord, bh, lord", "procedures"),
            ("q = 0.1", "q = 0.1\nq_rule = inverse-log", "q"),
            ("q = 0.1", "q = 5\nq_rule = inverse-log", "q"),
            ("q = 0.1", "q = 0.1\nschedule = adaptive\nnu = 1.05", "nu"),
            ("q = 0.1", "q = 0.1\nschedule = adaptive\nnu = 1", "nu"),
            # A repeated grid entry would run the same seeded cells twice.
            ("n = 2000", "n_values = 1000, 2000, 1000", "n_values"),
            ("r = 0.8", "r_values = 0.5, 0.50", "r_values"),
            # An empty list item is not skipped, and a list needs an item.
            ("n = 2000", "n_values = 1000, , 2000", "n_values"),
            ("procedures = lord, bh", "procedures = lord,", "procedures"),
            ("procedures = lord, bh", "procedures =", "procedures"),
            # A line that is not 'key = value' is named by its number.
            ("seed = 7", "seed 7", "line 7"),
            ("beta = 0.5\n", "", "beta"),
        ],
    )
    def test_each_field_names_its_key(self, old, new, key, tmp_path, capsys):
        assert old in GOOD_CONFIG
        self.assert_exit_2_naming(GOOD_CONFIG.replace(old, new), key, tmp_path, capsys)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("q = 0.1", "q_rule = inverse-log\nschedule = adaptive\nnu = 2",
             "config key 'nu': nu is unused under schedule = adaptive"),
            ("q = 0.1", "q = 0.2\nq_rule = inverse-log",
             "config key 'q': q is unused under q_rule = inverse-log (q = 1/log n)"),
        ],
    )
    def test_unused_key_messages(self, old, new, message):
        with pytest.raises(ConfigError) as err:
            parse_config(GOOD_CONFIG.replace(old, new))
        assert str(err.value) == message

    def test_keys_each_rule_reads_are_accepted(self):
        text = GOOD_CONFIG.replace("q = 0.1", "q_rule = inverse-log\nschedule = adaptive")
        base, _, _ = parse_config(text)
        assert (base.q_rule, base.schedule) == ("inverse-log", "adaptive")
        base, _, _ = parse_config(GOOD_CONFIG + "schedule = power\nnu = 1.5\n")
        assert (base.q, base.nu) == (0.1, 1.5)

    def test_messages_are_the_config_messages(self):
        text = GOOD_CONFIG.replace("r = 0.8\ngamma = 2", "r = 1e308\ngamma = 1")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == (
            "config key 'r': mu must be finite: gamma 1.0 and r 1e+308 overflow it"
        )

    def test_unparseable_value(self):
        with pytest.raises(ConfigError) as err:
            parse_config(GOOD_CONFIG.replace("reps = 3", "reps = many"))
        assert err.value.key == "reps"


class TestSimulateCommand:
    def test_minimal_run(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(GOOD_CONFIG)
        out = tmp_path / "out.csv"
        assert main(["simulate", str(config), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "replicate,n_eval,procedure,beta,r,gamma,q,fdp,fnp,rejections"
        # 3 replicates + 1 pooled row per procedure
        assert len(lines) == 1 + 2 * 4

    def test_rerun_is_byte_identical(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(GOOD_CONFIG)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cmd_simulate(str(config), str(out_a)) == EXIT_OK
        assert cmd_simulate(str(config), str(out_b)) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_bad_beta_exits_2_naming_bound(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text(GOOD_CONFIG.replace("beta = 0.5", "beta = 1.5"))
        code = cmd_simulate(str(config), str(tmp_path / "out.csv"))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "beta" in err and "(0, 1)" in err

    def test_missing_config_exits_2(self, tmp_path):
        assert cmd_simulate(str(tmp_path / "nope.cfg"), str(tmp_path / "o.csv")) == EXIT_CONFIG

    def test_unwritable_output_exits_3(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(GOOD_CONFIG)
        code = cmd_simulate(str(config), str(tmp_path / "no" / "dir" / "o.csv"))
        assert code == EXIT_UNWRITABLE

    def test_seed_and_reps_flags_override_config(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(GOOD_CONFIG)
        out_a, out_b, out_c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        assert main(["simulate", str(config), "--out", str(out_a), "--seed", "123"]) == EXIT_OK
        assert main(["simulate", str(config), "--out", str(out_b), "--seed", "123"]) == EXIT_OK
        assert main(["simulate", str(config), "--out", str(out_c), "--seed", "124"]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()
        assert out_a.read_bytes() != out_c.read_bytes()
        out_d = tmp_path / "d.csv"
        assert main(["simulate", str(config), "--out", str(out_d), "--reps", "5"]) == EXIT_OK
        # 5 replicates + pooled per procedure
        assert len(out_d.read_text().splitlines()) == 1 + 2 * 6

    def test_bad_reps_override_exits_2(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text(GOOD_CONFIG)
        code = cmd_simulate(str(config), str(tmp_path / "o.csv"), reps=0)
        assert code == EXIT_CONFIG
        assert "reps" in capsys.readouterr().err
        assert main(["simulate", str(config), "--out", str(tmp_path / "o.csv"), "--reps", "0"]) \
            == EXIT_CONFIG
        assert capsys.readouterr().err == "error: --reps: reps must be an integer >= 1, got 0\n"
        assert not (tmp_path / "o.csv").exists()

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text(GOOD_CONFIG)
        code = cmd_simulate(str(config), str(tmp_path / "o.csv"), seed=-1)
        assert code == EXIT_CONFIG
        assert "error: --seed: seed must be an integer >= 0, got -1" in capsys.readouterr().err


class TestScheduleCommand:
    def run(self, q=0.1, nu=None, adaptive=False, head=10):
        out, err = io.StringIO(), io.StringIO()
        code = cmd_schedule(q, nu, adaptive, head, stdout=out, stderr=err)
        return code, out.getvalue(), err.getvalue()

    def test_head_lines_and_residual(self):
        code, out, _ = self.run(nu=2.0, head=3)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 4
        values = [float(line.split()[1]) for line in lines[:3]]
        assert values[0] == pytest.approx(0.1 * 6 / math.pi**2, rel=1e-12)
        assert values[0] / values[1] == pytest.approx(4.0, rel=1e-12)
        assert values[0] / values[2] == pytest.approx(9.0, rel=1e-12)
        assert lines[3].startswith("# residual=")
        assert float(lines[3].split("=")[1]) >= 0.0

    def test_default_exponent_normalizer(self):
        # nu defaults to 1.05 when neither flag is given.
        code, out, _ = self.run(head=1)
        assert code == EXIT_OK
        lam1 = float(out.splitlines()[0].split()[1])
        assert lam1 == 0.1 / float(special.zeta(1.05))

    def test_divergent_exponent_exits_2(self):
        code, _, err = self.run(nu=0.9, head=3)
        assert code == EXIT_CONFIG
        assert "nu" in err

    @pytest.mark.parametrize("head", ["0", "-3"])
    def test_head_below_one_is_named(self, head, capsys):
        assert main(["schedule", "--head", head]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"error: --head: head must be an integer >= 1, got {head}\n"
        assert captured.out == ""

    def test_fractional_head_is_named(self):
        message = "error: --head: head must be an integer >= 1, got 2.5\n"
        assert self.run(head=2.5) == (EXIT_CONFIG, "", message)

    def test_adaptive_kind(self):
        code, out, _ = self.run(adaptive=True, head=5)
        assert code == EXIT_OK
        values = [float(line.split()[1]) for line in out.splitlines()[:5]]
        assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("command", [["stream", "--procedure", "lond"], ["schedule"]])
@pytest.mark.parametrize(
    "flag, value, message",
    [("--q", "1.5", "q must lie in (0, 1), got 1.5"),
     ("--nu", "0.5", "nu must exceed 1 (the series diverges otherwise), got 0.5")],
)
def test_bad_schedule_flag_is_named(command, flag, value, message, capsys):
    assert main(command + [flag, value]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag}: {message}\n" and captured.out == ""


def run_stream_inproc(lines, procedure="lord", q=0.1, nu=2.0, adaptive=False):
    """Exit code, stdout lines and stderr of ``cmd_stream`` over ``lines``.

    The stdin is a text stream over bytes, so it has the binary buffer
    that ``sys.stdin`` has.
    """
    data = "".join(line + "\n" for line in lines).encode()
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    code = cmd_stream(procedure, q, nu, adaptive, stdin=stdin, stdout=stdout, stderr=stderr)
    return code, stdout.getvalue().splitlines(), stderr.getvalue()


class TestStreamCommand:
    def test_single_rejection_line(self):
        code, out, _ = run_stream_inproc(["0.04"])
        assert code == EXIT_OK
        fields = out[0].split()
        assert fields[0] == "1"
        assert float(fields[1]) == pytest.approx(0.1 * 6 / math.pi**2, rel=1e-12)
        assert fields[2] == "0.04"
        assert fields[3] == "REJECT"
        assert out[1] == "# discoveries=1 n=1"

    @pytest.mark.parametrize("procedure", ["lorx", "bh", "LORD", ""])
    def test_unknown_procedure_is_named_before_reading(self, procedure):
        class Unread:
            def __iter__(self):
                raise AssertionError("stdin was read")

        stdout, stderr = io.StringIO(), io.StringIO()
        code = cmd_stream(procedure, 0.1, 2.0, False, stdin=Unread(), stdout=stdout, stderr=stderr)
        assert code == EXIT_CONFIG and stdout.getvalue() == ""
        assert stderr.getvalue() == (f"error: --procedure: unknown procedure {procedure!r}; "
                                     "choose from ('lord', 'lond')\n")

    def test_empty_input(self):
        code, out, _ = run_stream_inproc([])
        assert code == EXIT_OK
        assert out == ["# discoveries=0 n=0"]

    def test_out_of_range_pvalue_exits_4(self):
        code, out, err = run_stream_inproc(["0.5", "1.5", "0.2"])
        assert code == EXIT_STREAM
        assert "# error line 2" in err
        assert len(out) == 1  # decisions up to the bad line only

    @pytest.mark.parametrize("procedure", ["lord", "lond"])
    def test_negative_zero_echoes_as_zero(self, procedure):
        code, out, _ = run_stream_inproc(["-0.0", "-0", "0.0"], procedure=procedure)
        zero = run_stream_inproc(["0.0", "0.0", "0.0"], procedure=procedure)[1]
        assert code == EXIT_OK and out == zero
        assert [line.split()[2] for line in out[:3]] == ["0.0"] * 3

    def test_unparseable_line_exits_4(self):
        code, _, err = run_stream_inproc(["oops"])
        assert code == EXIT_STREAM
        assert "# error line 1" in err

    def test_matches_library_decisions(self):
        pvals = [0.9, 0.01, 0.4, 0.004, 0.2]
        schedule = make_power_schedule(2.0, 0.1)
        for procedure in ("lord", "lond"):
            code, out, _ = run_stream_inproc([str(p) for p in pvals], procedure=procedure)
            assert code == EXIT_OK
            expected = run_stream(procedure, schedule, pvals)
            assert len(out) == len(pvals) + 1
            for line, dec in zip(out, expected):
                idx, alpha, p, verdict = line.split()
                assert int(idx) == dec.index
                assert float(alpha) == dec.alpha
                assert float(p) == dec.p
                assert verdict == ("REJECT" if dec.rejected else "ACCEPT")
            n_rej = sum(d.rejected for d in expected)
            assert out[-1] == f"# discoveries={n_rej} n={len(pvals)}"


def arrivals(chunks, errors="strict"):
    """A stdin whose binary buffer hands out ``chunks``, one per ``read1``, as a pipe would.

    An empty chunk would read as end of input, so it is dropped.
    """
    pending = [chunk for chunk in chunks if chunk]
    buffer = types.SimpleNamespace(read1=lambda size: pending.pop(0) if pending else b"")
    return types.SimpleNamespace(buffer=buffer, encoding="utf-8", errors=errors)


class Recorder(io.StringIO):
    """A stdout that keeps the text of each write and counts flushes."""

    def __init__(self):
        super().__init__()
        self.writes = []
        self.flushes = 0

    def write(self, text):
        self.writes.append(text)
        return super().write(text)

    def flush(self):
        self.flushes += 1
        super().flush()


def stream_chunks(chunks, errors="strict", procedure="lond", nu=2.0, adaptive=False):
    """Exit code, recorded stdout and stderr of ``cmd_stream`` over ``arrivals(chunks, errors)``."""
    stdout, stderr = Recorder(), io.StringIO()
    code = cmd_stream(procedure, 0.1, nu, adaptive, stdin=arrivals(chunks, errors), stdout=stdout,
                      stderr=stderr)
    return code, stdout, stderr.getvalue()


def stream_text(text):
    """The stdout of ``cmd_stream`` over ``text`` read in one block."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cmd_stream("lond", 0.1, 2.0, False, stdin=arrivals([text.encode()]), stdout=stdout, stderr=stderr)
    return stdout.getvalue()


# A few thousand P-values, a tenth of them small enough to reject.
RNG_LINES = np.where(np.random.default_rng(9).random(3000) < 0.1, 1e-6,
                     np.random.default_rng(10).random(3000)).tolist()


class TestStreamBlocks:
    def test_each_block_is_one_write_and_one_flush(self):
        code, stdout, _ = stream_chunks([b"0.04\n0.9\n", b"0.3\n0.0", b"01\n0.5\n"])
        assert code == EXIT_OK
        # The middle block ends mid-line: its complete line is written with it,
        # the rest waits for the next block.
        assert [text.count("\n") for text in stdout.writes] == [2, 1, 2, 1]
        assert stdout.flushes == len(stdout.writes)
        assert stdout.getvalue() == stream_text("0.04\n0.9\n0.3\n0.001\n0.5\n")

    def test_any_split_of_the_input_gives_the_same_output(self):
        text = "0.04\n\u0660.\u0660\u0660\u0661\n0.9\n 0.2 \r\n0.01"
        data = text.encode()
        expected = stream_text(text)
        assert expected.splitlines()[1].split()[2] == "0.001"
        splits = [[data[:k], data[k:]] for k in range(len(data) + 1)]
        splits.append([data[k:k + 1] for k in range(len(data))])
        for chunks in splits:
            code, stdout, _ = stream_chunks(chunks)
            assert (code, stdout.getvalue()) == (EXIT_OK, expected), chunks

    @pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
    def test_bad_line_in_a_block_writes_the_decisions_before_it(self, errors):
        for bad in (b"\xff\xfe", b"1.5", b"0.5 0.5"):
            code, stdout, err = stream_chunks([b"0.5\n0.2\n" + bad + b"\n0.1\n"], errors)
            assert code == EXIT_STREAM and err == "# error line 3\n"
            assert stdout.writes == [stream_text("0.5\n0.2\n").rsplit("#", 1)[0]]
            assert stdout.flushes == 1

    def test_patched_step_runs_once_per_line(self, monkeypatch):
        # A tracer patches the step where the command looks it up.
        calls = []

        def counted(state, schedule, p):
            calls.append(p)
            return lond_step(state, schedule, p)

        monkeypatch.setattr(cli, "lond_step", counted)
        assert stream_text("0.5\n0.01\n0.3\n").endswith(" n=3\n")
        assert calls == [0.5, 0.01, 0.3]

    @pytest.mark.parametrize("procedure", ["lord", "lond"])
    def test_block_at_the_crossover_skips_the_step(self, procedure, monkeypatch):
        def patched(state, schedule, p):
            raise AssertionError("the step ran")

        monkeypatch.setattr(cli, f"{procedure}_step", patched)
        lines = b"".join(b"%r\n" % x for x in RNG_LINES[:cli._CORE_LINES])
        code, stdout, _ = stream_chunks([lines], procedure=procedure)
        assert code == EXIT_OK and stdout.getvalue().endswith(f" n={cli._CORE_LINES}\n")

    @pytest.mark.parametrize("nu, adaptive", [(1.05, False), (None, True)])
    @pytest.mark.parametrize("procedure", ["lord", "lond"])
    def test_one_large_block_gives_the_bytes_of_line_at_a_time(self, procedure, nu, adaptive):
        lines = [b"%r\n" % x for x in RNG_LINES]
        options = {"procedure": procedure, "nu": nu, "adaptive": adaptive}
        code, stdout, _ = stream_chunks([b"".join(lines)], **options)
        assert code == EXIT_OK and stdout.writes[0].count("\n") == len(lines)
        assert (code, stdout.getvalue()) == (EXIT_OK, stream_chunks(lines, **options)[1].getvalue())
        assert stdout.getvalue().count("REJECT") > 50  # the state moves inside the block

    @pytest.mark.parametrize("bad", [b"1.5", b"nan", b"\xff\xfe"])
    @pytest.mark.parametrize("procedure", ["lord", "lond"])
    def test_bad_line_in_a_large_block(self, procedure, bad):
        lines = [b"%r\n" % x for x in RNG_LINES]
        for k in (0, cli._CORE_LINES - 1, cli._CORE_LINES, len(lines) - 1):
            code, stdout, err = stream_chunks([b"".join(lines[:k] + [bad + b"\n"] + lines[k + 1:])],
                                              procedure=procedure)
            before = stream_chunks(lines[:k], procedure=procedure)[1].getvalue()
            assert code == EXIT_STREAM and err == f"# error line {k + 1}\n"
            assert stdout.writes == [before.rsplit("#", 1)[0]] and stdout.flushes == 1

    @pytest.mark.parametrize("procedure", ["lord", "lond"])
    def test_negative_zero_in_a_large_block(self, procedure):
        lines = [b"%r\n" % x for x in RNG_LINES]
        zero = lines.copy()
        for k in (0, 100, len(lines) - 1):
            lines[k], zero[k] = b"-0.0\n", b"0.0\n"
        code, stdout, _ = stream_chunks([b"".join(lines)], procedure=procedure)
        assert (code, stdout.getvalue()) == (EXIT_OK, stream_chunks(zero, procedure=procedure)[1].getvalue())
        assert stdout.getvalue().splitlines()[100].split()[2] == "0.0"


def fstring_lines(start, alpha, p, rejected):
    """The decision lines as the per-line f-string writes them."""
    rows = zip(range(start, start + len(p)), alpha.tolist(), p.tolist(), rejected.tolist())
    return "".join(f"{i} {a!r} {p!r} {'REJECT' if r else 'ACCEPT'}\n" for i, a, p, r in rows)


# Both notations and their boundary, the constants, 17-digit and short decimals.
EDGE_VALUES = [0.0, 1.0, 0.5, 0.0001, 9.999999999999999e-05, 1e-99, 1e-100, 1e-05, 0.001, 0.1,
               2.0**-1022, 2.0**-25, 0.30000000000000004, 1.0 - 2.0**-53, 0.05, 2.5e-200, 1.2e-10]


def block(n, seed):
    """Levels, P-values and verdicts of an n-line block mixing both notations and the edges."""
    rng = np.random.default_rng(seed)
    alpha = rng.random(n) ** 30
    p = rng.random(n)
    p[::3] = p[::3] ** 40  # exponent notation
    p[::5] = rng.integers(1 << 52, 1023 << 52, len(p[::5]), dtype=np.uint64).view(np.float64)
    p[:len(EDGE_VALUES)] = EDGE_VALUES
    alpha[-len(EDGE_VALUES):] = EDGE_VALUES
    return alpha, p, p <= alpha


class TestFormatBlock:
    @pytest.mark.parametrize("start", [1, 9990, 99990, 2 * 10**7, 99999990, 10**12])
    def test_matches_the_fstring(self, start):
        # 9999 -> 10000 and 99999 -> 100000 inside the block; 99999999 -> 1e8
        # crosses to a second word of index digits.
        alpha, p, rejected = block(max(cli._FORMAT_LINES, 300), seed=start)
        assert cli._format_block(start, alpha, p, rejected) == fstring_lines(start, alpha, p, rejected)

    def test_a_large_random_block(self):
        alpha, p, rejected = block(20000, seed=1)
        assert cli._format_block(1, alpha, p, rejected) == fstring_lines(1, alpha, p, rejected)

    @pytest.mark.parametrize("procedure", ["lord", "lond"])
    @pytest.mark.parametrize("subnormal", [5e-324, 8e-323, 2.225073858507201e-308])
    def test_subnormal_pvalue_takes_the_fstring(self, procedure, subnormal, monkeypatch):
        # The kernel's digits differ from repr's for some subnormals (Java
        # prints 4.9e-324 for 5e-324), so such a block is written line by line.
        lines = [b"%r\n" % x for x in RNG_LINES]
        lines[7] = b"%r\n" % subnormal
        expected = stream_chunks(lines, procedure=procedure)[1].getvalue()
        assert f" {subnormal!r} " in expected

        def refused(*args):
            raise AssertionError("the vectorized pass ran")

        monkeypatch.setattr(cli, "_format_block", refused)
        code, stdout, _ = stream_chunks([b"".join(lines)], procedure=procedure)
        assert (code, stdout.getvalue()) == (EXIT_OK, expected)

    @pytest.mark.parametrize("procedure", ["lord", "lond"])
    def test_subnormal_level_takes_the_fstring(self, procedure):
        # A budget of 1e-310 makes every level subnormal.
        pvalues = RNG_LINES[:cli._FORMAT_LINES]
        stdout = io.StringIO()
        lines = b"".join(b"%r\n" % x for x in pvalues)
        assert cmd_stream(procedure, 1e-310, None, True, stdin=arrivals([lines]), stdout=stdout,
                          stderr=io.StringIO()) == EXIT_OK
        state, step = {"lord": (LordState(), lord_step), "lond": (LondState(), lond_step)}[procedure]
        schedule = make_adaptive_schedule(1e-310)
        decisions = [step(state, schedule, p) for p in pvalues]
        assert 0.0 < decisions[0].alpha < 2.0**-1022
        expected = "".join(f"{i} {a!r} {p!r} {'REJECT' if r else 'ACCEPT'}\n"
                           for i, a, p, r in decisions)
        assert stdout.getvalue().rsplit("#", 1)[0] == expected

    @pytest.mark.parametrize("procedure, nu, adaptive", [("lord", 1.05, False), ("lond", None, True)])
    def test_blocks_at_the_crossover_give_the_bytes_of_line_at_a_time(self, procedure, nu, adaptive,
                                                                      monkeypatch):
        options = {"procedure": procedure, "nu": nu, "adaptive": adaptive}
        calls = []
        vectorized = cli._format_block
        monkeypatch.setattr(cli, "_format_block",
                            lambda *args: calls.append(len(args[2])) or vectorized(*args))
        for n in (cli._FORMAT_LINES - 1, cli._FORMAT_LINES):
            lines = [b"%r\n" % x for x in RNG_LINES[:n]]
            code, stdout, _ = stream_chunks([b"".join(lines)], **options)
            assert (code, stdout.getvalue()) == (EXIT_OK, stream_chunks(lines, **options)[1].getvalue())
        assert calls == [cli._FORMAT_LINES]


def read_line(stream, timeout=20.0):
    box = []
    thread = threading.Thread(target=lambda: box.append(stream.readline()), daemon=True)
    thread.start()
    thread.join(timeout)
    if not box:
        raise AssertionError("no output line within timeout: a decision was not flushed "
                             "before the command waited for input")
    return box[0]


class TestStreamProtocolCausality:
    def test_one_decision_per_line_before_next_input(self):
        with subprocess.Popen(
            [sys.executable, "-m", "streamfdr.cli", "stream", "--procedure", "lord",
             "--q", "0.1", "--nu", "2"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ) as proc:
            try:
                seen = []
                for p in ["0.04", "0.9", "0.001"]:
                    proc.stdin.write(p + "\n")
                    proc.stdin.flush()
                    seen.append(read_line(proc.stdout))
                # Three inputs, three decision lines, no summary yet.
                assert len(seen) == 3
                assert seen[0].split()[3] == "REJECT"
            finally:
                proc.kill()
                proc.wait()
            assert proc.stdout.read() == ""

    def test_summary_after_eof(self):
        result = subprocess.run(
            [sys.executable, "-m", "streamfdr.cli", "stream", "--procedure", "lond",
             "--q", "0.1", "--nu", "2"],
            input="0.04\n0.9\n",
            capture_output=True,
            text=True,
        )
        assert result.returncode == EXIT_OK
        lines = result.stdout.splitlines()
        assert len(lines) == 3
        assert lines[-1] == "# discoveries=1 n=2"

    def test_closed_stdout_exits_3_without_traceback(self, tmp_path):
        # Far more output than a pipe buffer holds, so the stream is still
        # writing when the reader closes its end after one line.
        pvalues = tmp_path / "p.txt"
        pvalues.write_text("0.5\n" * 20000)
        with pvalues.open() as stdin, subprocess.Popen(
            [sys.executable, "-m", "streamfdr.cli", "stream", "--procedure", "lord", "--adaptive"],
            stdin=stdin,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ) as proc:
            assert proc.stdout.readline().startswith("1 ")
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == EXIT_UNWRITABLE
        assert err == "error: cannot write output: [Errno 32] Broken pipe\n"

    def test_schedule_into_closed_stdout_exits_3_without_traceback(self):
        # As for stream: far more output than a pipe buffer holds.
        with subprocess.Popen(
            [sys.executable, "-m", "streamfdr.cli", "schedule", "--adaptive", "--head", "100000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ) as proc:
            assert proc.stdout.readline().startswith("1 ")
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == EXIT_UNWRITABLE
        assert err == "error: cannot write output: [Errno 32] Broken pipe\n"

    def test_bad_line_exit_code_via_subprocess(self):
        result = subprocess.run(
            [sys.executable, "-m", "streamfdr.cli", "stream", "--procedure", "lord"],
            input="1.5\n",
            capture_output=True,
            text=True,
        )
        assert result.returncode == EXIT_STREAM
        assert "# error line 1" in result.stderr


STREAM_LOND = [sys.executable, "-m", "streamfdr.cli", "stream", "--procedure", "lond", "--adaptive"]


def stream_cli(data: bytes):
    """Exit code, stdout and stderr of the stream command fed ``data`` (under 64 KB) in one write."""
    with subprocess.Popen(STREAM_LOND, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        proc.stdin.write(data)
        proc.stdin.close()
        out, err = proc.stdout.read(), proc.stderr.read()
        return proc.wait(timeout=60), out, err


class TestStreamBlocksViaSubprocess:
    def test_one_write_gives_the_bytes_of_line_at_a_time(self):
        rng = np.random.default_rng(5)
        pvalues = np.where(rng.random(200) < 0.1, rng.random(200) * 1e-3, rng.random(200))
        lines = [(repr(float(p)) + "\n").encode() for p in pvalues]
        with subprocess.Popen(STREAM_LOND, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            replies = []
            for line in lines:
                proc.stdin.write(line)
                proc.stdin.flush()
                replies.append(read_line(proc.stdout))
            proc.stdin.close()
            replies.append(proc.stdout.read())
            assert proc.wait(timeout=60) == EXIT_OK
        code, out, err = stream_cli(b"".join(lines))
        assert (code, err) == (EXIT_OK, b"")
        assert out == b"".join(replies)
        assert out.count(b"REJECT") > 0 and out.endswith(b" n=200\n")

    def test_half_a_line_waits_and_the_full_line_is_answered(self):
        with subprocess.Popen(STREAM_LOND, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            try:
                proc.stdin.write(b"0.04\n0.0")
                proc.stdin.flush()
                first = read_line(proc.stdout)
                proc.stdin.write(b"5\n")
                proc.stdin.flush()
                second = read_line(proc.stdout)
            finally:
                proc.stdin.close()
            rest = proc.stdout.read()
            assert proc.wait(timeout=60) == EXIT_OK
        index, _, p, verdict = first.split()
        assert (index, p, verdict) == (b"1", b"0.04", b"REJECT")
        index, _, p, _ = second.split()
        assert (index, p) == (b"2", b"0.05")
        assert rest.endswith(b" n=2\n")

    def test_bad_line_inside_one_block(self):
        _, good, _ = stream_cli(b"0.04\n0.9\n")
        code, out, err = stream_cli(b"0.04\n0.9\n1.5\n0.2\n")
        assert (code, err) == (EXIT_STREAM, b"# error line 3\n")
        assert out == good.rsplit(b"#", 1)[0] and out.count(b"\n") == 2

    @pytest.mark.parametrize("data, same_as", [
        (b"0.04\n\xd9\xa0.\xd9\xa0\xd9\xa0\xd9\xa1\n", b"0.04\n0.001\n"),  # Arabic-Indic digits
        (b"0.04\n0.9", b"0.04\n0.9\n"),  # no newline after the last line
    ])
    def test_read_as_its_plain_form(self, data, same_as):
        assert stream_cli(data) == stream_cli(same_as)

    def test_undecodable_line_exits_4(self):
        _, good, _ = stream_cli(b"0.5\n")
        code, out, err = stream_cli(b"0.5\n\xff\xfe\n0.2\n")
        assert (code, err) == (EXIT_STREAM, b"# error line 2\n")
        assert out == good.rsplit(b"#", 1)[0]

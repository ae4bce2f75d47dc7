"""Command-line surface tests: exit codes, stream protocol, determinism."""

import io
import math
import subprocess
import sys
import threading

import pytest
from scipy import special

from streamfdr import make_power_schedule, run_stream
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
        ],
    )
    def test_each_field_names_its_key(self, old, new, key, tmp_path, capsys):
        assert old in GOOD_CONFIG
        self.assert_exit_2_naming(GOOD_CONFIG.replace(old, new), key, tmp_path, capsys)

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

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text(GOOD_CONFIG)
        code = cmd_simulate(str(config), str(tmp_path / "o.csv"), seed=-1)
        assert code == EXIT_CONFIG
        assert "seed must be >= 0" in capsys.readouterr().err


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
        assert lam1 == pytest.approx(0.1 / float(special.zeta(1.05)), rel=1e-12)

    def test_divergent_exponent_exits_2(self):
        code, _, err = self.run(nu=0.9, head=3)
        assert code == EXIT_CONFIG
        assert "nu" in err

    def test_adaptive_kind(self):
        code, out, _ = self.run(adaptive=True, head=5)
        assert code == EXIT_OK
        values = [float(line.split()[1]) for line in out.splitlines()[:5]]
        assert all(a > b for a, b in zip(values, values[1:]))


def run_stream_inproc(lines, procedure="lord", q=0.1, nu=2.0, adaptive=False):
    stdin = io.StringIO("".join(line + "\n" for line in lines))
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

    def test_empty_input(self):
        code, out, _ = run_stream_inproc([])
        assert code == EXIT_OK
        assert out == ["# discoveries=0 n=0"]

    def test_out_of_range_pvalue_exits_4(self):
        code, out, err = run_stream_inproc(["0.5", "1.5", "0.2"])
        assert code == EXIT_STREAM
        assert "# error line 2" in err
        assert len(out) == 1  # decisions up to the bad line only

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


def read_line(stream, timeout=20.0):
    box = []
    thread = threading.Thread(target=lambda: box.append(stream.readline()), daemon=True)
    thread.start()
    thread.join(timeout)
    if not box:
        raise AssertionError("no output line within timeout: stream not flushed per line")
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

    def test_bad_line_exit_code_via_subprocess(self):
        result = subprocess.run(
            [sys.executable, "-m", "streamfdr.cli", "stream", "--procedure", "lord"],
            input="1.5\n",
            capture_output=True,
            text=True,
        )
        assert result.returncode == EXIT_STREAM
        assert "# error line 1" in result.stderr

"""Command-line surface: simulate experiment grids, stream decisions, dump schedules.

Exit codes: 0 success, 2 malformed flags or config, 3 unwritable output,
4 malformed stream input. The stream command is strictly online: one
decision line is emitted and flushed per input line before the next
line is read, and a bad line aborts immediately (silently skipping
inputs would void the error-control guarantee).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .engines import LondState, LordState, lond_step, lord_step
from .schedules import FieldError, LambdaSchedule, _check_q, make_adaptive_schedule, make_power_schedule
from .simulation import MixtureConfig, run_grid, write_csv

__all__ = ["main", "entry", "cmd_simulate", "cmd_stream", "cmd_schedule", "parse_config"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNWRITABLE = 3
EXIT_STREAM = 4


class ConfigError(Exception):
    """Malformed experiment config; ``key`` names the offending entry."""

    def __init__(self, key: str, message: str):
        super().__init__(f"config key '{key}': {message}")
        self.key = key


_SCALAR_KEYS = {
    "n": int,
    "beta": float,
    "r": float,
    "gamma": float,
    "q": float,
    "q_rule": str,
    "seed": int,
    "reps": int,
    "schedule": str,
    "nu": float,
}
_LIST_KEYS = {"n_values": int, "r_values": float, "procedures": str}


def parse_config(text: str):
    """Parse ``key = value`` lines into (MixtureConfig, r_values, n_values).

    Blank lines and ``#`` comments are ignored. Grid keys ``n_values`` /
    ``r_values`` (comma-separated) replace the scalar ``n`` / ``r``;
    exactly one of each pair must be present.
    """
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key in raw:
            raise ConfigError(key, "duplicate key")
        if key in _SCALAR_KEYS:
            caster = _SCALAR_KEYS[key]
        elif key in _LIST_KEYS:
            caster = _LIST_KEYS[key]
        else:
            raise ConfigError(key, "unknown key")
        try:
            if key in _LIST_KEYS:
                parts = [part.strip() for part in value.split(",") if part.strip()]
                if not parts:
                    raise ValueError("empty list")
                raw[key] = [caster(part) for part in parts]
            else:
                raw[key] = caster(value)
        except ValueError as exc:
            raise ConfigError(key, f"bad value {value!r} ({exc})") from None

    for scalar, grid in (("n", "n_values"), ("r", "r_values")):
        if scalar in raw and grid in raw:
            raise ConfigError(grid, f"give either '{scalar}' or '{grid}', not both")
        if scalar not in raw and grid not in raw:
            raise ConfigError(scalar, f"missing required key '{scalar}' (or '{grid}')")
    if "beta" not in raw:
        raise ConfigError("beta", "missing required key 'beta'")

    # A bad grid point is blamed on the grid key it came from.
    keys = {scalar: grid for scalar, grid in (("n", "n_values"), ("r", "r_values")) if grid in raw}
    n_values = raw.pop("n_values", None) or [raw.pop("n")]
    r_values = raw.pop("r_values", None) or [raw.pop("r")]
    if "procedures" in raw:
        raw["procedures"] = tuple(raw["procedures"])
    try:  # every grid point; the first is the base config
        points = [MixtureConfig(n=int(n), r=float(r), **raw) for n in n_values for r in r_values]
    except FieldError as exc:
        raise ConfigError(keys.get(exc.field, exc.field), str(exc)) from None
    return points[0], r_values, n_values


def _make_schedule_from_flags(q: float, nu, adaptive: bool) -> LambdaSchedule:
    """The schedule the flags select; a ``ValueError`` names the flag at fault."""
    try:  # q first, as a bad --q is named even when --nu is bad too
        q = _check_q(q)
        if adaptive:
            return make_adaptive_schedule(q)
        return make_power_schedule(1.05 if nu is None else nu, q)
    except FieldError as exc:
        raise ValueError(f"--{exc.field}: {exc}") from None


def cmd_simulate(config_path: str, out_path: str, seed=None, reps=None, stderr=None) -> int:
    """Run the grid described by a config file and write the CSV.

    ``seed`` and ``reps`` override the config file when given.
    """
    stderr = stderr or sys.stderr
    try:
        with open(config_path) as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=stderr)
        return EXIT_CONFIG
    try:
        base, r_values, n_values = parse_config(text)
        overrides = {k: v for k, v in (("seed", seed), ("reps", reps)) if v is not None}
        base = dataclasses.replace(base, **overrides)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_CONFIG
    rows = run_grid(base, r_values, n_values)
    try:
        write_csv(rows, out_path)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=stderr)
        return EXIT_UNWRITABLE
    return EXIT_OK


def cmd_stream(procedure: str, q: float, nu, adaptive: bool,
               stdin=None, stdout=None, stderr=None) -> int:
    """Decide one P-value per input line, echoing one decision line each.

    Output format: ``index alpha p REJECT|ACCEPT``, flushed per line.
    End of input emits ``# discoveries=<D> n=<count>``. A line that does
    not parse as a P-value in [0, 1] emits ``# error line <k>`` to
    diagnostics and aborts with exit code 4.
    """
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    try:
        schedule = _make_schedule_from_flags(q, nu, adaptive)
    except ValueError as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_CONFIG
    if procedure == "lord":
        state, step = LordState(), lord_step
    else:
        state, step = LondState(), lond_step
    count = 0
    discoveries = 0
    for line in stdin:
        count += 1
        try:
            # float() rejects unparseable text, the step a P-value outside [0, 1].
            decision = step(state, schedule, float(line))
        except ValueError:
            print(f"# error line {count}", file=stderr)
            return EXIT_STREAM
        verdict = "REJECT" if decision.rejected else "ACCEPT"
        stdout.write(f"{decision.index} {decision.alpha!r} {decision.p!r} {verdict}\n")
        stdout.flush()
        if decision.rejected:
            discoveries += 1
    stdout.write(f"# discoveries={discoveries} n={count}\n")
    stdout.flush()
    return EXIT_OK


def cmd_schedule(q: float, nu, adaptive: bool, head: int, stdout=None, stderr=None) -> int:
    """Print lambda_1..lambda_head and the remaining budget q - sum."""
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    if head < 1:
        print(f"error: --head must be >= 1, got {head}", file=stderr)
        return EXIT_CONFIG
    try:
        schedule = _make_schedule_from_flags(q, nu, adaptive)
    except ValueError as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_CONFIG
    values = schedule.prefix(head)
    for i, lam in enumerate(values, start=1):
        stdout.write(f"{i} {float(lam)!r}\n")
    residual = schedule.q - float(values.sum())
    stdout.write(f"# residual={residual!r}\n")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamfdr",
        description="Online FDR control: run simulation grids, stream decisions, dump schedules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run an experiment grid from a config file")
    p_sim.add_argument("config", help="key = value config file (see README for keys)")
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.add_argument("--reps", type=int, default=None, help="override the replicate count")

    p_stream = sub.add_parser("stream", help="decide P-values read from stdin, one per line")
    p_stream.add_argument("--procedure", choices=("lord", "lond"), required=True)
    _add_schedule_flags(p_stream)

    p_sched = sub.add_parser("schedule", help="print the head of a budget schedule")
    _add_schedule_flags(p_sched)
    p_sched.add_argument("--head", type=int, default=10, help="number of values to print")

    return parser


def _add_schedule_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--q", type=float, default=0.1, help="total FDR budget in (0, 1)")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--nu", type=float, default=None, help="power-law exponent (> 1; default 1.05)")
    group.add_argument("--adaptive", action="store_true", help="use the slow-decay schedule")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "simulate":
        return cmd_simulate(args.config, args.out, seed=args.seed, reps=args.reps)
    if args.command == "stream":
        return cmd_stream(args.procedure, args.q, args.nu, args.adaptive)
    return cmd_schedule(args.q, args.nu, args.adaptive, args.head)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

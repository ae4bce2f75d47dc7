"""Command-line surface: simulate experiment grids, stream decisions, dump schedules.

Exit codes: 0 success, 2 malformed flags or config, 3 unwritable output,
4 malformed stream input. The stream command is strictly online: each
decision depends only on earlier lines and is written and flushed before
the command waits for more input, and a bad line aborts immediately
(silently skipping inputs would void the error-control guarantee). The
lines that have arrived are taken as one block: its good prefix is
decided through the engines' shared core from the stream's carried
state when it is long enough to pay for the call, and by folding the
rule's step over it when it is short, as a line typed at a time is. A
block of ``_FORMAT_LINES`` lines or more is then written by one
vectorized pass whose bytes equal ``repr``'s (``_format_block``, with
the shortest digits from ``_decimal``); a shorter block, or one holding
a subnormal level or P-value, is written line by line with the f-string.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .engines import _RULES, lond_step, lord_step
from .schedules import (FieldError, LambdaSchedule, _check_q, _index, make_adaptive_schedule,
                        make_power_schedule)
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


# Every MixtureConfig field but the list ``procedures``, cast by its annotation.
_CASTS = {"int": int, "float": float, "str": str}
_SCALAR_KEYS = {f.name: _CASTS[f.type] for f in dataclasses.fields(MixtureConfig) if f.type in _CASTS}
_LIST_KEYS = {"n_values": int, "r_values": float, "procedures": str}


def parse_config(text: str):
    """Parse ``key = value`` lines into (MixtureConfig, r_values, n_values).

    Blank lines and ``#`` comments are ignored. Grid keys ``n_values`` /
    ``r_values`` (comma-separated) replace the scalar ``n`` / ``r``;
    exactly one of each pair must be present. ``nu`` with ``schedule =
    adaptive`` and ``q`` with ``q_rule = inverse-log`` are errors, as are
    an empty list item and a repeated list entry.
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
                parts = [part.strip() for part in value.split(",")]
                if "" in parts:
                    raise ValueError("empty list item")
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
        if grid in raw and len(set(raw[grid])) < len(raw[grid]):
            raise ConfigError(grid, f"repeated entry in {raw[grid]} (the same seeded cells would run twice)")
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
    # A key the chosen rule never reads would change nothing, so it is an error.
    if "nu" in raw and points[0].schedule == "adaptive":
        raise ConfigError("nu", "nu is unused under schedule = adaptive")
    if "q" in raw and points[0].q_rule == "inverse-log":
        raise ConfigError("q", "q is unused under q_rule = inverse-log (q = 1/log n)")
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

    ``seed`` and ``reps`` override the config file when given; a bad
    override is reported under its flag (``error: --seed: ...``).
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
    except ConfigError as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_CONFIG
    overrides = {k: v for k, v in (("seed", seed), ("reps", reps)) if v is not None}
    try:
        base = dataclasses.replace(base, **overrides)
    except FieldError as exc:
        print(f"error: --{exc.field}: {exc}", file=stderr)
        return EXIT_CONFIG
    rows = run_grid(base, r_values, n_values)
    try:
        write_csv(rows, out_path)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=stderr)
        return EXIT_UNWRITABLE
    return EXIT_OK


_STREAM_RULES = tuple(_RULES)
_BLOCK_BYTES = 1 << 16

# A block of at least this many good lines is decided through the core
# (the state's ``_decide``), a shorter one by folding the step over it. A
# core call costs a fixed 10-30 us, a step about 1 us. Measured in-process
# (``cmd_stream`` over the benchmark's seed-0 file cut into blocks of m
# lines, median of 11; 2-vCPU x86 host, Python 3.11.7, numpy 2.4.6), the
# core's cost per block over the fold's is 1.17-1.59 at m = 8, 1.00-1.07
# at 24, 0.94-0.99 at 32 and 0.86-0.95 at 64, for lord and lond under
# both schedule kinds. So one-line blocks, as a closed loop sends them,
# stay on the steps.
_CORE_LINES = 32


# A block decided through the core is written by ``_format_block``'s
# vectorized pass when it holds at least this many lines, else by the
# per-line f-string. The pass costs a fixed ~0.15 ms (about 150 numpy
# calls), the f-string ~1.5 us a line. Measured in-process (the benchmark's
# seed-0 file under lond adaptive and lord power, a block of m lines from
# line 20001, median of 300 alternating calls; 2-vCPU x86 host, Python
# 3.11.7, numpy 2.4.6), the pass's cost over the f-string's is 1.30-1.31
# at m = 96, 1.04-1.05 at 128, 0.87-0.91 at 160, 0.77-0.78 at 192 and
# 0.66-0.67 at 256. A whole ``cmd_stream`` block costs what it did before
# the pass at 32 lines (105 and 82 us for lond and lord, against 107 and
# 82) and at 128 (within the host's noise), and less at 512 (706 and
# 763 us, against 1106 and 1130).
_FORMAT_LINES = 160

_TINY = 2.0**-1022  # the least normal float


def _words(chunks, dtype=np.uint64):
    """Equal-length byte strings as one ``dtype`` word each."""
    return np.frombuffer(b"".join(chunks), dtype=dtype)


def _keep(flags):
    """A mask word from a string of 0s and 1s, one per byte."""
    return bytes(int(f) for f in flags)


# ``_format_block`` lays a line out in 8-byte words and keeps the bytes its
# mask marks: the index right-aligned in 8 digits a word, then alpha and p
# in four words each, then the tag. A float's words are " L.000D." (L the
# lead, 1 for 1.0 only; up to three zeros; D the first digit; the point
# of the exponent form), its 16 further digits, and "e-DDD" and padding.
_HEAD = _words(b" %d.000%d." % (lead, d) for lead in (0, 1) for d in range(10))
_HEAD_KEEP = _words([_keep("111" + "1" * z + "0" * (3 - z) + "10") for z in range(4)]  # 0.000ddd
                    + [_keep("1000001" + dot) for dot in "01"])                       # d[.ddd]e-dd
_EXP = _words(b"e-%03d   " % e for e in range(309))  # 2**-1022 is 2.2e-308
_EXP_KEEP = _words(_keep(flags) for flags in ("00000000", "11011000", "11111000"))
_RIGHT_KEEP = _words(_keep("0" * (8 - c) + "1" * c) for c in range(9))
_LEFT_KEEP = _words((_keep("1" * c + "0" * (4 - c)) for c in range(5)), np.uint32)
_TAG = _words([b" ACCEPT\n", b" REJECT\n"])
_POW10 = 10 ** np.arange(19, dtype=np.int64)


def _subnormal(values) -> bool:
    """Whether any of ``values`` is nonzero and under 2**-1022."""
    return bool(np.any((values > 0.0) & (values < _TINY)))


def _format_block(start: int, alpha, p, rejected) -> str:
    """The lines ``f"{i} {a!r} {p!r} {'REJECT' if r else 'ACCEPT'}\\n"`` of a block, joined.

    ``i`` counts from ``start``. One vectorized pass: ``_decimal.shortest``
    gives each level's and P-value's shortest digits, which fill a
    (lines x words) matrix and a mask in ``repr``'s notation (``0.`` and
    zeros before the digits from 1e-4 up, ``d.ddde-XX[X]`` below; 0.0 and
    1.0 as they are), and the kept bytes are the text. Every value must
    be zero or normal: ``cmd_stream`` writes a block holding a subnormal,
    whose digits may differ from ``repr``'s, with the f-string, as it does
    a block under ``_FORMAT_LINES`` lines, where the pass's fixed cost
    outweighs its gain.
    """
    from . import _decimal  # here, so that its tables are built by the first large block, not at import

    n = len(p)
    x = np.stack([alpha, p], axis=1)
    digits, point = _decimal.shortest(x)  # x = 0.ddd 10**point
    one = x == 1.0
    constant = (x == 0.0) | one
    digits[constant] = 0
    point[constant] = 0
    lead = digits // np.uint64(10**16)
    tail = digits - lead * np.uint64(10**16)
    high = tail // np.uint64(10**8)
    low = tail - high * np.uint64(10**8)
    quads = np.empty((n, 2, 4), dtype=np.uint64)
    quads[..., 0] = high // np.uint64(10**4)
    quads[..., 1] = high - quads[..., 0] * np.uint64(10**4)
    quads[..., 2] = low // np.uint64(10**4)
    quads[..., 3] = low - quads[..., 2] * np.uint64(10**4)
    quads = quads.astype(np.intp)
    # A quad keeps all four digits if a later one is nonzero, else up to its last nonzero.
    kept = _decimal.SIGNIFICANT.take(quads)
    later = quads[..., 3] != 0
    for j in (2, 1, 0):
        kept[..., j][later] = 4
        later |= quads[..., j] != 0
    fixed = point >= -3
    exponent = 1 - point

    index = np.arange(start, start + n, dtype=np.int64)
    words = -(-len(str(start + n - 1)) // 8)
    line = np.empty((n, words + 9), dtype=np.uint64)
    keep = np.empty_like(line)
    index_quads = line[:, :words].view(np.uint32)
    for j in range(2 * words):
        index_quads[:, -1 - j] = _decimal.QUADS.take(index // 10 ** (4 * j) % 10000)
    size = np.searchsorted(_POW10, index, side="right")  # digits of each index
    for w in range(words):
        keep[:, words - 1 - w] = _RIGHT_KEEP.take(np.clip(size - 8 * w, 0, 8))
    text = line[:, words:-1].reshape(n, 2, 4)
    text[..., 0] = _HEAD.take(lead.astype(np.intp) + 10 * one)
    text[..., 1:3].view(np.uint32)[...] = _decimal.QUADS.take(quads)
    text[..., 3] = _EXP.take(exponent)
    mask = keep[:, words:-1].reshape(n, 2, 4)
    mask[..., 0] = _HEAD_KEEP.take(np.where(fixed, -point, 4 + later))
    mask[..., 1:3].view(np.uint32)[...] = _LEFT_KEEP.take(kept)
    mask[..., 3] = _EXP_KEEP.take(np.where(fixed, 0, 1 + (exponent >= 100)))
    line[:, -1] = _TAG.take(rejected)
    keep[:, -1] = _RIGHT_KEEP[8]
    return line.view(np.uint8)[keep.view(bool)].tobytes().decode("ascii")


def _split_lines(read):
    """Yield the list of complete byte lines in each ``read``.

    ``read`` is the ``read1`` of stdin's binary ``buffer``, which
    ``sys.stdin`` has: it returns what has arrived, waiting only when
    nothing has. Lines split at ``\\n`` only, as ``sys.stdin`` splits them
    on Linux; an unterminated last line comes alone at the end.
    """
    head = []  # the pieces of a line still waiting for its newline
    while data := read(_BLOCK_BYTES):
        lines = data.split(b"\n")
        tail = lines.pop()
        if lines:
            if head:
                head.append(lines[0])
                lines[0] = b"".join(head)
                head = []
            yield lines
        if tail:
            head.append(tail)
    if head:
        yield [b"".join(head)]


def _good_prefix(lines: list, encoding: str, errors: str) -> list:
    """The P-values of ``lines`` up to the first bad one, as floats in [0, 1].

    ``decode()`` and ``float()`` reject unreadable text, the range check
    (the steps' own) a P-value outside [0, 1] or NaN; ``+ 0.0`` turns
    -0.0 into 0.0, so the line -0.0 echoes as 0.0.
    """
    values = []
    for line in lines:
        try:
            p = float(line.decode(encoding, errors)) + 0.0
        except ValueError:
            break
        if not 0.0 <= p <= 1.0:  # False at NaN too
            break
        values.append(p)
    return values


def cmd_stream(procedure: str, q: float, nu, adaptive: bool,
               stdin=None, stdout=None, stderr=None) -> int:
    """Decide one P-value per input line, echoing one decision line each.

    ``stdin`` must have a binary ``buffer``, as ``sys.stdin`` does: it is
    read with one ``read1`` per block, and each line is decoded with the
    stream's ``encoding`` and ``errors``, so a line that does not decode
    is a bad line like any other.

    Each block's lines are parsed up to the first bad one. That good
    prefix is decided from the carried state (``LordState``/``LondState``):
    through the shared core when it holds at least ``_CORE_LINES`` values,
    by folding the rule's step over it when shorter. Both give the bits
    of the fold, so the split changes no output. A block of
    ``_FORMAT_LINES`` lines or more is written by one vectorized pass
    (``_format_block``) whose bytes equal ``repr``'s; a shorter block, or
    one holding a subnormal level or P-value, takes the per-line f-string.

    Output format: ``index alpha p REJECT|ACCEPT``. Every decision is
    written and flushed before the command waits for more input; lines
    that have already arrived are decided and written as one block. End
    of input emits ``# discoveries=<D> n=<count>``. A line that does not
    parse as a P-value in [0, 1] emits ``# error line <k>`` to diagnostics,
    after the decisions before it, and aborts with exit code 4. Output
    that cannot be written, such as a pipe whose reader has closed, ends
    the run with one ``error:`` line and exit code 3.
    """
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    if procedure not in _STREAM_RULES:
        print(f"error: --procedure: unknown procedure {procedure!r}; choose from {_STREAM_RULES}",
              file=stderr)
        return EXIT_CONFIG
    try:
        schedule = _make_schedule_from_flags(q, nu, adaptive)
    except ValueError as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_CONFIG
    state = _RULES[procedure].state()
    # Looked up per call, not bound at import, so a patched step is the one run.
    step = {"lord": lord_step, "lond": lond_step}[procedure]
    encoding, errors = stdin.encoding, stdin.errors
    count = 0
    discoveries = 0
    try:
        for lines in _split_lines(stdin.buffer.read1):
            values = _good_prefix(lines, encoding, errors)
            if len(values) < _CORE_LINES:
                # A plain loop: a comprehension's own call would add ~0.5 us
                # to each one-line block of a closed loop.
                out = []
                for p in values:
                    i, a, p, r = step(state, schedule, p)
                    out.append(f"{i} {a!r} {p!r} {'REJECT' if r else 'ACCEPT'}\n")
                    discoveries += r
            else:
                p = np.array(values)
                alpha, rejected = state._decide(schedule, p)
                start = state.next_index - len(values)
                if len(values) < _FORMAT_LINES or _subnormal(alpha) or _subnormal(p):
                    rows = zip(range(start, state.next_index), alpha.tolist(), values, rejected.tolist())
                    out = [f"{i} {a!r} {p!r} {'REJECT' if r else 'ACCEPT'}\n" for i, a, p, r in rows]
                else:
                    out = [_format_block(start, alpha, p, rejected)]
                discoveries += int(np.count_nonzero(rejected))
            count += len(values)
            stdout.write("".join(out))
            stdout.flush()
            if len(values) < len(lines):
                print(f"# error line {count + 1}", file=stderr)
                return EXIT_STREAM
        stdout.write(f"# discoveries={discoveries} n={count}\n")
        stdout.flush()
    except BrokenPipeError as exc:
        return _closed_output(exc, stdout, stderr)
    return EXIT_OK


def cmd_schedule(q: float, nu, adaptive: bool, head: int, stdout=None, stderr=None) -> int:
    """Print lambda_1..lambda_head and the remaining budget q - sum.

    Output that cannot be written, such as a pipe whose reader has closed,
    ends the run with one ``error:`` line and exit code 3, as for ``stream``.
    """
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    try:
        head = _index("head", head, 1)
    except FieldError as exc:
        print(f"error: --{exc.field}: {exc}", file=stderr)
        return EXIT_CONFIG
    try:
        schedule = _make_schedule_from_flags(q, nu, adaptive)
    except ValueError as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_CONFIG
    values = schedule.prefix(head)
    try:
        for i, lam in enumerate(values, start=1):
            stdout.write(f"{i} {float(lam)!r}\n")
        residual = schedule.q - float(values.sum())
        stdout.write(f"# residual={residual!r}\n")
        stdout.flush()
    except BrokenPipeError as exc:
        return _closed_output(exc, stdout, stderr)
    return EXIT_OK


def _closed_output(exc: BrokenPipeError, stdout, stderr) -> int:
    """Report output whose reader has closed; return ``EXIT_UNWRITABLE``."""
    print(f"error: cannot write output: {exc}", file=stderr)
    # The interpreter flushes stdout again at exit; point its descriptor
    # at devnull so the unwritten lines go nowhere instead of raising.
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stdout.fileno())
    os.close(devnull)
    return EXIT_UNWRITABLE


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
    p_stream.add_argument("--procedure", choices=_STREAM_RULES, required=True)
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

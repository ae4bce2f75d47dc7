"""
Sparse mixture experiment
=========================

A desk-scale version of the sparse-signal study: n statistics of which
round(n**(1-beta)) carry a location shift mu = sqrt(2 r log n) under the
normal kernel. As r crosses the detectability boundary, the share of
missed signals (FNP) collapses for every procedure while the false
discovery share (FDP) stays pinned below the budget q.

Writes the full per-replicate table to mixture_experiment.csv next to
this script; the same run is available from the command line via
`streamfdr simulate`.
"""

from dataclasses import replace
from pathlib import Path

from streamfdr import MixtureConfig, run_grid, write_csv

base = MixtureConfig(
    n=20_000,
    beta=0.6,
    r=0.5,
    gamma=2.0,
    q=0.1,
    seed=2024,
    reps=60,
    procedures=("lord", "lond", "bh"),
)
r_grid = [0.2, 0.5, 0.8, 1.1, 1.4]

print(f"n = {base.n}, beta = {base.beta}: {base.signal_count} signals per stream")
print(f"{'r':>5} {'mu':>6}", end="")
for proc in base.procedures:
    print(f" | {proc + ' fdp':>9} {proc + ' fnp':>9}", end="")
print()

# One run_grid call decides every procedure on each replicate; the table
# reads its pooled rows and the CSV holds all of them.
rows = run_grid(base, r_values=r_grid, n_values=[base.n])
pooled = {(row["r"], row["procedure"]): row for row in rows if row["replicate"] == "pooled"}
for r in r_grid:
    print(f"{r:5.1f} {replace(base, r=r).mu:6.2f}", end="")
    for proc in base.procedures:
        row = pooled[(r, proc)]
        print(f" | {row['fdp']:9.3f} {row['fnp']:9.3f}", end="")
    print()

out = Path(__file__).with_name("mixture_experiment.csv")
write_csv(rows, out)
print(f"\nwrote {len(rows)} rows to {out}")
print("pooled rows have replicate = 'pooled'; rerunning reproduces the file byte for byte")

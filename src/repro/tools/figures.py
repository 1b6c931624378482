"""Regenerate the paper's tables and figures from the command line.

Usage::

    python -m repro.tools.figures            # list figures and options
    python -m repro.tools.figures fig2       # regenerate one
    python -m repro.tools.figures all        # regenerate everything
    REPRO_FAST=1 python -m repro.tools.figures fig4   # trimmed sweep
    python -m repro.tools.figures --parallel 4 all    # 4 worker processes
    python -m repro.tools.figures --trace traces/ fig2   # record traces
    python -m repro.tools.figures --cache all         # reuse cached points
    python -m repro.tools.figures --faults my_schedule.json faults
    python -m repro.tools.figures --backend remote \\
        --workers nodeA:7401,nodeA:7402 all      # distributed sweep

Each option sets one ``REPRO_*`` variable of the knob table
(:mod:`repro.knobs`), which also generates the option list printed
below; an unknown option exits 2. Every backend, and cold or warm
``--cache`` runs, return bit-identical results; a ``--trace`` run
bypasses the cache (trace files are a side effect a hit would skip).
``cachectl``, ``tracereport`` and ``sweepworkerctl`` inspect the cache,
read traces and serve remote workers. Each driver prints the same rows
the corresponding bench asserts on and that EXPERIMENTS.md documents.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict

from repro import knobs
from repro.experiments import figures

DRIVERS: Dict[str, Callable] = {
    "fig2": figures.fig2_write_phase_kraken,
    "fig3": figures.fig3_blueprint_volume,
    "fig4": figures.fig4_scalability_kraken,
    "fig5": figures.fig5_spare_time,
    "fig6": figures.fig6_throughput_kraken,
    "fig7": figures.fig7_spare_strategies,
    "table1": figures.table1_grid5000,
    "faults": figures.fig_fault_degradation,
    "model": figures.model_breakeven,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        # Each flag sets its REPRO_* variable, which the drivers, the
        # sweep executor and its workers read at use time.
        argv = knobs.apply_cli(argv)
    except knobs.KnobError as exc:
        print(exc, file=sys.stderr)
        return 2
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        print("options (each flag sets the variable beside it):")
        print(knobs.cli_help())
        print("available figures:", ", ".join(sorted(DRIVERS)), "| all")
        return 0
    names = sorted(DRIVERS) if argv[0] == "all" else argv
    unknown = [name for name in names if name not in DRIVERS]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)}; "
              f"available: {', '.join(sorted(DRIVERS))}", file=sys.stderr)
        return 2
    for name in names:
        report = DRIVERS[name]()
        print(report.render())
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

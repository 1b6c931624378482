"""Full-scale gate: the 9216-core collective-I/O rows of Figure 2.

Runs the Kraken collective-I/O specs at the paper's largest scale and
compares them with the committed ``benchmarks/reports/figure_2.txt``
rows at the report's printed precision. Tier 2 (``-m slow``): about a
minute of simulation.
"""

import os
import re

import pytest

from repro.analysis.stats import jitter_stats
from repro.experiments.report import _format
from repro.experiments.specs import run_spec
from repro.units import MiB

REPORT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks", "reports", "figure_2.txt")


def report_row(strategy, cores):
    """The committed Figure 2 row for ``strategy`` at ``cores``."""
    with open(REPORT, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rule = next(i for i, line in enumerate(lines)
                if line.startswith("-") and set(line) <= {"-", " "})
    header = re.split(r"\s{2,}", lines[rule - 1].strip())
    for line in lines[rule + 1:]:
        if not line.strip():
            break
        row = dict(zip(header, re.split(r"\s{2,}", line.strip())))
        if row["strategy"] == strategy and row["cores"] == str(cores):
            return row
    raise LookupError(f"no {strategy} row at {cores} cores in {REPORT}")


@pytest.mark.slow
def test_kraken_9216_collective_rows():
    spec = {"preset": "kraken", "ncores": 9216,
            "strategy": {"kind": "collective"}, "seed": 42,
            "write_phases": 2}
    stats = jitter_stats([p.duration for p in run_spec(spec).phases])
    row = report_row("collective-io", 9216)
    assert (_format(stats.mean), _format(stats.maximum),
            _format(stats.spread)) == \
        (row["avg_s"], row["max_s"], row["spread_s"])


@pytest.mark.slow
def test_kraken_9216_collective_32mb_stripes_row():
    spec = {"preset": "kraken", "ncores": 9216,
            "strategy": {"kind": "collective", "stripe_size": 32 * MiB},
            "seed": 42, "write_phases": 1}
    result = run_spec(spec)
    row = report_row("collective-io (32MB stripes)", 9216)
    assert (_format(result.avg_write_phase),
            _format(result.max_write_phase)) == (row["avg_s"], row["max_s"])

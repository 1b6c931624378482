"""The benchmark's workloads and its exact correctness oracle.

Three paper workloads, each loading a different mix of engine layers
(see ``README.md`` for the measured shares):

- ``figures_fast``: every figure driver of ``figures all`` in fast mode,
  with the Kraken sweeps at 576 cores (the event loop and the bandwidth
  solver, plus the only duplicate specs);
- ``kraken_collective_2304``: the two full-scale collective-I/O specs of
  Fig. 2 at 2304 cores (simulated MPI);
- ``kraken_damaris_9216``: the Damaris spec at the paper's largest
  scale (the event loop).

A pass records, for every spec it runs, a digest of the spec's
``ExperimentResult.summary()``; ``figures_fast`` also digests every
figure's rows. :func:`judge` compares a pass against the committed
digests (``digests.json``, seed 42) and, for the full-scale workloads,
against the committed ``benchmarks/reports`` rows.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("figures_fast", "kraken_collective_2304", "kraken_damaris_9216")

#: The seed the committed digests and report rows were produced with.
ORACLE_SEED = 42

#: Kraken scale of the figure sweeps; fast mode's second scale (1152)
#: would put one pass at ~75 s, past the per-run budget.
FIGURES_SCALES = (576,)

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "digests.json")

MiB = 1024 * 1024


def fast_mode(workload: str) -> bool:
    """``REPRO_FAST`` for the workload's processes."""
    return workload == "figures_fast"


def kraken_specs(workload: str, seed: int,
                 smoke: bool = False) -> List[Dict[str, Any]]:
    """The specs of a full-scale workload (48 cores when ``smoke``)."""
    if workload == "kraken_collective_2304":
        ncores = 48 if smoke else 2304
        return [
            {"preset": "kraken", "ncores": ncores,
             "strategy": {"kind": "collective"}, "seed": seed},
            {"preset": "kraken", "ncores": ncores,
             "strategy": {"kind": "collective", "stripe_size": 32 * MiB},
             "seed": seed, "write_phases": 1},
        ]
    if workload == "kraken_damaris_9216":
        ncores = 48 if smoke else 9216
        return [{"preset": "kraken", "ncores": ncores,
                 "strategy": {"kind": "damaris"}, "seed": seed}]
    raise ValueError(f"{workload!r} is not a spec workload")


def figure_steps(seed: int, smoke: bool = False
                 ) -> List[Tuple[str, Callable[[], Any]]]:
    """``(name, driver call)`` for every figure of ``figures_fast``."""
    from repro.experiments import figures as F

    if smoke:
        tiny = (48,)
        return [
            ("fig2", lambda: F.fig2_write_phase_kraken(scales=tiny,
                                                       seed=seed)),
            ("fig4", lambda: F.fig4_scalability_kraken(scales=tiny,
                                                       seed=seed)),
            ("fig6", lambda: F.fig6_throughput_kraken(scales=tiny,
                                                      seed=seed)),
            ("model", F.model_breakeven),
        ]
    scales = FIGURES_SCALES
    return [
        ("fig2", lambda: F.fig2_write_phase_kraken(scales=scales,
                                                   seed=seed)),
        ("fig3", lambda: F.fig3_blueprint_volume(seed=seed)),
        ("fig4", lambda: F.fig4_scalability_kraken(scales=scales,
                                                   seed=seed)),
        ("fig5", lambda: F.fig5_spare_time(scales=scales, seed=seed)),
        ("fig6", lambda: F.fig6_throughput_kraken(scales=scales,
                                                  seed=seed)),
        ("fig7", lambda: F.fig7_spare_strategies(seed=seed)),
        ("table1", lambda: F.table1_grid5000(seed=seed)),
        ("faults", lambda: F.fig_fault_degradation(seed=seed)),
        ("model", F.model_breakeven),
    ]


# --------------------------------------------------------------------- #
# digests
# --------------------------------------------------------------------- #
def _plain(value: Any) -> Any:
    if hasattr(value, "item") and not isinstance(value, (list, dict)):
        return value.item()  # numpy scalar
    raise TypeError(f"cannot digest {type(value).__name__}")


def digest(payload: Any) -> str:
    """Exact digest: floats go through ``repr``, so one ulp changes it."""
    blob = json.dumps(payload, sort_keys=True, default=_plain)
    return hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()


def spec_key(spec: Dict[str, Any]) -> str:
    """A spec's identity: the dict without its presentation label."""
    return json.dumps({k: v for k, v in spec.items() if k != "trace_label"},
                      sort_keys=True)


def summary_problems(spec: Dict[str, Any], summary: Dict[str, Any],
                     default_phases: int) -> List[str]:
    """Seed-independent sanity checks on one spec's summary."""
    problems = []
    for key, value in summary.items():
        if isinstance(value, float) and not math.isfinite(value):
            problems.append(f"{key} is {value}")
    if summary["ncores"] != spec["ncores"]:
        problems.append(f"ncores {summary['ncores']} != {spec['ncores']}")
    phases = spec.get("write_phases", default_phases)
    if summary["write_phases"] != phases:
        problems.append(f"{summary['write_phases']} phases, "
                        f"expected {phases}")
    if not summary["run_time"] > 0:
        problems.append("run_time <= 0")
    if summary["drain_time"] < summary["run_time"]:
        problems.append("drain_time < run_time")
    if not summary["bytes_per_phase"] > 0:
        problems.append("bytes_per_phase <= 0")
    slack = 1e-9 * max(1.0, abs(summary["max_write_phase"]))
    if not (0 <= summary["min_write_phase"]
            <= summary["avg_write_phase"] + slack
            and summary["avg_write_phase"]
            <= summary["max_write_phase"] + slack):
        problems.append("write-phase min/avg/max out of order")
    return problems


# --------------------------------------------------------------------- #
# the committed report rows
# --------------------------------------------------------------------- #
#: workload -> [(report file, key columns, checked columns)]; the row is
#: rebuilt from the pass and compared at the report's printed precision.
REPORT_ROWS = {
    "kraken_collective_2304": [
        ("figure_2.txt", {"strategy": "collective-io", "cores": "2304"},
         ("avg_s", "max_s", "spread_s")),
    ],
    "kraken_damaris_9216": [
        ("figure_2.txt", {"strategy": "damaris", "cores": "9216"},
         ("avg_s", "max_s", "spread_s")),
        ("figure_5.txt", {"platform": "kraken", "cores": "9216"},
         ("volume_GB", "write_s", "spare_fraction")),
    ],
}


def read_report_row(path: str, match: Dict[str, str]) -> Dict[str, str]:
    """The row of a committed report table whose cells equal ``match``."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rule = next(i for i, line in enumerate(lines)
                if line.startswith("-") and set(line) <= {"-", " "})
    header = re.split(r"\s{2,}", lines[rule - 1].strip())
    for line in lines[rule + 1:]:
        if not line.strip():
            break
        row = dict(zip(header, re.split(r"\s{2,}", line.strip())))
        if all(row.get(k) == v for k, v in match.items()):
            return row
    raise LookupError(f"no row {match} in {path}")


def report_cells(workload: str, results: Sequence[Any]) -> Dict[str, str]:
    """The report cells a full-scale pass reproduces, as printed."""
    import numpy as np

    from repro.analysis.stats import jitter_stats
    from repro.experiments.report import _format  # the reports' formatter
    from repro.units import GB

    first = results[0]
    stats = jitter_stats([p.duration for p in first.phases])
    cells = {"avg_s": stats.mean, "max_s": stats.maximum,
             "spread_s": stats.spread}
    if workload == "kraken_damaris_9216":
        writes = first.dedicated_write_times
        cells.update(
            volume_GB=first.bytes_per_phase / GB,
            write_s=float(np.mean(writes)) if writes else 0.0,
            spare_fraction=first.spare_fraction)
    return {k: _format(float(v)) for k, v in cells.items()}


def report_mismatches(workload: str, cells: Dict[str, str],
                      reports_dir: str) -> List[str]:
    problems = []
    for filename, match, columns in REPORT_ROWS.get(workload, ()):
        row = read_report_row(os.path.join(reports_dir, filename), match)
        for column in columns:
            if cells.get(column) != row[column]:
                problems.append(
                    f"{filename} {match}: {column} {cells.get(column)} "
                    f"!= committed {row[column]}")
    return problems


# --------------------------------------------------------------------- #
# judging a run
# --------------------------------------------------------------------- #
def load_digests(path: str = DIGESTS_PATH) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def judge(passes: Sequence[Dict[str, Any]],
          expected: Optional[Dict[str, Any]]) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` over every spec of ``passes``.

    A spec fails when its digest differs from the committed one
    (``expected``, for the oracle seed) or, for any seed, from the first
    pass's digest of the same spec — duplicates within a pass and
    repeats across passes (traced or not) must agree exactly — or when
    its summary fails the sanity checks. Figure digests and report rows
    that do not match are problems without a spec to charge.
    """
    committed = expected is not None
    reference: Dict[str, str] = dict(expected["specs"]) if committed else {}
    figures_ref = dict(expected["figures"]) if committed else {}
    attempted = failed = 0
    problems: List[str] = []
    seen, seen_figures = set(), set()
    for number, result in enumerate(passes):
        for key, spec_digest, spec_problems in result["specs"]:
            attempted += 1
            seen.add(key)
            want = reference.get(key) if committed \
                else reference.setdefault(key, spec_digest)
            if spec_digest != want or spec_problems:
                failed += 1
                problems.append(
                    f"pass {number}: spec {key} digest {spec_digest} "
                    f"(expected {want}) {'; '.join(spec_problems)}".rstrip())
        for name, fig_digest in result["figures"].items():
            seen_figures.add(name)
            want = figures_ref.get(name) if committed \
                else figures_ref.setdefault(name, fig_digest)
            if fig_digest != want:
                problems.append(f"pass {number}: {name} rows digest "
                                f"{fig_digest} (expected {want})")
        problems.extend(f"pass {number}: {p}"
                        for p in result.get("report_problems", ()))
        if result["cache_entries"]:
            problems.append(f"pass {number}: the sweep cache was written")
    if committed and (seen != set(reference)
                      or seen_figures != set(figures_ref)):
        problems.append("a committed spec or figure was not run")
    return attempted, failed, problems

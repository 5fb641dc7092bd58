"""Table I: V/F levels of the Odroid-XU3 Cortex-A7 and governor behaviour.

Regenerates the paper's Table I verbatim (the values are configuration,
not measurement) and benchmarks the DVFS governor lookup — the operation
on the run-time critical path of every reconfiguration decision.

Besides the rendered text table, the harness writes a machine-readable
digest (``benchmarks/results/BENCH_table.fresh.json``) with one row per V/F
level — notation, frequency, voltage and the modelled power draw — plus
the governor-lookup wall time.  ``scripts/check_bench_regression.py``
gates the row *set* by exact equality (the paper's table is
configuration; any drift is a real behavioural change), the modelled
power numbers by a 1% drift budget, and records wall time
informationally.
"""

import pathlib
import sys
import time

import numpy as np

if __package__ in (None, ""):  # run as a script
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from repro.hardware.dvfs import BatteryGovernor, DVFSTable, ODROID_XU3_LEVELS
from repro.hardware.power import PowerModel

from benchmarks.common import write_json_result, write_result


def render_table1() -> str:
    header = f"{'Notation':<10}" + "".join(f"{lv.name:>10}" for lv in ODROID_XU3_LEVELS)
    freq = f"{'freq (MHz)':<10}" + "".join(f"{lv.freq_mhz:>10.0f}" for lv in ODROID_XU3_LEVELS)
    vol = f"{'vol (mV)':<10}" + "".join(f"{lv.voltage_mv:>10.2f}" for lv in ODROID_XU3_LEVELS)
    pm = PowerModel()
    power = f"{'P (W)':<10}" + "".join(f"{pm.power_w(lv):>10.3f}" for lv in ODROID_XU3_LEVELS)
    note = "(paper Table I rows: freq 400..1400 MHz, vol 916.25..1240 mV; P is our model)"
    return "\n".join([header, freq, vol, power, note])


def run_bench(lookups: int = 1000) -> dict:
    """Machine-readable Table I digest plus the governor-lookup timing."""
    pm = PowerModel()
    rows = [{
        "name": lv.name,
        "freq_mhz": float(lv.freq_mhz),
        "voltage_mv": float(lv.voltage_mv),
        "power_w": float(pm.power_w(lv)),
    } for lv in ODROID_XU3_LEVELS]

    gov = BatteryGovernor(DVFSTable().subset(["l3", "l4", "l6"]), (0.15, 0.40))
    fractions = np.linspace(0, 1, lookups)
    start = time.perf_counter()
    levels = [gov.level_for(f) for f in fractions]
    lookup_wall_ms = 1e3 * (time.perf_counter() - start)
    assert len(levels) == lookups

    return {
        "table": "table1_dvfs",
        "levels": rows,
        "governor": {
            "lookups": lookups,
            "wall_ms": lookup_wall_ms,
            "thresholds": [0.15, 0.40],
        },
    }


def test_table1_matches_paper(benchmark):
    table = DVFSTable()
    assert [lv.freq_mhz for lv in table] == [400, 600, 800, 1000, 1200, 1400]
    assert table["l6"].voltage_mv == 1240.0
    text = benchmark(render_table1)
    write_result("table1_dvfs_levels", text)
    write_json_result("table", run_bench())


def test_bench_governor_lookup(benchmark):
    gov = BatteryGovernor(DVFSTable().subset(["l3", "l4", "l6"]), (0.15, 0.40))
    fractions = np.linspace(0, 1, 1000)

    def lookup_all():
        return [gov.level_for(f) for f in fractions]

    levels = benchmark(lookup_all)
    assert len(levels) == 1000


def main() -> int:
    write_result("table1_dvfs_levels", render_table1())
    write_json_result("table", run_bench())
    return 0


if __name__ == "__main__":
    sys.exit(main())

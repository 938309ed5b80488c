"""Self-test of the benchmark on the small test geometry (under a minute).

    python3 perfbench/selftest.py

For each workload, in smoke mode (~20 KB inputs on the ``test`` geometry):

* three untraced runs — seed 1 twice, seed 2 once — all verify every
  output and fail no operation, report every end-to-end metric above 0,
  and seed 1 gives identical exact counts both times;
* on the damaged round trip, seed 2 damages the frames differently and still
  restores bit-exact;
* two traced runs with seed 1 report every per-layer metric, write a Chrome
  trace-event file, cover their end-to-end spans with layer spans, and
  agree on every exact per-layer counter.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import E2E_UNITS, LAYER_UNITS, SMOKE, run_workload  # noqa: E402

#: Per-layer metrics that must repeat exactly for one seed.
EXACT_LAYER_METRICS = (
    "dbcoder.compression_ratio",
    "mocoder.useful_frame_ratio",
    "mocoder.frames_decoded",
    "mocoder.rs_corrections",
    "mocoder.emblems_failed",
    "mocoder.groups_reconstructed",
    "store.bytes_written",
    "store.bytes_read_per_op",
    "dynarisc.steps",
)


class CheckFailed(Exception):
    pass


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _run(name: str, seed: int, trace: bool) -> dict:
    # --seconds 0: the minimum number of cycles or reads, so counts repeat.
    report = run_workload(SMOKE[name], seed, 0.0, trace, HERE / "out")
    _expect(report["attempted"] > 0 and report["failed"] == 0,
            f"{name} seed {seed}: {report['failed']} of {report['attempted']} operations failed")
    return report


def check_workload(name: str) -> None:
    first, again, other = _run(name, 1, False), _run(name, 1, False), _run(name, 2, False)
    for report in (first, again, other):
        _expect(set(report["e2e"]) == set(E2E_UNITS), f"{name}: end-to-end metrics missing")
        for metric, value in report["e2e"].items():
            if metric != "failed_op_share":
                _expect(value > 0, f"{name}: {metric} is {value}")
    _expect(first["counts"] == again["counts"],
            f"{name}: seed 1 counts differ between runs: {first['counts']} {again['counts']}")
    if SMOKE[name].damage is not None:
        _expect(first["counts"]["damage_crc"] != other["counts"]["damage_crc"],
                f"{name}: seeds 1 and 2 damaged the frames identically")

    traced = [_run(name, 1, True) for _ in range(2)]
    for report in traced:
        layers = report["layers"]
        _expect(set(layers) == set(LAYER_UNITS), f"{name}: per-layer metrics missing")
        _expect(0.5 < layers["trace.coverage"] <= 1.0,
                f"{name}: trace coverage {layers['trace.coverage']}")
        with open(report["trace_file"], encoding="utf-8") as stream:
            events = json.load(stream)["traceEvents"]
        _expect(any(event["cat"] == "e2e" for event in events)
                and any(event["cat"] == "mocoder" for event in events),
                f"{name}: trace file lacks end-to-end or layer spans")
    for metric in EXACT_LAYER_METRICS:
        values = [report["layers"][metric] for report in traced]
        _expect(values[0] == values[1], f"{name}: {metric} differs between runs: {values}")


def main() -> int:
    failures = 0
    for name in SMOKE:
        try:
            check_workload(name)
            print(f"ok    {name}")
        except CheckFailed as exc:
            failures += 1
            print(f"FAIL  {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

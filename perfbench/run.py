"""Paper-shaped benchmark of the ULE archive: archive, restore, range reads.

Runs one seeded workload through the public ``repro.api`` surface, verifies
every output byte for byte, and prints its metrics.  Usage, from the root of
a checkout::

    python3 perfbench/run.py --workload tpch-microfilm-roundtrip --seed 1 \\
        --seconds 15 --trace 0

Workloads (see ``perfbench/workloads.py``):

* ``tpch-microfilm-roundtrip`` — ~1.5 MB TPC-H SQL archived onto microfilm
  (portable codec, 256 KiB segments, ``thread:2``), restored from damaged
  frames through the outer code and Bootstrap, plus 4 KiB range reads.
* ``emulated-restore`` — ~48 KB SQL on microfilm restored with the archived
  DBCoder decoder running under the DynaRisc emulator.
* ``cinema-range-reads`` — ~1.5 MB SQL archived three times onto cinema
  film with the dense codec (LZSS + arithmetic coding), 64 KiB segments,
  each archive followed by a third of at least 100 4 KiB range reads in a
  serial restore session.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` installs span
wrappers around each layer's public functions (``perfbench/tracer.py``; no
change under ``src/``), alternates untraced and traced operations, prints a
per-layer self-time table, writes a Chrome trace-event JSON file under
``perfbench/out/``, and reports the per-layer metrics.  ``--smoke`` runs the
same flows on the small test geometry with ~20 KB inputs in seconds;
``python3 perfbench/selftest.py`` uses it to check determinism.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the environment stamp (CPUs, versions, geometry, sizes), the exact
per-cycle counts and ``failed_op_share``.

Left out on purpose:

* The optical scan simulation (``MicrofilmChannel.scan_frames``): it took
  about 219 s for 35 microfilm frames against ~4 s to decode them, and it
  simulates the medium, not the program.  Damage is instead applied in
  place with the ``repro.media.distortions`` dust and scratch primitives.
* ``decode_mode="nested"``: about 59 s for 2 KB of SQL.
* The HTTP server and its ``SegmentCache``, which the roadmap parks.
* The older ``BENCH_*.json`` files and ``make bench-check`` gate, which this
  benchmark leaves untouched.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"


def _parse(argv: list[str] | None, workloads: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="small test geometry and ~20 KB inputs")
    return parser.parse_args(argv)


def _print_table(title: str, rows: list[tuple[str, str, str]]) -> None:
    print(title)
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>16}  {unit}")


def main(argv: list[str] | None = None) -> int:
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from workloads import E2E_UNITS, FULL, LAYER_UNITS, SMOKE, run_workload

    args = _parse(argv, sorted(FULL))
    workload = (SMOKE if args.smoke else FULL)[args.workload]
    report = run_workload(workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)

    _print_table(
        f"{workload.name} (seed {args.seed}): end-to-end",
        [(name, f"{report['e2e'][name]:.6g}", unit) for name, unit in E2E_UNITS.items()],
    )
    units = E2E_UNITS
    metrics = {name: report["e2e"][name] for name in units if name != "failed_op_share"}
    if args.trace:
        rows = report["self_times"]
        print("per-layer self time (share of end-to-end span time)")
        for row in rows:
            print(f"  {row['layer']:<9} {row['name']:<26} calls {row['calls']:>6}  "
                  f"self {row['self_s']:10.4f} s  share {row['share']:7.2%}")
        _print_table(
            "per-layer metrics",
            [(name, f"{report['layers'][name]:.6g}", unit) for name, unit in LAYER_UNITS.items()],
        )
        print(f"chrome trace: {Path(report['trace_file']).relative_to(ROOT)}")
        units = LAYER_UNITS
        metrics = report["layers"]
    print(json.dumps({key: report[key] for key in ("stamp", "counts", "e2e")}))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

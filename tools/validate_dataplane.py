#!/usr/bin/env python3
"""Schema checker for results/BENCH_dataplane.json (CI gate).

Validates the artifact written by bench_dataplane without depending on
anything outside the Python standard library.  Exits non-zero and prints
every violation so a CI failure points straight at the malformed field.

Beyond shape, it re-checks invariants of the run so a stale or
hand-edited artifact cannot sneak past CI:
  - no more readings delivered than originated, and at least one hop
    transmission per origination,
  - latency percentiles in order (p50 <= p95 <= p99),
  - the arena advanced generations and the child reported a peak RSS,
  - an optional --min-pps floor on originations/s.

Usage:
  tools/validate_dataplane.py results/BENCH_dataplane.json [--min-pps N]
"""

import argparse
import json
import sys

SCHEMA_VERSION = 2
NUMBER = (int, float)

TOP_FIELDS = {
    "schema_version": int,
    "bench": str,
    "nodes": int,
    "density": NUMBER,
    "duration_s": NUMBER,
    "seed": int,
    "aesni_shani": bool,
}

PIPELINE_FIELDS = {
    "setup_s": NUMBER,
    "engine_wall_s": NUMBER,
    "originated": int,
    "hop_tx": int,
    "delivered": int,
    "originated_per_s": NUMBER,
    "hop_tx_per_s": NUMBER,
    "seal_per_s": NUMBER,
    "open_per_s": NUMBER,
    "latency_p50_ms": NUMBER,
    "latency_p95_ms": NUMBER,
    "latency_p99_ms": NUMBER,
    "seals": int,
    "opens": int,
    "refresh_rounds": int,
    "arena_generations": int,
    "peak_rss_kb": int,
}


class Checker:
    def __init__(self):
        self.errors = []

    def fail(self, msg):
        self.errors.append(msg)

    def expect(self, obj, field, kind, where):
        value = obj.get(field)
        if value is None:
            self.fail(f"{where}: missing field '{field}'")
        elif kind is not bool and isinstance(value, bool):
            self.fail(f"{where}: field '{field}' is bool, expected {kind}")
        elif not isinstance(value, kind):
            self.fail(f"{where}: field '{field}' is {type(value).__name__}, "
                      f"expected {kind}")
        return value


def check(path, min_pps, checker):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        checker.fail(f"{path}: unreadable artifact: {err}")
        return

    version = checker.expect(doc, "schema_version", int, path)
    if version is not None and version != SCHEMA_VERSION:
        checker.fail(f"{path}: schema_version {version}, "
                     f"validator knows {SCHEMA_VERSION}")
    for field, kind in TOP_FIELDS.items():
        checker.expect(doc, field, kind, path)
    if doc.get("bench") not in (None, "dataplane"):
        checker.fail(f"{path}: bench is '{doc.get('bench')}', "
                     f"expected 'dataplane'")

    block = doc.get("pipeline")
    if not isinstance(block, dict):
        checker.fail(f"{path}: missing section 'pipeline'")
        return
    where = f"{path}:pipeline"
    for field, kind in PIPELINE_FIELDS.items():
        checker.expect(block, field, kind, where)
    if checker.errors:
        return

    if block["delivered"] > block["originated"]:
        checker.fail(f"{where}: delivered {block['delivered']} exceeds "
                     f"originated {block['originated']}")
    if block["hop_tx"] < block["originated"]:
        checker.fail(f"{where}: hop_tx {block['hop_tx']} below originated "
                     f"{block['originated']}")
    if not (block["latency_p50_ms"] <= block["latency_p95_ms"]
            <= block["latency_p99_ms"]):
        checker.fail(f"{where}: latency percentiles out of order")
    for field in ("originated", "arena_generations", "peak_rss_kb"):
        if block[field] <= 0:
            checker.fail(f"{where}: {field} is {block[field]}, expected > 0")
    if min_pps > 0 and block["originated_per_s"] < min_pps:
        checker.fail(f"{where}: originated_per_s "
                     f"{block['originated_per_s']:.0f} below floor "
                     f"{min_pps:.0f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("artifact", help="BENCH_dataplane.json to validate")
    parser.add_argument("--min-pps", type=float, default=0.0,
                        help="floor on originations/s")
    args = parser.parse_args()

    checker = Checker()
    check(args.artifact, args.min_pps, checker)
    if checker.errors:
        for error in checker.errors:
            print(f"FAIL {error}", file=sys.stderr)
        return 1
    print(f"{args.artifact} ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Validates the H-fusion JSON emitted by `bench_t2_platform --fusion`.

Usage: check_fusion_json.py PATH

Checks, in order:
  * the file parses as JSON and carries a "fusion" object;
  * the sketch bit-identity gate passed (fused == queued state);
  * every cell has the expected keys with sane values, fused/queued runs
    come in pairs per (shape, semantics), and at least one fused cell
    actually fused edges;
  * the speedups array covers every pair, and the shapes where nothing
    fused report fused_edges == 0 (the honest ~1x rows are present);
  * the 1->N fields and two-arm-spout shapes are present and fused both
    of their edges.

Exit 0 on success, 1 with a diagnostic on the first failure. Throughput
ratios are NOT asserted here — a loaded CI host must not flake the suite;
the measured speedups live in EXPERIMENTS.md (H-fusion).
"""

import json
import sys

# Shapes only per-edge fusion runs fully inline: edges each must fuse.
FAN_OUT_SHAPES = {"fields_1_to_4": 2, "two_arm_spout": 2}

CELL_KEYS = {
    "shape", "semantics", "channel", "tuples", "seconds", "tuples_per_sec",
    "fused_edges", "completed_roots", "failed_roots",
}


def fail(msg):
    print("check_fusion_json: FAIL: %s" % msg, file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 2:
        fail("usage: check_fusion_json.py PATH")
    try:
        with open(sys.argv[1]) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot load %s: %s" % (sys.argv[1], e))

    fusion = doc.get("fusion")
    if not isinstance(fusion, dict):
        fail("no \"fusion\" object in %s" % sys.argv[1])
    if fusion.get("sketch_state_identical") is not True:
        fail("sketch_state_identical is not true: fused execution changed "
             "sketch state")

    cells = fusion.get("cells")
    if not isinstance(cells, list) or not cells:
        fail("fusion.cells missing or empty")
    pairs = {}
    for cell in cells:
        missing = CELL_KEYS - set(cell)
        if missing:
            fail("cell %r missing keys %s" % (cell.get("shape"),
                                              sorted(missing)))
        if cell["channel"] not in ("fused", "queued"):
            fail("bad channel %r" % cell["channel"])
        if cell["tuples"] <= 0 or cell["seconds"] <= 0:
            fail("non-positive tuples/seconds in %r" % cell["shape"])
        if cell["tuples_per_sec"] <= 0:
            fail("non-positive throughput in %r" % cell["shape"])
        if cell["channel"] == "queued" and cell["fused_edges"] != 0:
            fail("queued run of %r reports fused edges" % cell["shape"])
        key = (cell["shape"], cell["semantics"])
        pairs.setdefault(key, set()).add(cell["channel"])
    for key, channels in pairs.items():
        if channels != {"fused", "queued"}:
            fail("shape %r lacks a fused/queued pair (has %s)" %
                 (key, sorted(channels)))
    if not any(c["channel"] == "fused" and c["fused_edges"] > 0
               for c in cells):
        fail("no cell actually fused any edges")
    if not any(c["channel"] == "fused" and c["fused_edges"] == 0
               for c in cells):
        fail("no honest no-fusion-possible row in the matrix")
    for shape, edges in FAN_OUT_SHAPES.items():
        fused = [c for c in cells
                 if c["shape"] == shape and c["channel"] == "fused"]
        if not fused:
            fail("fan-out shape %r missing from the matrix" % shape)
        for c in fused:
            if c["fused_edges"] != edges:
                fail("fan-out shape %r fused %d edges, expected %d" %
                     (shape, c["fused_edges"], edges))

    speedups = fusion.get("speedups")
    if not isinstance(speedups, list):
        fail("fusion.speedups missing")
    covered = {(s["shape"], s["semantics"]) for s in speedups}
    if covered != set(pairs):
        fail("speedups cover %s but cells pair %s" %
             (sorted(covered), sorted(pairs)))
    for s in speedups:
        if s["speedup"] <= 0:
            fail("non-positive speedup for %r" % s["shape"])

    print("check_fusion_json: OK (%d cells, %d pairs)" %
          (len(cells), len(pairs)))


if __name__ == "__main__":
    main()

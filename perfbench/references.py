"""Regenerate ``perfbench/references.json``, the references the benchmark checks.

Run from the repository root (takes a few minutes)::

    python3 perfbench/references.py

For every point of every workload size it records the failure count per
observable in ``REFERENCE_FACTOR`` times the shots a unit decodes at that
point (at least ``REFERENCE_MIN_SHOTS``), and for the ``cold_points``
configurations the exact error count and sorted-error-list sha256 of the
extracted DEM.  Regenerate only when a
change is meant to alter a DEM or an LER, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

import run

#: reference shots per point, as a multiple of the shots one unit checks
REFERENCE_FACTOR = 10
#: floor on the reference shots, so low-LER points still count failures
REFERENCE_MIN_SHOTS = 200_000
REFERENCE_SEED = 20251016


def reference_points(harness) -> dict:
    """label -> (config, reference shots, whether to digest the DEM)."""
    out: dict = {}

    def want(cfg, shots, dem=False):
        label = harness.point_label(cfg)
        _, seen, seen_dem = out.get(label, (cfg, 0, False))
        shots = max(REFERENCE_FACTOR * shots, REFERENCE_MIN_SHOTS)
        out[label] = (cfg, max(seen, shots), dem or seen_dem)

    for size in harness.SIZES:
        cold = harness.ColdPoints(0, size, {}, None)
        for cfg in cold.points:
            want(cfg, cold.shots, dem=True)
        sweep = harness.SweepD3Store(0, size, {}, None)
        for pt in sweep.spec.points():
            want(pt.config, sweep.spec.max_shots)
    return out


def main() -> int:
    run.isolate_environment()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import harness

    points = {}
    for i, (label, (cfg, shots, dem)) in enumerate(sorted(reference_points(harness).items())):
        pol = harness.make_policy(cfg.policy_name, **dict(cfg.policy_args))
        harness.clear_pipeline_cache()
        result = harness.run_surgery_ler(
            cfg, pol, shots, rng=harness.seeded_rng(REFERENCE_SEED, i), decode_workers=1
        )
        entry = {"failures": [e.successes for e in result.estimates], "shots": shots}
        if dem:
            pipe = harness.prepared_pipeline(cfg, pol)
            entry.update(dem_errors=len(pipe.dem.errors), dem_sha256=harness.dem_digest(pipe.dem))
        points[label] = entry
        print(label, json.dumps(entry), flush=True)
    doc = {
        "generated_at_commit": harness.git_commit(harness.HERE.parent),
        "reference_seed": REFERENCE_SEED,
        "points": points,
    }
    harness.REFERENCE_FILE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

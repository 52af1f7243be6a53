#!/usr/bin/env bash
# Fast verification gate: the full tier-1 test suite plus the store/sweep
# tests, the scheduler parity suite (tests/test_speculation.py — oracle vs
# concurrent: stored records equal the scheduler-free tests/sweep_oracle.py
# for any worker count/depth), the decode-kernel parity matrix (tests/test_kernels.py
# — the host's decode path must stay bit-identical to the scalar pass), the
# cross-decoder contract suite (tests/test_decoder_contract.py — defect-
# parity preservation, dedup/decode-path metamorphic identities), and the
# benchmarks, minus everything tagged @pytest.mark.slow.  Intended to
# finish in a few minutes on a laptop; CI runs exactly this script on every
# push/PR (.github/workflows/ci.yml; policy in docs/CI.md).  --durations=10 keeps the slowest tests visible in CI
# output so creeping gate time gets noticed.  Extra pytest arguments pass
# straight through, e.g.:
#
#   scripts/check.sh -x                    # stop at the first failure
#   scripts/check.sh tests/                # fast tests only, skip benchmarks
#   scripts/check.sh tests/test_kernels.py tests/test_decoder_contract.py
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
# static gate first: determinism/contract/salt-drift lint (docs/ANALYSIS.md)
# fails in seconds, before any test decodes a shot
python scripts/check_lint.py
# observability smoke (docs/OBSERVABILITY.md): emit a tiny trace + metrics
# pair through the real recorder, schema-check both artifacts, and make
# sure `repro trace summarize` can read what `write_trace` wrote.
# OBS_ARTIFACTS_DIR (set by the CI fast lane) keeps the artifacts for
# upload; otherwise they live in a throwaway tmpdir.
OBS_TMP="${OBS_ARTIFACTS_DIR:-$(mktemp -d)}"
mkdir -p "$OBS_TMP"
if [ -z "${OBS_ARTIFACTS_DIR:-}" ]; then
  trap 'rm -rf "$OBS_TMP"' EXIT
fi
python - "$OBS_TMP" <<'EOF'
import sys
from repro import obs

tmp = sys.argv[1]
obs.configure(trace_path=f"{tmp}/t.json", metrics_path=f"{tmp}/m.json")
with obs.span("decode.kernel", lambda: {"rows": 1}):
    pass
obs.count("sweep.batches_dispatched")
obs.write_trace()
obs.write_metrics()
obs.reset()
EOF
python scripts/validate_results.py --trace "$OBS_TMP/t.json" --metrics "$OBS_TMP/m.json"
python -m repro.cli trace summarize "$OBS_TMP/t.json" > /dev/null
python -m repro.cli metrics summarize "$OBS_TMP/m.json" > /dev/null
echo "obs smoke: trace/metrics summarize + schema validation ok"
# run-ledger smoke (docs/OBSERVABILITY.md): a tiny real sweep on 2 decode
# threads writes a run manifest + event log into the store; the runs CLI,
# the live watcher and the schema validator must all read it back, and the
# validator checks every decoded batch names a repro-decode thread
python - "$OBS_TMP" <<'EOF'
import sys
from repro.experiments.sweeps import PolicySpec, SweepSpec, run_sweep
from repro.noise.hardware import PRESETS
from repro.store import ResultStore

spec = SweepSpec(
    name="check-ledger",
    distances=(2,),
    taus_ns=(500.0,),
    policies=(PolicySpec("passive"),),
    hardware=PRESETS["google"],
    seed=11,
    p=5e-3,
    batch_shots=200,
    min_shots=200,
    max_shots=400,
    target_rse=0.5,
)
run_sweep(spec, store=ResultStore(f"{sys.argv[1]}/store"), workers=2, speculate=2)
EOF
RUN_ID="$(python -m repro.cli runs list --store "$OBS_TMP/store" --format json \
  | python -c 'import json,sys; print(json.load(sys.stdin)[0]["run_id"])')"
python -m repro.cli runs show --latest --store "$OBS_TMP/store" > /dev/null
python -m repro.cli sweep watch "$RUN_ID" --store "$OBS_TMP/store" --once > /dev/null
python scripts/validate_results.py --ledger "$OBS_TMP/store/runs/$RUN_ID"
echo "obs smoke: run ledger ($RUN_ID) list/show/watch + schema validation ok"
# sweep scheduler smoke (docs/SWEEPS.md): --dry-run must plan the finished
# check-ledger sweep as zero new work without writing anything, and the
# inline executor (--workers 0 --speculate) must rerun it purely from the
# store (a real inline decode is covered by tests/test_speculation.py)
cat > "$OBS_TMP/check-ledger-spec.json" <<'EOF'
{
  "name": "check-ledger",
  "hardware": "google",
  "distances": [2],
  "taus_ns": [500.0],
  "policies": ["passive"],
  "p": 0.005,
  "seed": 11,
  "batch_shots": 200,
  "min_shots": 200,
  "max_shots": 400,
  "target_rse": 0.5
}
EOF
STORE_BEFORE="$(find "$OBS_TMP/store" -type f | sort | xargs md5sum)"
python -m repro.cli sweep run "$OBS_TMP/check-ledger-spec.json" \
  --store "$OBS_TMP/store" --dry-run \
  | grep "0/1 point(s) need decoding" > /dev/null
[ "$STORE_BEFORE" = "$(find "$OBS_TMP/store" -type f | sort | xargs md5sum)" ] \
  || { echo "sweep smoke: --dry-run wrote to the store" >&2; exit 1; }
python -m repro.cli sweep run "$OBS_TMP/check-ledger-spec.json" \
  --store "$OBS_TMP/store" --workers 0 --speculate 2 --no-ledger \
  | grep '"shots_decoded": 0' > /dev/null
echo "sweep smoke: --dry-run read-only + inline executor store-served rerun ok"
# figure-registry smoke (docs/FIGURES.md): list the registry, build one tiny
# store-backed figure in all three export formats, schema-check the JSON and
# Vega artifacts, then prove the warm rebuild is served from the figure
# cache — zero decode calls and zero store writes (md5sum diff)
python -m repro.cli figures list > /dev/null
FIG_ARGS=(fig14_ibm --store "$OBS_TMP/figstore" --out "$OBS_TMP/figs" \
  --param 'distances=[2]' --param 'taus_ns=[500.0]' --shots 120 --seed 7)
python -m repro.cli figures build "${FIG_ARGS[@]}" \
  --format json --format csv --format vega \
  | grep "(built)" > /dev/null
python scripts/validate_results.py \
  --figure "$OBS_TMP/figs/fig14_ibm.json" \
  --vega "$OBS_TMP/figs/fig14_ibm.vega.json"
FIGSTORE_BEFORE="$(find "$OBS_TMP/figstore" -type f | sort | xargs md5sum)"
python -m repro.cli figures build "${FIG_ARGS[@]}" | grep "(store)" > /dev/null
[ "$FIGSTORE_BEFORE" = "$(find "$OBS_TMP/figstore" -type f | sort | xargs md5sum)" ] \
  || { echo "figures smoke: warm rebuild wrote to the store" >&2; exit 1; }
echo "figures smoke: build + schema validation + warm store-served rebuild ok"
if [ -z "${OBS_ARTIFACTS_DIR:-}" ]; then
  rm -rf "$OBS_TMP"
  trap - EXIT  # exec below skips EXIT traps; the tmpdir is already gone
fi
exec python -m pytest -q -m "not slow" --durations=10 "$@"

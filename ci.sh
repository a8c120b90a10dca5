#!/usr/bin/env bash
# Tier-1 CI: build, test, then smoke-run the experiment suite twice (parallel
# and forced-sequential), require bit-identical figure/table numbers, and
# gate on wall-clock regressions against the committed bench snapshot.
set -euo pipefail
cd "$(dirname "$0")"

# Snapshots and smoke outputs live in a private scratch directory, so two
# concurrent runs never clobber each other's files.
tmp="$(mktemp -d)"
export CI_TMP="$tmp"

# Snapshot the bench/summary files that exist: the smoke runs below overwrite
# them in the working tree, and the regression gate needs the committed one.
# `experiments_summary.json` is gitignored, so a fresh clone has none; there
# the sequential run's summary is left in place for the workflow to upload.
# The restore runs from a trap so that *any* exit — success, a failed smoke
# run, or an interrupt — puts the snapshots back and never leaves the
# worktree dirty. INT/TERM/HUP are trapped explicitly because bash does not
# run the EXIT trap when killed by an untrapped signal.
ARTIFACTS=(BENCH_experiments.json experiments_summary.json)
for f in "${ARTIFACTS[@]}"; do
    if [ -f "$f" ]; then cp "$f" "$tmp/committed_$f"; fi
done
restore_artifacts() {
    for f in "${ARTIFACTS[@]}"; do
        if [ -f "$tmp/committed_$f" ]; then cp "$tmp/committed_$f" "$f"; fi
    done
    rm -rf "$tmp"
}
trap restore_artifacts EXIT
trap 'restore_artifacts; trap - INT; kill -INT $$' INT
trap 'restore_artifacts; trap - TERM; kill -TERM $$' TERM
trap 'restore_artifacts; trap - HUP; kill -HUP $$' HUP

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> examples smoke (quick scale)"
# Clippy only *compiles* the examples; actually execute the two entry-point
# walkthroughs so a broken prelude or a panicking scenario is caught here.
cargo build --release --examples
LIFTING_EXAMPLE_QUICK=1 ./target/release/examples/quickstart > /dev/null
LIFTING_EXAMPLE_QUICK=1 ./target/release/examples/streaming_freeriders > /dev/null
echo "examples smoke OK"

echo "==> scenario manifest"
# The scenario registry must match the committed manifest exactly — a
# scenario added without updating the manifest (or silently dropped by a
# refactor) fails here before any experiment runs.
./target/release/run_scenario --list-names > "$tmp/scenario_names.txt"
diff -u tests/scenario_manifest.txt "$tmp/scenario_names.txt" || {
    echo "scenario registry diverged from tests/scenario_manifest.txt;"
    echo "regenerate with: ./target/release/run_scenario --list-names > tests/scenario_manifest.txt"
    exit 1
}
echo "scenario manifest OK"

echo "==> benchmark crate (perfbench) builds and replays its reference digests"
# perfbench/ is its own package outside the workspace, so the workspace
# build and tests never compile it: an API change can break the benchmark
# unnoticed. Build it against the current crates and replay seed 1 of each
# Paper-scale workload against the committed digest table.
perfbench=(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml --)
cargo build --release --offline --manifest-path perfbench/Cargo.toml
for workload in planetlab-300 gossip-only churn-audit; do
    expected="$(awk -F'\t' -v w="$workload" '$1 == w && $2 == "1"' perfbench/digests.tsv)"
    actual="$("${perfbench[@]}" --record "$workload" 1)"
    if [ "$actual" != "$expected" ]; then
        echo "perfbench digest mismatch for $workload seed 1:"
        echo "  expected: $expected"
        echo "  actual:   $actual"
        exit 1
    fi
    echo "  $workload seed 1: $actual"
done
echo "perfbench digests OK"

echo "==> run_all_experiments --quick (parallel)"
./target/release/run_all_experiments --quick
mv experiments_summary.json "$tmp/summary_parallel.json"

echo "==> run_all_experiments --quick --sequential"
./target/release/run_all_experiments --quick --sequential
cp experiments_summary.json "$tmp/summary_sequential.json"
cp BENCH_experiments.json "$tmp/bench_sequential.json"

echo "==> determinism check (parallel vs sequential)"
python3 - <<'EOF'
import json, os, sys
tmp = os.environ['CI_TMP']
a = json.load(open(f'{tmp}/summary_parallel.json'))
b = json.load(open(f'{tmp}/summary_sequential.json'))
skip = {'timings_secs', 'total_wall_secs', 'workers', 'per_scale_timings', 'speedup_vs_seed'}
a = {k: v for k, v in a.items() if k not in skip}
b = {k: v for k, v in b.items() if k not in skip}
if a != b:
    sys.exit('parallel and sequential experiment outputs differ')
# The churn sweep must be part of the gated suite (dynamic membership has its
# own RNG streams; losing the section would silently un-gate them).
if 'churn' not in a or not a['churn']:
    sys.exit('summary is missing the churn sweep')
# Likewise the multistream sweep: multi-channel runs add per-stream planes,
# subscription-aware sampling and a dedicated RNG stream, all of which must
# stay bit-deterministic under the worker pool.
if 'multistream' not in a or not a['multistream']:
    sys.exit('summary is missing the multistream sweep')
# And the resilience sweep: fault injection, closed-loop adversaries and the
# online recalibration all touch the hot path and the RNG stream layout, so
# losing the section would silently un-gate the whole plane.
if 'resilience' not in a or not a['resilience']:
    sys.exit('summary is missing the resilience sweep')
# And the workload sweep: trace-driven membership plans expand from their own
# RNG stream and drive depart/rejoin/resubscribe events through the executor,
# all of which must stay bit-deterministic under the worker pool.
if 'workload' not in a or not a['workload']:
    sys.exit('summary is missing the workload sweep')
print('parallel and sequential outputs are identical '
      '(churn, multistream, resilience and workload sweeps included)')
EOF

echo "==> fault-injection smoke (quick scale)"
# One resilience scenario end to end outside the summary plumbing: partition
# waves must produce aborted (never wrongfully blamed) audits, and the run
# must finish with a live stream.
./target/release/run_scenario resilience/partition-waves --quick > "$tmp/fault_smoke.json"
python3 - <<'EOF'
import json, os, sys
d = json.load(open(os.environ['CI_TMP'] + '/fault_smoke.json'))
rpc = d.get('audit_rpc') or {}
if not rpc.get('aborted_unreachable'):
    sys.exit('fault smoke: partition waves produced no aborted audits')
recovery = d.get('recovery') or {}
if len(recovery.get('waves') or []) != 2:
    sys.exit('fault smoke: expected both partition waves in the recovery trace')
health = (d.get('stream_health') or {}).get('fraction_clear') or []
if not health or health[-1] <= 0.2:
    sys.exit(f'fault smoke: stream collapsed under partition waves ({health[-1:]})')
print('fault-injection smoke OK')
EOF

echo "==> scale smoke (scale/1k, paper scale)"
# One beyond-golden-size scenario (n=1000, the first population that uses the
# large-world manager sampler): the memory metric must stay within the
# per-node budget the scale/ family exists to protect, and the stream must
# stay healthy.
./target/release/run_scenario scale/1k > "$tmp/scale.json"
python3 - <<'EOF'
import json, os, sys
a = json.load(open(os.environ['CI_TMP'] + '/scale.json'))
mem = a.get('memory_per_node_bytes') or 0
if not 0 < mem < 1_000_000:
    sys.exit(f'scale smoke: memory_per_node_bytes out of range ({mem})')
health = (a.get('stream_health') or {}).get('fraction_clear') or []
if not health or health[-1] <= 0.2:
    sys.exit(f'scale smoke: stream collapsed at n=1000 ({health[-1:]})')
print(f'scale smoke OK ({mem/1024:.1f} KiB/node)')
EOF

echo "==> bench smoke (quick wall-clock vs committed baseline)"
python3 - <<'EOF'
import json, os, sys
tmp = os.environ['CI_TMP']

def quick_total(d):
    scales = d.get('scales')
    if isinstance(scales, dict) and 'Quick' in scales:
        return scales['Quick'].get('total_wall_secs')
    if d.get('scale') == 'Quick':
        return d.get('total_wall_secs')
    return None

committed = quick_total(json.load(open(f'{tmp}/committed_BENCH_experiments.json')))
fresh = quick_total(json.load(open(f'{tmp}/bench_sequential.json')))
if committed is None:
    sys.exit('committed BENCH_experiments.json has no Quick-scale total')
if fresh is None:
    sys.exit('fresh bench run produced no Quick-scale total')
print(f'quick suite total_wall_secs: committed {committed:.2f}s, fresh {fresh:.2f}s')
# Allow noisy-machine headroom; a >2x slowdown means a real hot-path
# regression, not scheduling jitter.
if fresh > 2.0 * committed:
    sys.exit(f'bench smoke FAILED: fresh quick run {fresh:.2f}s is more than '
             f'2x the committed baseline {committed:.2f}s')
print('bench smoke OK')
EOF

echo "==> OK"

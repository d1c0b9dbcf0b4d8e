#!/usr/bin/env bash
# CI smoke: the out-of-core flow end to end. Generates an SM pair, runs
# the monolithic driver, then the mmap-backed driver (SCTX serialize on
# the first run, map-existing on the second) with a 1 MB budget that
# forces multi-shard blocks, an on-disk edge spill, and the external
# merge + streaming matcher (--no_graph). The links files must be
# byte-identical to the monolithic run every time. Finally, the existing
# context file must be refused by a run asking for another spatial level
# instead of silently linking at the file's level.
#
# Runs locally too:  tools/ci/smoke_outofcore.sh [build_dir]
set -euo pipefail

BUILD="${1:-build}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

"$BUILD/tools/slim_generate" --workload sm --experiment \
  --out_prefix "$TMP/sctx_" --entities 1600 --side_entities 800 \
  --format sbin
"$BUILD/tools/slim_link" --a "$TMP/sctx_a.sbin" --b "$TMP/sctx_b.sbin" \
  --out "$TMP/links_mono_sm.csv"
"$BUILD/tools/slim_link" --a "$TMP/sctx_a.sbin" --b "$TMP/sctx_b.sbin" \
  --out "$TMP/links_sctx.csv" --sctx "$TMP/context.sctx" \
  --left_shards 2 --memory_budget_mb 1 --spill_run_mb 1 --no_graph
cmp "$TMP/links_mono_sm.csv" "$TMP/links_sctx.csv"
test -s "$TMP/context.sctx"
"$BUILD/tools/slim_link" --a "$TMP/sctx_a.sbin" --b "$TMP/sctx_b.sbin" \
  --out "$TMP/links_sctx2.csv" --sctx "$TMP/context.sctx" \
  --left_shards 2 --memory_budget_mb 1 --spill_run_mb 1 --no_graph
cmp "$TMP/links_mono_sm.csv" "$TMP/links_sctx2.csv"
if "$BUILD/tools/slim_link" --a "$TMP/sctx_a.sbin" --b "$TMP/sctx_b.sbin" \
  --out "$TMP/links_level14.csv" --sctx "$TMP/context.sctx" \
  --spatial_level 14 2> "$TMP/level14.err"; then
  echo "smoke_outofcore: a level-12 context linked a --spatial_level 14 run" >&2
  exit 1
fi
grep -q "spatial_level 12" "$TMP/level14.err"

echo "smoke_outofcore: OK"

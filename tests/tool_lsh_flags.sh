#!/usr/bin/env bash
# slim_link and slim_serve refuse bad --lsh_* values as usage errors (exit
# 2, naming the flag) before they read any input or open a socket.
#
#   tests/tool_lsh_flags.sh path/to/slim_link path/to/slim_serve
set -uo pipefail

LINK="$1"
SERVE="$2"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
failed=0

expect_usage_error() {  # name flag-name command...
  local name="$1" flag="$2"
  shift 2
  "$@" >"$TMP/out" 2>"$TMP/err"
  local rc=$?
  if [ "$rc" -ne 2 ] || ! grep -q -- "$flag" "$TMP/err"; then
    echo "FAIL: $name: exit $rc, stderr: $(cat "$TMP/err")"
    failed=1
  fi
}

for bad in "--lsh_buckets -5" "--lsh_buckets 0" "--lsh_step 0" \
           "--lsh_threshold 1.5" "--lsh_level 40"; do
  flag="${bad%% *}"
  # The inputs do not exist: a check after reading would report them.
  # shellcheck disable=SC2086
  expect_usage_error "slim_link $bad" "$flag" \
    "$LINK" --a "$TMP/missing_a.csv" --b "$TMP/missing_b.csv" \
    --out "$TMP/links.csv" $bad
  # A daemon that passed the check would listen; the timeout ends it.
  # shellcheck disable=SC2086
  expect_usage_error "slim_serve $bad" "$flag" \
    timeout 10 "$SERVE" --socket "$TMP/serve.sock" $bad
  if [ -e "$TMP/serve.sock" ]; then
    echo "FAIL: slim_serve $bad opened its socket"
    failed=1
  fi
done

# A level above the history leaf level is refused too; brute-force
# candidates ignore the LSH flags.
expect_usage_error "slim_link --lsh_level 13 --spatial_level 12" "--lsh_level" \
  "$LINK" --a "$TMP/missing_a.csv" --b "$TMP/missing_b.csv" \
  --out "$TMP/links.csv" --spatial_level 12 --lsh_level 13
"$LINK" --a "$TMP/missing_a.csv" --b "$TMP/missing_b.csv" \
  --out "$TMP/links.csv" --candidates brute --lsh_level 40 2>"$TMP/err"
if grep -q -- "--lsh_level" "$TMP/err"; then
  echo "FAIL: --candidates brute checked the LSH flags"
  failed=1
fi

[ "$failed" -eq 0 ] && echo "tool_lsh_flags: OK"
exit "$failed"

#!/bin/sh
# Run a googletest binary under --gtest_filter, and fail when the filter
# selects no test: googletest itself reports an empty selection as a pass.
#
# Usage: scripts/run_filtered_gtest.sh <test-binary> <filter> [gtest args...]
set -eu
bin=$1
filter=$2
shift 2
count=$("$bin" --gtest_filter="$filter" --gtest_list_tests | grep -c '^  ' || true)
if [ "$count" -eq 0 ]; then
  echo "error: --gtest_filter='$filter' selects no test in $bin" >&2
  exit 1
fi
echo "$bin: $count test(s) match '$filter'"
exec "$bin" --gtest_filter="$filter" "$@"

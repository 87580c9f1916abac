#!/bin/sh
# Lint for the one-module rule: whether metrics are compiled in
# (obs::kMetricsEnabled, set from the LOGFS_METRICS_DISABLED macro) is known
# to src/obs alone. Instrumentation sites call obs entry points
# unconditionally and obs turns them into no-ops when -DLOGFS_METRICS=OFF.
# The only other sites allowed to name the switch are correctness checks
# whose expectation depends on the build mode, listed below with reasons.
# Fails on any other site under src/, and on a listed exception that no
# longer names the switch.
#
# Usage: tests/metrics_gate_lint.sh [repo-root]   (default: the script's repo)
set -e
cd "${1:-$(dirname "$0")/..}"

# Allowed exceptions, one path per line:
#   src/crashsim/oracle.cc — the crash oracle demands a recoverable black box
#     in every crash image, which only a metrics-on build writes.
ALLOWED="src/crashsim/oracle.cc"

PATTERN='kMetricsEnabled|LOGFS_METRICS_DISABLED'
status=0
for file in $(grep -rlE "$PATTERN" src | grep -v '^src/obs/' | sort); do
  if ! echo "$ALLOWED" | grep -qx "$file"; then
    echo "metrics build-mode check outside src/obs:" >&2
    grep -nE "$PATTERN" "$file" | sed "s|^|  $file:|" >&2
    status=1
  fi
done
for file in $ALLOWED; do
  if ! grep -qE "$PATTERN" "$file"; then
    echo "stale exception (no longer names the switch): $file" >&2
    status=1
  fi
done
exit $status

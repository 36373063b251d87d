#!/usr/bin/env bash
# Layering check: batching, dedup, apply, the write-ahead-log calls,
# checkpoints and restore live in one place, consensus-core's
# `ReplicaDriver`. The `net` and `simnet` runtimes are transports around it,
# so their non-test code (everything before a file's first `#[cfg(test)]`,
# comments aside) must not name the pieces that core loop is made of. A hit
# means the loop is being forked again: move the logic into the driver.
# Run from anywhere; operates on the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

forbidden='\b(Batcher|apply_round|AppliedSummary|append_command|append_checkpoint|for_runtime)\b'
fail=0
while IFS= read -r file; do
    hits=$(awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// { print FNR ": " $0 }' "$file" \
        | grep -E "$forbidden" || true)
    if [ -n "$hits" ]; then
        printf 'FAIL: %s names driver internals:\n%s\n' "$file" "$hits"
        fail=1
    fi
done < <(find crates/net/src crates/simnet/src -name '*.rs' | sort)

if [ "$fail" -eq 0 ]; then
    echo "crates/net/src + crates/simnet/src: no driver internals outside consensus-core"
fi
exit "$fail"

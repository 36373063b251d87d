#!/usr/bin/env bash
# Drift check for the prose chapters (docs/RECOVERY.md, docs/DURABILITY.md,
# docs/OBSERVABILITY.md, docs/THROUGHPUT.md): dead same-file anchors, dead
# repo paths, and renamed source symbols a chapter leans on all fail the
# build. Run from anywhere; operates on the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# Shared structural checks for one chapter: anchors, paths, rustdoc
# inclusion.
check_doc() { # doc
    local doc=$1
    if [ ! -f "$doc" ]; then
        echo "FAIL: $doc is missing"
        fail=1
        return
    fi

    # 1. Every same-file anchor link must match a heading (GitHub-style
    #    slugs: lowercase, punctuation stripped, spaces to dashes).
    local slugs
    slugs=$(grep -E '^#{1,6} ' "$doc" \
        | sed -E 's/^#+ +//' \
        | tr '[:upper:]' '[:lower:]' \
        | sed -E 's/[^a-z0-9 -]//g; s/ /-/g')
    local anchor
    for anchor in $(grep -oE '\]\(#[a-z0-9-]+\)' "$doc" | sed -E 's/^\]\(#//; s/\)$//' | sort -u); do
        if ! printf '%s\n' "$slugs" | grep -qx "$anchor"; then
            echo "FAIL: dead anchor '#$anchor' in $doc"
            fail=1
        fi
    done

    # 2. Every backticked repo path must exist.
    local path
    for path in $(grep -oE '`[a-zA-Z0-9_/.-]+\.(rs|md|toml|sh|json)`' "$doc" | tr -d '`' | sort -u); do
        case "$path" in
        BENCH_*.json) continue ;; # bench outputs; regenerated, may be absent
        esac
        if [ ! -e "$path" ]; then
            echo "FAIL: dead path '$path' named in $doc"
            fail=1
        fi
    done

    # 3. The chapter must stay included in the umbrella crate's rustdoc,
    #    which is what keeps `cargo doc -D warnings` rendering it.
    if ! grep -q "include_str!(\"../$doc\")" src/lib.rs; then
        echo "FAIL: $doc is no longer included from src/lib.rs"
        fail=1
    fi
}

# Source symbols a chapter describes must still exist where it says they
# live — rename one and this forces the doc to follow.
check_sym() { # doc, name, pattern, file
    if ! grep -qE "$3" "$4"; then
        echo "FAIL: $1 drifted — '$2' (pattern '$3') not found in $4"
        fail=1
    fi
}

doc=docs/RECOVERY.md
check_doc "$doc"
check_sym "$doc" WireMessage::SnapshotRequest 'SnapshotRequest' crates/net/src/wire.rs
check_sym "$doc" WireMessage::SnapshotChunk 'SnapshotChunk' crates/net/src/wire.rs
check_sym "$doc" Process::on_state_transfer 'fn on_state_transfer' crates/session/src/process.rs
check_sym "$doc" Process::execution_cursor 'fn execution_cursor' crates/session/src/process.rs
check_sym "$doc" StateTransfer 'pub struct StateTransfer' crates/types/src/transfer.rs
check_sym "$doc" AppliedSummary 'pub struct AppliedSummary' crates/types/src/transfer.rs
check_sym "$doc" ExecutionCursor 'pub enum ExecutionCursor' crates/types/src/transfer.rs
check_sym "$doc" checkpoint_interval 'checkpoint_interval' crates/session/src/driver.rs
check_sym "$doc" checkpoint_due 'fn checkpoint_due' crates/session/src/driver.rs
check_sym "$doc" catch_up_timeout 'catch_up_timeout' crates/session/src/driver.rs
check_sym "$doc" restart_replica 'fn restart_replica' crates/net/src/cluster.rs
check_sym "$doc" wait_for_applied 'fn wait_for_applied' crates/net/src/cluster.rs

doc=docs/DURABILITY.md
check_doc "$doc"
check_sym "$doc" Wal 'pub struct Wal' crates/wal/src/store.rs
check_sym "$doc" Wal::open 'pub fn open' crates/wal/src/store.rs
check_sym "$doc" Wal::append_checkpoint 'pub fn append_checkpoint' crates/wal/src/store.rs
check_sym "$doc" FsyncPolicy 'pub enum FsyncPolicy' crates/wal/src/store.rs
check_sym "$doc" WalConfig::segment_max_bytes 'segment_max_bytes' crates/wal/src/store.rs
check_sym "$doc" Recovery 'pub struct Recovery' crates/wal/src/store.rs
check_sym "$doc" WalStats 'pub struct WalStats' crates/wal/src/store.rs
check_sym "$doc" wal.torn_truncations 'wal\.torn_truncations' crates/wal/src/store.rs
check_sym "$doc" wal.replayed 'wal\.replayed' crates/wal/src/store.rs
check_sym "$doc" WalRecord 'pub enum WalRecord' crates/wal/src/record.rs
check_sym "$doc" crc32 'pub fn crc32' crates/types/src/checksum.rs
check_sym "$doc" NetReplicaConfig::data_dir 'pub data_dir' crates/net/src/replica.rs
check_sym "$doc" NetConfig::with_data_dir 'pub fn with_data_dir' crates/net/src/cluster.rs
check_sym "$doc" NetCluster::power_cycle 'pub fn power_cycle' crates/net/src/cluster.rs
check_sym "$doc" consensus_node--data-dir '"--data-dir"' src/bin/consensus_node.rs

doc=docs/OBSERVABILITY.md
check_doc "$doc"
check_sym "$doc" Registry 'pub struct Registry' crates/telemetry/src/registry.rs
check_sym "$doc" RegistrySnapshot 'pub struct RegistrySnapshot' crates/telemetry/src/registry.rs
check_sym "$doc" Counter 'pub struct Counter' crates/telemetry/src/metric.rs
check_sym "$doc" Gauge 'pub struct Gauge' crates/telemetry/src/metric.rs
check_sym "$doc" Histogram 'pub struct Histogram' crates/telemetry/src/metric.rs
check_sym "$doc" SpanRing 'pub struct SpanRing' crates/telemetry/src/span.rs
check_sym "$doc" TracePhase 'pub enum TracePhase' crates/telemetry/src/span.rs
check_sym "$doc" trace::assemble 'pub fn assemble' crates/telemetry/src/trace.rs
check_sym "$doc" trace::phase_breakdown 'pub fn phase_breakdown' crates/telemetry/src/trace.rs
check_sym "$doc" Process::telemetry 'fn telemetry' crates/session/src/process.rs
check_sym "$doc" Context::trace 'pub fn trace' crates/session/src/process.rs
check_sym "$doc" WireMessage::StatsRequest 'StatsRequest' crates/net/src/wire.rs
check_sym "$doc" Event::StatsReply 'StatsReply' crates/net/src/wire.rs
check_sym "$doc" scrape_stats 'pub fn scrape_stats' crates/net/src/client.rs
check_sym "$doc" fetch_stats 'pub fn fetch_stats' crates/net/src/client.rs
check_sym "$doc" wal.errors 'wal\.errors\.checkpoint' crates/session/src/driver.rs
check_sym "$doc" replica.state 'replica\.state' crates/session/src/driver.rs
check_sym "$doc" consensus_node--stats '"--stats"' src/bin/consensus_node.rs

doc=docs/THROUGHPUT.md
check_doc "$doc"
check_sym "$doc" BatchConfig 'pub struct BatchConfig' crates/session/src/batch.rs
check_sym "$doc" Batcher::coalesce 'pub fn coalesce' crates/session/src/batch.rs
check_sym "$doc" Batcher::reseed 'pub fn reseed' crates/session/src/batch.rs
check_sym "$doc" BATCH_LANE 'pub const BATCH_LANE' crates/types/src/command.rs
check_sym "$doc" Command::batch 'pub fn batch' crates/types/src/command.rs
check_sym "$doc" Command::leaves 'pub fn leaves' crates/types/src/command.rs
check_sym "$doc" Executor 'pub struct Executor' crates/session/src/exec.rs
check_sym "$doc" Executor::apply_round 'pub fn apply_round' crates/session/src/exec.rs
check_sym "$doc" NetConfig::with_batch 'pub fn with_batch' crates/net/src/cluster.rs
check_sym "$doc" SimConfig::with_batch 'pub fn with_batch' crates/simnet/src/sim.rs
check_sym "$doc" batch.assembled 'batch\.assembled' crates/session/src/driver.rs
check_sym "$doc" wal.fsyncs 'wal\.fsyncs' crates/wal/src/store.rs

if [ "$fail" -eq 0 ]; then
    echo "docs/RECOVERY.md + docs/DURABILITY.md + docs/OBSERVABILITY.md + docs/THROUGHPUT.md: anchors, paths and symbols all resolve"
fi
exit "$fail"

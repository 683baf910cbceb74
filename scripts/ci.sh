#!/usr/bin/env bash
# Tier-1 verification, hermetic edition.
#
# The workspace must build and test fully offline with an empty cargo
# registry cache: every dependency is an in-tree `xp-*` crate (see DESIGN.md,
# "Hermetic builds"). This script is the gate every PR must pass; the final
# check fails if anyone reintroduces a crates.io dependency.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline"
cargo test -q --offline

echo "==> cargo test -q --offline (XP_THREADS=1, exact sequential fallback)"
# The xp-par layer promises byte-identical behaviour at any thread count,
# and XP_THREADS=1 must be the plain serial code path — run the whole tier-1
# suite under it so a parallelism regression cannot hide behind the default
# thread count (see DESIGN.md #9).
XP_THREADS=1 cargo test -q --offline

echo "==> dependency hermeticity check (cargo tree)"
# Every line of `cargo tree` must be a workspace crate: xp-* or the xmlprime
# facade. Anything else means an external dependency crept back in.
violations=$(cargo tree --offline --workspace --edges normal,build,dev --prefix none \
    | sed 's/ (\*)$//' \
    | awk '{print $1}' \
    | sort -u \
    | grep -v -E '^(xp-[a-z0-9-]+|xmlprime)$' || true)
if [ -n "$violations" ]; then
    echo "ERROR: non-workspace dependencies found in the graph:" >&2
    echo "$violations" >&2
    echo "The build must stay hermetic — implement it in-tree (see crates/testkit)." >&2
    exit 1
fi
echo "OK: dependency graph contains only workspace crates."

echo "==> clippy panic-policy gate (deny unwrap/expect in library crates)"
# The library crates carry #![deny(clippy::unwrap_used, clippy::expect_used)],
# so a clippy pass hard-errors on any unwrap or expect that sneaks back into
# library code. Their unit tests may unwrap (a cfg_attr(test, allow(..))
# sits beside each deny), so the pass covers every target: unit tests,
# integration tests and examples compile under clippy too. -D warnings
# turns every other clippy warning into an error as well, over these
# crates and the workspace crates they compile (xp-baselines), so
# warnings cannot pile up unnoticed. Skipped (with a warning) only if the
# toolchain has no clippy component.
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy -q --offline --all-targets \
        -p xp-prime -p xp-query -p xp-xmltree -p xp-bignum -p xp-labelkit -p xp-par \
        -p xp-store -p xp-server -- -D warnings
    echo "OK: library crates are clippy-clean under the panic policy."
else
    echo "WARNING: clippy not installed; skipping panic-policy gate." >&2
fi

echo "==> rustdoc gate (no broken, ambiguous or private doc links)"
# Nothing else builds the docs, so a link to a renamed or private item, or
# a bracketed citation that rustdoc reads as a link, would pass every other
# gate. -D warnings turns each such rustdoc warning into an error, in
# every workspace crate.
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --offline --workspace
echo "OK: every crate's docs build without warnings."

echo "==> examples smoke (every example runs and its asserts hold)"
# The clippy gate compiles the examples but never runs them, so their
# assert!s would never execute. Each one runs here in release and must exit
# cleanly; deep_documents asserts ancestry across the shards of a §3.2
# decomposition.
for example in quickstart ordered_bookstore scheme_shootout dynamic_feed deep_documents; do
    cargo run -q --release --offline -p xmlprime --example "$example" > /dev/null
    echo "OK: example $example runs"
done

echo "==> fault-injection matrix (XP_FAULT, one armed site per run)"
# Drive the full pipeline (parse -> label -> ordered build -> insert ->
# delete -> query) with each compiled-in fault site armed; the env_matrix
# test asserts nothing panics — injected failures must surface as typed
# errors. See crates/query/tests/fault_injection.rs and DESIGN.md §6.2.
for site in sc.insert sc.insert.record sc.relabel sc.remove \
            bignum.mul parse.read query.join; do
    XP_FAULT="$site:1" \
        cargo test -q --offline -p xp-query --test fault_injection env_matrix \
        > /dev/null
    XP_FAULT="$site:1" \
        cargo test -q --offline -p xp-query --test dynamic_differential dynamic_env_matrix \
        > /dev/null
    XP_FAULT="$site:1" \
        cargo test -q --offline -p xp-query --test predicate_differential predicate_env_matrix \
        > /dev/null
    echo "OK: pipeline survives injected fault at $site"
done

echo "==> SC-atomicity gate (a failed SC mutation leaves the table untouched)"
# This gate is what replaced the SC table's undo journal. Every ScTable
# mutation stages its fallible steps (fault points, partial re-solves, the
# budgeted product, crt::extend) before its first write, so nothing needs
# rolling back. The property arms insert under sc.insert.record:k and
# bignum.mul:k, remove under sc.remove:1 and bignum.mul:k, and
# replace_self_label under sc.relabel:1 and bignum.mul:k; after any failed
# call the table must equal its pre-call clone in every column and pass
# check_cached_columns, and the disarmed retry must succeed. The xp-prime
# sc unit tests run at the same case count. Tier-1 runs the property at 64
# cases. See crates/query/tests/fault_injection.rs and DESIGN.md §6.3.
PROPCHECK_CASES=512 cargo test -q --offline -p xp-query --test fault_injection \
    recovery_restores_cached_columns_and_bases > /dev/null
PROPCHECK_CASES=512 cargo test -q --offline -p xp-prime --lib sc::tests > /dev/null
echo "OK: every failed SC mutation leaves the table as it was."

echo "==> shard-differential gate (shard facade vs unsharded oracle + fault matrix)"
# Propcheck differential: random documents and mutation scripts through the
# ShardedScheme facade must answer all nine axes exactly like the unsharded
# scheme, per-op and batched, at every thread count. Table partitions are
# refreshed the way the server refreshes them (ShardedTables::refresh over
# the drained dirty set), and one layout bounds shard size, so splits run
# under the gate too. Then the same pipeline with each core fault site
# armed must fail typed, never torn. See
# crates/query/tests/shard_differential.rs and DESIGN.md §13.
cargo test -q --offline -p xp-query --test shard_differential > /dev/null
for site in sc.insert sc.insert.record sc.relabel sc.remove bignum.mul; do
    XP_FAULT="$site:1" \
        cargo test -q --offline -p xp-query --test shard_differential shard_env_matrix \
        > /dev/null
done
echo "OK: sharded documents agree with the unsharded oracle on every axis."

echo "==> sharding bench smoke (O(shard) front insert + output identity)"
# Wall-clock-independent gate for the shard facade: a front insert's total
# cost (labels + SC records) must sit well under the unsharded baseline
# (O(shard), not O(document)), and a batch fanned across every shard must
# leave tree, order, outcomes, and labels byte-identical to the unsharded
# oracle at 1/2/4/8 worker threads. Parallel speedup is additionally gated
# on hosts with >= 4 hardware threads. Does not touch the checked-in
# results/bench_sharding.json.
cargo run -q --release --offline -p xp-bench --bin bench_sharding -- --smoke
echo "OK: front inserts are O(shard) and sharded outputs match the oracle."

echo "==> dynamic-differential gate (every scheme vs relabel-from-scratch oracle)"
# Random mutation sequences through LabeledStore for all six schemes; after
# each step the incrementally patched LabelTable must answer queries on all
# nine axes exactly like a table rebuilt from a from-scratch relabeling.
# See crates/query/tests/dynamic_differential.rs and DESIGN.md §8.
cargo test -q --offline -p xp-query --test dynamic_differential > /dev/null
echo "OK: dynamic stores agree with the relabel oracle on every axis."

echo "==> report-coverage gate (cache soundness)"
# The query cache drops an entry only when a batch touched a tag in its
# footprint, and a parent/ancestor/ancestor-or-self step adds no tag of
# its own, so the footprint rule depends on ancestor-set coverage: every
# scheme's relabel report, the sharded composite included, must name each
# node it inserted or removed and each surviving node whose label, parent
# or ancestor list changed. See crates/query/tests/report_coverage.rs and
# DESIGN.md §14.2.
cargo test -q --offline -p xp-query --test report_coverage > /dev/null
echo "OK: relabel reports cover every changed row and ancestor chain."

echo "==> rank-column gate (served document order vs SC mod self-label)"
# A served snapshot reads ranks from a column it folds report by report.
# The propcheck drives the prime scheme through every mutation kind and
# requires the folded column to equal the SC table's order for every
# element, rank every removed node last, and answer the nine axes like the
# tree-walk order; the snapshot unit tests check the same column on the
# publisher's reclaim and clone paths, after a failed subtree insert, and
# for nodes outside the snapshot. Run under the serial fallback and a
# parallel pool. See crates/query/tests/dynamic_differential.rs,
# crates/server/src/snapshot.rs and DESIGN.md §12.3.
for threads in 1 8; do
    XP_THREADS=$threads cargo test -q --offline -p xp-query --test dynamic_differential \
        prime_rank_column_tracks_sc_order > /dev/null
    XP_THREADS=$threads cargo test -q --offline -p xp-server --lib snapshot > /dev/null
done
echo "OK: the served rank column equals SC order after every mutation."

echo "==> query-cost gate (rank lookups + ancestor tests per Table-2 query)"
# Count gate for the query engine, independent of wall clock: on the
# Figure-15 corpus at 2 and 8 replicas, every Table-2 query's rank lookups
# plus ancestor tests must grow at most 5x for 4x the data, stay at most 8
# per result row (queries with >= 100 rows), and match at 1 and 8 worker
# threads. A step that rescans its candidates once per context fails it.
# structural_join_tests_are_linear_in_the_corpus holds the ancestor tests
# of the descendant, following, preceding, ancestor and ancestor-or-self
# steps over every SPEECH or LINE to the same 5x and thread rules, so a
# join that re-pushes ancestors per chunk of targets, or a following or
# preceding step that pushes every candidate through a stack, fails it.
# See crates/query/tests/query_cost.rs and DESIGN.md §15.
cargo test -q --offline -p xp-query --test query_cost > /dev/null
echo "OK: query cost is linear in the corpus and bounded per row."

echo "==> join-differential gate (batched steps vs the per-context oracle, every axis)"
# The batched-versus-per-context oracle for every step: on random trees,
# under interval and prime labels, every batched step (descendant runs
# ended by the next-context probe, following and preceding boundaries, the
# sort-merge on the parent slot for the child, sibling and parent axes,
# the stack join for the ancestor axes, kept spans) must return exactly
# what eval_path_with(.., false) returns, through a plain oracle and
# through borrowed tag runs, on every axis at [1]-[3] and position-free.
# Tier-1 runs it at 256 cases; here at 2048, under the serial fallback
# and a parallel pool. See crates/query/tests/join_differential.rs and
# DESIGN.md §15.
for threads in 1 8; do
    XP_THREADS=$threads PROPCHECK_CASES=2048 \
        cargo test -q --offline -p xp-query --test join_differential > /dev/null
done
echo "OK: batched steps answer like the per-context oracle on every axis."

echo "==> dynamic-API bench smoke (incremental table patch vs rebuild)"
# Wall-clock gate for RelabelReport -> LabelTable patching: fails if the
# leaf-insert patch median exceeds a full table rebuild at any size, or if
# the patched row count grows with the document (it must stay O(report)).
# Does not touch the checked-in results/bench_dynamic_api.json.
XP_BENCH_SAMPLES=8 XP_BENCH_MIN_WINDOW_MS=5 \
    cargo run -q --release --offline -p xp-bench --bin dynamic_api -- --smoke
echo "OK: incremental LabelTable patching beats rebuild and stays O(report)."

echo "==> SC-maintenance bench smoke (incremental insert vs rebuild)"
# Small-size wall-clock gate for the incremental SC update path: fails if a
# tail append's median cost exceeds rebuilding the table from scratch, if
# per-insert cost grows superlinearly in table size (the old pre-scan
# re-derived every member's order, making appends quadratic), or if an
# insert that shifts three quarters of a chunk-5 table's orders
# (front_insert/5) costs more than building that table (build/5). Does not
# touch the checked-in results/bench_sc_table.json.
XP_BENCH_SAMPLES=8 XP_BENCH_MIN_WINDOW_MS=5 \
    cargo run -q --release --offline -p xp-bench --bin sc_maintenance -- --smoke
echo "OK: incremental SC maintenance beats rebuild-from-scratch."

echo "==> bignum-kernel bench smoke (multiply ladder + reduction contexts)"
# Wall-clock gates for the arithmetic kernels (see DESIGN.md §10): the
# schoolbook -> Karatsuba -> Toom-3 dispatch must show its asymptotic win by
# 2^14-bit operands and add no small-size regression, and the precomputed
# Barrett/reciprocal predicate loop must beat per-candidate plain division.
# Does not touch the checked-in results/bench_bignum_kernels.json.
XP_BENCH_SAMPLES=8 XP_BENCH_MIN_WINDOW_MS=5 \
    cargo run -q --release --offline -p xp-bench --bin bench_bignum_kernels -- --smoke
echo "OK: kernel dispatch and reduction contexts hold their bench gates."

echo "==> store crash matrix (fault sites x failure modes, in-process)"
# Every store I/O fault site (wal.append, wal.fsync, wal.read,
# checkpoint.write, manifest.swap) fired in error/torn/short mode at every
# hit the driver scenario reaches; the reopened store must match one of the
# legitimate mutation-prefix oracles and pass fsck. See
# crates/store/tests/crash_matrix.rs and DESIGN.md §11.
cargo test -q --offline -p xp-store --test crash_matrix > /dev/null
echo "OK: every injected I/O failure recovers to a consistent prefix."

echo "==> store prefix-replay property (every WAL byte prefix recovers, both store kinds)"
# Random documents and mutation scripts through the flat Store and through
# a ShardedDocStore (cut depth 1, one batch per mutation); every
# byte-length prefix of the resulting WAL (plus torn-tail garbage) must
# reopen to the exact mutation-prefix oracle, consistent on all nine query
# axes. Run under the serial fallback and a parallel pool.
for threads in 1 8; do
    XP_THREADS=$threads cargo test -q --offline -p xp-store --test prefix_replay > /dev/null
done
echo "OK: every WAL prefix of either store kind replays to a consistent prefix oracle."

echo "==> store kill harness (real process abort at every fault site)"
# The test binary re-executes itself and dies via std::process::abort() at
# each armed site (the in-tree kill -9); the parent reopens the dead
# child's directory and checks it against the prefix oracles.
cargo test -q --offline -p xp-store --test kill_harness > /dev/null
echo "OK: a process killed at any fault site reopens byte-identical."

echo "==> WAL-rules gate (one frame rule for every reader + rollback of failed appends)"
# One function, xp_store::wal::next_mutation, decides every WAL frame for
# every reader: Store::open, fsck and ShardedDocStore::open skip a frame
# the checkpoint already folds in and refuse a gap, a repeated sequence
# number, or bytes after the mutation. replay_rules.rs holds all three
# readers to each clause, with frames written through Wal::append so only
# the rule can refuse them. A failed append is rolled back to the last
# synced length (a failed rollback poisons the handle until reopen), so a
# store that keeps taking writes never logs a sequence number twice: the
# crash-matrix cases keep writing after each store.wal.append (error,
# torn) and store.wal.fsync fault and require the reopened flat and
# sharded stores to equal the live ones; the WAL unit tests cover the
# rollback and the poisoned handle. Run under the serial fallback and a
# parallel pool. See DESIGN.md §11.2 and §11.3.
for threads in 1 8; do
    XP_THREADS=$threads cargo test -q --offline -p xp-store --test replay_rules > /dev/null
    XP_THREADS=$threads cargo test -q --offline -p xp-store --test crash_matrix \
        after_a_failed_append > /dev/null
    XP_THREADS=$threads cargo test -q --offline -p xp-store --lib wal > /dev/null
done
echo "OK: every WAL reader follows one frame rule and failed appends roll back."

echo "==> store bench smoke (durability tax + checkpoint/recovery round trip)"
# Wall-clock gate for the disk store: measures WAL-append overhead vs the
# same apply in memory, checkpoint cost, and recovery time, and fails if a
# reopened store diverges from its live twin or a full checkpoint leaves
# WAL frames behind. Does not touch the checked-in results/bench_store.json.
XP_BENCH_SAMPLES=8 XP_BENCH_MIN_WINDOW_MS=5 \
    cargo run -q --release --offline -p xp-bench --bin bench_store -- --smoke
echo "OK: store recovery is exact and checkpoints fold the WAL."

echo "==> wire gate (reply bytes per row + frame and protocol codecs)"
# Count gate for the reply path, independent of wall clock: Table-2
# answers on the Figure-15 corpus at 10 replicas and the 88 hot region
# paths must encode in at most 1.1 payload bytes per result row (a Hits
# node list is zigzag deltas between consecutive ids), and after a few
# hundred seeded mutations every served answer must round-trip exactly,
# framed and unframed. The frame unit tests hold the slicing-by-16 CRC-32
# to the byte-at-a-time reference and pin the on-disk frame bytes, so
# stores written before it open unchanged; the protocol unit tests pin a
# Hits payload and the typed refusal of the retired tag 2. See
# crates/server/tests/reply_bytes.rs and DESIGN.md §11.1 and §12.1.
cargo test -q --offline -p xp-server --test reply_bytes > /dev/null
cargo test -q --offline -p xp-store --lib frame > /dev/null
cargo test -q --offline -p xp-server --lib protocol > /dev/null
cargo test -q --offline -p xp-labelkit --lib codec > /dev/null
echo "OK: replies cost about a byte per row and every codec agrees with its reference."

echo "==> server interleaving differential (every serialized order vs oracle)"
# Concurrent client scripts submitted to the epoch loop in every
# order-preserving interleaving; each published epoch must answer all nine
# query axes exactly like a relabel-from-scratch oracle, converge to the
# oracle's final document, and survive a reopen. A second pass proves
# group-commit batching is semantically invisible. See
# crates/server/tests/interleaving.rs and DESIGN.md §12.
cargo test -q --offline -p xp-server --test interleaving > /dev/null
echo "OK: every interleaving converges and answers like the oracle."

echo "==> server socket suite at XP_THREADS in {1,8}"
# End-to-end TCP/Unix protocol round trips, shutdown-and-recover, and the
# client-side torn-labeling check (same-epoch //x'//y counts must agree)
# under both the serial fallback and a parallel pool — snapshot isolation
# may not depend on the worker thread count.
for threads in 1 8; do
    XP_THREADS=$threads \
        cargo test -q --offline -p xp-server > /dev/null
    echo "OK: server suite green at XP_THREADS=$threads"
done

echo "==> server bench smoke (concurrent 95/5 workload + group commit)"
# Wall-clock gate for the label server: concurrent TCP clients at 95%
# reads / 5% mutations plus an all-mutation burst. Fails on any same-epoch
# //x'//y disagreement (torn labeling), on a quiesced document diverging
# from the acknowledged mutations, or if the burst spends >= 1.0 WAL
# fsyncs per mutation (group commit must batch). Does not touch the
# checked-in results/bench_server.json.
cargo run -q --release --offline -p xp-bench --bin bench_server -- --smoke
echo "OK: no torn labelings and group commit amortizes fsyncs."

echo "==> query-cache bench smoke (hit rate + zero stale answers + per-label invalidation)"
# The epoch-stamped result cache under a 95/5 mix with mutations confined
# to one region: fails if the hit rate is <= 50%, if any sampled cached
# answer differs from a same-epoch cold evaluation, if a disjoint-region
# entry goes cold after a mutation to the churned region (invalidation
# must be per-label, not flush-on-epoch; other regions' upward-axis
# entries such as `parent::*` must stay hot too), or if either pass
# diverges from the direct-apply oracle. Does not touch the checked-in
# results/bench_query_cache.json.
cargo run -q --release --offline -p xp-bench --bin bench_query_cache -- --smoke
echo "OK: cache answers stay byte-identical and invalidation is per-label."

echo "==> multi-writer storm bench smoke (convergence under concurrent writers)"
# N writer threads push disjoint-region scripts through one epoch loop
# concurrently while readers query through the cache. Fails if any
# scripted mutation is rejected, if the quiesced document does not
# serialize byte-identically to the sequential writer-major oracle, or if
# any cached answer mismatches cold evaluation. Does not touch the
# checked-in results/bench_multiwriter.json.
cargo run -q --release --offline -p xp-bench --bin bench_multiwriter -- --smoke
echo "OK: the relabel storm converges and the cache stays transparent."

echo "==> parallel-scaling bench smoke (xp-par determinism + no-lose gate)"
# Product tree, segmented sieve, and the prodtree-backed ordered build at
# 1/2/4/8 worker threads. Fails if any output differs from the sequential
# run (checked on every host), or — on hosts with >= 4 hardware threads —
# if the parallel product tree is slower than sequential. Does not touch
# the checked-in results/bench_par_scaling.json.
cargo run -q --release --offline -p xp-bench --bin par_scaling -- --smoke
echo "OK: xp-par outputs are byte-identical across thread counts."

echo "==> benchmark smoke (labelbench against the shipped server)"
# Builds xmlprime and the out-of-workspace labelbench package from source
# and runs every BENCHMARK.json workload at toy size, untraced and traced:
# every named metric must be present and finite, and the answer,
# durability and trace-coverage checks must pass. Nothing else in this
# script compiles labelbench/, so this is what catches a change that
# breaks its links into xp-store and xp-server.
python3 labelbench/run.py --smoke
echo "OK: the benchmark builds, runs, and checks its answers."

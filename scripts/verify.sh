#!/usr/bin/env bash
# Tier-1 verification gate, fully offline.
#
# 1. cargo build --release --offline  +  cargo test -q --offline (tier-1)
# 2. workspace-wide unit tests, run twice — pinned to one worker thread and
#    to four — so the deterministic-parallelism contract (bit-identical
#    results at any worker count; see crates/elsa-parallel) is exercised on
#    every gate run, plus the pinned-seed oracle and acceptance batteries
# 3. the artifact gate (crates/elsa-bench/tests/artifacts.rs): every
#    host-independent bin's output must match its committed results/*.txt
#    or BENCH_*.json file byte-for-byte
# 4. the docs gate: rustdoc builds every crate with warnings denied, so a
#    broken intra-doc link fails the gate
# 5. static analysis: `elsa-lint` (in-tree, zero-dependency) scans every .rs
#    file and Cargo.toml and enforces the determinism, reduction-order,
#    arithmetic-headroom, panic-policy/pairing/reachability, and
#    unsafe-hygiene contracts; any unwaived finding, over-budget rule, or
#    stale waiver fails the gate, and the machine-readable report must match
#    the committed results/lint_report.json byte-for-byte.
# 6. dependency guard: every [dependencies]/[dev-dependencies] entry in every
#    Cargo.toml must be an in-tree path dependency (directly or via
#    workspace = true); anything resolving to crates.io fails the gate. This
#    is elsa-lint's O1 rule — no external interpreter required.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> tier-1: cargo build --release --offline"
cargo build --release --offline

echo "==> tier-1: cargo test -q --offline"
cargo test -q --offline

echo "==> workspace tests (all crates, ELSA_THREADS=1)"
ELSA_THREADS=1 cargo test -q --offline --workspace

echo "==> workspace tests (all crates, ELSA_THREADS=4)"
ELSA_THREADS=4 cargo test -q --offline --workspace

echo "==> chaos battery (fixed seed, ELSA_THREADS=1 and 4)"
# The fault-tolerance properties promise bit-identical serving reports at
# any worker count and full accounting under any seeded FaultPlan; run them
# under a pinned seed so a gate failure reproduces exactly.
ELSA_TESTKIT_SEED=0xE15AFA17 ELSA_THREADS=1 cargo test -q --offline --test fault_tolerance
ELSA_TESTKIT_SEED=0xE15AFA17 ELSA_THREADS=4 cargo test -q --offline --test fault_tolerance

echo "==> online serving battery (fixed seed, ELSA_THREADS=1 and 4)"
# The serving acceptance tests promise bit-identical ServeReports at any
# worker count, offline equivalence of the degenerate pipeline, exact
# overload accounting, the bucketed-vs-padded throughput ordering, and exact
# multi-turn session accounting.
ELSA_TESTKIT_SEED=0xE15AFA17 ELSA_THREADS=1 cargo test -q --offline --test online_serving
ELSA_TESTKIT_SEED=0xE15AFA17 ELSA_THREADS=4 cargo test -q --offline --test online_serving

echo "==> session equivalence battery (fixed seed, ELSA_THREADS=1 and 4)"
# The incremental decode session promises bitwise equality with from-scratch
# preprocessing (signatures, norms, candidate sets, output rows — 0 ulp)
# across the workload zoo, plus the eviction-model properties; run it under
# a pinned seed at both thread counts so a failure reproduces.
ELSA_TESTKIT_SEED=0xE15AFA17 ELSA_THREADS=1 cargo test -q --offline --test session_equivalence
ELSA_TESTKIT_SEED=0xE15AFA17 ELSA_THREADS=4 cargo test -q --offline --test session_equivalence

echo "==> cluster fault-tolerance battery (fixed seed, ELSA_THREADS=1 and 4)"
# The multi-node fleet promises bit-identical ClusterReports at any worker
# count and any node count, exact request accounting under node death /
# stragglers / flapping, monotone SLO degradation under node loss, and
# session failover with cache rebuild; run under a pinned seed at both
# thread counts so a gate failure reproduces exactly.
ELSA_TESTKIT_SEED=0xE15AFA17 ELSA_THREADS=1 cargo test -q --offline --test cluster_fault_tolerance
ELSA_TESTKIT_SEED=0xE15AFA17 ELSA_THREADS=4 cargo test -q --offline --test cluster_fault_tolerance

echo "==> long-context battery (fixed seed, ELSA_THREADS=1 and 4)"
# §E-LONGCTX: longctx trace round-trip stability, length-mix accounting,
# bitwise thread-replay of ELSA candidate selection and the pooled-KV rival
# on 8k-key invocations, and the bucketed-vs-padded skew ordering; run under
# a pinned seed at both thread counts so a gate failure reproduces exactly.
ELSA_TESTKIT_SEED=0xE15AFA17 ELSA_THREADS=1 cargo test -q --offline --test longctx
ELSA_TESTKIT_SEED=0xE15AFA17 ELSA_THREADS=4 cargo test -q --offline --test longctx

echo "==> matmul kernel oracle battery (fixed seed, ELSA_THREADS=1 and 4)"
# The packed, register-blocked kernel behind Matrix::matmul and
# matmul_transpose_b promises bitwise equality with the scalar loops it
# replaced (one k-order f64 sum per element from the same start value; NaN
# compared by NaN-ness) on every block-edge shape and IEEE corner value; run
# the oracle battery under a pinned seed at both thread counts, optimized,
# since the vectorized release build is the code every caller runs (the
# workspace runs above already cover the debug build).
ELSA_TESTKIT_SEED=0xE15AFA17 ELSA_THREADS=1 cargo test -q --release --offline -p elsa-linalg --lib kernel_oracle
ELSA_TESTKIT_SEED=0xE15AFA17 ELSA_THREADS=4 cargo test -q --release --offline -p elsa-linalg --lib kernel_oracle

echo "==> hash oracle battery (fixed seed, ELSA_THREADS=1 and 4)"
# SRP hashing runs block kernels: the Kronecker kernel contracts each mode
# for a block of rows at once, and a dense projection hashes many rows as
# one X·Mᵀ product. Both promise the bits of the per-row loops they
# replaced: projected values (sign of zero included; NaN by NaN-ness) and
# signature words, for every backend shape, row counts around a block, and
# IEEE corner rows. Run optimized under a pinned seed at both thread
# counts; the suite's cases above the fan-out gate check the fanned-out
# hashing under ELSA_THREADS=4.
for threads in 1 4; do
  ELSA_TESTKIT_SEED=0xE15AFA17 ELSA_THREADS=$threads cargo test -q --release --offline --test hash_oracle
done

echo "==> candidate path oracle battery (fixed seed, ELSA_THREADS=1 and 4)"
# Candidate selection (a two-pass scan of the flat signature store in
# blocks of 256 keys, branch-free compaction, fallback rescan) and the
# shared candidate-row kernel (interleaved dot chains, softmax, a weighted
# sum over blocks of 32 output columns) promise bitwise equality with the
# loops they replaced: candidate lists, fallback flags, stats, scores (sign
# of zero included) and output rows, NaN by NaN-ness. Run the root suite and
# the kernel's own oracle module optimized, under a pinned seed at both
# thread counts; the suite's one case above the fan-out gate checks the
# fanned-out hashing, selection and candidate rows under ELSA_THREADS=4.
for threads in 1 4; do
  ELSA_TESTKIT_SEED=0xE15AFA17 ELSA_THREADS=$threads cargo test -q --release --offline --test candidate_oracle
  ELSA_TESTKIT_SEED=0xE15AFA17 ELSA_THREADS=$threads cargo test -q --release --offline -p elsa-linalg --lib candidate_oracle
done

echo "==> precompute oracle battery (fixed seed, ELSA_THREADS=1 and 4)"
# The serving precompute computes only what a session's turns read: a
# context generated only up to its longest prefix (the unread value rows
# skipped at two raw draws per pair of normals) and key preprocessing
# carried from turn to turn. Both promise the bits of what they replace:
# the generator state of drawn normals, the rows of the whole invocation
# sliced, and try_run's output, statistics, cycles and energy. Run
# optimized under a pinned seed at both thread counts; the suite's one
# prefill above the fan-out gate checks the fanned-out selection under
# ELSA_THREADS=4.
for threads in 1 4; do
  ELSA_TESTKIT_SEED=0xE15AFA17 ELSA_THREADS=$threads cargo test -q --release --offline --test precompute_oracle
done

echo "==> rival battery (fixed seed, ELSA_THREADS=1 and 4)"
# The functional rivals in elsa-baselines (local windows, fixed segments,
# Reformer-style LSH, pooled KV) on adversarial shapes: n in {1, 2, 97}
# keys, n_q in {1, n, n + 3} queries, d in {1, 63, 65}. Every candidate
# list is sorted, deduplicated, in range and non-empty, every output is
# finite, and pooling with a budget >= n equals exact attention bit for
# bit, all at the ambient worker count; lists and output bits also equal
# their one- and four-worker runs, and one larger shape is asserted to
# fan out every rival's work. Run optimized under a pinned seed at
# both thread counts, so the contracts are checked on the serial and on
# the fanned-out paths.
for threads in 1 4; do
  ELSA_TESTKIT_SEED=0xE15AFA17 ELSA_THREADS=$threads cargo test -q --release --offline --test rivals
done

echo "==> artifact gate (every host-independent bin vs its committed file)"
# The bin:file table lives next to the bins, in crates/elsa-bench/tests/
# artifacts.rs. Its always-on test (run by every `cargo test --workspace`
# above) checks that the table covers every bin and committed file; the
# ignored one runs each host-independent bin and names every file whose
# bytes diverged, its bin and the recapture command. Run it optimized: the
# bins are the release build users run.
cargo test -q --release --offline -p elsa-bench --test artifacts -- --include-ignored

echo "==> docs gate (rustdoc, warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace --offline

echo "==> static analysis (elsa-lint, strict waivers)"
# All rules: nondeterminism (D1), hash-collections (D2), threads-env (D3),
# reduction-order (F1), arithmetic-headroom (A1), panic-policy (P1),
# try-panic-pairing (C1), panic-reachability (P2), offline-deps (O1),
# unsafe-safety (U1), waiver-syntax (W0). Exits nonzero on any unwaived
# finding, any rule over its per-rule waiver budget, or — because of
# --strict-waivers — any stale waiver that no longer suppresses anything.
# `--list-waivers` shows the audit view; `--waiver-report` the budget table.
cargo run -q --offline -p elsa-lint -- --strict-waivers

echo "==> lint report snapshot (elsa-lint --format json vs results/lint_report.json)"
# The JSON report is stable-ordered by construction (findings by file/line/
# rule, rules in table order), so the live render must match the committed
# snapshot byte-for-byte; a rule, waiver, or fix that changes lint state
# must regenerate the snapshot in the same commit.
cargo run -q --offline -p elsa-lint -- --format json | diff - results/lint_report.json \
  || { echo "FAIL: lint JSON diverged; regenerate with: cargo run -p elsa-lint -- --format json > results/lint_report.json"; exit 1; }

echo "==> dependency guard: no external (non-path) dependencies"
# elsa-lint's O1 rule parses every Cargo.toml directly: each dependency entry
# must be an in-tree `path` dependency or a `workspace = true` inheritance of
# one (the workspace-level table is itself checked). It also pins a set of
# known manifests so a layout change cannot silently drop the scan. This
# catches a registry dep even when a populated local cache lets it build.
cargo run -q --offline -p elsa-lint -- --rule offline-deps

echo "OK: tier-1 green, workspace green, lint clean, zero external dependencies"

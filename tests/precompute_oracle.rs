//! 0-ulp oracle battery for the serving precompute's two shortcuts.
//!
//! `elsa_serve::prepare_turns` computes only what a session's turns read.
//! It materializes a context only up to the longest prefix its turns read
//! (`TraceEntry::materialize_prefix`), passing over the unread value rows
//! with `skip_normals`, and it carries a session's key preprocessing from
//! turn to turn (`PreprocessedKeys::append`) into
//! `ElsaAccelerator::try_run_with`. Each shortcut must reproduce, bit for
//! bit, the computation it stands in for:
//!
//! * `skip_normals(k)` against `k` calls of `standard_normal`: the next raw
//!   draw and the next three normals, from an empty and from a held spare;
//! * `generate_prefix(len)` against `generate()` sliced, at every `len`
//!   below which a query row stands, for global, local and passage targets,
//!   the long-context zoo (fewer query rows than keys) and more query rows
//!   than keys, with odd head dimensions so the skipped count is odd; and
//!   every turn that fits the prefix sliced from it against the same turn
//!   sliced from the whole invocation;
//! * `try_run_with` over keys carried across a session's turns against
//!   `try_run` from scratch: output bits, selection statistics, cycles and
//!   energy.
//!
//! `grouped_precompute_matches_the_per_turn_reference` in
//! `crates/elsa-serve/src/engine.rs` checks the precompute as a whole
//! against a whole-invocation, per-turn reference. The drawn sessions here
//! stay below the fan-out gate; one fixed session's prefill crosses it and
//! asserts that it does, so `ELSA_THREADS=4` checks the fanned-out
//! selection.
//!
//! Reproduce a failure with the reported seed:
//! `ELSA_TESTKIT_SEED=0x... cargo test --release --test precompute_oracle`.

use elsa::algorithm::attention::{ElsaAttention, ElsaParams, PreprocessedKeys};
use elsa::attention::exact::AttentionInputs;
use elsa::linalg::SeededRng;
use elsa::parallel::{beneficial, with_threads};
use elsa::sim::{AcceleratorConfig, ElsaAccelerator, RunReport};
use elsa::workloads::sessions::{slice_turn, turn_inputs, turn_query_rows};
use elsa::workloads::synthetic::TargetStructure;
use elsa::workloads::{AttentionPatternConfig, LongCtxKind};
use elsa_testkit::prelude::*;

/// Normals skipped: none, one, a pair and one more, both sides of 64, many.
const SKIPS: [usize; 8] = [0, 1, 2, 3, 63, 64, 65, 10_000];
/// Head dimensions of the drawn patterns: odd ones leave a spare behind.
const DIMS: [usize; 5] = [1, 2, 3, 5, 8];
/// Pattern kinds of [`pattern`].
const KINDS: usize = 6;

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The rows and bits of a query, key and value matrix.
fn input_bits(inputs: &AttentionInputs) -> [(usize, Vec<u32>); 3] {
    [inputs.query(), inputs.key(), inputs.value()].map(|m| (m.rows(), bits(m.as_slice())))
}

/// Draws the next raw word and the next three normals.
fn next_draws(rng: &TestRng) -> (u64, [u64; 3]) {
    let mut normals = rng.clone();
    let three = [(); 3].map(|()| normals.standard_normal().to_bits());
    (rng.clone().next_u64(), three)
}

/// Pattern `kind` at `n` keys: square global, local and passage targets
/// at head dimension `d`, the two long-context kinds (at least 17 keys, so
/// fewer query rows than keys), and global targets with five more query
/// rows than keys.
fn pattern(kind: usize, n: usize, d: usize) -> AttentionPatternConfig {
    let base = AttentionPatternConfig::new(n, d, 3.min(n), 2.0);
    match kind {
        0 => base,
        1 => AttentionPatternConfig { structure: TargetStructure::Local { window: 5 }, ..base },
        2 => AttentionPatternConfig {
            structure: TargetStructure::Passage { passage_len: 7 },
            ..base
        },
        3 => LongCtxKind::LongDocument.pattern(n + 16),
        4 => LongCtxKind::Retrieval.pattern(n + 16),
        _ => AttentionPatternConfig { n_queries: n + 5, ..base },
    }
}

/// Output bits, statistics, cycles and energy of two runs, or the first
/// that differs.
fn same_report(got: &RunReport, want: &RunReport) -> Result<(), String> {
    let energy = |r: &RunReport| {
        let modules: Vec<u64> = r.energy.per_module.iter().map(|(_, j)| j.to_bits()).collect();
        (modules, r.energy.static_energy_j.to_bits())
    };
    if bits(got.output.as_slice()) != bits(want.output.as_slice()) {
        Err("output bits".into())
    } else if got.stats != want.stats {
        Err(format!("stats {:?} vs {:?}", got.stats, want.stats))
    } else if got.cycles != want.cycles {
        Err("cycles".into())
    } else if energy(got) != energy(want) {
        Err("energy".into())
    } else {
        Ok(())
    }
}

/// An accelerator with an operator learned on one invocation of `pattern`.
fn accelerator(pattern: &AttentionPatternConfig, rng: &mut SeededRng) -> ElsaAccelerator {
    let params = ElsaParams::for_dims(64, 64, rng);
    let train = pattern.generate(rng);
    ElsaAccelerator::new(AcceleratorConfig::paper(), ElsaAttention::learn(params, &[train], 1.0))
}

/// Runs every turn of a session on `full` (a prefill of `prompt_len`, then
/// one decode turn per token) with the keys carried from turn to turn, and
/// compares each against `try_run` from scratch.
fn carried_session_matches(
    accel: &ElsaAccelerator,
    full: &AttentionInputs,
    prompt_len: usize,
) -> Result<(), String> {
    let params = accel.operator().params();
    let mut pre = PreprocessedKeys::compute(params, &full.key().row_slice(0..prompt_len));
    for prefix_len in prompt_len..=full.num_keys() {
        if prefix_len > prompt_len {
            pre.append(params, full.key().row(prefix_len - 1));
        }
        let appended = if prefix_len == prompt_len { prompt_len } else { 1 };
        let inputs = turn_inputs(full, prefix_len, appended);
        let want = accel.try_run(&inputs).map_err(|e| e.to_string())?;
        let got = accel.try_run_with(&inputs, &pre).map_err(|e| e.to_string())?;
        same_report(&got, &want).map_err(|what| format!("turn at {prefix_len}: {what}"))?;
    }
    Ok(())
}

props! {
    config: Config::with_cases(64);

    fn skipping_normals_leaves_the_state_of_drawing_them(
        seed in ints_u64(0, u64::MAX),
        spare in bools(),
    ) {
        let mut start = TestRng::new(seed);
        if spare {
            let _ = start.standard_normal();
        }
        for k in SKIPS {
            let mut drawn = start.clone();
            for _ in 0..k {
                let _ = drawn.standard_normal();
            }
            let mut skipped = start.clone();
            skipped.skip_normals(k);
            prop_assert_eq!(next_draws(&skipped), next_draws(&drawn), "k = {k}, spare = {spare}");
        }
    }

    fn prefixes_match_the_sliced_invocation(
        kind in ints(0, KINDS),
        n in ints(1, 25),
        d in ints(0, DIMS.len()),
        seed in ints_u64(0, u64::MAX),
    ) {
        let pattern = pattern(kind, n, DIMS[d]);
        let (n, n_q) = (pattern.n_real, pattern.n_queries);
        let full = pattern.generate(&mut SeededRng::new(seed));
        // Query row i stands at position n − n_q + i.
        let below = |len: usize| (0..n_q).filter(|&i| n + i < len + n_q).count();
        for len in (1..=n).filter(|&len| below(len) > 0) {
            let prefix = pattern.generate_prefix(&mut SeededRng::new(seed), len);
            let sliced = AttentionInputs::new(
                full.query().row_slice(0..below(len)),
                full.key().row_slice(0..len),
                full.value().row_slice(0..len),
            );
            prop_assert_eq!(input_bits(&prefix), input_bits(&sliced), "kind {kind}, len {len}");
            for prefix_len in 1..=len {
                for appended in 1..=prefix_len {
                    let rows = turn_query_rows(n, n_q, prefix_len, appended).expect("well formed");
                    if rows.is_empty() {
                        continue;
                    }
                    let want = input_bits(&turn_inputs(&full, prefix_len, appended));
                    // What the precompute runs: the rows picked on the
                    // invocation's shape, sliced from the prefix.
                    let got = input_bits(&slice_turn(&prefix, rows, prefix_len));
                    prop_assert_eq!(&got, &want, "len {len}, turn ({prefix_len}, {appended})");
                    // With no more query rows than keys the prefix's own
                    // shape picks the same rows. With more, a turn over the
                    // whole prefix would take the rows standing before
                    // position 0 too.
                    if n_q <= n {
                        let own = input_bits(&turn_inputs(&prefix, prefix_len, appended));
                        prop_assert_eq!(&own, &want, "len {len}, turn ({prefix_len}, {appended})");
                    }
                }
            }
        }
    }
}

props! {
    config: Config::with_cases(24);

    fn carried_key_preprocessing_runs_like_try_run(
        n in ints(2, 48),
        prompt_frac in range(0.0, 1.0),
        seed in ints_u64(0, u64::MAX),
    ) {
        let mut rng = SeededRng::new(seed);
        let pattern = AttentionPatternConfig::new(n, 64, 3.min(n), 2.0);
        let accel = accelerator(&pattern, &mut rng);
        let full = pattern.generate(&mut rng);
        let prompt_len = 1 + (prompt_frac * (n - 1) as f64) as usize;
        if let Err(what) = carried_session_matches(&accel, &full, prompt_len) {
            return Err(CaseError::Fail(what));
        }
    }
}

#[test]
fn a_prefill_above_the_fan_out_gate_carries_like_try_run() {
    let (n, prompt_len) = (400, 384);
    let pattern = AttentionPatternConfig::new(n, 64, 3, 2.0);
    let mut rng = SeededRng::new(12);
    let accel = accelerator(&pattern, &mut rng);
    // The selection's work hint: 16 units per scanned key.
    let work = prompt_len * prompt_len * 16;
    assert!(with_threads(4, || beneficial(work)), "work {work} no longer crosses the gate");
    let full = pattern.generate(&mut rng);
    carried_session_matches(&accel, &full, prompt_len).unwrap();
}

//! **E-FLASH** — FLOP/byte/model-cycle accounting of the tiled streaming
//! (FlashAttention-class) exact baseline versus the naive exact kernel and
//! ELSA's candidate selection, across the workload zoo. Emitted as JSON for
//! the committed `BENCH_flash.json` at the repo root.
//!
//! Capture: `cargo run --release -p elsa-bench --bin bench_flash > BENCH_flash.json`
//!
//! Every number here is **host-independent**: operation counts come from
//! `elsa_attention::flops`, cycle counts from the analytic `FlashModel` /
//! `IdealAccelerator` rooflines and the deterministic ELSA cycle simulator,
//! and workloads are generated from pinned seeds. No wall clock is read, so
//! `scripts/verify.sh` diffs the bin's output against the committed file as
//! a regression gate.
//!
//! Per workload (one pinned invocation each):
//!
//! * the naive exact kernel's FLOPs, off-chip bytes (with the O(n²)
//!   score-matrix spill) and workspace;
//! * the streaming design point's FLOPs (renormalization charged), bytes
//!   (tile reloads charged), O(n)-class workspace, `FlashModel` cycles and
//!   roofline bottleneck;
//! * ELSA's approximate pipeline: simulated cycles and selected-pair
//!   fraction from the learned operator, plus ELSA-base (exact) cycles via
//!   `run_base`, the cycles a degraded request is charged.

use elsa_attention::flops::{
    naive_attention_bytes, naive_workspace_bytes, streaming_workspace_bytes, FlashAttentionOps,
};
use elsa_attention::AttentionInputs;
use elsa_baselines::{FlashModel, IdealAccelerator};
use elsa_core::attention::{ElsaAttention, ElsaParams};
use elsa_linalg::SeededRng;
use elsa_sim::{AcceleratorConfig, ElsaAccelerator};
use elsa_workloads::Workload;

const D: usize = 64;
const OPERATOR_SEED: u64 = 0xE15B;
const DATA_SEED: u64 = 0xF1A5;
/// Approximation degree for the ELSA operator (the paper's moderate point).
const P: f64 = 1.0;

struct Row {
    workload: String,
    n: usize,
    naive_flops: u64,
    naive_bytes: u64,
    naive_workspace_bytes: u64,
    flash_flops: u64,
    flash_bytes: u64,
    flash_tile_reload_bytes: u64,
    flash_workspace_bytes: u64,
    flash_cycles: u64,
    flash_bottleneck: &'static str,
    ideal_cycles: u64,
    elsa_base_cycles: u64,
    elsa_approx_cycles: u64,
    elsa_selected_fraction: f64,
}

fn row(workload: &Workload, index: u64) -> Row {
    let mut rng = SeededRng::new(DATA_SEED ^ (index << 8));
    let train = workload.generate_batch(1, &mut rng);
    let operator = ElsaAttention::learn(
        ElsaParams::for_dims(D, D, &mut SeededRng::new(OPERATOR_SEED)),
        &train,
        P,
    );
    let accel = ElsaAccelerator::new(AcceleratorConfig::paper(), operator);
    let test: AttentionInputs = workload.generate_invocation(&mut rng);
    let n = test.num_keys();

    let approx = accel.run(&test);
    let base = accel.run_base(&test);
    let model = FlashModel::paper();
    let ops = FlashAttentionOps::count(n, n, D, D, model.tile);
    // Single-tile flash IS the naive compute (no renormalization, no tile
    // reloads), counted in the same FLOP convention — so the naive/flash
    // columns differ only by the charges the tiling actually adds.
    let naive_ops = FlashAttentionOps::count(n, n, D, D, n);

    Row {
        workload: workload.name(),
        n,
        naive_flops: naive_ops.total_flops(),
        naive_bytes: naive_attention_bytes(n, n, D, D),
        naive_workspace_bytes: naive_workspace_bytes(n, n),
        flash_flops: ops.total_flops(),
        flash_bytes: ops.total_bytes(),
        flash_tile_reload_bytes: ops.tile_reload_bytes,
        flash_workspace_bytes: streaming_workspace_bytes(n, D, 1),
        flash_cycles: model.attention_cycles(n, D),
        flash_bottleneck: model.bottleneck(n, D),
        ideal_cycles: IdealAccelerator::paper().attention_cycles(n, D),
        elsa_base_cycles: base.cycles.total(),
        elsa_approx_cycles: approx.cycles.total(),
        elsa_selected_fraction: approx.stats.candidate_fraction(),
    }
}

fn main() {
    let model = FlashModel::paper();
    let rows: Vec<Row> = Workload::all()
        .iter()
        .enumerate()
        .map(|(i, w)| row(w, i as u64))
        .collect();

    println!("{{");
    println!("  \"bench\": \"flash_streaming_baseline\",");
    println!(
        "  \"capture_command\": \"cargo run --release -p elsa-bench --bin bench_flash > BENCH_flash.json\","
    );
    println!("  \"note\": \"all values are host-independent (analytic FLOP/byte counts, deterministic cycle models, pinned seeds); scripts/verify.sh diffs this bin's output against the committed file\",");
    println!(
        "  \"flash_model\": {{ \"multipliers\": {}, \"clock_ghz\": {:.1}, \"exp_mult_lanes\": {}, \"tile\": {}, \"hbm_bytes_per_cycle\": {:.1} }},",
        model.multipliers, model.clock_ghz, model.exp_mult_lanes, model.tile, model.hbm_bytes_per_cycle
    );
    println!("  \"approximation_p\": {P:.1},");
    println!("  \"workloads\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        println!("    {{ \"workload\": \"{}\", \"n\": {}, \"naive_flops\": {}, \"naive_bytes\": {}, \"naive_workspace_bytes\": {}, \"flash_flops\": {}, \"flash_bytes\": {}, \"flash_tile_reload_bytes\": {}, \"flash_workspace_bytes\": {}, \"flash_cycles\": {}, \"flash_bottleneck\": \"{}\", \"ideal_cycles\": {}, \"elsa_base_cycles\": {}, \"elsa_approx_cycles\": {}, \"elsa_selected_fraction\": {:.4} }}{}",
            r.workload, r.n, r.naive_flops, r.naive_bytes, r.naive_workspace_bytes,
            r.flash_flops, r.flash_bytes, r.flash_tile_reload_bytes, r.flash_workspace_bytes,
            r.flash_cycles, r.flash_bottleneck, r.ideal_cycles,
            r.elsa_base_cycles, r.elsa_approx_cycles, r.elsa_selected_fraction, comma);
    }
    println!("  ]");
    println!("}}");
}

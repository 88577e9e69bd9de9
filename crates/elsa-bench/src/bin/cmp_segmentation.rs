//! **§I motivation** — long-context attention: today's workaround segments
//! the input at 512 tokens and loses every cross-segment relation; ELSA's
//! cheap attention makes the full-context computation affordable. This
//! binary quantifies both halves of that claim on a 2048-token workload
//! whose planted relevant keys are uniformly distributed (most end up in a
//! different segment than their query).
//!
//! Run: `cargo run --release -p elsa-bench --bin cmp_segmentation`

use elsa_attention::exact;
use elsa_baselines::SegmentedAttention;
use elsa_bench::table::{fmt, Table};
use elsa_core::attention::{ElsaAttention, ElsaParams};
use elsa_linalg::SeededRng;
use elsa_sim::{AcceleratorConfig, ElsaAccelerator};
use elsa_workloads::tasks::ClassificationProbe;
use elsa_workloads::AttentionPatternConfig;

fn main() {
    let n = 2048;
    let d = 64;
    let mut rng = SeededRng::new(50);
    let pattern = AttentionPatternConfig::new(n, d, 6, 2.0);
    let train = pattern.generate(&mut rng);
    let test = pattern.generate(&mut rng);
    let probe = ClassificationProbe::new(16, d, &mut rng);
    let exact_out = exact::attention(&test);

    println!("§I — full-context attention at n = 2048 (relevant keys anywhere)\n");
    let mut table = Table::new(&[
        "scheme",
        "context seen",
        "metric (%)",
        "pairs computed (%)",
        "ELSA cycles (x1000)",
    ]);

    // Status quo: independent 512-token segments.
    let seg = SegmentedAttention::new(512);
    let (seg_out, seg_stats) = seg.forward(&test);
    table.row(&[
        "segmented (512)".into(),
        "within segment".into(),
        fmt(probe.agreement(&exact_out, &seg_out) * 100.0, 1),
        fmt(seg_stats.candidate_fraction() * 100.0, 1),
        "-".into(),
    ]);

    // ELSA over the full context.
    let mut op_rng = SeededRng::new(51);
    let operator = ElsaAttention::learn(
        ElsaParams::for_dims(d, d, &mut op_rng),
        std::slice::from_ref(&train),
        1.0,
    );
    let config = AcceleratorConfig { n_max: n, ..AcceleratorConfig::paper() };
    let accel = ElsaAccelerator::new(config, operator);
    let report = accel.run(&test);
    table.row(&[
        "ELSA (p = 1, full context)".into(),
        "entire input".into(),
        fmt(probe.agreement(&exact_out, &report.output) * 100.0, 1),
        fmt(report.stats.candidate_fraction() * 100.0, 1),
        fmt(report.cycles.total() as f64 / 1000.0, 0),
    ]);

    // Exact full attention on the same hardware, for the cycle comparison.
    let base = accel.run_base(&test);
    table.row(&[
        "exact (full context)".into(),
        "entire input".into(),
        "100.0".into(),
        "100.0".into(),
        fmt(base.cycles.total() as f64 / 1000.0, 0),
    ]);
    table.print();
    println!(
        "\nsegmentation computes few pairs but answers the wrong question when\nrelations cross the 512-token boundary; ELSA sees the whole context for\n{:.1}x fewer cycles than exact full-context attention (the paper's §I case\nfor applying self-attention to larger data)",
        base.cycles.total() as f64 / report.cycles.total() as f64
    );
}

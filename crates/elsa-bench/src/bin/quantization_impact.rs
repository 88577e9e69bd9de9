//! **E11 / §IV-E** — impact of the hardware number representations
//! (9-bit fixed-point inputs, 6-bit hash matrices, LUT exp/recip/sqrt,
//! 16-bit custom float) on the end metric, versus the FP32 software
//! implementation of the same approximation. The paper reports < 0.2%.
//!
//! Run: `cargo run --release -p elsa-bench --bin quantization_impact`

use elsa_bench::harness::{generate_split, SEED};
use elsa_bench::table::{fmt, Table};
use elsa_core::attention::{ElsaAttention, ElsaParams};
use elsa_linalg::SeededRng;
use elsa_sim::functional::QuantizedElsaAttention;
use elsa_workloads::tasks::ClassificationProbe;
use elsa_workloads::Workload;

fn main() {
    println!("§IV-E — metric impact of the quantized datapath (vs FP32 approximation)\n");
    let mut table = Table::new(&[
        "workload",
        "FP32 metric (%)",
        "quantized metric (%)",
        "impact (pp)",
    ]);
    let mut worst: f64 = 0.0;
    for workload in Workload::all() {
        let (train, test) = generate_split(&workload);
        let mut rng = SeededRng::new(SEED ^ 0xE15A);
        let params = ElsaParams::for_dims(64, 64, &mut rng);
        let operator = ElsaAttention::learn(params, &train, 1.0);
        let quant = QuantizedElsaAttention::from_reference(&operator);
        let probe = (workload.probe_classes() >= 2)
            .then(|| ClassificationProbe::new(workload.probe_classes(), 64, &mut rng));
        let mut m_f32 = 0.0;
        let mut m_quant = 0.0;
        for inputs in &test {
            let exact = elsa_attention::exact::attention(inputs);
            let (f32_out, _) = operator.forward(inputs);
            let (q_out, _) = quant.forward(inputs);
            match &probe {
                Some(probe) => {
                    m_f32 += probe.agreement(&exact, &f32_out);
                    m_quant += probe.agreement(&exact, &q_out);
                }
                None => {
                    m_f32 += elsa_workloads::tasks::ndcg_at_k(&exact, &f32_out, inputs.value(), 10);
                    m_quant += elsa_workloads::tasks::ndcg_at_k(&exact, &q_out, inputs.value(), 10);
                }
            }
        }
        let count = test.len() as f64;
        let impact = (m_f32 - m_quant) / count * 100.0;
        worst = worst.max(impact.abs());
        table.row(&[
            workload.name(),
            fmt(m_f32 / count * 100.0, 2),
            fmt(m_quant / count * 100.0, 2),
            fmt(impact, 2),
        ]);
    }
    table.print();
    println!("\nworst-case absolute metric impact: {worst:.2} pp (paper: < 0.2%)");
}

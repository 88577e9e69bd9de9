//! Sample statistics and the metric sets a run prints.

use std::collections::BTreeMap;

/// Linear-interpolation percentile (`q` in 0..=100) of `samples`.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// The end-to-end metrics every workload prints, with their units.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ref_ms_p50", "ms"),
];

/// The per-layer metrics every traced run prints. A layer a workload does
/// not call reads 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("elsa-linalg.qk_ms", "ms"),
    ("elsa-linalg.softmax_ms", "ms"),
    ("elsa-linalg.av_ms", "ms"),
    ("elsa-linalg.qk_gflops", "GFLOP/s"),
    ("elsa-linalg.av_gflops", "GFLOP/s"),
    ("elsa-linalg.peak_gflops", "GFLOP/s"),
    ("elsa-linalg.av_frac_peak", "ratio"),
    ("elsa-core.hash_ms", "ms"),
    ("elsa-core.norm_ms", "ms"),
    ("elsa-core.select_ms", "ms"),
    ("elsa-core.select_pairs_per_us", "1/us"),
    ("elsa-core.candidate_fraction", "ratio"),
    ("elsa-core.fallback_queries", "count"),
    ("elsa-core.append_us", "us"),
    ("elsa-core.query_hash_us", "us"),
    ("elsa-core.query_select_us", "us"),
    ("elsa-core.candidates_per_token", "count"),
    ("elsa-core.state_bytes_per_token", "B"),
    ("elsa-attention.cand_attend_ms", "ms"),
    ("elsa-attention.cand_pairs_per_us", "1/us"),
    ("elsa-attention.decode_attend_us", "us"),
    ("elsa-parallel.workers", "count"),
    ("elsa-parallel.fanout_us", "us"),
    ("elsa-parallel.elsa_speedup", "ratio"),
    ("elsa-parallel.exact_speedup", "ratio"),
    ("elsa-parallel.prepare_speedup", "ratio"),
    ("elsa-workloads.generate_ms", "ms"),
    ("elsa-workloads.materialize_us_per_turn", "us"),
    ("elsa-workloads.trace_gen_s", "s"),
    ("elsa-sim.try_run_us_per_turn", "us"),
    ("elsa-sim.cycle_model_us_per_turn", "us"),
    ("elsa-sim.energy_us_per_turn", "us"),
    ("elsa-sim.cycles_per_turn", "cycles"),
    ("elsa-serve.prepare_s", "s"),
    ("elsa-serve.engine_loop_s", "s"),
    ("elsa-serve.cache_hit_rate", "ratio"),
    ("elsa-serve.evictions", "count"),
    ("elsa-serve.rebuilt_tokens", "count"),
    ("elsa-serve.batch_fill_mean", "count"),
    ("elsa-serve.shed_frac", "ratio"),
    ("elsa-serve.timed_out_frac", "ratio"),
    ("elsa-cluster.fleet_loop_s", "s"),
    ("elsa-cluster.reroutes", "count"),
    ("elsa-cluster.refused", "count"),
    ("elsa-cluster.router_finished", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage", "ratio"),
];

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// CPU seconds of each timed op.
    pub op_s: Vec<f64>,
    /// The same ops' CPU seconds scaled to the reference core speed
    /// ([`crate::host::speed_scale`]).
    pub op_ref_s: Vec<f64>,
    /// Per-layer values by name (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// The workload's own named results, with units and sample counts:
    /// `(name, value, unit, samples)`.
    pub named: Vec<(&'static str, f64, &'static str, usize)>,
    /// Calibration and set-up facts worth printing next to the numbers.
    pub notes: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Counts one checked op; a failed check is a failed op.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// Records one timed op: its CPU seconds and the speed scale of the probe
    /// run just before it.
    pub fn op(&mut self, cpu_s: f64, scale: f64) {
        self.op_s.push(cpu_s);
        self.op_ref_s.push(cpu_s * scale);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.layers.insert(name, value);
    }

    pub fn named(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.named.push((name, value, unit, samples));
    }

    pub fn note(&mut self, name: &'static str, value: impl ToString) {
        self.notes.push((name, value.to_string()));
    }
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` over `(name, value, unit)`.
pub fn metrics_json<'a>(items: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let body: Vec<String> = items
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(v)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The workload's own named results and notes, as one JSON object.
pub fn named_json(workload: &str, out: &Outcome) -> String {
    let named: Vec<String> = out
        .named
        .iter()
        .map(|(name, v, unit, n)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\", \"samples\": {n}}}",
                number(*v)
            )
        })
        .collect();
    let notes: Vec<String> = out
        .notes
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
        .collect();
    format!(
        "{{\"workload\": \"{workload}\", \"results\": {{{}}}, \"notes\": {{{}}}}}",
        named.join(", "),
        notes.join(", ")
    )
}

//! Property-based tests (elsa-testkit) over the core data structures and
//! algorithm invariants.
//!
//! Ported from the original proptest suite; every invariant is preserved,
//! with the generators swapped for `elsa_testkit::prop` equivalents.

use elsa::algorithm::attention::{ElsaAttention, ElsaParams, PreprocessedKeys};
use elsa::algorithm::hashing::BinaryHash;
use elsa::attention::exact::{self, AttentionInputs};
use elsa::linalg::kronecker::KroneckerFactors;
use elsa::linalg::{ops, Matrix, SeededRng};
use elsa::numeric::{CustomFloat, Fixed, FixedSpec};
use elsa_testkit::prelude::*;

props! {
    config: Config::with_cases(64);

    // ---- fixed point ----

    fn fixed_round_trip_within_half_ulp(v in range(-40.0, 40.0)) {
        let spec = FixedSpec::qkv();
        let q = Fixed::from_f64(v, spec);
        let clamped = v.clamp(spec.min_value(), spec.max_value());
        prop_assert!((q.to_f64() - clamped).abs() <= spec.resolution() / 2.0 + 1e-12);
    }

    fn fixed_addition_is_exact(a in range(-30.0, 30.0), b in range(-30.0, 30.0)) {
        let spec = FixedSpec::qkv();
        let qa = Fixed::from_f64(a, spec);
        let qb = Fixed::from_f64(b, spec);
        prop_assert_eq!((qa + qb).to_f64(), qa.to_f64() + qb.to_f64());
    }

    fn fixed_multiplication_is_exact(a in range(-30.0, 30.0), b in range(-30.0, 30.0)) {
        let spec = FixedSpec::qkv();
        let qa = Fixed::from_f64(a, spec);
        let qb = Fixed::from_f64(b, spec);
        prop_assert_eq!((qa * qb).to_f64(), qa.to_f64() * qb.to_f64());
    }

    // ---- custom float ----

    fn custom_float_encoding_error_bounded(mag in range(-59.5, 59.5), neg in bools()) {
        // Log-uniform magnitudes spanning the format's full usable range
        // (the original generator drew any normal f64 folded into +-1e60).
        let v = if neg { -1.0 } else { 1.0 } * 10f64.powf(mag);
        prop_assume!(v != 0.0 && v.abs() > 1e-60);
        let enc = CustomFloat::from_f64(v).to_f64();
        let rel = ((enc - v) / v).abs();
        prop_assert!(rel <= CustomFloat::epsilon() + 1e-12, "v={v} rel={rel}");
    }

    fn custom_float_mul_commutes(a in range(-1e20, 1e20), b in range(-1e20, 1e20)) {
        let ca = CustomFloat::from_f64(a);
        let cb = CustomFloat::from_f64(b);
        prop_assert_eq!(ca * cb, cb * ca);
    }

    fn custom_float_add_commutes(a in range(-1e20, 1e20), b in range(-1e20, 1e20)) {
        let ca = CustomFloat::from_f64(a);
        let cb = CustomFloat::from_f64(b);
        prop_assert_eq!(ca + cb, cb + ca);
    }

    fn custom_float_bits_round_trip(a in range(-1e30, 1e30)) {
        let c = CustomFloat::from_f64(a);
        prop_assert_eq!(CustomFloat::from_bits(c.to_bits()), c);
    }

    // ---- softmax / ops ----

    fn softmax_is_distribution(scores in vecs(range_f32(-30.0, 30.0), 1, 64)) {
        let p = ops::softmax(&scores);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&x| (0.0..=1.0 + 1e-6).contains(&x)));
    }

    fn softmax_invariant_to_shift(
        scores in vecs(range_f32(-10.0, 10.0), 2, 32),
        shift in range_f32(-50.0, 50.0),
    ) {
        let a = ops::softmax(&scores);
        let shifted: Vec<f32> = scores.iter().map(|s| s + shift).collect();
        let b = ops::softmax(&shifted);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    // Monotone in q even for out-of-range quantiles (q is drawn well
    // outside [0, 100]): `ops::percentile` clamps the rank, so q <= 0 pins
    // to the min, q >= 100 to the max, and the serving-report percentiles
    // built on it (`ServeReport`'s completion and queue-delay percentiles)
    // can never index out of bounds or extrapolate.
    fn percentile_is_monotone(
        values in vecs(range(-100.0, 100.0), 1, 50),
        q1 in range(-100.0, 250.0),
        q2 in range(-100.0, 250.0),
    ) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(ops::percentile(&values, lo) <= ops::percentile(&values, hi) + 1e-12);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for q in [lo, hi] {
            let p = ops::percentile(&values, q);
            prop_assert!((min..=max).contains(&p), "percentile({q}) = {p} outside [{min}, {max}]");
        }
        prop_assert_eq!(ops::percentile(&values, -5.0), min);
        prop_assert_eq!(ops::percentile(&values, 205.0), max);
    }

    // The serving report inherits the clamp: out-of-range quantiles pin to
    // the fastest / slowest served completion.
    fn serving_report_percentile_clamps(
        times in vecs(range(0.001, 100.0), 1, 24),
        q in range(-100.0, 300.0),
    ) {
        use elsa::serve::{OnlineRecord, Outcome, ServeReport};
        let served = |(id, &t): (usize, &f64)| OnlineRecord {
            id,
            n_real: 8,
            bucket: 0,
            arrival_ns: 0,
            deadline_ns: None,
            decided_ns: 0,
            queue_delay_s: 0.0,
            service_s: t,
            completion_s: t,
            retries: 0,
            outcome: Outcome::Served { degraded: false },
        };
        let report = ServeReport {
            records: times.iter().enumerate().map(served).collect(),
            bucket_stats: Vec::new(),
            cache: None,
        };
        let p = report.completion_percentile_s(q);
        let min = times.iter().copied().fold(f64::INFINITY, f64::min);
        let max = times.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((min..=max).contains(&p));
        prop_assert_eq!(report.completion_percentile_s(-1.0), min);
        prop_assert_eq!(report.completion_percentile_s(101.0), max);
    }

    // ---- binary hashes ----

    fn hamming_is_a_metric(
        a in vecs(bools(), 64, 65),
        b in vecs(bools(), 64, 65),
        c in vecs(bools(), 64, 65),
    ) {
        let ha = BinaryHash::from_bits(&a);
        let hb = BinaryHash::from_bits(&b);
        let hc = BinaryHash::from_bits(&c);
        prop_assert_eq!(ha.hamming(&ha), 0);
        prop_assert_eq!(ha.hamming(&hb), hb.hamming(&ha));
        prop_assert!(ha.hamming(&hc) <= ha.hamming(&hb) + hb.hamming(&hc));
    }

    // ---- Kronecker transforms ----

    fn kronecker_apply_matches_dense(seed in ints_u64(0, 1000)) {
        let mut rng = SeededRng::new(seed);
        let t = KroneckerFactors::two_way_square(16, &mut rng);
        let x = rng.normal_vec(16);
        let fast = t.apply(&x);
        let slow = t.dense().matmul(&Matrix::from_vec(16, 1, x)).col(0);
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!((a - b).abs() < 1e-3);
        }
    }

    // ---- attention semantics ----

    fn candidate_attention_with_full_set_matches_dense(seed in ints_u64(0, 500)) {
        let mut rng = SeededRng::new(seed);
        let n = 12;
        let q = Matrix::from_fn(n, 8, |_, _| rng.standard_normal() as f32);
        let k = Matrix::from_fn(n, 8, |_, _| rng.standard_normal() as f32);
        let v = Matrix::from_fn(n, 8, |_, _| rng.standard_normal() as f32);
        let inputs = AttentionInputs::new(q, k, v);
        let dense = exact::attention(&inputs);
        let sparse = exact::attention_with_candidates(
            &inputs,
            &exact::full_candidates(n, n),
            1.0,
        );
        prop_assert!(dense.max_abs_diff(&sparse) < 1e-4);
    }

    fn selection_respects_threshold_semantics(seed in ints_u64(0, 200)) {
        let mut rng = SeededRng::new(seed);
        let n = 24;
        let keys = Matrix::from_fn(n, 64, |_, _| rng.standard_normal() as f32);
        let params = ElsaParams::for_dims(64, 64, &mut rng);
        let operator = ElsaAttention::with_threshold(params, 0.4);
        let pre = PreprocessedKeys::compute(operator.params(), &keys);
        let query = rng.normal_vec(64);
        let qh = operator.params().hasher().hash(&query);
        let (selected, fallback) = operator.select_candidates(&qh, &pre);
        prop_assert!(!selected.is_empty());
        let cutoff = operator.threshold() * pre.max_norm();
        if !fallback {
            for &j in &selected {
                let h = qh.hamming_words(pre.signature(j));
                let sim = operator.params().lut().cos_of_hamming(h) * pre.norms()[j];
                prop_assert!(sim > cutoff, "selected key {j} below cutoff");
            }
        } else {
            prop_assert_eq!(selected.len(), 1);
        }
    }
}

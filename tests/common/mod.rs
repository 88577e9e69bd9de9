//! The batch-serving oracle shared by the fault-tolerance and online-serving
//! batteries.

use elsa::attention::exact::AttentionInputs;
use elsa::fault::FaultPlan;
use elsa::serve::{OnlineRecord, Outcome};
use elsa::sim::{CycleReport, ElsaAccelerator};

/// The independent oracle for batch serving (an all-at-t=0 trace under
/// `ServeConfig::immediate()`) with a plan whose only faults are
/// corruption: each request's approximate-run cycle-seconds, plus the
/// exact base run's when the plan corrupts it on the unit it lands on,
/// folded FIFO onto the unit that frees first (first minimum, so ties keep
/// the lowest unit index).
pub fn fifo_reference(
    accel: &ElsaAccelerator,
    plan: FaultPlan,
    requests: &[AttentionInputs],
) -> Vec<OnlineRecord> {
    let seconds = |cycles: &CycleReport| cycles.seconds(accel.config());
    let mut free_at = vec![0.0f64; accel.config().num_accelerators];
    let mut records = Vec::with_capacity(requests.len());
    for (id, request) in requests.iter().enumerate() {
        let mut unit = 0;
        for (j, &t) in free_at.iter().enumerate() {
            if t < free_at[unit] {
                unit = j;
            }
        }
        let degraded = plan.corruption(unit, id).is_some();
        let mut service_s = seconds(&accel.run(request).cycles);
        if degraded {
            service_s += seconds(&accel.run_base(request).cycles);
        }
        let start = free_at[unit];
        free_at[unit] += service_s;
        records.push(OnlineRecord {
            id,
            n_real: request.num_keys(),
            bucket: 0,
            arrival_ns: 0,
            deadline_ns: None,
            decided_ns: 0,
            queue_delay_s: start,
            service_s,
            completion_s: free_at[unit],
            retries: 0,
            outcome: Outcome::Served { degraded },
        });
    }
    records
}

pub type RecordBits = (usize, usize, usize, u64, Option<u64>, u64, [u64; 3], u32, Outcome);

/// Every field of every record, each `f64` as raw bits.
pub fn record_bits(records: &[OnlineRecord]) -> Vec<RecordBits> {
    records
        .iter()
        .map(|r| {
            (
                r.id,
                r.n_real,
                r.bucket,
                r.arrival_ns,
                r.deadline_ns,
                r.decided_ns,
                [r.queue_delay_s, r.service_s, r.completion_s].map(f64::to_bits),
                r.retries,
                r.outcome,
            )
        })
        .collect()
}

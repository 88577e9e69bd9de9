//! Host metadata, the host-peak multiply-add loop, the speed probe and peak
//! resident memory.

use std::hint::black_box;
use std::time::Instant;

use crate::clock::cpu_time;

/// CPU seconds of one speed probe at the reference core speed, which every
/// timed op and set-up is scaled to. On the host the benchmark was sized on
/// (Intel Xeon, 2 vCPUs) the probe took 0.38–0.66 ms as the host's load
/// changed; the reference is a fixed round figure in that range.
pub const PROBE_REF_S: f64 = 0.5e-3;

/// Multiply-add rate of one core, in GFLOP/s: 32 independent f64
/// accumulators (the precision the library's dot products accumulate in),
/// each updated with one multiply and one add per step, timed over
/// `seconds`. The best of several short rounds is reported, so a momentary
/// preemption does not read as a slower host.
pub fn peak_gflops(seconds: f64) -> f64 {
    const LANES: usize = 32;
    const STEPS: usize = 1 << 16;
    let mul = black_box(0.999_999_9_f64);
    let add = black_box(1e-9_f64);
    let mut best = 0.0f64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let mut acc = black_box([1.0f64; LANES]);
        let t = Instant::now();
        for _ in 0..STEPS {
            for a in &mut acc {
                *a = *a * mul + add;
            }
        }
        let dt = t.elapsed().as_secs_f64();
        black_box(acc);
        best = best.max(2.0 * (LANES * STEPS) as f64 / dt * 1e-9);
    }
    best
}

/// Factor that scales CPU time measured now to the reference core speed:
/// [`PROBE_REF_S`] over the CPU time of one run of the speed probe.
///
/// On a shared host the same op's CPU time moves by a third or more from one
/// second to the next and from one run to the next: the host's clock changes
/// with its load, and another tenant on the core's sibling hyperthread
/// competes for execution ports and the L1 and L2 caches. The probe is a
/// fixed kernel of the benchmark's own that feels both: a register-bound
/// multiply-add chain, which follows the clock, then a small matrix product
/// over cache-resident rows, which slows more than the chain under a busy
/// sibling. Their time shares (about 2 : 1) come from runs that timed the
/// two parts separately before every op. No blend was best in every hour:
/// over five seeds, the matrix product alone left each workload's scaled
/// median spread by 13–35% in one busy hour and by 1–6% in another, while
/// the 2 : 1 blend stayed at or under 8% in both. Every timed op is scaled by
/// a probe run just before it.
pub fn speed_scale() -> f64 {
    const STEPS: usize = 1 << 16;
    const ROWS: usize = 32;
    const N: usize = 128;
    const K: usize = 64;
    let (_, dt) = cpu_time(|| {
        let mul = black_box(0.999_999_9_f64);
        let add = black_box(1e-9_f64);
        let mut acc = black_box([1.0f64; 32]);
        for _ in 0..STEPS {
            for a in &mut acc {
                *a = *a * mul + add;
            }
        }
        black_box(acc);
        let m: Vec<f32> = (0..N * K).map(|i| (i % 7) as f32).collect();
        let mut c = vec![0.0f32; ROWS * N];
        for i in 0..ROWS {
            for j in 0..N {
                let mut s = 0.0f32;
                for t in 0..K {
                    s += m[i * K + t] * m[j * K + t];
                }
                c[i * N + j] = s;
            }
        }
        black_box(c);
    });
    PROBE_REF_S / dt
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Size of the unified or data cache at `level` for cpu0, as sysfs prints it
/// (for example `"1024K"`).
fn cache_size(level: u32) -> String {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    for index in 0..8 {
        let read = |f: &str| std::fs::read_to_string(format!("{base}/index{index}/{f}"));
        let (Ok(lvl), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) else {
            continue;
        };
        if lvl.trim() == level.to_string() && kind.trim() != "Instruction" {
            return size.trim().to_owned();
        }
    }
    "unknown".to_owned()
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One JSON object describing the host the numbers were taken on.
/// `cpu_share` is the CPU time the run's set-up and timed loop got over
/// their wall time, and `steal_frac` the share of all vCPU time the
/// hypervisor took for other tenants meanwhile: both show how busy the host
/// was.
pub fn metadata_json(
    rustc: &str,
    peak_start: f64,
    peak_end: f64,
    cpu_share: f64,
    steal_frac: f64,
) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    format!(
        "{{\"host\": {{\"nproc\": {nproc}, \"elsa_threads\": {}, \"measured_workers\": {}, \"cpu_model\": \"{}\", \
         \"l2\": \"{}\", \"l3\": \"{}\", \"rustc\": \"{}\", \
         \"peak_gflops_start\": {peak_start:.4}, \"peak_gflops_end\": {peak_end:.4}, \
         \"cpu_share\": {cpu_share:.4}, \"steal_frac\": {steal_frac:.4}}}}}",
        elsa_parallel::current_threads(),
        crate::MEASURED_WORKERS,
        escape(&cpu_model()),
        cache_size(2),
        cache_size(3),
        escape(rustc),
    )
}

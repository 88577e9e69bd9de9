//! Benchmark of the ELSA library crates.
//!
//! ```text
//! elsa-wallbench --workload <prefill_elsa|prefill_exact|decode|serve> --seed <n>
//!                --seconds <s> --trace <0|1> [--size full|small]
//!                [--rustc "<rustc --version>"] [--spans <file.jsonl>]
//! ```
//!
//! Every workload drives the crates through their public functions only.
//! Ops, set-ups and spans are timed on the process CPU clock (see
//! [`clock`]); the length of a run is wall-clock time. The untraced run
//! (`--trace 0`) prints the end-to-end metrics; the traced run
//! (`--trace 1`) wraps each library call in a span and prints the
//! per-layer metrics. The last line of stdout is the result object; the
//! lines before it carry host metadata and the workload's own named results.

mod clock;
mod decode;
mod host;
mod prefill;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use report::{END_TO_END, PER_LAYER};
use trace::Tracer;

/// Fork labels of the seed's independent streams: threshold training and
/// serve calibration never draw from the stream the measured inputs come
/// from.
pub const STREAM_TRAIN: u64 = 0x7A11_0001;
pub const STREAM_CALIBRATE: u64 = 0x7A11_0002;
pub const STREAM_MEASURE: u64 = 0x7A11_0003;

/// Worker count for set-up and every timed op. On a small shared host a
/// fanned-out op waits for its slowest worker, so CPU taken from any one
/// core by another tenant shows up in its time; one worker keeps the figures
/// steady between runs. The traced run measures the fan-out speed-ups at
/// the library's default worker count.
pub const MEASURED_WORKERS: usize = 1;
/// Set-ups per untraced run; `setup_s` is the median of their CPU times,
/// scaled to the reference core speed.
const SETUP_REPEATS: usize = 3;
/// Seconds the host-peak loop runs at the start and at the end of a run.
const PEAK_SECONDS: f64 = 0.2;

/// Problem sizes: `Full` is the benchmark, `Small` the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Small,
}

/// One invocation's settings.
#[derive(Debug)]
pub struct Run {
    pub seed: u64,
    pub seconds: Duration,
    pub size: Size,
    /// The library's default worker count (`elsa_parallel::current_threads`).
    pub workers: usize,
}

impl Run {
    /// Whether the timed loop has used up its time budget.
    pub fn expired(&self, start: Instant) -> bool {
        start.elapsed() >= self.seconds
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    run: Run,
    trace: bool,
    rustc: String,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut size = Size::Full;
    let mut rustc = "unknown".to_owned();
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => trace = value()? == "1",
            "--size" => {
                size = match value()?.as_str() {
                    "full" => Size::Full,
                    "small" => Size::Small,
                    other => return Err(format!("unknown --size {other}")),
                };
            }
            "--rustc" => rustc = value()?,
            "--spans" => spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        run: Run {
            seed: seed.ok_or("--seed is required")?,
            seconds: Duration::from_secs_f64(seconds),
            size,
            workers: elsa_parallel::current_threads(),
        },
        trace,
        rustc,
        spans,
    })
}

/// Runs `setup` the given number of times and returns the last result with
/// the median set-up CPU time, scaled to the reference core speed.
fn timed_setup<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        // One fixture alive at a time, so the repeats do not add to the peak.
        drop(last.take());
        let scale = host::speed_scale();
        let (value, dt) = clock::cpu_time(&mut setup);
        last = Some(value);
        times.push(dt * scale);
    }
    (last.expect("at least one set-up"), report::median(&times))
}

/// Median time of an empty `par_map_indexed` over one item per worker: the
/// fixed cost of one fan-out.
fn fanout_us() -> f64 {
    let workers = elsa_parallel::current_threads();
    let samples: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(elsa_parallel::par_map_indexed(workers, |i| i));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    report::median(&samples)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("elsa-wallbench: {e}");
            std::process::exit(2);
        }
    };
    let run = &args.run;
    let setup_repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut tracer = Tracer::new(args.trace);
    let peak_start = host::peak_gflops(PEAK_SECONDS);
    let (wall_start, cpu_start, steal_start) =
        (Instant::now(), clock::cpu_ns(), clock::host_steal_ticks());

    let (mut out, setup_s) =
        elsa_parallel::with_threads(MEASURED_WORKERS, || match args.workload.as_str() {
            "prefill_elsa" | "prefill_exact" => {
                let (op, setup_s) = timed_setup(setup_repeats, || prefill::setup(run));
                let out = if args.workload == "prefill_elsa" {
                    prefill::run_elsa(run, &op, &mut tracer)
                } else {
                    prefill::run_exact(run, &op, &mut tracer)
                };
                (out, setup_s)
            }
            "decode" => {
                let (op, setup_s) = timed_setup(setup_repeats, || decode::setup(run));
                (decode::run(run, &op, &mut tracer), setup_s)
            }
            "serve" => {
                let (fixture, setup_s) = timed_setup(setup_repeats, || serve::setup(run));
                (serve::run(run, &fixture, &mut tracer), setup_s)
            }
            other => {
                eprintln!("elsa-wallbench: unknown workload {other}");
                std::process::exit(2);
            }
        });
    let (wall_s, cpu_s) = (
        wall_start.elapsed().as_secs_f64(),
        (clock::cpu_ns() - cpu_start) as f64 * 1e-9,
    );
    let steal_end = clock::host_steal_ticks();
    let steal_frac =
        (steal_end.0 - steal_start.0) as f64 / (steal_end.1 - steal_start.1).max(1) as f64;
    let peak_end = host::peak_gflops(PEAK_SECONDS);

    if args.trace {
        let peak = peak_start.max(peak_end);
        out.layer("elsa-parallel.workers", run.workers as f64);
        out.layer("elsa-parallel.fanout_us", fanout_us());
        out.layer("elsa-linalg.peak_gflops", peak);
        if let Some(av) = out.layers.get("elsa-linalg.av_gflops").copied() {
            // The traced PV ran on the measured workers, each with one core's peak.
            out.layer(
                "elsa-linalg.av_frac_peak",
                av / (peak * MEASURED_WORKERS as f64),
            );
        }
    }

    let op_ref_ms = report::median(&out.op_ref_s) * 1e3;
    let peak_rss_mb = host::peak_rss_mb();
    let ops = out.op_s.len();
    let scales: Vec<f64> = out
        .op_ref_s
        .iter()
        .zip(&out.op_s)
        .map(|(r, c)| r / c)
        .collect();
    out.named("setup_s", setup_s, "s", setup_repeats);
    out.named("peak_rss_mb", peak_rss_mb, "MB", 1);
    out.named("op_ref_ms_p50", op_ref_ms, "ms", ops);
    out.named("op_cpu_ms_p50", report::median(&out.op_s) * 1e3, "ms", ops);
    out.named("speed_scale_p50", report::median(&scales), "ratio", ops);

    println!(
        "{}",
        host::metadata_json(
            &args.rustc,
            peak_start,
            peak_end,
            cpu_s / wall_s,
            steal_frac
        )
    );
    println!("{}", report::named_json(&args.workload, &out));

    let metrics = if args.trace {
        report::metrics_json(
            PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, out.layers.get(name).copied().unwrap_or(0.0), unit)),
        )
    } else {
        let value = |name: &str| match name {
            "setup_s" => setup_s,
            "peak_rss_mb" => peak_rss_mb,
            "op_ref_ms_p50" => op_ref_ms,
            _ => unreachable!("every end-to-end metric has a value"),
        };
        report::metrics_json(
            END_TO_END
                .iter()
                .map(|&(name, unit)| (name, value(name), unit)),
        )
    };
    if let Some(path) = &args.spans {
        if args.trace {
            if let Err(e) = tracer.write_jsonl(path) {
                eprintln!("elsa-wallbench: writing spans to {}: {e}", path.display());
            }
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
    );
}

//! The artifact gate: every host-independent bin of this crate must print
//! its committed file byte for byte.
//!
//! Each bin in [`ARTIFACTS`] reads no wall clock and no host state: every
//! value is a seeded computation, an analytic FLOP/byte count, or a model
//! cycle count on the virtual clock. So its stdout must reproduce its
//! committed file on any host with the same platform math library (libm).
//! A change that deliberately moves a file recaptures it with the command
//! the failure prints. [`HOST_DEPENDENT`] is left out on purpose: it
//! records wall-clock timings of the host that ran it.
//!
//! Running every bin takes about 30 s in release on a 2-core host, so the byte
//! comparison is `#[ignore]`d; `scripts/verify.sh` runs it with
//! `cargo test --release --offline -p elsa-bench --test artifacts -- --include-ignored`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Expands `bin => "file"` entries into `(bin, executable, file)` tuples.
macro_rules! artifacts {
    ($($bin:ident => $file:literal,)*) => {
        &[$((stringify!($bin), env!(concat!("CARGO_BIN_EXE_", stringify!($bin))), $file),)*]
    };
}

/// `(bin, executable, file)` for each host-independent bin: the file,
/// relative to the repository root, that the bin's stdout must equal.
const ARTIFACTS: &[(&str, &str, &str)] = artifacts! {
    ablation_arbiter => "results/ablation_arbiter.txt",
    ablation_hash_length => "results/ablation_hash_length.txt",
    ablation_kronecker => "results/ablation_kronecker.txt",
    ablation_orthogonal_srp => "results/ablation_orthogonal_srp.txt",
    ablation_parallel_pipeline => "results/ablation_parallel_pipeline.txt",
    ablation_pipeline => "results/ablation_pipeline.txt",
    ablation_theta_percentile => "results/ablation_theta_percentile.txt",
    ablation_topk => "results/ablation_topk.txt",
    cmp_a3 => "results/cmp_a3.txt",
    cmp_segmentation => "results/cmp_segmentation.txt",
    cmp_software_sparse => "results/cmp_software_sparse.txt",
    cmp_tpu => "results/cmp_tpu.txt",
    deep_accuracy => "results/deep_accuracy.txt",
    end_to_end_speedup => "results/end_to_end_speedup.txt",
    fig02_runtime_portion => "results/fig02_runtime_portion.txt",
    fig10_accuracy_vs_p => "results/fig10_accuracy_vs_p.txt",
    fig11a_throughput => "results/fig11a_throughput.txt",
    fig11b_latency => "results/fig11b_latency.txt",
    fig12_layout => "results/fig12_layout.txt",
    fig13a_energy_efficiency => "results/fig13a_energy_efficiency.txt",
    fig13b_energy_breakdown => "results/fig13b_energy_breakdown.txt",
    gpu_approx_slowdown => "results/gpu_approx_slowdown.txt",
    quantization_impact => "results/quantization_impact.txt",
    table1_area_power => "results/table1_area_power.txt",
    theta_bias_calibration => "results/theta_bias_calibration.txt",
    bench_cluster => "BENCH_cluster.json",
    bench_fault => "BENCH_fault.json",
    bench_flash => "BENCH_flash.json",
    bench_longctx => "BENCH_longctx.json",
    bench_serve => "BENCH_serve.json",
    bench_session => "BENCH_session.json",
};

/// The one bin whose committed file holds wall-clock timings, and that file.
const HOST_DEPENDENT: (&str, &str) = ("bench_parallel", "BENCH_parallel.json");

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// File names in `dir` (relative to the repository root) that satisfy `keep`.
fn names_in(dir: &str, keep: impl Fn(&str) -> bool) -> BTreeSet<String> {
    let path = repo_root().join(dir);
    let entries =
        std::fs::read_dir(&path).unwrap_or_else(|e| panic!("cannot list {}: {e}", path.display()));
    entries
        .map(|entry| entry.expect("directory entry").file_name().to_string_lossy().into_owned())
        .filter(|name| keep(name))
        .collect()
}

/// Fails naming every `found` entry that `listed` lacks and every `listed`
/// entry that was not found.
fn assert_same(what: &str, found: &BTreeSet<String>, listed: &BTreeSet<String>) {
    let unlisted: Vec<&String> = found.difference(listed).collect();
    let missing: Vec<&String> = listed.difference(found).collect();
    assert!(
        unlisted.is_empty() && missing.is_empty(),
        "{what} not in ARTIFACTS: {unlisted:?}; listed but not found: {missing:?}"
    );
}

#[test]
fn artifact_table_covers_every_bin_and_committed_file() {
    let bins: BTreeSet<String> = names_in("crates/elsa-bench/src/bin", |n| n.ends_with(".rs"))
        .iter()
        .map(|n| n.trim_end_matches(".rs").to_string())
        .collect();
    let mut listed_bins: BTreeSet<String> =
        ARTIFACTS.iter().map(|&(bin, _, _)| bin.to_string()).collect();
    assert_eq!(listed_bins.len(), ARTIFACTS.len(), "a bin is listed twice");
    assert!(
        listed_bins.insert(HOST_DEPENDENT.0.to_string()),
        "the host-dependent bin {} must not be in ARTIFACTS",
        HOST_DEPENDENT.0
    );
    assert_same("src/bin/*.rs", &bins, &listed_bins);

    let mut committed: BTreeSet<String> = names_in("results", |n| n.ends_with(".txt"))
        .iter()
        .map(|n| format!("results/{n}"))
        .collect();
    committed.extend(names_in(".", |n| n.starts_with("BENCH_") && n.ends_with(".json")));
    let mut listed_files: BTreeSet<String> =
        ARTIFACTS.iter().map(|&(_, _, file)| file.to_string()).collect();
    assert_eq!(listed_files.len(), ARTIFACTS.len(), "a file is listed twice");
    listed_files.insert(HOST_DEPENDENT.1.to_string());
    assert_same("results/*.txt and BENCH_*.json", &committed, &listed_files);
}

#[test]
#[ignore = "runs every host-independent bin; scripts/verify.sh runs it in release"]
fn every_host_independent_bin_reproduces_its_committed_file() {
    let root = repo_root();
    let diverged: Vec<String> = ARTIFACTS
        .iter()
        .filter_map(|&(bin, exe, file)| {
            let output = Command::new(exe)
                .current_dir(&root)
                .output()
                .unwrap_or_else(|e| panic!("cannot run bin {bin}: {e}"));
            let committed = std::fs::read(root.join(file))
                .unwrap_or_else(|e| panic!("cannot read {file}: {e}"));
            let fault = if !output.status.success() {
                format!("bin {bin} exited with {}", output.status)
            } else if output.stdout != committed {
                format!("{file} diverged from the output of bin {bin}")
            } else {
                return None;
            };
            Some(format!(
                "{fault} (recapture: cargo run --release --offline -p elsa-bench --bin {bin} > {file})"
            ))
        })
        .collect();
    assert!(
        diverged.is_empty(),
        "{} of {} artifacts do not reproduce:\n{}",
        diverged.len(),
        ARTIFACTS.len(),
        diverged.join("\n")
    );
}

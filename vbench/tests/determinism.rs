//! Self-test: two single-connection runs with the same seed reproduce
//! every exact work counter. Counters that scheduling moves even on one
//! connection are reported under `varying` and not compared.
//!
//! Run with `cargo test --release --manifest-path vbench/Cargo.toml`; in a
//! debug build each configuration takes minutes.

use vbench::run::{run_timed, Budget, RunOptions};
use vbench::workload::{Plan, Workload};

fn exact_counters(
    workload: Workload,
    seed: u64,
    requests: usize,
    tag: &str,
) -> Vec<(&'static str, u64)> {
    let plan = Plan::new(workload, seed);
    let dir = vbench::run_dir(workload.name(), tag);
    let options = RunOptions {
        budget: Budget::Requests(requests),
        connections: 1,
        setups: 1,
    };
    let run = run_timed(&plan, &dir, &options);
    vbench::run::remove_dir(&dir);
    let run = run.unwrap_or_else(|e| panic!("{} run failed: {e}", workload.name()));
    assert!(run.outcome.correct, "{}", run.summary.join("\n"));
    run.exact.into_iter().collect()
}

fn assert_reproducible(workload: Workload, requests: usize) {
    let first = exact_counters(workload, 77, requests, "selftest-a");
    let second = exact_counters(workload, 77, requests, "selftest-b");
    assert_eq!(
        first,
        second,
        "{} counters differ between identical runs",
        workload.name()
    );
    assert!(first.iter().any(|(_, v)| *v > 0), "{first:?}");
}

#[test]
fn query_scan_counters_repeat_exactly() {
    assert_reproducible(Workload::QueryScan, 110);
}

#[test]
fn ingest_archive_counters_repeat_exactly() {
    assert_reproducible(Workload::IngestArchive, 110);
}

#[test]
fn lifecycle_writer_counters_repeat_exactly() {
    assert_reproducible(Workload::Lifecycle, 12);
}

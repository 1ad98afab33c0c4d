//! # vbench
//!
//! The VStore benchmark. One command runs a `VStore` and its TCP front
//! end in this process, drives it over loopback from a seeded generator,
//! checks every response, and prints the end-to-end metrics of one
//! workload (`--trace 0`) or the per-layer metrics of a separate traced
//! replay (`--trace 1`). See `README.md` next to this crate.

pub mod check;
pub mod rng;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

use std::path::PathBuf;

/// The end-to-end metrics every timed run reports, as declared in
/// `BENCHMARK.json`.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "speed_x",
    "p50_ms",
    "p90_ms",
    "stored_bytes_per_video_s",
];

/// The per-layer metrics every traced run reports, as declared in
/// `BENCHMARK.json`.
pub const PER_LAYER: [&str; 55] = [
    "serve.queue_wait_p50_us",
    "serve.overhead_ms",
    "serve.wire_us",
    "net.write_syscalls_per_response",
    "net.bytes_out_per_query",
    "query.self_ms",
    "query.segments_fetched",
    "query.frames_consumed",
    "query.bytes_read",
    "query.skip_frac",
    "query.planner_recall",
    "query.modelled_speed_x",
    "query.model_gap",
    "storage.get_ms_per_mib",
    "storage.put_ms_per_mib",
    "storage.meta_put_us",
    "storage.reads",
    "storage.writes",
    "storage.write_amp",
    "cache.raw_hit_rate",
    "cache.decoded_hit_rate",
    "cache.hit_us",
    "cache.evictions",
    "cache.invalidations",
    "tier.demote_mib_per_s",
    "tier.cold_read_ms",
    "tier.demotions",
    "tier.promotions",
    "tier.cold_hits",
    "codec.parse_us_per_seg",
    "codec.decode_ms_per_seg",
    "codec.convert_ms_per_seg",
    "codec.transcode_ms_per_seg",
    "codec.serialize_us_per_seg",
    "codec.meta_ms_per_seg",
    "codec.frames_decoded",
    "ops.diff_us_per_frame",
    "ops.snn_us_per_frame",
    "ops.nn_us_per_frame",
    "ops.motion_us_per_frame",
    "ops.license_us_per_frame",
    "ops.ocr_us_per_frame",
    "ops.frames",
    "ingest.self_ms",
    "ingest.segments_written",
    "ingest.modelled_core_s",
    "ingest.model_gap",
    "datasets.scene_ms_per_seg",
    "core.configure_s",
    "core.storage_formats",
    "profiler.operator_runs",
    "profiler.storage_runs",
    "trace.unattributed_pct.query",
    "trace.unattributed_pct.ingest",
    "trace.overhead_pct",
];

/// The directory one run keeps its stores in: under this crate, so a run
/// reads and writes only inside its checkout.
pub fn run_dir(workload: &str, tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".data")
        .join(format!("{workload}-{tag}-{}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;

    /// The declared metric lists match `BENCHMARK.json` name for name.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let declared = |section: &str| -> Vec<String> {
            let start = json
                .find(&format!("\"{section}\""))
                .expect("section present");
            let end = json[start..].find(']').expect("section closes") + start;
            json[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|rest| rest[..rest.find('"').expect("name closes")].to_owned())
                .collect()
        };
        assert_eq!(declared("end_to_end"), END_TO_END);
        assert_eq!(declared("per_layer"), PER_LAYER);
        assert!(END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .all(|n| valid_metric_name(n)));
    }
}

//! Setup and the timed run: a `VStore` served over loopback TCP by
//! `VStore::serve_net`, driven closed-loop by `NetClient`s, with every
//! response checked.

use crate::check::{read_back, recall_counts, Acked, Answer, References};
use crate::stats::{median, percentile, Metrics, Outcome};
use crate::workload::{Kind, Op, Plan, Workload, CONNECTIONS, SEGMENT_SECONDS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vstore::serve::ErrorCode;
use vstore::types::Configuration;
use vstore::{
    Consumer, IngestRequest, NetClient, NetOptions, RuntimeOptions, ServeOptions, ServeResponse,
    VStore, VStoreOptions,
};

/// Primary-kind requests a timed phase completes at least: p90 then has
/// 10 samples beyond it.
const MIN_PRIMARY_SAMPLES: usize = 110;

/// How long the measured phase lasts.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Wall seconds; each connection finishes the request in flight.
    Seconds(f64),
    /// Requests per connection (the determinism self-test).
    Requests(usize),
}

/// Options of one timed run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Length of the measured phase.
    pub budget: Budget,
    /// Client connections (at most [`CONNECTIONS`]).
    pub connections: usize,
    /// Setups made; `setup_s` is their median and the last one is measured.
    pub setups: usize,
}

/// Where one setup's time went, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `VStore::open`.
    pub open_s: f64,
    /// `VStore::configure` with the 24-consumer evaluation set.
    pub configure_s: f64,
    /// Ingest of the archive.
    pub preload_s: f64,
    /// Cache warm-up queries (`query_hot` only).
    pub warm_s: f64,
}

impl SetupTimes {
    /// The whole setup.
    pub fn total(&self) -> f64 {
        self.open_s + self.configure_s + self.preload_s + self.warm_s
    }
}

/// A store that finished setup.
pub struct Ready {
    /// The store.
    pub store: VStore,
    /// Its configuration.
    pub config: Arc<Configuration>,
    /// Where setup's time went.
    pub times: SetupTimes,
    /// Planner-on answers computed by the warm-up (`query_hot`).
    pub warm_refs: Option<References>,
}

/// Open a store in `dir` and configure it for the evaluation set.
pub fn open_and_configure(
    dir: &Path,
    options: VStoreOptions,
    times: &mut SetupTimes,
) -> vstore::Result<(VStore, Arc<Configuration>)> {
    let started = Instant::now();
    let store = VStore::open(dir, options)?;
    times.open_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let config = store.configure(&Consumer::evaluation_set())?;
    times.configure_s = started.elapsed().as_secs_f64();
    Ok((store, config))
}

/// Full setup: open, configure, preload the archive, warm the caches.
pub fn setup(plan: &Plan, dir: &Path, runtime: RuntimeOptions) -> vstore::Result<Ready> {
    let mut times = SetupTimes::default();
    let (store, config) = open_and_configure(dir, plan.workload.options(runtime), &mut times)?;
    let started = Instant::now();
    for stream in &plan.archive {
        store.ingest(IngestRequest::new(&stream.source).segments(stream.segments))?;
    }
    times.preload_s = started.elapsed().as_secs_f64();
    let mut warm_refs = None;
    if plan.workload == Workload::QueryHot {
        // Every (stream, accuracy, segment) once: fills both cache tiers
        // with the working set, and the answers are the planner-on
        // references.
        let started = Instant::now();
        warm_refs = Some(References::compute(&store, plan, None, CONNECTIONS)?);
        times.warm_s = started.elapsed().as_secs_f64();
    }
    Ok(Ready {
        store,
        config,
        times,
        warm_refs,
    })
}

/// How one response was judged.
#[derive(Debug, Clone, PartialEq)]
enum Verdict {
    Ok,
    Failed(String),
    Refused,
    Wrong(String),
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
struct Sample {
    kind: Kind,
    latency_ms: f64,
    video_s: f64,
    verdict: Verdict,
    acked: Option<Acked>,
    answer: Option<Answer>,
    recall: (usize, usize),
}

/// The expected answers a run checks against.
struct Expect<'a> {
    config: &'a Configuration,
    refs: References,
    /// Exact-scan answers, for planner recall (`query_hot`).
    exact: Option<References>,
}

impl Expect<'_> {
    fn judge(&self, op: &Op, response: vstore::Result<ServeResponse>) -> Sample {
        let mut sample = Sample {
            kind: op.kind(),
            latency_ms: 0.0,
            video_s: op.video_s(),
            verdict: Verdict::Ok,
            acked: None,
            answer: None,
            recall: (0, 0),
        };
        let response = match response {
            Ok(ServeResponse::Error(e)) if e.code == ErrorCode::Busy => {
                sample.verdict = Verdict::Refused;
                return sample;
            }
            Ok(ServeResponse::Error(e)) => {
                sample.verdict = Verdict::Failed(format!("{:?}: {}", e.code, e.message));
                return sample;
            }
            Err(e) => {
                sample.verdict = Verdict::Failed(e.to_string());
                return sample;
            }
            Ok(response) => response,
        };
        sample.verdict = match (op, response) {
            (
                Op::Query {
                    stream,
                    accuracy,
                    first,
                    count,
                },
                ServeResponse::Query(result),
            ) => {
                let got = Answer::of(&result);
                let verdict = match self.refs.expected(*stream, *accuracy, *first, *count) {
                    Some(want) if want == got => Verdict::Ok,
                    Some(want) => {
                        Verdict::Wrong(format!("query {op:?}: got {got:?}, reference {want:?}"))
                    }
                    None => Verdict::Wrong(format!("query {op:?} outside the reference domain")),
                };
                if let Some(exact) = &self.exact {
                    if let Some(exact) = exact.expected(*stream, *accuracy, *first, *count) {
                        sample.recall = recall_counts(&got, &exact);
                    }
                }
                sample.answer = Some(got);
                verdict
            }
            (
                Op::Ingest {
                    source,
                    first,
                    count,
                },
                ServeResponse::Ingest(report),
            ) => {
                let formats = self.config.storage_formats.len() as u64;
                let video = *count as f64 * SEGMENT_SECONDS;
                if report.segments_written as u64 == formats * count
                    && (report.video.seconds() - video).abs() < 1e-6
                    && report.actual_bytes.bytes() > 0
                {
                    sample.acked = Some(Acked {
                        stream: source.name().to_owned(),
                        first: *first,
                        count: *count,
                    });
                    Verdict::Ok
                } else {
                    Verdict::Wrong(format!("ingest {op:?}: report {report:?}"))
                }
            }
            (Op::Erode { age, .. }, ServeResponse::Erode(report)) if report.age_days == *age => {
                Verdict::Ok
            }
            (op, response) => Verdict::Wrong(format!("{op:?} answered with {response:?}")),
        };
        sample
    }
}

/// The result of one timed run.
pub struct TimedRun {
    /// The result line.
    pub outcome: Outcome,
    /// Human-readable report lines.
    pub summary: Vec<String>,
    /// Work counters that repeat exactly on a single connection.
    pub exact: BTreeMap<&'static str, u64>,
}

/// Run `plan` timed: `options.setups` setups, references, the served phase,
/// read-back, metrics. The store lives under `data_dir`, which is removed.
pub fn run_timed(plan: &Plan, data_dir: &Path, options: &RunOptions) -> Result<TimedRun, String> {
    let err = |what: &str, e: vstore::VStoreError| format!("{what}: {e}");
    let runtime = RuntimeOptions::default();
    let mut setups = Vec::new();
    let mut ready: Option<(Ready, PathBuf)> = None;
    for k in 0..options.setups.max(1) {
        // Close and delete the previous setup first: one store at a time.
        if let Some((old, old_dir)) = ready.take() {
            drop(old);
            remove_dir(&old_dir);
        }
        let dir = data_dir.join(format!("setup-{k}"));
        let r = setup(plan, &dir, runtime).map_err(|e| err("setup", e))?;
        setups.push(r.times);
        ready = Some((r, dir));
    }
    let (ready, dir): (Ready, PathBuf) = ready.expect("at least one setup ran");
    let Ready {
        store,
        config,
        warm_refs,
        ..
    } = ready;

    let (refs, exact) = match plan.workload {
        Workload::QueryHot => (
            warm_refs.expect("query_hot warms during setup"),
            Some(
                References::compute(&store, plan, Some(false), CONNECTIONS)
                    .map_err(|e| err("exact-scan references", e))?,
            ),
        ),
        _ => (
            References::compute(&store, plan, None, CONNECTIONS)
                .map_err(|e| err("references", e))?,
            None,
        ),
    };
    let archive_bytes = store.store_stats().live_bytes;
    let before = (store.store_stats(), store.cache_stats(), store.tier_stats());
    let expect = Expect {
        config: &config,
        refs,
        exact,
    };

    let server = store
        .serve_net(
            "127.0.0.1:0",
            NetOptions::default(),
            ServeOptions::default(),
        )
        .map_err(|e| err("serve_net", e))?;
    let addr = server.local_addr();
    let connections = options.connections.clamp(1, CONNECTIONS);
    let started = Instant::now();
    let deadline = match options.budget {
        Budget::Seconds(s) => Some(started + Duration::from_secs_f64(s)),
        Budget::Requests(_) => None,
    };
    let primary = plan.workload.primary();
    let primary_done = AtomicUsize::new(0);
    let stop_sampling = AtomicBool::new(false);
    let (per_conn, rss_samples) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut rss = Vec::new();
            while !stop_sampling.load(Ordering::Relaxed) {
                rss.push(status_mib("VmRSS:"));
                std::thread::sleep(RSS_SAMPLE_PERIOD);
            }
            rss
        });
        let handles: Vec<_> = (0..connections)
            .map(|conn| {
                let expect = &expect;
                let primary_done = &primary_done;
                scope.spawn(move || {
                    let mut client = NetClient::connect(addr).map_err(|e| err("connect", e))?;
                    let mut generator = plan.generator(conn);
                    let mut samples = Vec::new();
                    loop {
                        let done = match (deadline, options.budget) {
                            // A timed phase runs past its deadline until the
                            // p90 of the primary kind has 10 samples beyond.
                            (Some(deadline), _) => {
                                Instant::now() >= deadline
                                    && primary_done.load(Ordering::Relaxed) >= MIN_PRIMARY_SAMPLES
                            }
                            (None, Budget::Requests(n)) => samples.len() >= n,
                            (None, Budget::Seconds(_)) => unreachable!("deadline set for seconds"),
                        };
                        if done {
                            break;
                        }
                        let op = generator.next_op();
                        let request = op.request(plan);
                        let sent = Instant::now();
                        let response = client.call(&request);
                        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                        let mut sample = expect.judge(&op, response);
                        sample.latency_ms = latency_ms;
                        if sample.kind == primary {
                            primary_done.fetch_add(1, Ordering::Relaxed);
                        }
                        samples.push(sample);
                    }
                    Ok((samples, Instant::now()))
                })
            })
            .collect();
        let per_conn: Vec<Result<(Vec<Sample>, Instant), String>> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        stop_sampling.store(true, Ordering::Relaxed);
        (per_conn, sampler.join().expect("memory sampler panicked"))
    });
    let mut samples = Vec::new();
    let mut ended = started;
    for conn in per_conn {
        let (s, end) = conn?;
        samples.extend(s);
        ended = ended.max(end);
    }
    let wall_s = ended.duration_since(started).as_secs_f64();
    // Memory through setup and the measured phase, reported but not a
    // metric: the allocator keeps some transient request buffers resident,
    // so the resident set of one workload is bimodal between runs. The
    // read-back below is the benchmark's own check, not the store's
    // footprint.
    let peak_rss = status_mib("VmHWM:");
    let (net, serve) = server.shutdown();
    let after = (store.store_stats(), store.cache_stats(), store.tier_stats());
    let shards = runtime.shards;
    let tier_options = plan.workload.options(runtime).tier;
    drop(store);

    let acked: Vec<Acked> = samples.iter().filter_map(|s| s.acked.clone()).collect();
    let readback_failures =
        read_back(&dir, shards, &tier_options, &config, &acked).map_err(|e| err("read-back", e))?;
    remove_dir(&dir);

    // --- judgement --------------------------------------------------------
    let attempted = samples.len() as u64;
    let mut failed = 0u64;
    let mut wrong_messages = Vec::new();
    for s in &samples {
        match &s.verdict {
            Verdict::Ok => {}
            Verdict::Refused => failed += 1,
            Verdict::Failed(m) | Verdict::Wrong(m) => {
                failed += 1;
                wrong_messages.push(m.clone());
            }
        }
    }
    failed += readback_failures.len() as u64;
    wrong_messages.extend(readback_failures);
    let correct = failed == 0;

    // --- metrics ----------------------------------------------------------
    let by_kind = |kind: Kind| -> (Vec<f64>, f64) {
        let ok: Vec<&Sample> = samples
            .iter()
            .filter(|s| s.kind == kind && s.verdict == Verdict::Ok)
            .collect();
        (
            ok.iter().map(|s| s.latency_ms).collect(),
            ok.iter().map(|s| s.video_s).sum(),
        )
    };
    let (latencies, video_s) = by_kind(primary);
    let p50 = percentile(&latencies, 0.5);
    let p90 = percentile(&latencies, 0.9);
    if p90.is_none() && matches!(options.budget, Budget::Seconds(_)) {
        return Err(format!(
            "{} {} samples leave fewer than 10 beyond p90; lengthen the run",
            latencies.len(),
            primary.name()
        ));
    }
    let ingested_video_s: f64 = plan.archive_video_s() + by_kind(Kind::Ingest).1;
    if ingested_video_s == 0.0 {
        return Err("no video stored".into());
    }
    let stored_bytes = after.0.disk_bytes + after.2.as_ref().map_or(0, |t| t.cold_resident_bytes);
    let setup_totals: Vec<f64> = setups.iter().map(SetupTimes::total).collect();
    let setup_s = median(&setup_totals).expect("at least one setup");

    let mut metrics = Metrics::default();
    metrics.put("setup_s", setup_s, "s");
    metrics.put("speed_x", video_s / wall_s, "x");
    // A request-bounded run (the self-test) may be too short for them.
    if let (Some(p50), Some(p90)) = (p50, p90) {
        metrics.put("p50_ms", p50, "ms");
        metrics.put("p90_ms", p90, "ms");
    }
    metrics.put(
        "stored_bytes_per_video_s",
        stored_bytes as f64 / ingested_video_s,
        "B/video-s",
    );
    let rss = median(&rss_samples).unwrap_or_else(|| status_mib("VmRSS:"));

    // --- counters ---------------------------------------------------------
    let answers: Vec<&Answer> = samples.iter().filter_map(|s| s.answer.as_ref()).collect();
    let count_kind = |kind: Kind| samples.iter().filter(|s| s.kind == kind).count() as u64;
    let mut exact = BTreeMap::new();
    exact.insert("requests.query", count_kind(Kind::Query));
    exact.insert("requests.ingest", count_kind(Kind::Ingest));
    exact.insert("requests.erode", count_kind(Kind::Erode));
    exact.insert(
        "query.segments_fetched",
        answers.iter().map(|a| a.segments_fetched() as u64).sum(),
    );
    exact.insert(
        "query.frames_consumed",
        answers.iter().map(|a| a.frames_consumed() as u64).sum(),
    );
    exact.insert(
        "query.bytes_read",
        answers.iter().map(|a| a.bytes_read).sum(),
    );
    exact.insert(
        "query.segments_skipped",
        answers.iter().map(|a| a.skipped as u64).sum(),
    );
    exact.insert("storage.writes", after.0.writes - before.0.writes);
    exact.insert("storage.live_segments", after.0.live_segments as u64);
    exact.insert("storage.live_bytes", after.0.live_bytes);
    exact.insert("net.frames_in", net.frames_in);
    exact.insert("net.frames_out", net.frames_out);
    exact.insert("net.bytes_in", net.bytes_in);
    exact.insert("net.bytes_out", net.bytes_out);
    let mut varying = BTreeMap::new();
    // The prefetch and ingest pools fetch and write in parallel, and the
    // event loops batch by timing: these move between identical runs.
    varying.insert("storage.reads", after.0.reads - before.0.reads);
    varying.insert("storage.disk_bytes", after.0.disk_bytes);
    varying.insert("net.write_syscalls", net.write_syscalls);
    varying.insert("serve.completed", serve.completed);
    varying.insert("cache.raw_hits", after.1.raw_hits - before.1.raw_hits);
    varying.insert("cache.raw_misses", after.1.raw_misses - before.1.raw_misses);
    varying.insert(
        "cache.decoded_hits",
        after.1.decoded_hits - before.1.decoded_hits,
    );
    varying.insert(
        "cache.decoded_misses",
        after.1.decoded_misses - before.1.decoded_misses,
    );
    varying.insert(
        "cache.invalidations",
        after.1.invalidations - before.1.invalidations,
    );
    if let (Some(b), Some(a)) = (&before.2, &after.2) {
        varying.insert("tier.demotions", a.demotions - b.demotions);
        varying.insert("tier.promotions", a.promotions - b.promotions);
        varying.insert("tier.cold_hits", a.cold_hits - b.cold_hits);
    }

    // --- report -----------------------------------------------------------
    let mut summary = Vec::new();
    let (cache_bytes, decoded) = plan.workload.cache();
    summary.push(format!(
        "workload {} seed {}: closed loop, {connections} connection(s), fs backend, default flush policy (no fsync per put), host cores {}",
        plan.workload.name(),
        plan.seed,
        vstore::types::available_workers(),
    ));
    summary.push(format!(
        "archive {:.1} MiB live in {} streams ({:.0} video-s); cache {:.0} MiB raw + {decoded} decoded entries; planner {}",
        archive_bytes as f64 / MIB,
        plan.archive.len(),
        plan.archive_video_s(),
        cache_bytes as f64 / MIB,
        if plan.workload.planner() { "on" } else { "off" },
    ));
    let medians = |f: fn(&SetupTimes) -> f64| {
        median(&setups.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    summary.push(format!(
        "setup_s {setup_s:.3} s (median of {}): open {:.4} s, core.configure_s {:.3} s, preload {:.3} s, cache warm-up {:.3} s",
        setups.len(),
        medians(|t| t.open_s),
        medians(|t| t.configure_s),
        medians(|t| t.preload_s),
        medians(|t| t.warm_s),
    ));
    for kind in [Kind::Query, Kind::Ingest, Kind::Erode] {
        let (lat, video) = by_kind(kind);
        if lat.is_empty() {
            continue;
        }
        let fmt = |v: Option<f64>| {
            v.map_or("n/a (<10 samples beyond)".to_owned(), |v| {
                format!("{v:.3} ms")
            })
        };
        summary.push(format!(
            "{k}: {} ok of {}, {k}_speed_x {:.2} x realtime, {k}_p50_ms {}, {k}_p90_ms {}",
            lat.len(),
            count_kind(kind),
            video / wall_s,
            fmt(percentile(&lat, 0.5)),
            fmt(percentile(&lat, 0.9)),
            k = kind.name(),
        ));
    }
    let recall: (usize, usize) = samples
        .iter()
        .fold((0, 0), |acc, s| (acc.0 + s.recall.0, acc.1 + s.recall.1));
    if expect.exact.is_some() {
        summary.push(format!(
            "planner recall vs exact scan: {} of {} positive frames ({:.4})",
            recall.0,
            recall.1,
            recall.0 as f64 / recall.1.max(1) as f64
        ));
    }
    summary.push(format!(
        "error_rate {:.6} ({failed} failed/refused/wrong of {attempted}); {} acked ingests read back",
        failed as f64 / attempted.max(1) as f64,
        acked.len()
    ));
    summary.push(format!(
        "measured phase {wall_s:.3} s wall; resident set median {rss:.1} MiB over {} samples, peak (VmHWM) {peak_rss:.1} MiB",
        rss_samples.len()
    ));
    for (name, m) in metrics.iter() {
        summary.push(format!("  {name} = {} {}", m.value, m.unit));
    }
    summary.push(format!("exact counters: {exact:?}"));
    summary.push(format!("varying counters: {varying:?}"));
    for m in wrong_messages.iter().take(5) {
        summary.push(format!("FAILED: {m}"));
    }

    Ok(TimedRun {
        outcome: Outcome {
            correct,
            attempted: attempted.max(1),
            failed,
            metrics,
        },
        summary,
        exact,
    })
}

const MIB: f64 = (1u64 << 20) as f64;

/// How often the measured phase samples the resident set.
const RSS_SAMPLE_PERIOD: Duration = Duration::from_millis(50);

/// A memory field of this process's `/proc/self/status` (`VmRSS:`,
/// `VmHWM:`), in MiB; 0 when `/proc` is unavailable.
fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Remove a run directory, ignoring a missing one.
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

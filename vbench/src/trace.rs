//! The traced run: per-layer attribution, kept apart from the timed runs.
//!
//! It opens a store with the workload's options but
//! `RuntimeOptions::sequential()`, so work runs on the calling thread and
//! spans nest and add up. A seeded sample of the workload's requests is
//! then run three ways:
//!
//! 1. served over loopback (`NetClient` against `VStore::serve_net`);
//! 2. as a whole through the in-process facade (`VStore::query`, `ingest`,
//!    `erode`);
//! 3. step by step through the layers' public functions, on a layer stack
//!    this module builds from the store's own `Configuration`: segment
//!    store and reader, container parse, decode, consumption conversion,
//!    operators; scene synthesis, transcode, serialisation, sidecar, puts.
//!
//! The replay's work counters must equal the facade's for every sampled
//! request, or the run fails: the replay did not do the same work. Spans
//! are recorded by this module around each call, kept in memory and
//! written out as JSON lines when the run ends.

use crate::check::{recall_counts, Answer};
use crate::run::{open_and_configure, remove_dir, SetupTimes};
use crate::stats::{median, Metrics, Outcome};
use crate::workload::{spec_for, Kind, Op, Plan, Workload, ACCURACIES, CONNECTIONS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use vstore::codec::{SegmentData, SegmentMeta, Transcoder};
use vstore::datasets::VideoSource;
use vstore::ops::{selectivity_prior, OperatorLibrary};
use vstore::query::DEFAULT_SKIP_THRESHOLD;
use vstore::sim::CodingCostModel;
use vstore::storage::{ReadSource, SegmentKey, SegmentReader, SegmentStore};
use vstore::types::{Configuration, Consumer, OperatorKind};
use vstore::{
    BackendOptions, ErodeRequest, IngestRequest, NetClient, NetOptions, NetStats, QueryRequest,
    QuerySpec, RuntimeOptions, ServeOptions, ServeResponse, TraceOptions, VStore,
};

/// Sampled requests replayed per workload.
const SAMPLE_REQUESTS: usize = 24;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `codec.decode`.
    pub name: &'static str,
    /// The request it belongs to.
    pub request: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the run began.
    pub start_ns: u64,
    /// End, ns since the run began.
    pub end_ns: u64,
}

impl Span {
    fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// An in-memory span recorder with real parent links.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    fn end(&mut self, id: usize) -> f64 {
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans closed out of order");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].seconds()
    }

    /// Time `f` as a span called `name`.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Seconds covered by the direct children of span `id`.
    fn children_s(&self, id: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::seconds)
            .sum()
    }

    /// Seconds of the direct children of span `id` called `name`.
    fn children_named(&self, id: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id) && s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// Total seconds of every span called `name`, and how many there are.
    fn total(&self, name: &str) -> (f64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| (t + s.seconds(), n + 1))
    }

    /// Durations of every span called `name`.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// The spans as JSON lines.
    fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.request, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// The span name of an operator's `run`.
fn op_span(op: OperatorKind) -> &'static str {
    match op {
        OperatorKind::Diff => "ops.diff",
        OperatorKind::SpecializedNN => "ops.snn",
        OperatorKind::FullNN => "ops.nn",
        OperatorKind::Motion => "ops.motion",
        OperatorKind::License => "ops.license",
        OperatorKind::Ocr => "ops.ocr",
        _ => "ops.other",
    }
}

/// Work counters of one replayed read or write.
#[derive(Debug, Default, Clone, PartialEq)]
struct Work {
    segments_fetched: usize,
    frames_consumed: usize,
    bytes_read: u64,
    skipped: usize,
    positives: Vec<u64>,
    segments_written: usize,
    bytes_written: u64,
    frames_decoded: usize,
    /// Bytes and seconds of gets the store served (not the raw cache).
    disk_get: (u64, f64),
    /// Seconds of gets served by the raw cache.
    raw_hits: Vec<f64>,
    /// Frames each operator span consumed.
    op_frames: BTreeMap<&'static str, usize>,
}

/// The layer stack the replay runs on, assembled from public parts the
/// way the facade assembles its own.
struct Stack {
    store: Arc<SegmentStore>,
    reader: SegmentReader,
    transcoder: Transcoder,
    library: OperatorLibrary,
}

impl Stack {
    fn open(dir: &Path, workload: Workload) -> vstore::Result<Stack> {
        let store = Arc::new(SegmentStore::open_with_options(dir, BackendOptions::Fs, 1)?);
        let (cache_bytes, decoded) = workload.cache();
        Ok(Stack {
            reader: SegmentReader::new(Arc::clone(&store), cache_bytes, decoded),
            store,
            transcoder: Transcoder::new(CodingCostModel::paper_testbed()),
            library: OperatorLibrary::paper_testbed(),
        })
    }

    /// Write path: scene synthesis, then per storage format transcode,
    /// serialisation, sidecar scoring, segment put and sidecar put.
    fn ingest(
        &self,
        rec: &mut Recorder,
        source: &VideoSource,
        first: u64,
        count: u64,
        config: &Configuration,
    ) -> vstore::Result<Work> {
        let mut work = Work::default();
        let motion = source.motion_intensity();
        for segment in first..first + count {
            let scenes = rec.time("datasets.scene", || source.segment(segment));
            for (id, format) in &config.storage_formats {
                let out = rec.time("codec.transcode", || {
                    self.transcoder.transcode_segment(&scenes, format, motion)
                })?;
                let bytes = rec.time("codec.serialize", || out.data.to_bytes());
                let meta = rec.time("codec.meta", || {
                    SegmentMeta::from_segment(&out.data).map(|m| m.to_bytes())
                })?;
                let key = SegmentKey::new(source.name(), *id, segment);
                rec.time("storage.put", || self.reader.put(&key, &bytes))?;
                rec.time("storage.meta_put", || {
                    self.store.put_segment_meta(&key, &meta)
                })?;
                work.segments_written += 1;
                work.bytes_written += bytes.len() as u64;
            }
        }
        Ok(work)
    }

    /// Read path of one query, mirroring the engine: stage order, the
    /// planner's metadata skip, then per stage and active segment a get
    /// (falling back to a richer stored format), container parse, sampled
    /// decode, consumption conversion and the operator.
    #[allow(clippy::too_many_arguments)]
    fn query(
        &self,
        rec: &mut Recorder,
        stream: &str,
        spec: &QuerySpec,
        first: u64,
        count: u64,
        config: &Configuration,
        planner: bool,
    ) -> vstore::Result<Work> {
        let subscription = |op: OperatorKind| {
            config
                .subscription(&Consumer {
                    op,
                    accuracy: spec.accuracy,
                })
                .ok_or_else(|| {
                    vstore::VStoreError::InvalidState(format!("no subscription for {op}"))
                })
        };
        let mut order = spec.cascade.clone();
        if planner && order.len() > 1 {
            let last = order.pop().expect("cascade has more than one stage");
            let mut keyed = Vec::new();
            for op in order {
                let sub = subscription(op)?;
                let cost = self
                    .library
                    .cost_model()
                    .seconds_per_video_second(op, &sub.consumption.fidelity);
                keyed.push((cost * selectivity_prior(op), op));
            }
            keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
            order = keyed.into_iter().map(|(_, op)| op).collect();
            order.push(last);
        }
        let mut work = Work::default();
        let mut active: Vec<u64> = (first..first + count).collect();
        if planner {
            if let Some(&change_op) = order
                .iter()
                .find(|op| matches!(op, OperatorKind::Diff | OperatorKind::Motion))
            {
                let sub = subscription(change_op)?;
                let sampling = sub.consumption.fidelity.sampling;
                let before = active.len();
                let span = rec.begin("query.plan");
                active.retain(|&segment| {
                    let key = SegmentKey::new(stream, sub.storage, segment);
                    match self.store.get_segment_meta(&key) {
                        Ok(Some(bytes)) => SegmentMeta::from_bytes(&bytes).map_or(true, |m| {
                            m.max_sampled_change(sampling) >= DEFAULT_SKIP_THRESHOLD
                        }),
                        _ => true,
                    }
                });
                rec.end(span);
                work.skipped = before - active.len();
            }
        }
        for (stage, &op) in order.iter().enumerate() {
            let sub = subscription(op)?;
            let operator = self.library.instantiate(op);
            let mut next = Vec::new();
            for &segment in &active {
                let Some(bytes) = self.fetch(rec, &mut work, stream, config, sub, segment)? else {
                    continue;
                };
                let data = rec.time("codec.parse", || SegmentData::from_bytes(&bytes))?;
                let (frames, decode) = rec.time("codec.decode", || {
                    data.decode_sampled(sub.consumption.fidelity.sampling)
                })?;
                let frames = rec.time("codec.convert", || {
                    self.transcoder
                        .convert_for_consumption(&frames, &sub.consumption)
                })?;
                let output = rec.time(op_span(op), || operator.run(&frames));
                work.segments_fetched += 1;
                work.frames_consumed += frames.len();
                work.bytes_read += bytes.len() as u64;
                work.frames_decoded += decode.frames_decoded;
                *work.op_frames.entry(op_span(op)).or_default() += frames.len();
                if output.positives() > 0 {
                    next.push(segment);
                }
                if stage + 1 == order.len() {
                    work.positives.extend(output.positive_indices());
                }
            }
            active = next;
            if active.is_empty() {
                break;
            }
        }
        Ok(work)
    }

    /// The subscribed format's bytes, else a richer stored format's, in
    /// the engine's fallback order.
    fn fetch(
        &self,
        rec: &mut Recorder,
        work: &mut Work,
        stream: &str,
        config: &Configuration,
        sub: &vstore::types::Subscription,
        segment: u64,
    ) -> vstore::Result<Option<Arc<Vec<u8>>>> {
        let mut candidates = vec![sub.storage];
        let mut fallbacks: Vec<_> = config
            .storage_formats
            .iter()
            .filter(|(id, sf)| **id != sub.storage && sf.satisfies(&sub.consumption))
            .map(|(id, _)| *id)
            .collect();
        fallbacks.sort_by_key(|id| std::cmp::Reverse(id.0));
        candidates.extend(fallbacks);
        for id in candidates {
            let key = SegmentKey::new(stream, id, segment);
            let started = Instant::now();
            let got = rec.time("storage.get", || self.reader.get(&key))?;
            let took = started.elapsed().as_secs_f64();
            if let Some((bytes, source)) = got {
                if source == ReadSource::RawCache {
                    work.raw_hits.push(took);
                } else {
                    work.disk_get.0 += bytes.len() as u64;
                    work.disk_get.1 += took;
                }
                return Ok(Some(bytes));
            }
        }
        Ok(None)
    }
}

/// One sampled request's measurements.
#[derive(Debug, Default)]
struct Measured {
    kind: Option<Kind>,
    /// Client-observed latency of the served call (0 when not served).
    client_s: f64,
    /// The served call's own `worker.execute` and `queue.wait` spans, as
    /// the program's tracer recorded them.
    execute_s: f64,
    queue_s: f64,
    /// The in-process facade call.
    facade_s: f64,
    replay_children_s: f64,
    wire_s: f64,
    video_s: f64,
    modelled_s: f64,
    modelled_core_s: f64,
    transcode_s: f64,
    answer: Option<Answer>,
    recall: (usize, usize),
    work: Work,
}

/// Run `op` through the facade, then replay it step by step on `stack`,
/// and check that both did the same work.
fn facade_and_replay(
    store: &VStore,
    stack: &Stack,
    config: &Configuration,
    plan: &Plan,
    op: &Op,
    rec: &mut Recorder,
    failures: &mut Vec<String>,
) -> Result<Measured, String> {
    let mut m = Measured {
        kind: Some(op.kind()),
        video_s: op.video_s(),
        ..Measured::default()
    };
    match op {
        Op::Ingest {
            source,
            first,
            count,
        } => {
            let id = rec.begin("request.facade");
            let report = store.ingest(
                IngestRequest::new(source)
                    .starting_at(*first)
                    .segments(*count),
            );
            m.facade_s = rec.end(id);
            let report = report.map_err(|err| format!("facade {op:?}: {err}"))?;
            let root = rec.begin("replay.ingest");
            let work = stack.ingest(rec, source, *first, *count, config);
            rec.end(root);
            let work = work.map_err(|err| format!("replay {op:?}: {err}"))?;
            m.replay_children_s = rec.children_s(root);
            m.transcode_s = rec.children_named(root, "codec.transcode");
            m.modelled_core_s = report.transcode_work.0;
            if work.segments_written != report.segments_written
                || work.bytes_written != report.actual_bytes.bytes()
            {
                failures.push(format!(
                    "replay of {op:?} wrote {} segments / {} B, facade {} / {} B",
                    work.segments_written,
                    work.bytes_written,
                    report.segments_written,
                    report.actual_bytes.bytes()
                ));
            }
            m.work = work;
        }
        Op::Query {
            stream,
            accuracy,
            first,
            count,
        } => {
            let s = &plan.archive[*stream];
            let spec = spec_for(s.dataset, ACCURACIES[*accuracy]);
            let request = QueryRequest::new(s.source.name(), &spec)
                .starting_at(*first)
                .segments(*count);
            let id = rec.begin("request.facade");
            let result = store.query(request.clone());
            m.facade_s = rec.end(id);
            let result = result.map_err(|err| format!("facade {op:?}: {err}"))?;
            if result.speed.factor() > 0.0 {
                m.modelled_s = result.video.seconds() / result.speed.factor();
            }
            let answer = Answer::of(&result);
            if plan.workload.planner() {
                let exact = store
                    .query(request.with_planner(false))
                    .map_err(|err| format!("exact scan {op:?}: {err}"))?;
                m.recall = recall_counts(&answer, &Answer::of(&exact));
            }
            let root = rec.begin("replay.query");
            let work = stack.query(
                rec,
                s.source.name(),
                &spec,
                *first,
                *count,
                config,
                plan.workload.planner(),
            );
            rec.end(root);
            let work = work.map_err(|err| format!("replay {op:?}: {err}"))?;
            m.replay_children_s = rec.children_s(root);
            if work.segments_fetched != answer.segments_fetched()
                || work.frames_consumed != answer.frames_consumed()
                || work.bytes_read != answer.bytes_read
                || work.positives != answer.positives
                || work.skipped != answer.skipped
            {
                failures.push(format!(
                    "replay of {op:?} fetched {} segments / {} frames / {} B / {} skipped, facade {} / {} / {} / {}",
                    work.segments_fetched,
                    work.frames_consumed,
                    work.bytes_read,
                    work.skipped,
                    answer.segments_fetched(),
                    answer.frames_consumed(),
                    answer.bytes_read,
                    answer.skipped
                ));
            }
            m.answer = Some(answer);
            m.work = work;
        }
        Op::Erode { .. } => unreachable!("erosion is run by the caller"),
    }
    Ok(m)
}

/// Percent of replayed time the recorder itself costs: the per-span cost,
/// calibrated here, times the spans recorded.
fn overhead_pct(rec: &Recorder) -> f64 {
    const PROBES: u32 = 20_000;
    let mut probe = Recorder::new();
    let started = Instant::now();
    for _ in 0..PROBES {
        let id = probe.begin("probe");
        probe.end(id);
    }
    let per_span = started.elapsed().as_secs_f64() / f64::from(PROBES);
    let replayed: f64 = rec
        .spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name.starts_with("replay."))
        .map(Span::seconds)
        .sum();
    if replayed > 0.0 {
        100.0 * per_span * rec.spans.len() as f64 / replayed
    } else {
        0.0
    }
}

impl Measured {
    /// Execution time of the request: the served call's `worker.execute`
    /// span, or the facade call for requests that were not served.
    fn exec_s(&self) -> f64 {
        if self.client_s > 0.0 {
            self.execute_s
        } else {
            self.facade_s
        }
    }
}

/// The result of one traced run.
pub struct TracedRun {
    /// The result line: per-layer metrics.
    pub outcome: Outcome,
    /// Human-readable report lines.
    pub summary: Vec<String>,
}

/// Run the traced replay of `plan` under `dir` (removed afterwards).
pub fn run_traced(plan: &Plan, dir: &Path) -> Result<TracedRun, String> {
    let result = traced(plan, dir);
    remove_dir(dir);
    result
}

fn traced(plan: &Plan, dir: &Path) -> Result<TracedRun, String> {
    let e = |what: &'static str| move |err: vstore::VStoreError| format!("{what}: {err}");
    let workload = plan.workload;
    let mut rec = Recorder::new();
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;

    // --- setup, sequential runtime, program tracing on for queue waits ---
    let mut times = SetupTimes::default();
    let runtime = RuntimeOptions::sequential();
    let options = workload.options(runtime).with_trace(
        TraceOptions::enabled()
            .with_sample_per_1k(1000)
            .with_ring_spans(1 << 16),
    );
    let (store, config) =
        open_and_configure(&dir.join("store"), options, &mut times).map_err(e("setup"))?;
    let profiling = store.profiler().stats();
    let stack = Stack::open(&dir.join("replay"), workload).map_err(e("layer stack"))?;

    let mut measured: Vec<Measured> = Vec::new();
    let mut request = 0u64;

    // Preload: facade ingest per stream, replayed onto the layer stack.
    let started = Instant::now();
    for stream in &plan.archive {
        request += 1;
        rec.request = request;
        attempted += 1;
        let op = Op::Ingest {
            source: stream.source.clone(),
            first: 0,
            count: stream.segments,
        };
        let m = facade_and_replay(&store, &stack, &config, plan, &op, &mut rec, &mut failures)?;
        measured.push(m);
    }
    times.preload_s = started.elapsed().as_secs_f64();
    if workload == Workload::QueryHot {
        let started = Instant::now();
        crate::check::References::compute(&store, plan, None, 1).map_err(e("warm-up"))?;
        times.warm_s = started.elapsed().as_secs_f64();
    }

    // --- sampled workload requests ---------------------------------------
    let server = store
        .serve_net(
            "127.0.0.1:0",
            NetOptions::default(),
            ServeOptions::default(),
        )
        .map_err(e("serve_net"))?;
    let mut client = NetClient::connect(server.local_addr()).map_err(e("connect"))?;
    let mut generators: Vec<_> = (0..CONNECTIONS).map(|c| plan.generator(c)).collect();
    let mut net_by_kind: BTreeMap<Kind, (NetStats, u64)> = BTreeMap::new();
    let mut demoted = (0u64, 0.0f64);
    for i in 0..SAMPLE_REQUESTS {
        let op = generators[i % CONNECTIONS].next_op();
        request += 1;
        rec.request = request;
        attempted += 1;
        if let Op::Erode { stream, age } = &op {
            // Erosion is not replayed step by step and not served twice:
            // a second erosion would demote more.
            let started = Instant::now();
            let report = store
                .erode(ErodeRequest::new(stream.as_str()).at_age_days(*age))
                .map_err(e("erode"))?;
            demoted.0 += report.demoted_bytes.bytes();
            demoted.1 += started.elapsed().as_secs_f64();
            continue;
        }
        // 1. Served over the socket.
        let wire_request = op.request(plan);
        let net_before = server.stats();
        let served_id = rec.begin("request.served");
        let served = client.call(&wire_request);
        let client_s = rec.end(served_id);
        let net_after = server.stats();
        let served = match served {
            Ok(ServeResponse::Error(err)) => {
                failures.push(format!("served {op:?}: {err:?}"));
                continue;
            }
            Err(err) => {
                failures.push(format!("served {op:?}: {err}"));
                continue;
            }
            Ok(response) => response,
        };
        let entry = net_by_kind.entry(op.kind()).or_default();
        entry.0.accumulate(&delta(&net_before, &net_after));
        entry.1 += 1;
        // Wire encode and decode of the request and the response.
        let wire_id = rec.begin("serve.wire");
        let request_bytes = rec.time("serve.wire.request_encode", || wire_request.to_wire());
        let decoded = rec.time("serve.wire.request_decode", || {
            vstore::ServeRequest::from_wire(&request_bytes)
        });
        let response_bytes = rec.time("serve.wire.response_encode", || served.to_wire());
        let redecoded = rec.time("serve.wire.response_decode", || {
            ServeResponse::from_wire(&response_bytes)
        });
        let wire_s = rec.end(wire_id);
        if decoded.as_ref().ok() != Some(&wire_request) || redecoded.as_ref().ok() != Some(&served)
        {
            failures.push(format!("wire round trip changed {op:?}"));
        }
        // 2 and 3. Facade, then the step-by-step replay.
        let mut m = facade_and_replay(&store, &stack, &config, plan, &op, &mut rec, &mut failures)?;
        m.client_s = client_s;
        m.wire_s = wire_s;
        match (&served, &m.answer) {
            (ServeResponse::Query(result), Some(answer)) if Answer::of(result) == *answer => {}
            (ServeResponse::Ingest(report), None) if op.kind() == Kind::Ingest => {
                if report.segments_written == 0 {
                    failures.push(format!("served {op:?} wrote nothing"));
                }
            }
            _ => failures.push(format!("served answer of {op:?} differs from the facade's")),
        }
        measured.push(m);
    }
    drop(client);
    let _ = server.shutdown();
    let dump = store.trace_dump(0);
    // The program's own traces of the served calls, in begin order: the
    // served records are the ones that waited in the request queue.
    let mut served_records: Vec<_> = dump
        .records
        .iter()
        .filter(|r| r.spans.iter().any(|s| s.name == "queue.wait"))
        .collect();
    served_records.sort_by_key(|r| r.trace_id);
    let span_s = |r: &vstore::obs::TraceRecord, name: &str| {
        r.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us as f64 / 1e6)
            .sum::<f64>()
    };
    let served: Vec<&mut Measured> = measured.iter_mut().filter(|m| m.client_s > 0.0).collect();
    if served.len() != served_records.len() {
        failures.push(format!(
            "{} served requests but {} served traces",
            served.len(),
            served_records.len()
        ));
    }
    for (m, r) in served.into_iter().zip(&served_records) {
        m.execute_s = span_s(r, "worker.execute");
        m.queue_s = span_s(r, "queue.wait");
    }
    let cache = store.cache_stats();
    let tier = store.tier_stats();
    let store_stats = store.store_stats();
    drop(store);
    let replay_stats = stack.store.stats();

    // --- metrics ----------------------------------------------------------
    let program_spans = |name: &str| -> Vec<f64> {
        dump.records
            .iter()
            .flat_map(|r| r.spans.iter())
            .filter(|s| s.name == name)
            .map(|s| s.dur_us as f64)
            .collect()
    };
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let of_kind = |kind: Kind| measured.iter().filter(move |m| m.kind == Some(kind));
    let served_of_kind = |kind: Kind| of_kind(kind).filter(|m| m.client_s > 0.0);
    let mut metrics = Metrics::default();
    let mib = |bytes: u64| bytes as f64 / (1u64 << 20) as f64;

    // serve / net
    let queue_waits = program_spans("queue.wait");
    metrics.put("serve.queue_wait_p50_us", med(&queue_waits), "us");
    let overheads: Vec<f64> = measured
        .iter()
        .filter(|m| m.client_s > 0.0)
        .map(|m| (m.client_s - m.execute_s) * 1e3)
        .collect();
    metrics.put("serve.overhead_ms", med(&overheads), "ms");
    let wires: Vec<f64> = measured
        .iter()
        .filter(|m| m.client_s > 0.0)
        .map(|m| m.wire_s * 1e6)
        .collect();
    metrics.put("serve.wire_us", med(&wires), "us");
    let mut net_total = NetStats::default();
    for (stats, _) in net_by_kind.values() {
        net_total.accumulate(stats);
    }
    metrics.put(
        "net.write_syscalls_per_response",
        ratio(net_total.write_syscalls as f64, net_total.frames_out as f64),
        "count",
    );
    let (net_query, queries_served) = net_by_kind.get(&Kind::Query).cloned().unwrap_or_default();
    metrics.put(
        "net.bytes_out_per_query",
        ratio(net_query.bytes_out as f64, queries_served as f64),
        "B",
    );

    // query
    let queries: Vec<&Measured> = served_of_kind(Kind::Query).collect();
    let answers: Vec<&Answer> = queries.iter().filter_map(|m| m.answer.as_ref()).collect();
    let self_ms: Vec<f64> = queries
        .iter()
        .map(|m| (m.exec_s() - m.replay_children_s) * 1e3)
        .collect();
    metrics.put("query.self_ms", med(&self_ms), "ms");
    metrics.put(
        "query.segments_fetched",
        answers.iter().map(|a| a.segments_fetched()).sum::<usize>() as f64,
        "count",
    );
    metrics.put(
        "query.frames_consumed",
        answers.iter().map(|a| a.frames_consumed()).sum::<usize>() as f64,
        "count",
    );
    metrics.put(
        "query.bytes_read",
        answers.iter().map(|a| a.bytes_read).sum::<u64>() as f64,
        "B",
    );
    let video: f64 = queries.iter().map(|m| m.video_s).sum();
    let requested_segments = video / crate::workload::SEGMENT_SECONDS;
    let skipped: usize = answers.iter().map(|a| a.skipped).sum();
    metrics.put(
        "query.skip_frac",
        ratio(skipped as f64, requested_segments),
        "fraction",
    );
    let recall = queries.iter().fold((0usize, 0usize), |acc, m| {
        (acc.0 + m.recall.0, acc.1 + m.recall.1)
    });
    metrics.put(
        "query.planner_recall",
        if recall.1 == 0 {
            1.0
        } else {
            recall.0 as f64 / recall.1 as f64
        },
        "fraction",
    );
    let modelled: f64 = queries.iter().map(|m| m.modelled_s).sum();
    let facade_query_s: f64 = queries.iter().map(|m| m.exec_s()).sum();
    let modelled_speed = ratio(video, modelled);
    metrics.put("query.modelled_speed_x", modelled_speed, "x");
    metrics.put(
        "query.model_gap",
        ratio(ratio(video, facade_query_s), modelled_speed),
        "ratio",
    );

    // storage
    let (get_bytes, get_s) = measured.iter().fold((0u64, 0.0f64), |acc, m| {
        (acc.0 + m.work.disk_get.0, acc.1 + m.work.disk_get.1)
    });
    metrics.put(
        "storage.get_ms_per_mib",
        ratio(get_s * 1e3, mib(get_bytes)),
        "ms/MiB",
    );
    let (put_s, _) = rec.total("storage.put");
    let written: u64 = measured.iter().map(|m| m.work.bytes_written).sum();
    metrics.put(
        "storage.put_ms_per_mib",
        ratio(put_s * 1e3, mib(written)),
        "ms/MiB",
    );
    let meta_puts: Vec<f64> = rec
        .durations("storage.meta_put")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    metrics.put("storage.meta_put_us", med(&meta_puts), "us");
    metrics.put("storage.reads", store_stats.reads as f64, "count");
    metrics.put("storage.writes", store_stats.writes as f64, "count");
    metrics.put(
        "storage.write_amp",
        ratio(
            replay_stats.disk_bytes as f64,
            replay_stats.live_bytes as f64,
        ),
        "ratio",
    );

    // cache
    metrics.put("cache.raw_hit_rate", cache.raw_hit_rate(), "fraction");
    metrics.put(
        "cache.decoded_hit_rate",
        cache.decoded_hit_rate(),
        "fraction",
    );
    // Raw-tier hits as the replay timed them (ns resolution); the
    // program's own cache-hit spans (whole µs) when the replay had none.
    let mut hits: Vec<f64> = measured
        .iter()
        .flat_map(|m| m.work.raw_hits.iter().map(|s| s * 1e6))
        .collect();
    if hits.is_empty() {
        hits = program_spans("read.raw_cache");
        hits.extend(program_spans("read.decoded_cache"));
    }
    metrics.put("cache.hit_us", med(&hits), "us");
    metrics.put(
        "cache.evictions",
        (cache.raw_evictions + cache.decoded_evictions) as f64,
        "count",
    );
    metrics.put("cache.invalidations", cache.invalidations as f64, "count");

    // tier
    let tier = tier.unwrap_or_default();
    metrics.put(
        "tier.demote_mib_per_s",
        ratio(mib(demoted.0), demoted.1),
        "MiB/s",
    );
    metrics.put(
        "tier.cold_read_ms",
        med(&program_spans("read.cold")) / 1e3,
        "ms",
    );
    metrics.put("tier.demotions", tier.demotions as f64, "count");
    metrics.put("tier.promotions", tier.promotions as f64, "count");
    metrics.put("tier.cold_hits", tier.cold_hits as f64, "count");

    // codec
    let (parse_s, parses) = rec.total("codec.parse");
    metrics.put(
        "codec.parse_us_per_seg",
        ratio(parse_s * 1e6, parses as f64),
        "us",
    );
    let (decode_s, decodes) = rec.total("codec.decode");
    metrics.put(
        "codec.decode_ms_per_seg",
        ratio(decode_s * 1e3, decodes as f64),
        "ms",
    );
    let (convert_s, converts) = rec.total("codec.convert");
    metrics.put(
        "codec.convert_ms_per_seg",
        ratio(convert_s * 1e3, converts as f64),
        "ms",
    );
    let (transcode_s, transcodes) = rec.total("codec.transcode");
    metrics.put(
        "codec.transcode_ms_per_seg",
        ratio(transcode_s * 1e3, transcodes as f64),
        "ms",
    );
    let (serialize_s, serializes) = rec.total("codec.serialize");
    metrics.put(
        "codec.serialize_us_per_seg",
        ratio(serialize_s * 1e6, serializes as f64),
        "us",
    );
    let (meta_s, metas) = rec.total("codec.meta");
    metrics.put(
        "codec.meta_ms_per_seg",
        ratio(meta_s * 1e3, metas as f64),
        "ms",
    );
    metrics.put(
        "codec.frames_decoded",
        measured
            .iter()
            .map(|m| m.work.frames_decoded)
            .sum::<usize>() as f64,
        "count",
    );

    // ops
    let mut op_frames = 0usize;
    for op in vstore::types::OperatorKind::QUERY_OPS {
        let name = op_span(op);
        let frames: usize = measured
            .iter()
            .map(|m| m.work.op_frames.get(name).copied().unwrap_or(0))
            .sum();
        op_frames += frames;
        let (op_s, _) = rec.total(name);
        let metric = format!("{name}_us_per_frame");
        metrics.put(metric, ratio(op_s * 1e6, frames as f64), "us");
    }
    metrics.put("ops.frames", op_frames as f64, "count");

    // ingest and datasets
    let ingests: Vec<&Measured> = of_kind(Kind::Ingest).collect();
    let ingest_self: Vec<f64> = ingests
        .iter()
        .map(|m| (m.exec_s() - m.replay_children_s) * 1e3)
        .collect();
    metrics.put("ingest.self_ms", med(&ingest_self), "ms");
    let segments_written = rec.total("storage.put").1;
    metrics.put("ingest.segments_written", segments_written as f64, "count");
    let modelled_core: f64 = ingests.iter().map(|m| m.modelled_core_s).sum();
    let transcode_core: f64 = ingests.iter().map(|m| m.transcode_s).sum();
    metrics.put("ingest.modelled_core_s", modelled_core, "core-s");
    metrics.put(
        "ingest.model_gap",
        ratio(transcode_core, modelled_core),
        "ratio",
    );
    let (scene_s, scenes) = rec.total("datasets.scene");
    metrics.put(
        "datasets.scene_ms_per_seg",
        ratio(scene_s * 1e3, scenes as f64),
        "ms",
    );

    // core / profiler
    metrics.put("core.configure_s", times.configure_s, "s");
    metrics.put(
        "core.storage_formats",
        config.storage_formats.len() as f64,
        "count",
    );
    metrics.put(
        "profiler.operator_runs",
        profiling.operator_runs as f64,
        "count",
    );
    metrics.put(
        "profiler.storage_runs",
        profiling.storage_runs as f64,
        "count",
    );

    // whole request: client latency minus wire, queue wait and layer spans
    for kind in [Kind::Query, Kind::Ingest] {
        let served: Vec<&Measured> = served_of_kind(kind).collect();
        let total: f64 = served.iter().map(|m| m.client_s).sum();
        let attributed: f64 = served
            .iter()
            .map(|m| m.wire_s + m.queue_s + m.replay_children_s)
            .sum();
        metrics.put(
            format!("trace.unattributed_pct.{}", kind.name()),
            ratio(100.0 * (total - attributed), total),
            "%",
        );
    }
    metrics.put("trace.overhead_pct", overhead_pct(&rec), "%");

    // --- spans out, report --------------------------------------------------
    let spans_path =
        dir.parent()
            .unwrap_or(dir)
            .join(format!("spans-{}-{}.jsonl", workload.name(), plan.seed));
    if let Err(err) = std::fs::write(&spans_path, rec.to_jsonl()) {
        failures.push(format!("writing {}: {err}", spans_path.display()));
    }
    let mut summary = vec![
        format!(
            "traced run {} seed {}: sequential runtime, {} sampled requests, {} spans written to {}",
            workload.name(),
            plan.seed,
            SAMPLE_REQUESTS,
            rec.spans.len(),
            spans_path.display()
        ),
        format!(
            "setup: open {:.4} s, core.configure_s {:.3} s, preload {:.3} s, cache warm-up {:.3} s",
            times.open_s, times.configure_s, times.preload_s, times.warm_s
        ),
        format!(
            "{attempted} requests checked (served answer = facade answer = replay counters), {} failures",
            failures.len()
        ),
    ];
    for (name, m) in metrics.iter() {
        summary.push(format!("  {name} = {} {}", m.value, m.unit));
    }
    for f in failures.iter().take(5) {
        summary.push(format!("FAILED: {f}"));
    }
    Ok(TracedRun {
        outcome: Outcome {
            correct: failures.is_empty(),
            attempted: attempted.max(1),
            failed: failures.len() as u64,
            metrics,
        },
        summary,
    })
}

/// The traffic counters that moved between two snapshots.
fn delta(before: &NetStats, after: &NetStats) -> NetStats {
    NetStats {
        frames_out: after.frames_out - before.frames_out,
        bytes_out: after.bytes_out - before.bytes_out,
        write_syscalls: after.write_syscalls - before.write_syscalls,
        ..NetStats::default()
    }
}

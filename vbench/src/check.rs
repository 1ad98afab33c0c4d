//! Reference answers for served queries, and read-back of acknowledged
//! ingests.
//!
//! A cascade processes each segment independently (operators are pure and
//! run per segment), so the answer over a range is the segment-wise
//! composition of single-segment answers. References are computed once per
//! (stream, accuracy, segment) through the in-process facade and composed
//! for each served range.

use crate::workload::{spec_for, Plan, ACCURACIES};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use vstore::codec::{SegmentData, SegmentMeta};
use vstore::storage::{SegmentKey, SegmentStore};
use vstore::types::{Configuration, OperatorKind};
use vstore::{BackendOptions, ColdBackend, QueryRequest, QueryResult, TierOptions, VStore};

/// The exact work counters of one cascade stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageCount {
    /// The stage's operator.
    pub op: OperatorKind,
    /// Segments processed.
    pub processed: usize,
    /// Segments passed on.
    pub passed: usize,
    /// Frames consumed.
    pub frames: usize,
    /// Segments served from a fallback format.
    pub fallback: usize,
}

/// The checked part of a query answer: everything except modelled time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Answer {
    /// Per-stage counters, in execution order.
    pub stages: Vec<StageCount>,
    /// Positive source frames.
    pub positives: Vec<u64>,
    /// Bytes read from the store.
    pub bytes_read: u64,
    /// Segments the planner skipped.
    pub skipped: usize,
}

impl Answer {
    /// The checked part of `result`.
    pub fn of(result: &QueryResult) -> Answer {
        Answer {
            stages: result
                .stages
                .iter()
                .map(|s| StageCount {
                    op: s.op,
                    processed: s.segments_processed,
                    passed: s.segments_passed,
                    frames: s.frames_consumed,
                    fallback: s.fallback_segments,
                })
                .collect(),
            positives: result.positive_frames.clone(),
            bytes_read: result.bytes_read.bytes(),
            skipped: result.segments_skipped,
        }
    }

    /// Append the answer of the next segment of a range.
    fn extend(&mut self, next: &Answer) {
        if self.stages.is_empty() {
            self.stages = next.stages.clone();
        } else {
            for (acc, s) in self.stages.iter_mut().zip(&next.stages) {
                assert_eq!(
                    acc.op, s.op,
                    "segments of one query ran different stage orders"
                );
                acc.processed += s.processed;
                acc.passed += s.passed;
                acc.frames += s.frames;
                acc.fallback += s.fallback;
            }
        }
        self.positives.extend_from_slice(&next.positives);
        self.bytes_read += next.bytes_read;
        self.skipped += next.skipped;
    }

    /// Segments fetched across all stages.
    pub fn segments_fetched(&self) -> usize {
        self.stages.iter().map(|s| s.processed).sum()
    }

    /// Frames consumed across all stages.
    pub fn frames_consumed(&self) -> usize {
        self.stages.iter().map(|s| s.frames).sum()
    }
}

/// Single-segment reference answers of every (stream, accuracy, segment)
/// of a plan's archive.
#[derive(Debug, Default, Clone)]
pub struct References {
    answers: HashMap<RefKey, Answer>,
}

/// (archive stream, accuracy index, segment).
type RefKey = (usize, usize, u64);

impl References {
    /// Compute every single-segment answer through the facade, with the
    /// planner forced to `planner` (`None`: the session default). Work is
    /// split over `threads` handles.
    pub fn compute(
        store: &VStore,
        plan: &Plan,
        planner: Option<bool>,
        threads: usize,
    ) -> vstore::Result<References> {
        let keys: Vec<RefKey> = plan
            .archive
            .iter()
            .enumerate()
            .flat_map(|(s, stream)| {
                (0..ACCURACIES.len())
                    .flat_map(move |a| (0..stream.segments).map(move |seg| (s, a, seg)))
            })
            .collect();
        let chunks: Vec<&[RefKey]> = keys
            .chunks(keys.len().div_ceil(threads.max(1)).max(1))
            .collect();
        let results: Vec<vstore::Result<Vec<(RefKey, Answer)>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|chunk| {
                    let store = store.clone();
                    scope.spawn(move || {
                        chunk
                            .iter()
                            .map(|&key| {
                                let result = query_one(&store, plan, key, planner)?;
                                Ok((key, Answer::of(&result)))
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference thread panicked"))
                .collect()
        });
        let mut answers = HashMap::new();
        for chunk in results {
            answers.extend(chunk?);
        }
        Ok(References { answers })
    }

    /// The expected answer of a range query.
    pub fn expected(
        &self,
        stream: usize,
        accuracy: usize,
        first: u64,
        count: u64,
    ) -> Option<Answer> {
        let mut out = Answer::default();
        for seg in first..first + count {
            out.extend(self.answers.get(&(stream, accuracy, seg))?);
        }
        Some(out)
    }
}

/// One single-segment facade query.
fn query_one(
    store: &VStore,
    plan: &Plan,
    (stream, accuracy, segment): RefKey,
    planner: Option<bool>,
) -> vstore::Result<QueryResult> {
    let s = &plan.archive[stream];
    let spec = spec_for(s.dataset, ACCURACIES[accuracy]);
    let mut request = QueryRequest::new(s.source.name(), &spec)
        .starting_at(segment)
        .segments(1);
    if let Some(enabled) = planner {
        request = request.with_planner(enabled);
    }
    store.query(request)
}

/// Positive frames of `planned` that the exact scan also found, and the
/// exact scan's positives.
pub fn recall_counts(planned: &Answer, exact: &Answer) -> (usize, usize) {
    let found: std::collections::BTreeSet<u64> = planned.positives.iter().copied().collect();
    let hits = exact.positives.iter().filter(|f| found.contains(f)).count();
    (hits, exact.positives.len())
}

/// Threads the read-back check runs on (one per core of the 2-core host).
const READ_BACK_THREADS: usize = 2;

/// One acknowledged ingest: `count` segments of `stream` from `first`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Acked {
    /// Stream name.
    pub stream: String,
    /// First segment.
    pub first: u64,
    /// Segments.
    pub count: u64,
}

/// Reopen a closed store's directory and check every acknowledged ingest
/// in every storage format: the key is present (hot, or cold when a cold
/// tier was configured), its container parses, and its sidecar exists and
/// parses. Returns one message per failed key.
pub fn read_back(
    dir: &Path,
    shards: usize,
    tier: &TierOptions,
    config: &Configuration,
    acked: &[Acked],
) -> vstore::Result<Vec<String>> {
    let hot = SegmentStore::open_with_options(dir, BackendOptions::Fs, shards)?;
    let cold = match tier.cold_backend {
        Some(backend) => {
            let device = backend.create(&dir.join("cold-tier"))?;
            let cold = ColdBackend::with_chunk_bytes(device, tier.cold_chunk_bytes)?;
            Some(SegmentStore::open_with_backend(Arc::new(cold), shards)?)
        }
        None => None,
    };
    let keys: Vec<SegmentKey> = acked
        .iter()
        .flat_map(|ack| {
            (ack.first..ack.first + ack.count).flat_map(move |seg| {
                config
                    .storage_formats
                    .keys()
                    .map(move |id| SegmentKey::new(ack.stream.as_str(), *id, seg))
            })
        })
        .collect();
    let (hot, cold) = (&hot, cold.as_ref());
    let failures = std::thread::scope(|scope| {
        let handles: Vec<_> = keys
            .chunks(keys.len().div_ceil(READ_BACK_THREADS).max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .filter_map(|key| {
                            check_key(hot, cold, key)
                                .err()
                                .map(|why| format!("{key:?}: {why}"))
                        })
                        .collect::<Vec<String>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("read-back thread panicked"))
            .collect()
    });
    Ok(failures)
}

fn check_key(
    hot: &SegmentStore,
    cold: Option<&SegmentStore>,
    key: &SegmentKey,
) -> Result<(), String> {
    let stores = std::iter::once(hot).chain(cold);
    let mut bytes = None;
    let mut meta = None;
    for store in stores {
        if bytes.is_none() {
            bytes = store.get(key).map_err(|e| e.to_string())?;
        }
        if meta.is_none() {
            meta = store.get_segment_meta(key).map_err(|e| e.to_string())?;
        }
    }
    let bytes = bytes.ok_or("segment missing")?;
    SegmentData::from_bytes(&bytes).map_err(|e| format!("container does not parse: {e}"))?;
    let meta = meta.ok_or("sidecar missing")?;
    SegmentMeta::from_bytes(&meta).map_err(|e| format!("sidecar does not parse: {e}"))?;
    Ok(())
}

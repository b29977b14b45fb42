//! The one read executor: predicate queries and full analysis over a
//! [`TraceStore`].
//!
//! A [`Predicate`] restricts a query to a time range, a core set, and/or an
//! atrace category mask; the unconstrained `Predicate::default()` *is* full
//! analysis. [`Query::run`] resolves it in four stages:
//!
//! 1. **Plan** against the frame directory: a frame whose `FIDX` footer
//!    proves its stamp range or core bitmap cannot intersect the predicate
//!    is never decoded. Footer-less legacy frames cannot be pruned and are
//!    always decoded. Category predicates prune nothing at the frame level
//!    (footers carry no category information) — they filter per event after
//!    decode.
//! 2. **Split** the planned frames into fragments of near-equal event count
//!    ([`split_fragments`]), one per worker thread unless
//!    [`QueryOptions::fragments`] says otherwise.
//! 3. **Map** each fragment on a scoped worker pool: decode every frame
//!    (checksummed), filter its events by the *exact* predicate, and fold the
//!    survivors into one [`TracePartial`] per frame plus the fragment's
//!    [`TraceState`].
//! 4. **Merge** the partials in order and finish the metrics and gap map.
//!    For the unconstrained predicate, the boundary hand-off check also
//!    compares each fragment's footer-seeded entry state with the decoded
//!    prefix ([`QueryReport::handoff`]).
//!
//! With `threads = 1` and the default `fragments` everything runs on the
//! calling thread as one fragment: one partial per frame, reduced pairwise. Every partial is a monoid
//! homomorphism (`map ∘ concat = merge ∘ map`), so any thread/fragment shape
//! is bit-identical to that run and to a linear full-decode-then-filter
//! oracle.
//!
//! Frame corruption never aborts a query: each damaged frame becomes a
//! [`FrameDefect`] in the report and the rest of the file still answers.

use std::io;
use std::time::Instant;

use btrace_analysis::{map_reduce, tree_merge, GapMapOptions, TraceAnalysis, TracePartial};
use btrace_atrace::{Category, OwnedEvent};
use btrace_core::event::encoded_len;
use btrace_core::sink::{CollectedEvent, FullEvent};
use btrace_replay::{check_handoff, BoundaryDefect, BoundaryExpectation, TraceState};

use crate::fragment::{split_fragments, FragmentContext};
use crate::store::{FrameDefect, StoreFrame, TraceStore};

/// What a query is looking for. `Default` matches every event.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Predicate {
    /// Keep events with `stamp >= since`.
    pub since: Option<u64>,
    /// Keep events with `stamp <= until`.
    pub until: Option<u64>,
    /// Keep events recorded on these cores (empty = every core).
    pub cores: Vec<u16>,
    /// Keep events whose payload decodes as an atrace event intersecting
    /// this category mask. Events with non-atrace payloads never match a
    /// category predicate.
    pub category: Option<Category>,
}

impl Predicate {
    /// Folded 64-bit core bitmap of the requested cores (the same
    /// `min(core, 63)` folding the `FIDX` footer uses), or `u64::MAX` when
    /// no core constraint is set.
    fn core_bitmap(&self) -> u64 {
        if self.cores.is_empty() {
            return u64::MAX;
        }
        self.cores.iter().fold(0u64, |b, &c| b | 1u64 << (c as u64).min(63))
    }

    /// Frame-level admission from the directory entry's index footer alone:
    /// conservative, may admit frames that hold no matching event, but never
    /// rejects a frame that does. A legacy footer-less frame always admits —
    /// it must be decoded to be judged.
    pub fn admits_frame(&self, frame: &StoreFrame) -> bool {
        let Some(idx) = frame.index else { return true };
        if idx.event_count == 0 {
            return false;
        }
        if idx.min_stamp > self.until.unwrap_or(u64::MAX) || idx.max_stamp < self.since.unwrap_or(0)
        {
            return false;
        }
        idx.core_bitmap & self.core_bitmap() != 0
    }

    /// Exact event-level match.
    pub fn admits_event(&self, e: &FullEvent) -> bool {
        if e.stamp < self.since.unwrap_or(0) || e.stamp > self.until.unwrap_or(u64::MAX) {
            return false;
        }
        if !self.cores.is_empty() && !self.cores.contains(&e.core) {
            return false;
        }
        match self.category {
            None => true,
            Some(mask) => match OwnedEvent::decode(&e.payload) {
                Ok(ev) => ev.category().bits() & mask.bits() != 0,
                Err(_) => false,
            },
        }
    }
}

/// Execution and output shaping for [`Query::run`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryOptions {
    /// Worker threads (1 = everything on the calling thread).
    pub threads: usize,
    /// Fragments to split the planned frames into; 0 means one per thread.
    pub fragments: usize,
    /// Tracer buffer capacity for the effectivity ratio (0 if unknown).
    pub capacity_bytes: usize,
    /// Busiest-thread table size.
    pub top_threads: usize,
    /// Render a retention gap map over the matched stamps, if set.
    pub gap_map: Option<GapMapOptions>,
    /// Keep the matched events in the report (costs memory proportional to
    /// the result set; metrics are computed either way).
    pub collect_events: bool,
}

impl Default for QueryOptions {
    fn default() -> Self {
        Self {
            threads: 1,
            fragments: 0,
            capacity_bytes: 0,
            top_threads: 8,
            gap_map: None,
            collect_events: false,
        }
    }
}

/// A planned query: predicate plus execution options.
#[derive(Debug, Clone, Default)]
pub struct Query {
    /// The restriction to resolve.
    pub predicate: Predicate,
    /// Execution and output shaping.
    pub options: QueryOptions,
}

/// One fragment's work counters and exit state — the partition-balance
/// evidence a host with fewer CPUs than workers reports in place of
/// wall-clock speedup.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct FragmentWork {
    /// Fragment position.
    pub fragment: usize,
    /// Frames decoded (or found defective).
    pub frames: usize,
    /// Events that matched the predicate.
    pub events: u64,
    /// Stream bytes of the fragment's frames.
    pub bytes: u64,
    /// Nanoseconds spent decoding + mapping this fragment.
    pub busy_ns: u64,
    /// Trace state over the fragment's matched events (raw payload-byte
    /// accounting, matching the frame index footers).
    pub state: TraceState,
}

/// What [`Query::run`] found.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct QueryReport {
    /// Matched events in file order (only when
    /// [`QueryOptions::collect_events`] was set).
    pub events: Vec<FullEvent>,
    /// Number of matched events (counted even when events are not kept).
    pub matched_events: u64,
    /// Retention metrics over the matched events (stored-byte accounting,
    /// as a live drain would report).
    pub analysis: TraceAnalysis,
    /// Reconstructed trace state over the matched events.
    pub state: TraceState,
    /// Retention gap map over the matched stamps, when requested.
    pub gap_map: Option<String>,
    /// Largest matched stamp.
    pub newest_stamp: Option<u64>,
    /// Directory entries in the file.
    pub frames_total: usize,
    /// Frames the predicate touched (decoded or found defective).
    pub frames_decoded: usize,
    /// Frames skipped on footer evidence alone.
    pub frames_pruned: usize,
    /// Structural defects from open plus content defects from the frames
    /// this query touched.
    pub defects: Vec<FrameDefect>,
    /// Per-fragment work counters, in fragment order.
    pub work: Vec<FragmentWork>,
    /// Boundary hand-off defects: where the frame index's promises disagree
    /// with what the fragments actually decoded. Checked only for the
    /// unconstrained predicate (the promises describe the whole file, which
    /// a restricted query by design does not reproduce); empty for a
    /// healthy trace.
    pub handoff: Vec<BoundaryDefect>,
}

/// One fragment's mapped share of a run.
struct FragmentOutput {
    partial: Option<TracePartial>,
    events: Vec<FullEvent>,
    defects: Vec<FrameDefect>,
    work: FragmentWork,
}

impl Query {
    /// A query for `predicate` with default options.
    pub fn new(predicate: Predicate) -> Self {
        Self { predicate, options: QueryOptions::default() }
    }

    /// Directory indices of the frames this query must decode, in file
    /// order — the plan, exposed for diagnostics and the bench.
    pub fn plan(&self, store: &TraceStore) -> Vec<usize> {
        store
            .frames()
            .iter()
            .enumerate()
            .filter(|(_, f)| self.predicate.admits_frame(f))
            .map(|(i, _)| i)
            .collect()
    }

    /// Resolves the query against `store`.
    pub fn run(&self, store: &TraceStore) -> QueryReport {
        let plan = self.plan(store);
        let planned: Vec<StoreFrame> = plan.iter().map(|&i| store.frames()[i]).collect();
        let threads = self.options.threads.max(1);
        let parts = if self.options.fragments == 0 { threads } else { self.options.fragments };
        let fragments = split_fragments(&planned, parts);
        let outputs =
            map_reduce(&fragments, threads, |_, frag| self.run_fragment(store, &plan, frag));

        let mut defects = store.defects().to_vec();
        let mut events = Vec::new();
        let mut partials = Vec::with_capacity(outputs.len());
        let mut work = Vec::with_capacity(outputs.len());
        for out in outputs {
            defects.extend(out.defects);
            events.extend(out.events);
            partials.extend(out.partial);
            work.push(out.work);
        }
        let states: Vec<TraceState> = work.iter().map(|w| w.state.clone()).collect();
        let handoff = if self.predicate == Predicate::default() {
            let expectations: Vec<BoundaryExpectation> = fragments
                .iter()
                .map(|f| BoundaryExpectation {
                    fragment: f.index,
                    events_before: f.seed.events_before,
                    bytes_before: f.seed.payload_bytes_before,
                    max_stamp_before: f.seed.max_stamp_before,
                    core_bitmap_before: f.seed.core_bitmap_before,
                })
                .collect();
            check_handoff(&states, &expectations)
        } else {
            Vec::new()
        };
        let state = states.into_iter().fold(TraceState::empty(), TraceState::merge);
        let merged = tree_merge(partials, TracePartial::merge).unwrap_or_default();
        let newest_stamp = merged.metrics.newest();
        let gap_map = self.options.gap_map.and_then(|gopts| {
            newest_stamp.map(|newest| {
                let stamps: Vec<u64> = merged.metrics.stamps().collect();
                btrace_analysis::gap_map(&stamps, newest, gopts)
            })
        });
        let analysis = merged.finish(self.options.capacity_bytes, self.options.top_threads);
        QueryReport {
            events,
            matched_events: state.events,
            analysis,
            state,
            gap_map,
            newest_stamp,
            frames_total: store.frames().len(),
            frames_decoded: plan.len(),
            frames_pruned: store.frames().len() - plan.len(),
            defects,
            work,
            handoff,
        }
    }

    /// Decodes, filters, and maps one fragment of the plan: one partial per
    /// frame, reduced pairwise (a linear fold over a growing accumulator
    /// would be quadratic in frames; associativity makes the result
    /// identical, pinned in btrace-analysis).
    fn run_fragment(
        &self,
        store: &TraceStore,
        plan: &[usize],
        frag: &FragmentContext,
    ) -> FragmentOutput {
        let t0 = Instant::now();
        let mut events = Vec::new();
        let mut defects = Vec::new();
        let mut partials = Vec::new();
        let mut state = TraceState::empty();
        let mut bytes = 0u64;
        for &idx in &plan[frag.frames.clone()] {
            bytes += store.frames()[idx].len as u64;
            let decoded = match store.decode_frame(idx) {
                Ok(decoded) => decoded,
                Err(defect) => {
                    defects.push(defect);
                    continue;
                }
            };
            let mut collected = Vec::new();
            for e in decoded {
                if !self.predicate.admits_event(&e) {
                    continue;
                }
                collected.push(CollectedEvent {
                    stamp: e.stamp,
                    core: e.core,
                    tid: e.tid,
                    stored_bytes: encoded_len(e.payload.len()) as u32,
                });
                state.record(e.core, e.tid, e.stamp, e.payload.len() as u64);
                if self.options.collect_events {
                    events.push(e);
                }
            }
            if !collected.is_empty() {
                partials.push(TracePartial::map(&collected));
            }
        }
        FragmentOutput {
            partial: tree_merge(partials, TracePartial::merge),
            events,
            defects,
            work: FragmentWork {
                fragment: frag.index,
                frames: frag.frames.len(),
                events: state.events,
                bytes,
                busy_ns: t0.elapsed().as_nanos() as u64,
                state,
            },
        }
    }
}

/// Full analysis of an in-memory BTSF stream: a store over a copy of
/// `bytes`, the unconstrained query under `options`, and an error on any
/// frame defect. Boundary hand-off defects are reported in
/// [`QueryReport::handoff`], not as errors.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] for the first structural or content
/// defect in the stream.
pub fn analyze_frames(bytes: &[u8], options: QueryOptions) -> io::Result<QueryReport> {
    let store = TraceStore::from_bytes(bytes.to_vec());
    let report = Query { predicate: Predicate::default(), options }.run(&store);
    match report.defects.first() {
        Some(defect) => Err(defect.clone().into()),
        None => Ok(report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::encode_stream_with;
    use crate::FrameEncoding;

    fn ev(stamp: u64, core: u16, tid: u32) -> FullEvent {
        FullEvent { stamp, core, tid, payload: vec![0xAB; 8 + (stamp % 9) as usize] }
    }

    fn store(encoding: FrameEncoding) -> TraceStore {
        let events: Vec<FullEvent> = (0..400).map(|s| ev(s, (s % 4) as u16, 7)).collect();
        TraceStore::from_bytes(encode_stream_with(&events, 40, encoding))
    }

    #[test]
    fn time_predicate_prunes_and_filters_exactly() {
        for encoding in [FrameEncoding::Plain, FrameEncoding::Compressed] {
            let store = store(encoding);
            let q = Query {
                predicate: Predicate { since: Some(100), until: Some(179), ..Default::default() },
                options: QueryOptions { collect_events: true, ..Default::default() },
            };
            let report = q.run(&store);
            assert_eq!(report.matched_events, 80);
            assert_eq!(report.events.len(), 80);
            assert!(report.events.iter().all(|e| (100..=179).contains(&e.stamp)));
            // Stamps 0..400 in frames of 40: only frames [2..5) overlap.
            assert_eq!(report.frames_decoded, 3);
            assert_eq!(report.frames_pruned, 7);
            assert!(report.defects.is_empty());
        }
    }

    #[test]
    fn core_predicate_uses_the_folded_bitmap() {
        let events: Vec<FullEvent> =
            (0..100).map(|s| ev(s, if s < 50 { 0 } else { 9 }, 7)).collect();
        let store =
            TraceStore::from_bytes(encode_stream_with(&events, 25, FrameEncoding::Compressed));
        let q = Query {
            predicate: Predicate { cores: vec![9], ..Default::default() },
            options: QueryOptions { collect_events: true, ..Default::default() },
        };
        let report = q.run(&store);
        assert_eq!(report.matched_events, 50);
        assert_eq!(report.frames_pruned, 2, "core-0-only frames must be pruned");
        assert!(report.events.iter().all(|e| e.core == 9));
    }

    #[test]
    fn category_predicate_filters_atrace_payloads_post_decode() {
        use btrace_atrace::TraceEvent;
        let mut buf = [0u8; btrace_atrace::MAX_ENCODED];
        let mut events = Vec::new();
        for s in 0..60u64 {
            let payload = if s % 3 == 0 {
                let n = TraceEvent::SchedWakeup { tid: s as u32, cpu: 1 }.encode(&mut buf);
                buf[..n].to_vec()
            } else if s % 3 == 1 {
                let n = TraceEvent::Irq { irq: 17, enter: true }.encode(&mut buf);
                buf[..n].to_vec()
            } else {
                vec![0xFF; 6] // not an atrace payload
            };
            events.push(FullEvent { stamp: s, core: 0, tid: 1, payload });
        }
        let store =
            TraceStore::from_bytes(encode_stream_with(&events, 20, FrameEncoding::Compressed));
        let q = Query {
            predicate: Predicate { category: Some(Category::SCHED), ..Default::default() },
            options: QueryOptions { collect_events: true, ..Default::default() },
        };
        let report = q.run(&store);
        assert_eq!(report.matched_events, 20, "only the SchedWakeup third matches");
        assert_eq!(report.frames_pruned, 0, "category alone cannot prune frames");
    }

    #[test]
    fn query_is_identical_to_linear_filter_oracle() {
        let store = store(FrameEncoding::Compressed);
        let predicate = Predicate {
            since: Some(33),
            until: Some(321),
            cores: vec![1, 3],
            ..Default::default()
        };
        let q = Query {
            predicate: predicate.clone(),
            options: QueryOptions { collect_events: true, ..Default::default() },
        };
        let report = q.run(&store);
        // Oracle: full linear decode, then filter.
        let oracle: Vec<FullEvent> = crate::decode_frames(store.bytes())
            .unwrap()
            .into_iter()
            .flat_map(|f| f.events)
            .filter(|e| predicate.admits_event(e))
            .collect();
        assert_eq!(report.events, oracle);
        let collected: Vec<CollectedEvent> = oracle
            .iter()
            .map(|e| CollectedEvent {
                stamp: e.stamp,
                core: e.core,
                tid: e.tid,
                stored_bytes: encoded_len(e.payload.len()) as u32,
            })
            .collect();
        assert_eq!(report.analysis, TracePartial::map(&collected).finish(0, 8));
    }

    fn events(n: u64) -> Vec<FullEvent> {
        (0..n)
            .filter(|s| s % 97 != 13) // sprinkle gaps
            .map(|s| FullEvent {
                stamp: s,
                core: (s % 6) as u16,
                tid: 200 + (s % 9) as u32,
                payload: vec![0xC3; 8 + (s % 40) as usize],
            })
            .collect()
    }

    fn collected(evs: &[FullEvent]) -> Vec<CollectedEvent> {
        evs.iter()
            .map(|e| CollectedEvent {
                stamp: e.stamp,
                core: e.core,
                tid: e.tid,
                stored_bytes: encoded_len(e.payload.len()) as u32,
            })
            .collect()
    }

    #[test]
    fn parallel_matches_sequential_and_legacy() {
        let evs = events(3000);
        let stream = crate::encode_stream(&evs, 128);
        let gap = GapMapOptions { window: 2000, width: 40 };
        let base =
            QueryOptions { capacity_bytes: 1 << 18, gap_map: Some(gap), ..Default::default() };
        let seq = analyze_frames(&stream, base).unwrap();
        assert!(seq.handoff.is_empty(), "healthy stream: {:?}", seq.handoff);
        for threads in [2, 4, 8] {
            let par =
                analyze_frames(&stream, QueryOptions { threads, fragments: 7, ..base }).unwrap();
            assert_eq!(par.analysis, seq.analysis);
            assert_eq!(par.state, seq.state);
            assert_eq!(par.gap_map, seq.gap_map);
            assert!(par.handoff.is_empty());
            assert_eq!(par.work.iter().map(|w| w.events).sum::<u64>(), evs.len() as u64);
        }
        // And against the legacy single-pass analysis.
        let c = collected(&evs);
        assert_eq!(seq.analysis.metrics, btrace_analysis::analyze(&c, 1 << 18));
        assert_eq!(seq.analysis.per_core, btrace_analysis::by_core(&c));
        assert_eq!(seq.analysis.per_thread, btrace_analysis::by_thread(&c, 8));
        let stamps: Vec<u64> = c.iter().map(|e| e.stamp).collect();
        let newest = seq.newest_stamp.unwrap();
        assert_eq!(seq.gap_map.as_deref().unwrap(), btrace_analysis::gap_map(&stamps, newest, gap));
    }

    #[test]
    fn corrupted_index_is_a_handoff_defect_not_a_panic() {
        let evs = events(600);
        let mut stream = crate::encode_stream(&evs, 50);
        // Lie in frame 2's footer max_stamp, then re-seal the crc so only
        // the index (not the payload) is corrupt.
        let f = TraceStore::from_bytes(stream.clone()).frames()[2];
        let footer_off = f.offset + f.len - 8 - crate::stream::FOOTER_BYTES;
        let max_off = footer_off + 4 + 8;
        stream[max_off..max_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let crc = crate::stream::fnv(&stream[f.offset..f.offset + f.len - 8]);
        let crc_off = f.offset + f.len - 8;
        stream[crc_off..crc_off + 8].copy_from_slice(&crc.to_le_bytes());

        let out = analyze_frames(
            &stream,
            QueryOptions { threads: 2, fragments: 6, ..Default::default() },
        )
        .unwrap();
        assert!(
            out.handoff.iter().any(|d| d.field == "max_stamp_before"),
            "lying index must surface as a hand-off defect: {:?}",
            out.handoff
        );
    }

    #[test]
    fn work_counters_balance_on_uniform_streams() {
        let stream = crate::encode_stream(&events(4000), 64);
        let out =
            analyze_frames(&stream, QueryOptions { threads: 4, ..Default::default() }).unwrap();
        assert_eq!(out.work.len(), 4);
        let max = out.work.iter().map(|w| w.events).max().unwrap();
        let min = out.work.iter().map(|w| w.events).min().unwrap();
        assert!(
            (max - min) as f64 <= 0.2 * max as f64,
            "uniform stream must split within 20%: max {max} min {min}"
        );
    }

    #[test]
    fn thread_shapes_agree_under_a_predicate_and_corruption() {
        let evs = events(2500);
        for encoding in [FrameEncoding::Plain, FrameEncoding::Compressed] {
            let mut bytes = encode_stream_with(&evs, 100, encoding);
            // One damaged frame inside the predicate's range.
            let victim = TraceStore::from_bytes(bytes.clone()).frames()[8];
            bytes[victim.offset + victim.len / 2] ^= 0x5A;
            let store = TraceStore::from_bytes(bytes);
            let predicate = Predicate {
                since: Some(400),
                until: Some(1700),
                cores: vec![0, 2, 5],
                ..Default::default()
            };
            let options = QueryOptions {
                capacity_bytes: 1 << 16,
                gap_map: Some(GapMapOptions { window: 1000, width: 30 }),
                ..Default::default()
            };
            let sequential = Query { predicate: predicate.clone(), options }.run(&store);
            assert!(sequential.frames_pruned > 0, "time slice must prune frames");
            assert_eq!(sequential.defects.len(), 1, "{:?}", sequential.defects);
            assert!(sequential.handoff.is_empty(), "hand-off check is skipped under a predicate");
            let parallel = Query {
                predicate: predicate.clone(),
                options: QueryOptions { threads: 3, fragments: 8, ..options },
            }
            .run(&store);
            assert_eq!(parallel.analysis, sequential.analysis);
            assert_eq!(parallel.state, sequential.state);
            assert_eq!(parallel.gap_map, sequential.gap_map);
            assert_eq!(parallel.newest_stamp, sequential.newest_stamp);
            assert_eq!(parallel.defects, sequential.defects);

            // And both equal the linear oracle over the intact frames.
            let matched: Vec<FullEvent> = (0..store.frames().len())
                .filter_map(|i| store.decode_frame(i).ok())
                .flatten()
                .filter(|e| predicate.admits_event(e))
                .collect();
            assert_eq!(
                sequential.analysis,
                TracePartial::map(&collected(&matched)).finish(1 << 16, 8)
            );
        }
    }

    #[test]
    fn empty_stream_analyzes_to_empty() {
        let out = analyze_frames(&[], QueryOptions::default()).unwrap();
        assert_eq!(out.frames_total, 0);
        assert!(out.state.is_empty());
        assert_eq!(out.analysis.metrics, btrace_analysis::Metrics::empty());
        assert!(out.handoff.is_empty());
        assert!(analyze_frames(b"BTSF", QueryOptions::default()).is_err());
    }

    #[test]
    fn unconstrained_query_still_skips_empty_frames() {
        let mut bytes = encode_stream_with(
            &(0..10).map(|s| ev(s, 0, 1)).collect::<Vec<_>>(),
            5,
            FrameEncoding::Plain,
        );
        bytes.extend_from_slice(&crate::encode_frame(2, &[]));
        let store = TraceStore::from_bytes(bytes);
        let report = Query::default().run(&store);
        assert_eq!(report.matched_events, 10);
        assert_eq!(report.frames_pruned, 1, "the empty frame holds nothing to decode");
    }
}

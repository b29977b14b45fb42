//! `query`: the persist read path and analysis, with no record or drain work.
//!
//! Closed loop, one thread. Set-up writes a seeded compressed BTSF corpus
//! in 512-event frames. The timed loop reopens it with `TraceStore::open`
//! and runs a seeded sequence of queries: selective ones (a 1% time slice,
//! one core within a 10% slice, the sched category within a 5% slice, in
//! turn) and, once per reopen, an unconstrained `Query::run`, the same work
//! as `btrace analyze`. The traced run performs `Query::run`'s steps itself
//! (`plan` → `decode_frame` → `admits_event` → `TracePartial::map` →
//! `tree_merge`) with a span around each, and checks that its result equals
//! `Query::run`'s.

use crate::load::Corpus;
use crate::spans::SpanLog;
use crate::util::{
    clock_scale, process_cpu_ns, timed_scaled, Metric, Outcome, Rng, RssSampler, Summary,
};
use crate::Ctx;
use btrace_analysis::{tree_merge, TraceAnalysis, TracePartial};
use btrace_atrace::{Category, OwnedEvent};
use btrace_core::event::encoded_len;
use btrace_core::sink::{CollectedEvent, FullEvent};
use btrace_persist::{
    decode_frames, encode_frame_with, FrameEncoding, Predicate, Query, QueryOptions, TraceStore,
};
use btrace_replay::TraceState;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

const EVENTS: usize = 1_000_000;
const TINY_EVENTS: usize = 20_000;
const EVENTS_PER_FRAME: usize = 512;
/// Selective queries between two reopens (a multiple of the three classes).
const SELECTIVE_PER_OPEN: usize = 24;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Queries checked against the linear oracle per phase.
const CHECKED: usize = 8;
const CLASSES: [&str; 3] = ["time_1pct", "core_in_10pct", "sched_in_5pct"];

/// Writes the corpus file a frame at a time, so set-up never holds more
/// than one frame of events; returns its event count.
fn setup(seed: u64, tiny: bool, path: &Path) -> u64 {
    let total = if tiny { TINY_EVENTS } else { EVENTS };
    let mut corpus = Corpus::new(seed);
    let file = std::fs::File::create(path).expect("corpus file in .bench_out");
    let mut out = std::io::BufWriter::new(file);
    for seq in 0..total.div_ceil(EVENTS_PER_FRAME) {
        let n = EVENTS_PER_FRAME.min(total - seq * EVENTS_PER_FRAME);
        let frame =
            encode_frame_with(seq as u64, &corpus.next_events(n), FrameEncoding::Compressed);
        out.write_all(&frame).expect("corpus frame written");
    }
    out.flush().expect("corpus file flushed");
    total as u64
}

/// The `k`-th selective predicate of a phase. Classes take turns and the
/// core class walks the eight cores in turn, so every run has the same mix
/// (the hot core's queries are the slowest); slice positions are seeded.
fn selective(k: usize, rng: &mut Rng, lo: u64, hi: u64) -> Predicate {
    let len = hi - lo;
    let slice = |pct: u64, rng: &mut Rng| {
        let width = len * pct / 100;
        let since = lo + rng.below(len - width + 1);
        (Some(since), Some(since + width))
    };
    match k % 3 {
        0 => {
            let (since, until) = slice(1, rng);
            Predicate { since, until, ..Default::default() }
        }
        1 => {
            let (since, until) = slice(10, rng);
            Predicate { since, until, cores: vec![(k / 3 % 8) as u16], ..Default::default() }
        }
        _ => {
            let (since, until) = slice(5, rng);
            Predicate { since, until, category: Some(Category::SCHED), ..Default::default() }
        }
    }
}

/// What one query returned, for the oracle and traced-path comparisons.
#[derive(Debug, Clone, PartialEq)]
struct Answer {
    matched: u64,
    analysis: TraceAnalysis,
    state: TraceState,
}

/// `Query::run`'s steps, each in a span.
fn traced_query(store: &TraceStore, q: &Query, log: &mut SpanLog, tally: &mut Tally) -> Answer {
    let plan = log.span("query.plan", |_| q.plan(store));
    let base = Predicate { category: None, ..q.predicate.clone() };
    let mut partials = Vec::new();
    let mut state = TraceState::empty();
    let mut matched = 0u64;
    let mut admitted: Vec<FullEvent> = Vec::new();
    for &idx in &plan {
        // A defective frame is left out, as `Query::run` leaves it out.
        let Ok(events) = log.span("store.decode", |_| store.decode_frame(idx)) else { continue };
        tally.frames += 1;
        tally.decoded += events.len() as u64;
        let collected = log.span("query.filter", |log| {
            admitted.clear();
            admitted.extend(events.into_iter().filter(|e| base.admits_event(e)));
            if let Some(mask) = q.predicate.category {
                tally.payloads += admitted.len() as u64;
                log.span("atrace.decode", |_| {
                    admitted.retain(|e| match OwnedEvent::decode(&e.payload) {
                        Ok(ev) => ev.category().bits() & mask.bits() != 0,
                        Err(_) => false,
                    })
                });
            }
            let collected: Vec<CollectedEvent> = admitted
                .iter()
                .map(|e| {
                    state.record(e.core, e.tid, e.stamp, e.payload.len() as u64);
                    CollectedEvent {
                        stamp: e.stamp,
                        core: e.core,
                        tid: e.tid,
                        stored_bytes: encoded_len(e.payload.len()) as u32,
                    }
                })
                .collect();
            collected
        });
        matched += collected.len() as u64;
        tally.matched += collected.len() as u64;
        if !collected.is_empty() {
            partials.push(log.span("analysis.map", |_| TracePartial::map(&collected)));
        }
    }
    let analysis = log.span("analysis.merge", |_| {
        let merged = tree_merge(partials, TracePartial::merge).unwrap_or_default();
        merged.finish(q.options.capacity_bytes, q.options.top_threads)
    });
    Answer { matched, analysis, state }
}

#[derive(Debug, Default)]
struct Tally {
    frames: u64,
    decoded: u64,
    matched: u64,
    payloads: u64,
}

/// One reopen and the queries run against it, timed at the reference clock
/// (see [`clock_scale`]). The end-to-end figures are medians over cycles,
/// so a burst of interference from outside the process moves them only
/// when it covers half the run.
struct Cycle {
    scale: f64,
    selective: Summary,
    cpu_per_event: f64,
}

/// Timings and answers of one phase of the timed loop.
#[derive(Default)]
struct Phase {
    cycles: Vec<Cycle>,
    open_ms: Vec<f64>,
    selective_ms: [Vec<f64>; 3],
    full_ms: Vec<f64>,
    /// Events decoded by every query (from the plans' frame counts).
    decoded: u64,
    queries: u64,
    cpu_ns: u64,
    /// `(query, answer)` for the checked subset.
    checked: Vec<(Query, Answer)>,
    full_matched: Vec<u64>,
    /// Selective queries only, traced phase.
    selective: Tally,
    rss: Option<String>,
    log: Option<SpanLog>,
}

/// Runs one query of every class, untimed, so the page cache holds the
/// corpus and the allocator has seen the query's working set before timing.
fn warm_up(path: &Path, seed: u64) {
    let store = TraceStore::open(path).expect("corpus opens");
    let frames = store.frames();
    let lo = frames.first().and_then(|f| f.index).map_or(0, |i| i.min_stamp);
    let hi = frames.last().and_then(|f| f.index).map_or(0, |i| i.max_stamp);
    let mut rng = Rng::new(seed, 0x3a);
    for k in 0..3 {
        Query::new(selective(k, &mut rng, lo, hi)).run(&store);
    }
    Query::default().run(&store);
}

fn measure(path: &Path, seed: u64, seconds: f64, traced: bool) -> Phase {
    let epoch = Instant::now();
    let mut phase = Phase { log: traced.then(|| SpanLog::new(epoch, 1)), ..Default::default() };
    let mut rng = Rng::new(seed, 0x9e + traced as u64);
    let mut pick = Rng::new(seed, 0xc4 + traced as u64);
    let rss = RssSampler::start();
    let cpu0 = process_cpu_ns();
    let mut k = 0usize;
    while epoch.elapsed().as_secs_f64() < seconds {
        let scale0 = clock_scale();
        let cycle_cpu0 = process_cpu_ns();
        let cycle_decoded0 = phase.decoded;
        // Unscaled `(class, ms)` of the cycle's selective queries.
        let mut cycle_ms = Vec::with_capacity(SELECTIVE_PER_OPEN);
        let mut full_ms = 0.0;
        let t0 = Instant::now();
        let store = match phase.log.as_mut() {
            Some(log) => log.span("store.open", |_| TraceStore::open(path)),
            None => TraceStore::open(path),
        }
        .expect("corpus opens");
        let open_ms = t0.elapsed().as_secs_f64() * 1e3;
        let frames = store.frames();
        let lo = frames.first().and_then(|f| f.index).map_or(0, |i| i.min_stamp);
        let hi = frames.last().and_then(|f| f.index).map_or(0, |i| i.max_stamp);
        for j in 0..=SELECTIVE_PER_OPEN {
            let full = j == SELECTIVE_PER_OPEN;
            let predicate =
                if full { Predicate::default() } else { selective(k, &mut rng, lo, hi) };
            let q = Query { predicate, options: QueryOptions::default() };
            let mut tally = Tally::default();
            let t0 = Instant::now();
            let answer = match phase.log.as_mut() {
                Some(log) => traced_query(&store, &q, log, &mut tally),
                None => {
                    let r = q.run(&store);
                    Answer { matched: r.matched_events, analysis: r.analysis, state: r.state }
                }
            };
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            phase.queries += 1;
            phase.decoded += q.plan(&store).iter().map(|&i| frames[i].events as u64).sum::<u64>();
            if full {
                full_ms = ms;
                phase.full_matched.push(answer.matched);
            } else {
                cycle_ms.push((k % 3, ms));
                let s = &mut phase.selective;
                s.frames += tally.frames;
                s.decoded += tally.decoded;
                s.matched += tally.matched;
                s.payloads += tally.payloads;
                k += 1;
            }
            // The first query of each class, the first full query, and a
            // seeded handful more go to the oracle.
            let first = if full { phase.full_matched.len() == 1 } else { k <= 3 };
            if phase.checked.len() < CHECKED && (first || pick.below(64) == 0) {
                phase.checked.push((q, answer));
            }
        }
        drop(store);
        let cpu = process_cpu_ns() - cycle_cpu0;
        let scale = (scale0 + clock_scale()) / 2.0;
        phase.open_ms.push(open_ms * scale);
        phase.full_ms.push(full_ms * scale);
        for &(class, ms) in &cycle_ms {
            phase.selective_ms[class].push(ms * scale);
        }
        phase.cycles.push(Cycle {
            scale,
            selective: Summary::of(cycle_ms.iter().map(|&(_, ms)| ms * scale).collect(), 90.0),
            cpu_per_event: cpu as f64 * scale / (phase.decoded - cycle_decoded0).max(1) as f64,
        });
    }
    phase.cpu_ns = process_cpu_ns() - cpu0;
    phase.rss = Some(rss.finish());
    phase
}

/// Checks a phase's subset against `Query::run` (traced phase) and the
/// linear oracle; returns how many disagreed.
fn verify(store: &TraceStore, all: &[FullEvent], phase: &Phase, out: &mut Outcome) -> u64 {
    let mut wrong = 0u64;
    for (q, answer) in &phase.checked {
        let collecting = Query {
            predicate: q.predicate.clone(),
            options: QueryOptions { collect_events: true, ..q.options },
        };
        let report = collecting.run(store);
        let oracle: Vec<&FullEvent> = all.iter().filter(|e| q.predicate.admits_event(e)).collect();
        let same_events = report.events.len() == oracle.len()
            && report.events.iter().zip(&oracle).all(|(a, b)| a == *b);
        let same_answer = answer.matched == report.matched_events
            && answer.analysis == report.analysis
            && answer.state == report.state;
        if !(same_events && same_answer && report.defects.is_empty()) {
            wrong += 1;
        }
    }
    out.check(
        if phase.log.is_some() { "traced_queries_match_oracle" } else { "queries_match_oracle" },
        wrong == 0 && !phase.checked.is_empty(),
        format!(
            "{wrong} of {} checked queries disagree with the linear oracle",
            phase.checked.len()
        ),
    );
    wrong
}

pub fn run(ctx: &Ctx) -> Outcome {
    let path: PathBuf = ctx.out_dir.join(format!("query-seed{}.btsf", ctx.seed));
    let mut setups = Vec::new();
    let mut total = 0;
    for _ in 0..SETUPS {
        let (events, secs) = timed_scaled(|| setup(ctx.seed, ctx.tiny, &path));
        total = events;
        setups.push(secs);
    }
    let plain_secs = if ctx.trace { ctx.seconds / 2.0 } else { ctx.seconds };
    warm_up(&path, ctx.seed);
    let plain = measure(&path, ctx.seed, plain_secs, false);
    let traced = ctx.trace.then(|| measure(&path, ctx.seed, ctx.seconds / 2.0, true));

    let mut out = Outcome::default();
    let store = TraceStore::open(&path).expect("corpus opens");
    out.check(
        "corpus_clean",
        store.defects().is_empty(),
        format!("{} defects", store.defects().len()),
    );
    let all: Vec<FullEvent> = decode_frames(store.bytes())
        .expect("corpus decodes")
        .into_iter()
        .flat_map(|f| f.events)
        .collect();
    out.check(
        "corpus_complete",
        all.len() as u64 == total,
        format!("{} of {total} events decode", all.len()),
    );
    for phase in std::iter::once(&plain).chain(&traced) {
        out.attempted += phase.queries;
        out.failed += verify(&store, &all, phase, &mut out);
        let short = phase.full_matched.iter().filter(|&&m| m != total).count();
        out.check(
            "full_query_sees_everything",
            short == 0 && !phase.full_matched.is_empty(),
            format!("{short} of {} full queries missed events", phase.full_matched.len()),
        );
    }
    let file_bytes = store.bytes().len() as f64;
    drop(store);
    let _ = std::fs::remove_file(&path);

    let over_cycles =
        |f: fn(&Cycle) -> f64| Summary::of(plain.cycles.iter().map(f).collect(), 90.0).median;
    let selective = Summary {
        count: plain.cycles.iter().map(|c| c.selective.count).sum(),
        median: over_cycles(|c| c.selective.median),
        tail_pct: 90.0,
        tail: over_cycles(|c| c.selective.tail),
    };
    let full = Summary::of(plain.full_ms.clone(), 90.0);
    let open = Summary::of(plain.open_ms.clone(), 90.0);
    let us = |s: Summary| Summary { median: s.median * 1e3, tail: s.tail * 1e3, ..s };
    out.end_to_end = vec![
        Metric::single("setup_s", "s", Summary::of(setups, 90.0).median, "median of 5 set-ups at the reference clock: synthesise the seeded corpus and write it with encode_frame_with, compressed, 512 events a frame"),
        Metric::median("latency_p50_us", "us", us(selective), "query_selective_ms_p50: one selective Query::run, the three classes in equal share; median over reopen cycles of each cycle's p50, at the reference clock"),
        Metric::tail("latency_tail_us", "us", us(selective), "query_selective_ms_p90: one selective Query::run, the three classes in equal share; median over reopen cycles of each cycle's p90, at the reference clock"),
        Metric::single("cpu_ns_per_event", "ns", over_cycles(|c| c.cpu_per_event), "process CPU per event decoded by a query; median over reopen cycles, at the reference clock"),
        Metric::single("events_per_s", "1/s", total as f64 / (full.median / 1e3), "corpus events / query_full_ms_p50: full-scan rate of an unconstrained Query::run, at the reference clock"),
        Metric::single("bytes_per_event", "B", file_bytes / total.max(1) as f64, "corpus file bytes per event"),
        Metric::single("retained_share", "ratio", plain.full_matched.first().copied().unwrap_or(0) as f64 / total.max(1) as f64, "events an unconstrained query returns / events written"),
    ];
    let mut named = vec![
        ("query_selective_ms_p50", "ms", selective.median),
        ("query_selective_ms_p90", "ms", selective.tail),
        ("query_full_ms_p50", "ms", full.median),
        ("store_open_ms", "ms", open.median),
    ];
    let per_class: Vec<Summary> =
        plain.selective_ms.iter().map(|v| Summary::of(v.clone(), 90.0)).collect();
    for (i, name) in
        ["time_1pct_ms_p50", "core_in_10pct_ms_p50", "sched_in_5pct_ms_p50"].iter().enumerate()
    {
        named.push((name, "ms", per_class[i].median));
    }
    out.extra.push(("workload_metrics", crate::workload_metrics(&named)));
    out.extra.push(("rss_mib", plain.rss.clone().expect("measured phase samples rss")));
    out.extra.push(("clock_scale", crate::util::num(over_cycles(|c| c.scale))));
    out.extra.push((
        "samples",
        crate::util::object([
            ("selective_queries", selective.count.to_string()),
            ("full_queries", full.count.to_string()),
            ("opens", open.count.to_string()),
            ("classes", format!("[{}]", CLASSES.map(crate::util::string).join(","))),
        ]),
    ));

    out.per_layer = crate::zero_layers();
    if let Some(traced) = traced {
        let log = traced.log.as_ref().expect("traced phase keeps spans");
        let s = &traced.selective;
        let t = |name: &str| log.totals(name);
        let selective_run: usize = traced.selective_ms.iter().map(Vec::len).sum();
        let frames_scanned =
            (selective_run as u64 * total.div_ceil(EVENTS_PER_FRAME as u64)).max(1);
        let plain_cpu = plain.cpu_ns as f64 / plain.decoded.max(1) as f64;
        let traced_cpu = traced.cpu_ns as f64 / traced.decoded.max(1) as f64;
        let decoded_all = t("store.decode");
        let ledger = crate::Ledger {
            layers_busy_ns: log.self_ns_all() as f64,
            process_cpu_ns: traced.cpu_ns as f64,
        };
        crate::set_layers(
            &mut out.per_layer,
            &[
                ("atrace.decode_ns", t("atrace.decode").self_ns as f64 / s.payloads.max(1) as f64),
                (
                    "store.open_ms",
                    t("store.open").total_ns as f64 / t("store.open").count.max(1) as f64 / 1e6,
                ),
                (
                    "store.decode_ns_per_event",
                    decoded_all.self_ns as f64 / traced.decoded.max(1) as f64,
                ),
                (
                    "query.filter_ns_per_event",
                    t("query.filter").self_ns as f64 / traced.decoded.max(1) as f64,
                ),
                (
                    "query.plan_us",
                    t("query.plan").total_ns as f64 / t("query.plan").count.max(1) as f64 / 1e3,
                ),
                ("store.frames_decoded_share", s.frames as f64 / frames_scanned as f64),
                ("query.match_share", s.matched as f64 / s.decoded.max(1) as f64),
                (
                    "analysis.map_ns_per_event",
                    t("analysis.map").self_ns as f64 / traced_matched(&traced) as f64,
                ),
                (
                    "analysis.merge_us",
                    t("analysis.merge").total_ns as f64
                        / t("analysis.merge").count.max(1) as f64
                        / 1e3,
                ),
                ("trace.overhead_pct", (traced_cpu - plain_cpu) / plain_cpu * 100.0),
                ("ledger.accounted_share", ledger.share()),
                ("ledger.within_tolerance", ledger.within() as u8 as f64),
            ],
        );
        out.extra.push(("ledger", ledger.json()));
        crate::write_spans(ctx, log, &mut out);
    }
    out
}

/// Events the traced phase handed to `TracePartial::map`.
fn traced_matched(phase: &Phase) -> u64 {
    let full: u64 = phase.full_matched.iter().sum();
    (phase.selective.matched + full).max(1)
}

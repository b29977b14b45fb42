//! `record`: the producer fast path, block closing and block skipping.
//!
//! Closed loop, two producer threads, no consumer attached, on the paper's
//! §5 geometry (12 cores, 12 MiB, 4 KiB blocks, `A = 192`). Each thread
//! owns six cores and records atrace-encoded tracepoints on them, cores
//! drawn by eShop-2's Fig. 4 per-core rates. eShop-2's `preempt_mid_write`
//! share goes through `begin`, a parked grant (at most four per core) and a
//! later `commit`, which makes the slow path skip pinned blocks. The buffer
//! wraps many times; the run ends with `collect_and_close` + `analyze`.

use crate::load::{tracepoints, Tracepoint};
use crate::spans::SpanLog;
use crate::util::{
    clock_scale, process_cpu_ns, timed_scaled, Metric, Outcome, Rng, RssSampler, Summary,
};
use crate::Ctx;
use btrace_atrace::MAX_ENCODED;
use btrace_core::sink::CollectedEvent;
use btrace_core::{BTrace, Grant, Producer, Stats};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Tracepoints per timed batch.
const BATCH: usize = 64;
const THREADS: usize = 2;
const CORES_PER_THREAD: usize = 6;
/// Generated tracepoints per thread, replayed cyclically.
const TABLE: usize = 1 << 16;
/// Parked grants per core.
const PARK_SLOTS: usize = 4;
/// Longest preemption, in events later recorded on the same core. Long
/// enough that the global position comes round to a pinned block.
const MAX_PARK: u16 = 4096;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Buffer readouts at the end; the last one is `collect_and_close`.
const READOUTS: usize = 5;
/// The timed loop is cut into windows of this many seconds. Each
/// end-to-end figure is the median over windows, so a burst of
/// interference from outside the process moves it only when it covers half
/// the run.
const WINDOW_S: f64 = 0.5;
/// One batch in this many is kept as a latency sample.
const SAMPLE_EVERY: u64 = 8;

struct Rig {
    tracer: BTrace,
    producers: Vec<Producer>,
    tables: Vec<Vec<Tracepoint>>,
    tracer_new_ns: u64,
    /// Next unissued stamp; every stamp below it was recorded exactly once.
    /// Relaxed is enough: it hands out disjoint ranges and publishes no
    /// other data.
    next_stamp: AtomicU64,
}

impl Rig {
    fn new(seed: u64) -> Rig {
        let t0 = Instant::now();
        let tracer = btrace_bench::harness::btrace();
        let tracer_new_ns = t0.elapsed().as_nanos() as u64;
        let producers =
            (0..tracer.cores()).map(|c| tracer.producer(c).expect("core in range")).collect();
        let scenario =
            btrace_replay::scenarios::by_name("eShop-2").expect("eShop-2 is a Table 2 scenario");
        let preempt = scenario.preempt_mid_write as f64;
        let tables = (0..THREADS)
            .map(|t| {
                let first = t * CORES_PER_THREAD;
                let cores: Vec<u16> = (first..first + CORES_PER_THREAD).map(|c| c as u16).collect();
                let weights = &scenario.core_rates[first..first + CORES_PER_THREAD];
                let mut rng = Rng::new(seed, 0x7ec0 + t as u64);
                tracepoints(&mut rng, &cores, weights, preempt, MAX_PARK, TABLE)
            })
            .collect();
        Rig { tracer, producers, tables, tracer_new_ns, next_stamp: AtomicU64::new(0) }
    }
}

struct Parked {
    grant: Grant,
    stamp: u64,
    tid: u32,
    due: u64,
    len: usize,
    payload: [u8; MAX_ENCODED],
}

#[derive(Default)]
struct CoreState {
    parked: Vec<Parked>,
    events: u64,
}

impl CoreState {
    /// Commits parked grants whose preemption is over (all of them when
    /// `all`), counting failed commits.
    fn commit_due(&mut self, all: bool, failed: &mut u64) {
        let mut k = 0;
        while k < self.parked.len() {
            if all || self.parked[k].due <= self.events {
                let p = self.parked.swap_remove(k);
                if p.grant.commit(p.stamp, p.tid, &p.payload[..p.len]).is_err() {
                    *failed += 1;
                }
            } else {
                k += 1;
            }
        }
    }
}

/// Records one encoded tracepoint: in one step, or through a parked grant.
#[inline]
fn put(
    producer: &Producer,
    state: &mut CoreState,
    tp: &Tracepoint,
    stamp: u64,
    payload: &[u8],
    failed: &mut u64,
) {
    if tp.park_for > 0 && state.parked.len() < PARK_SLOTS {
        match producer.begin(payload.len()) {
            Ok(grant) => {
                let mut buf = [0u8; MAX_ENCODED];
                buf[..payload.len()].copy_from_slice(payload);
                state.parked.push(Parked {
                    grant,
                    stamp,
                    tid: tp.tid(),
                    due: state.events + tp.park_for as u64,
                    len: payload.len(),
                    payload: buf,
                });
            }
            Err(_) => *failed += 1,
        }
    } else if producer.record_with(stamp, tp.tid(), payload).is_err() {
        *failed += 1;
    }
    state.events += 1;
    if !state.parked.is_empty() {
        state.commit_due(false, failed);
    }
}

/// One window of the timed loop.
///
/// Its figures are at the reference clock (see [`clock_scale`]).
struct Window {
    /// Encode + record ns per tracepoint, over the window's kept batches.
    latency: Summary,
    p99: f64,
    cpu_per_event: f64,
    events_per_s: f64,
    scale: f64,
}

struct Phase {
    windows: Vec<Window>,
    events: u64,
    failed: u64,
    cpu_ns: u64,
    before: Stats,
    after: Stats,
    /// Resident-set report (see [`RssSampler::finish`]).
    rss: String,
    log: Option<SpanLog>,
}

/// What one producer thread recorded, per window.
struct Driven {
    /// Kept batch durations, ns.
    batches: Vec<Vec<u32>>,
    events: Vec<u64>,
    failed: u64,
}

/// One producer thread's closed loop over its cores, batch by batch, until
/// its clock passes the last window. Window `w` is `[w·step, (w+1)·step)`
/// seconds after `epoch`.
#[allow(clippy::too_many_arguments)]
fn drive(
    producers: &[Producer],
    first: usize,
    table: &[Tracepoint],
    stamps: &AtomicU64,
    epoch: Instant,
    step: f64,
    windows: usize,
    mut log: Option<&mut SpanLog>,
) -> Driven {
    let mut states: Vec<CoreState> = producers.iter().map(|_| CoreState::default()).collect();
    let mut out =
        Driven { batches: vec![Vec::new(); windows], events: vec![0; windows], failed: 0 };
    let mut bufs = [[0u8; MAX_ENCODED]; BATCH];
    let mut lens = [0usize; BATCH];
    let (mut cursor, mut seen) = (0usize, 0u64);
    loop {
        let t0 = Instant::now();
        let w = ((t0 - epoch).as_secs_f64() / step) as usize;
        if w >= windows {
            break;
        }
        let base = stamps.fetch_add(BATCH as u64, Relaxed);
        let batch = &table[cursor..cursor + BATCH];
        cursor = (cursor + BATCH) % TABLE;
        let failed = &mut out.failed;
        let states = &mut states;
        let mut record = |j: usize, tp: &Tracepoint, payload: &[u8]| {
            let core = tp.core as usize - first;
            put(&producers[core], &mut states[core], tp, base + j as u64, payload, failed);
        };
        match log.as_deref_mut() {
            None => {
                for (j, tp) in batch.iter().enumerate() {
                    let n = tp.encode(&mut bufs[0]);
                    record(j, tp, &bufs[0][..n]);
                }
            }
            Some(log) => {
                log.span("atrace.encode", |_| {
                    for (j, tp) in batch.iter().enumerate() {
                        lens[j] = tp.encode(&mut bufs[j]);
                    }
                });
                log.span("core.record", |_| {
                    for (j, tp) in batch.iter().enumerate() {
                        record(j, tp, &bufs[j][..lens[j]]);
                    }
                });
            }
        }
        if seen % SAMPLE_EVERY == 0 {
            out.batches[w].push(t0.elapsed().as_nanos().min(u32::MAX as u128) as u32);
        }
        seen += 1;
        out.events[w] += BATCH as u64;
    }
    for st in &mut states {
        st.commit_due(true, &mut out.failed);
    }
    out
}

/// Records in a closed loop for `seconds` on [`THREADS`] producer threads,
/// in batches of [`BATCH`], while this thread marks the window boundaries.
fn measure(rig: &mut Rig, seconds: f64, traced: bool) -> Phase {
    let windows = ((seconds / WINDOW_S).round() as usize).max(1);
    let step = seconds / windows as f64;
    let rss = RssSampler::start();
    let before = rig.tracer.stats();
    let epoch = Instant::now();
    let cpu0 = process_cpu_ns();
    let mut marks = vec![(0.0, cpu0)];
    let mut scales = vec![clock_scale()];
    let stamps = &rig.next_stamp;
    let tables = &rig.tables;
    let results: Vec<(Driven, Option<SpanLog>)> = std::thread::scope(|s| {
        let handles: Vec<_> = rig
            .producers
            .chunks_mut(CORES_PER_THREAD)
            .zip(tables)
            .enumerate()
            .map(|(t, (producers, table))| {
                s.spawn(move || {
                    let mut log = traced.then(|| SpanLog::new(epoch, t as u64 + 1));
                    let first = t * CORES_PER_THREAD;
                    let d =
                        drive(producers, first, table, stamps, epoch, step, windows, log.as_mut());
                    (d, log)
                })
            })
            .collect();
        for w in 1..=windows {
            let due = epoch + std::time::Duration::from_secs_f64(step * w as f64);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            marks.push(((Instant::now() - epoch).as_secs_f64(), process_cpu_ns()));
            scales.push(clock_scale());
        }
        handles.into_iter().map(|h| h.join().expect("producer thread panicked")).collect()
    });
    let cpu_ns = process_cpu_ns() - cpu0;
    let after = rig.tracer.stats();
    let events: Vec<u64> =
        (0..windows).map(|w| results.iter().map(|(d, _)| d.events[w]).sum()).collect();
    let window_stats = (0..windows)
        .filter(|&w| events[w] > 0)
        .map(|w| {
            let scale = (scales[w] + scales[w + 1]) / 2.0;
            let samples: Vec<f64> = results
                .iter()
                .flat_map(|(d, _)| d.batches[w].iter())
                .map(|&ns| ns as f64 * scale / BATCH as f64)
                .collect();
            let ((t0, c0), (t1, c1)) = (marks[w], marks[w + 1]);
            Window {
                p99: Summary::of(samples.clone(), 99.0).tail,
                latency: Summary::of(samples, 90.0),
                cpu_per_event: (c1 - c0) as f64 * scale / events[w] as f64,
                events_per_s: events[w] as f64 / (t1 - t0) / scale,
                scale,
            }
        })
        .collect();
    let mut phase = Phase {
        windows: window_stats,
        events: events.iter().sum(),
        failed: 0,
        cpu_ns,
        before,
        after,
        rss: rss.finish(),
        log: None,
    };
    for (d, log) in results {
        phase.failed += d.failed;
        match (&mut phase.log, log) {
            (Some(mine), Some(other)) => mine.absorb(other),
            (slot @ None, log) => *slot = log,
            _ => {}
        }
    }
    phase
}

fn collected(events: &[btrace_core::Event]) -> Vec<CollectedEvent> {
    events
        .iter()
        .map(|e| CollectedEvent {
            stamp: e.stamp(),
            core: e.core() as u16,
            tid: e.tid(),
            stored_bytes: e.stored_bytes() as u32,
        })
        .collect()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut setups = Vec::new();
    let mut rig = None;
    for _ in 0..SETUPS {
        drop(rig.take());
        let (fresh, secs) = timed_scaled(|| Rig::new(ctx.seed));
        rig = Some(fresh);
        setups.push(secs);
    }
    let mut rig = rig.expect("at least one set-up");
    let tracer_new_ms = rig.tracer_new_ns as f64 / 1e6;

    // The traced run first measures untraced for half its time, so the
    // tracing overhead compares like with like.
    let (plain, traced) = if ctx.trace {
        let plain = measure(&mut rig, ctx.seconds / 2.0, false);
        let traced = measure(&mut rig, ctx.seconds / 2.0, true);
        (plain, Some(traced))
    } else {
        (measure(&mut rig, ctx.seconds, false), None)
    };

    let mut out = Outcome {
        attempted: plain.events + traced.as_ref().map_or(0, |t| t.events),
        failed: plain.failed + traced.as_ref().map_or(0, |t| t.failed),
        ..Default::default()
    };
    out.check(
        "every_record_ok",
        out.failed == 0,
        format!("{} of {} record/begin/commit calls failed", out.failed, out.attempted),
    );

    // Readout: non-destructive collects, then the destructive one.
    let capacity = rig.tracer.capacity_bytes();
    let mut consumer = rig.tracer.consumer();
    let mut readout_ms = Vec::new();
    let mut last = None;
    for i in 0..READOUTS {
        let t0 = Instant::now();
        let readout =
            if i + 1 == READOUTS { consumer.collect_and_close() } else { consumer.collect() };
        let events = collected(&readout.events);
        let metrics = btrace_analysis::analyze(&events, capacity);
        readout_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        last = Some((events, metrics));
    }
    let (events, metrics) = last.expect("at least one readout");
    let issued = rig.next_stamp.load(Relaxed);
    let mut stamps: Vec<u64> = events.iter().map(|e| e.stamp).collect();
    stamps.sort_unstable();
    let retained = stamps.len();
    stamps.dedup();
    out.check(
        "retained_stamps_unique",
        stamps.len() == retained,
        format!("{} duplicate stamps among {retained} retained", retained - stamps.len()),
    );
    let stray = stamps.iter().filter(|&&s| s >= issued).count();
    out.check(
        "retained_stamps_issued",
        stray == 0 && retained > 0,
        format!("{stray} of {retained} retained stamps were never issued (issued {issued})"),
    );
    out.check(
        "buffer_wrapped",
        (plain.after.recorded_bytes + plain.after.dummy_bytes) as usize > 2 * capacity,
        "the run wraps the buffer at least twice",
    );

    let over_windows =
        |f: fn(&Window) -> f64| Summary::of(plain.windows.iter().map(f).collect(), 90.0).median;
    out.extra.push(("clock_scale", crate::util::num(over_windows(|w| w.scale))));
    let samples = Summary {
        count: plain.windows.iter().map(|w| w.latency.count).sum(),
        median: over_windows(|w| w.latency.median),
        tail_pct: 90.0,
        tail: over_windows(|w| w.latency.tail),
    };
    let d = |f: fn(&Stats) -> u64| f(&plain.after) - f(&plain.before);
    let records = d(|s| s.records).max(1);
    let buffer_bytes = d(|s| s.recorded_bytes) + d(|s| s.dummy_bytes);
    let us = |s: Summary| Summary { median: s.median / 1e3, tail: s.tail / 1e3, ..s };
    let bound = 1.0 - rig.tracer.active_blocks() as f64 / rig.tracer.capacity_blocks() as f64;
    out.end_to_end = vec![
        Metric::single("setup_s", "s", Summary::of(setups, 90.0).median, "median of 9 set-ups at the reference clock: BTrace::new on the §5 geometry, producers, seeded tracepoint table"),
        Metric::median("latency_p50_us", "us", us(samples), "record_ns_p50: encode + record per tracepoint, timed in batches of 64; median over 0.5 s windows of each window's p50, at the reference clock"),
        Metric::tail("latency_tail_us", "us", us(samples), "record_ns_p90: encode + record per tracepoint, timed in batches of 64; median over 0.5 s windows of each window's p90, at the reference clock"),
        Metric::single("cpu_ns_per_event", "ns", over_windows(|w| w.cpu_per_event), "process CPU per tracepoint recorded; median over 0.5 s windows, at the reference clock"),
        Metric::single("events_per_s", "1/s", over_windows(|w| w.events_per_s), "tracepoints recorded per second by the two producer threads; median over 0.5 s windows, at the reference clock"),
        Metric::single("bytes_per_event", "B", buffer_bytes as f64 / records as f64, "buffer bytes written (entries + dummy filler) per tracepoint"),
        Metric::single("retained_share", "ratio", metrics.effectivity_ratio, "effectivity_ratio: latest fragment / capacity after collect_and_close"),
    ];
    let readout = Summary::of(readout_ms, 90.0);
    out.extra.push(("rss_mib", plain.rss.clone()));
    out.extra.push((
        "workload_metrics",
        crate::workload_metrics(&[
            ("record_ns_p50", "ns", samples.median),
            ("record_ns_p90", "ns", samples.tail),
            ("record_ns_p99", "ns", over_windows(|w| w.p99)),
            ("effectivity_ratio", "ratio", metrics.effectivity_ratio),
            ("paper_bound_1_minus_A_over_N", "ratio", bound),
            ("readout_ms_p50", "ms", readout.median),
        ]),
    ));

    out.per_layer = crate::zero_layers();
    if let Some(traced) = traced {
        let log = traced.log.as_ref().expect("traced phase keeps spans");
        let encode = log.totals("atrace.encode");
        let record = log.totals("core.record");
        let dt = |f: fn(&Stats) -> u64| f(&traced.after) - f(&traced.before);
        let traced_events = traced.events.max(1) as f64;
        let plain_cpu = plain.cpu_ns as f64 / plain.events.max(1) as f64;
        let traced_cpu = traced.cpu_ns as f64 / traced_events;
        let ledger = crate::Ledger {
            layers_busy_ns: log.self_ns_all() as f64,
            process_cpu_ns: traced.cpu_ns as f64,
        };
        crate::set_layers(
            &mut out.per_layer,
            &[
                ("atrace.encode_ns", encode.self_ns as f64 / traced_events),
                ("core.record_ns", record.self_ns as f64 / traced_events),
                (
                    "core.advances_per_kevent",
                    dt(|s| s.advances) as f64 * 1e3 / dt(|s| s.records).max(1) as f64,
                ),
                ("core.skip_rate", {
                    let adv = dt(|s| s.advances);
                    if adv == 0 {
                        0.0
                    } else {
                        dt(|s| s.skips) as f64 / adv as f64
                    }
                }),
                ("vmem.tracer_new_ms", tracer_new_ms),
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

//! `export` and `saturate`: continuous export through the stream pipeline.
//!
//! Open loop: one generator thread offers atrace tracepoints at a fixed
//! rate on the `btrace stream` geometry (4 cores, 4 MiB, 4 KiB blocks,
//! `A = 64`), and `StreamPipeline` drains, batches, encodes and writes them
//! as compressed BTSF frames to a file. Each event's stamp is the ns at
//! which it was due, so a generator stall counts as lag. `export` offers
//! about 40% of the drain capacity; `saturate` offers about twice it, so
//! the drain is lapped and its missed-block accounting and backpressure run.

use crate::load::{tracepoints, Tracepoint};
use crate::spans::SpanLog;
use crate::util::{
    clock_scale, process_cpu_ns, timed_scaled, Metric, Outcome, Rng, RssSampler, Summary,
};
use crate::Ctx;
use btrace_atrace::MAX_ENCODED;
use btrace_core::{BTrace, Config, Producer, Stats};
use btrace_persist::{
    FileFrameSink, FrameEncoding, FrameSink, PipelineConfig, PipelineStats, StreamPipeline,
    TraceStore,
};
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which offered rate to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    Export,
    Saturate,
}

impl Load {
    /// ns between consecutive due times: 2 M events/s for `export`,
    /// 10 M events/s for `saturate`; a tenth of that with `--tiny`.
    fn period_ns(self, tiny: bool) -> u64 {
        let base = match self {
            Load::Export => 500,
            Load::Saturate => 100,
        };
        if tiny {
            base * 10
        } else {
            base
        }
    }
}

const CORES: usize = 4;
const TABLE: usize = 1 << 16;
/// Most events recorded between two looks at the clock.
const BURST: u64 = 4096;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// What the bench-owned sink wrapper saw, shared with the pipeline's sink
/// thread.
#[derive(Debug, Default)]
struct SinkLog {
    /// When each successful `write_frame` returned, ns since the epoch.
    done_ns: Vec<u64>,
    spans: Option<SpanLog>,
}

/// Times each `write_frame` of the file sink.
struct TimedSink {
    inner: FileFrameSink,
    epoch: Instant,
    log: Arc<Mutex<SinkLog>>,
}

impl FrameSink for TimedSink {
    fn write_frame(&mut self, frame: &[u8]) -> io::Result<()> {
        let mut log = self.log.lock().expect("sink log lock is never poisoned");
        let result = match log.spans.as_mut() {
            Some(spans) => spans.span("sink.write", |_| self.inner.write_frame(frame)),
            None => self.inner.write_frame(frame),
        };
        if result.is_ok() {
            log.done_ns.push(self.epoch.elapsed().as_nanos() as u64);
        }
        result
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

struct Rig {
    tracer: Arc<BTrace>,
    producers: Vec<Producer>,
    table: Vec<Tracepoint>,
    pipeline: StreamPipeline,
    sink: Arc<Mutex<SinkLog>>,
    path: PathBuf,
    epoch: Instant,
    tracer_new_ns: u64,
}

impl Rig {
    fn new(ctx: &Ctx, tag: &str, traced: bool) -> Rig {
        let path = ctx.out_dir.join(format!("{}-seed{}-{tag}.btsf", ctx.workload, ctx.seed));
        let _ = std::fs::remove_file(&path);
        let epoch = Instant::now();
        let tracer = Arc::new(
            BTrace::new(
                Config::new(CORES).active_blocks(64).block_bytes(4096).buffer_bytes(4 << 20),
            )
            .expect("the btrace stream geometry is valid"),
        );
        let tracer_new_ns = epoch.elapsed().as_nanos() as u64;
        let producers = (0..CORES).map(|c| tracer.producer(c).expect("core in range")).collect();
        let cores: Vec<u16> = (0..CORES as u16).collect();
        let mut rng = Rng::new(ctx.seed, 0xe4);
        let table = tracepoints(&mut rng, &cores, &[1; CORES], 0.0, 0, TABLE);
        let sink = Arc::new(Mutex::new(SinkLog {
            done_ns: Vec::new(),
            spans: traced.then(|| SpanLog::new(epoch, 9)),
        }));
        let file = FileFrameSink::create(&path).expect("output file in .bench_out");
        let timed = TimedSink { inner: file, epoch, log: Arc::clone(&sink) };
        let config = PipelineConfig { encoding: FrameEncoding::Compressed, ..Default::default() };
        let pipeline = StreamPipeline::spawn(Arc::clone(&tracer), Box::new(timed), config);
        Rig { tracer, producers, table, pipeline, sink, path, epoch, tracer_new_ns }
    }

    fn discard(self) {
        self.pipeline.stop();
        let _ = std::fs::remove_file(&self.path);
    }
}

struct Phase {
    start_ns: u64,
    period_ns: u64,
    issued: u64,
    recorded: u64,
    failed: u64,
    gen_secs: f64,
    lateness_ms: Vec<f64>,
    cpu_ns: u64,
    before: Stats,
    after: Stats,
    stats: PipelineStats,
    /// Resident-set report (see [`RssSampler::finish`]).
    rss: String,
    /// Median clock scale, measured once a second (see [`clock_scale`]).
    scale: f64,
    gen_log: Option<SpanLog>,
}

/// Offers events on schedule for `seconds`, then stops the pipeline.
fn generate(rig: Rig, seconds: f64, period_ns: u64, traced: bool) -> (Phase, Stopped) {
    let Rig { tracer, producers, table, pipeline, sink, path, epoch, tracer_new_ns } = rig;
    let mut log = traced.then(|| SpanLog::new(epoch, 1));
    let rss = RssSampler::start();
    let before = tracer.stats();
    let cpu0 = process_cpu_ns();
    let start_ns = epoch.elapsed().as_nanos() as u64;
    let end_ns = start_ns + (seconds * 1e9) as u64;
    let mut i = 0u64;
    let (mut recorded, mut failed) = (0u64, 0u64);
    let mut lateness_ms = Vec::new();
    let mut scratch = vec![([0u8; MAX_ENCODED], 0usize); BURST as usize];
    let mut buf = [0u8; MAX_ENCODED];
    let mut scales = Vec::new();
    let mut next_scale_ns = start_ns;
    loop {
        let now = epoch.elapsed().as_nanos() as u64;
        if now >= end_ns {
            break;
        }
        if now >= next_scale_ns {
            scales.push(clock_scale());
            next_scale_ns += 1_000_000_000;
            continue;
        }
        let due = start_ns + i * period_ns;
        if now < due {
            std::thread::sleep(Duration::from_nanos(due - now));
            continue;
        }
        lateness_ms.push((now - due) as f64 / 1e6);
        let upto = ((now - start_ns) / period_ns + 1).min(i + BURST);
        let mut put = |k: u64, payload: &[u8], tp: &Tracepoint| {
            let stamp = start_ns + k * period_ns;
            match producers[tp.core as usize].record_with(stamp, tp.tid(), payload) {
                Ok(()) => recorded += 1,
                Err(_) => failed += 1,
            }
        };
        match log.as_mut() {
            None => {
                for k in i..upto {
                    let tp = &table[k as usize % TABLE];
                    let n = tp.encode(&mut buf);
                    put(k, &buf[..n], tp);
                }
            }
            Some(log) => {
                log.span("atrace.encode", |_| {
                    for k in i..upto {
                        let slot = &mut scratch[(k - i) as usize];
                        slot.1 = table[k as usize % TABLE].encode(&mut slot.0);
                    }
                });
                log.span("core.record", |_| {
                    for k in i..upto {
                        let (payload, n) = &scratch[(k - i) as usize];
                        put(k, &payload[..*n], &table[k as usize % TABLE]);
                    }
                });
            }
        }
        i = upto;
    }
    let gen_secs = (epoch.elapsed().as_nanos() as u64 - start_ns) as f64 / 1e9;
    let after = tracer.stats();
    drop(producers);
    let stats = pipeline.stop();
    let cpu_ns = process_cpu_ns() - cpu0;
    let rss = rss.finish();
    let phase = Phase {
        start_ns,
        period_ns,
        issued: i,
        recorded,
        failed,
        gen_secs,
        lateness_ms,
        cpu_ns,
        before,
        after,
        stats,
        rss,
        scale: Summary::of(scales, 90.0).median,
        gen_log: log,
    };
    (phase, Stopped { sink, path, tracer_new_ns })
}

/// What is left of a rig once its pipeline has stopped.
struct Stopped {
    sink: Arc<Mutex<SinkLog>>,
    path: PathBuf,
    tracer_new_ns: u64,
}

/// What the output file showed.
struct Written {
    persisted: u64,
    file_bytes: u64,
    lag_ms: Vec<f64>,
    sink_spans: Option<SpanLog>,
}

/// Checks the output file against the run and derives per-frame lag.
fn verify(load: Load, phase: &Phase, rig: Stopped, out: &mut Outcome) -> Written {
    let sink = std::mem::take(&mut *rig.sink.lock().expect("sink log lock is never poisoned"));
    let store = TraceStore::open(&rig.path).expect("output file opens");
    let file_bytes = store.bytes().len() as u64;
    let frames = store.frames();
    out.check(
        "no_store_defects",
        store.defects().is_empty(),
        format!("{} defects in {}", store.defects().len(), rig.path.display()),
    );
    let gaps = frames.iter().enumerate().filter(|(i, f)| f.seq != *i as u64).count();
    out.check("frame_seqs_contiguous", gaps == 0, format!("{gaps} frames out of sequence"));
    let persisted = store.total_events();
    out.check(
        "persisted_equals_encoded",
        persisted == phase.stats.events_encoded,
        format!("file holds {persisted} events, pipeline encoded {}", phase.stats.events_encoded),
    );
    out.check(
        "one_write_per_frame",
        sink.done_ns.len() == frames.len() && frames.len() as u64 == phase.stats.frames_written,
        format!(
            "{} frames in the file, {} sink writes, {} frames written",
            frames.len(),
            sink.done_ns.len(),
            phase.stats.frames_written
        ),
    );

    // Every persisted stamp must be a due time that was issued, once.
    let mut seen = vec![0u64; (phase.issued as usize).div_ceil(64)];
    let (mut stray, mut dups, mut undecodable) = (0u64, 0u64, 0u64);
    let mut lag_ms = Vec::with_capacity(frames.len());
    for (idx, frame) in frames.iter().enumerate() {
        match store.decode_frame(idx) {
            Ok(events) => {
                for e in &events {
                    let off = e.stamp.wrapping_sub(phase.start_ns);
                    let k = off / phase.period_ns;
                    if e.stamp < phase.start_ns || off % phase.period_ns != 0 || k >= phase.issued {
                        stray += 1;
                        continue;
                    }
                    let (word, bit) = ((k / 64) as usize, k % 64);
                    if seen[word] & (1 << bit) != 0 {
                        dups += 1;
                    }
                    seen[word] |= 1 << bit;
                }
            }
            Err(_) => undecodable += 1,
        }
        if let (Some(index), Some(&done)) = (frame.index, sink.done_ns.get(idx)) {
            lag_ms.push(done.saturating_sub(index.max_stamp) as f64 / 1e6);
        }
    }
    out.check("frames_decode", undecodable == 0, format!("{undecodable} frames failed to decode"));
    out.check("persisted_stamps_issued", stray == 0, format!("{stray} stamps never issued"));
    out.check("persisted_stamps_unique", dups == 0, format!("{dups} duplicate stamps"));
    out.check(
        "lag_per_frame",
        lag_ms.len() == frames.len() && !lag_ms.is_empty(),
        format!("{} lag samples for {} frames", lag_ms.len(), frames.len()),
    );

    let loss = phase.recorded.saturating_sub(persisted);
    let dropped: u64 = phase.stats.stages.iter().take(4).map(|s| s.dropped).sum();
    match load {
        // Below capacity nothing may be lost: a lost event is a failed one.
        Load::Export => {
            out.failed += loss;
            out.check("nothing_lost", loss == 0, format!("{loss} recorded events not persisted"));
        }
        // Lapping is the point of `saturate`; loss must be accounted for.
        Load::Saturate => out.check(
            "loss_accounted",
            loss == 0 || phase.stats.missed_blocks > 0 || dropped > 0,
            format!(
                "{loss} events lost, {} missed blocks, {dropped} shed items",
                phase.stats.missed_blocks
            ),
        ),
    }
    let _ = std::fs::remove_file(&rig.path);
    Written { persisted, file_bytes, lag_ms, sink_spans: sink.spans }
}

fn stage<'a>(stats: &'a PipelineStats, name: &str) -> &'a btrace_telemetry::StageHealth {
    stats.stages.iter().find(|s| s.stage == name).expect("the pipeline reports every stage")
}

/// Span-timed ns the stage spent per item it accepted.
fn stage_busy_ns(stats: &PipelineStats, name: &str) -> f64 {
    let s = stage(stats, name);
    s.latency.mean_ns * s.latency.count as f64
}

pub fn run(ctx: &Ctx, load: Load) -> Outcome {
    let period = load.period_ns(ctx.tiny);
    let mut setups = Vec::new();
    for _ in 0..SETUPS - 1 {
        let (rig, secs) = timed_scaled(|| Rig::new(ctx, "setup", false));
        setups.push(secs);
        rig.discard();
    }
    let (rig, secs) = timed_scaled(|| Rig::new(ctx, "plain", false));
    setups.push(secs);

    let mut out = Outcome::default();
    let plain_secs = if ctx.trace { ctx.seconds / 2.0 } else { ctx.seconds };
    let (plain, rest) = generate(rig, plain_secs, period, false);
    let tracer_new_ms = rest.tracer_new_ns as f64 / 1e6;
    let written = verify(load, &plain, rest, &mut out);
    out.attempted = plain.issued;
    out.failed += plain.failed;
    out.check("every_record_ok", plain.failed == 0, format!("{} records failed", plain.failed));

    let lag = Summary::of(written.lag_ms.clone(), 90.0);
    let lateness = Summary::of(plain.lateness_ms.clone(), 99.0);
    let max_late = plain.lateness_ms.iter().copied().fold(0.0, f64::max);
    let persisted = written.persisted.max(1) as f64;
    let offered = 1e9 / period as f64;
    let achieved = plain.issued as f64 / plain.gen_secs;
    let persisted_per_s = written.persisted as f64 / plain.gen_secs;
    let loss_ppm = (plain.recorded - written.persisted.min(plain.recorded)) as f64 * 1e6
        / plain.recorded.max(1) as f64;
    let us = |s: Summary| Summary { median: s.median * 1e3, tail: s.tail * 1e3, ..s };
    out.end_to_end = vec![
        Metric::single("setup_s", "s", Summary::of(setups, 90.0).median, "median of 9 set-ups at the reference clock: BTrace::new on the stream geometry, producers, tracepoint table, output file, StreamPipeline::spawn"),
        Metric::median("latency_p50_us", "us", us(lag), "export_lag_ms_p50: due stamp of a frame's newest event to write_frame returning; wall clock, set mostly by the 5 ms poll interval, so not scaled"),
        Metric::tail("latency_tail_us", "us", us(lag), "export_lag_ms_p90: due stamp of a frame's newest event to write_frame returning"),
        Metric::single("cpu_ns_per_event", "ns", plain.cpu_ns as f64 * plain.scale / persisted, "process CPU (generator + pipeline) per persisted event, at the reference clock"),
        Metric::single("events_per_s", "1/s", persisted_per_s, "persisted events per second of generation; wall clock, not scaled"),
        Metric::single("bytes_per_event", "B", written.file_bytes as f64 / persisted, "disk_bytes_per_event: output file bytes per persisted event"),
        Metric::single("retained_share", "ratio", 1.0 - loss_ppm / 1e6, "persisted / recorded events (1 - loss_ppm / 1e6)"),
    ];
    out.extra.push(("rss_mib", plain.rss.clone()));
    out.extra.push(("clock_scale", crate::util::num(plain.scale)));
    out.extra.push((
        "workload_metrics",
        crate::workload_metrics(&[
            ("export_lag_ms_p50", "ms", lag.median),
            ("export_lag_ms_p90", "ms", lag.tail),
            ("export_lag_ms_p99", "ms", Summary::of(written.lag_ms.clone(), 99.0).tail),
            ("cpu_ns_per_event", "ns", plain.cpu_ns as f64 * plain.scale / persisted),
            ("loss_ppm", "ppm", loss_ppm),
            ("disk_bytes_per_event", "B", written.file_bytes as f64 / persisted),
            ("persisted_events_per_s", "1/s", persisted_per_s),
            ("missed_blocks", "count", plain.stats.missed_blocks as f64),
        ]),
    ));
    out.extra.push((
        "open_loop",
        crate::util::object([
            ("offered_per_s", crate::util::num(offered)),
            ("achieved_per_s", crate::util::num(achieved)),
            ("lateness_ms_p99", crate::util::num(lateness.tail)),
            ("lateness_ms_max", crate::util::num(max_late)),
            ("generator_kept_up", (achieved >= 0.95 * offered).to_string()),
        ]),
    ));

    out.per_layer = crate::zero_layers();
    if ctx.trace {
        let rig = Rig::new(ctx, "traced", true);
        let (traced, rest) = generate(rig, ctx.seconds / 2.0, period, true);
        let mut checks = Outcome::default();
        let written = verify(load, &traced, rest, &mut checks);
        out.checks.extend(checks.checks.into_iter().map(|mut c| {
            c.detail = format!("traced phase: {}", c.detail);
            c
        }));
        out.failed += checks.failed + traced.failed;
        out.attempted += traced.issued;

        let mut log = traced.gen_log.expect("traced phase keeps spans");
        let sink_spans = written.sink_spans.expect("traced sink keeps spans");
        let sink_write = sink_spans.totals("sink.write");
        log.absorb(sink_spans);
        let s = &traced.stats;
        let events = traced.recorded.max(1) as f64;
        let persisted = written.persisted.max(1) as f64;
        let drain = stage(s, "drain");
        let per_item = |name: &str| stage_busy_ns(s, name) / stage(s, name).in_items.max(1) as f64;
        let wait_ms = |name: &str| stage(s, name).queue_wait.p50 as f64 / 1e6;
        let d = |f: fn(&Stats) -> u64| f(&traced.after) - f(&traced.before);
        let lateness = Summary::of(traced.lateness_ms.clone(), 99.0);
        let plain_cpu = plain.cpu_ns as f64 / plain.recorded.max(1) as f64;
        let traced_cpu = traced.cpu_ns as f64 / events;
        // The batch row's span runs from a batch's first event to its
        // flush, waiting for events included, so it is not busy time and
        // stays out of the ledger; so does the drain poll, which no row
        // times.
        let ledger = crate::Ledger {
            layers_busy_ns: log.self_ns_all() as f64
                + stage_busy_ns(s, "drain")
                + stage_busy_ns(s, "encode"),
            process_cpu_ns: traced.cpu_ns as f64,
        };
        crate::set_layers(
            &mut out.per_layer,
            &[
                ("atrace.encode_ns", log.totals("atrace.encode").self_ns as f64 / events),
                ("core.record_ns", log.totals("core.record").self_ns as f64 / events),
                (
                    "core.advances_per_kevent",
                    d(|s| s.advances) as f64 * 1e3 / d(|s| s.records).max(1) as f64,
                ),
                ("core.skip_rate", {
                    let adv = d(|s| s.advances);
                    if adv == 0 {
                        0.0
                    } else {
                        d(|s| s.skips) as f64 / adv as f64
                    }
                }),
                ("drain.ns_per_event", per_item("drain")),
                (
                    "drain.events_per_batch",
                    drain.in_items as f64 / drain.latency.count.max(1) as f64,
                ),
                ("drain.missed_blocks", s.missed_blocks as f64),
                ("batch.ns_per_event", per_item("batch")),
                ("encode.ns_per_event", per_item("encode")),
                ("encode.bytes_per_event", s.bytes_written as f64 / s.events_encoded.max(1) as f64),
                ("sink.write_ns_per_event", sink_write.self_ns as f64 / persisted),
                ("batch.queue_wait_ms_p50", wait_ms("batch")),
                ("encode.queue_wait_ms_p50", wait_ms("encode")),
                ("sink.queue_wait_ms_p50", wait_ms("sink")),
                (
                    "pipeline.dropped",
                    s.stages.iter().take(4).map(|r| r.dropped).sum::<u64>() as f64,
                ),
                ("pipeline.io_retries", s.io.retries as f64),
                ("sink.frame_lag_ms_p99", Summary::of(written.lag_ms, 99.0).tail),
                ("vmem.tracer_new_ms", tracer_new_ms),
                ("gen.offered_per_s", 1e9 / period as f64),
                ("gen.achieved_per_s", traced.issued as f64 / traced.gen_secs),
                ("gen.lateness_ms_p99", lateness.tail),
                ("gen.lateness_ms_max", traced.lateness_ms.iter().copied().fold(0.0, f64::max)),
                ("trace.overhead_pct", (traced_cpu - plain_cpu) / plain_cpu * 100.0),
                ("ledger.accounted_share", ledger.share()),
                ("ledger.within_tolerance", ledger.within() as u8 as f64),
            ],
        );
        out.extra.push(("ledger", ledger.json()));
        crate::write_spans(ctx, &log, &mut out);
    }
    out
}

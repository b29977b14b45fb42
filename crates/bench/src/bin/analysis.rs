//! Fragment-parallel analysis scaling: how the `plan → split → map →
//! merge` executor behind `btrace_persist::analyze_frames` (the
//! unconstrained `Query::run`) behaves as worker threads are added, on a
//! large synthetic BTSF stream.
//!
//! Writes `BENCH_analysis.json`. Measurements, sequential (`K = 1`) and
//! at `K ∈ {2, 4, 8}`:
//!
//! * wall time and end-to-end event throughput of the full analysis
//!   (decode + checksum + metrics + breakdowns + state reconstruction);
//! * speedup over the sequential run;
//! * per-fragment work counters (events, bytes, busy time) and the
//!   partition spread — on a host with fewer CPUs than workers the
//!   wall-clock speedup degenerates toward 1×, and the counters are the
//!   evidence that the *partitioning* is balanced and would scale;
//! * a bit-identical check of every parallel readout against `K = 1`.
//!
//! `BTRACE_BENCH_ANALYSIS_MIB` overrides the stream size (default 256).

use btrace_persist::{analyze_frames, encode_frame, QueryOptions, QueryReport};

use btrace_core::sink::FullEvent;
use std::time::Instant;

const EVENTS_PER_FRAME: usize = 1024;
const DEFAULT_MIB: usize = 256;

/// splitmix64 — deterministic stream contents run to run.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Encodes frames until the stream reaches `target_bytes`, mimicking a
/// live drain: stamps globally increasing with per-core jitter, a hot-core
/// skew, and payloads between 48 and 96 bytes.
fn synthesize(target_bytes: usize) -> (Vec<u8>, u64) {
    let mut bytes = Vec::with_capacity(target_bytes + (target_bytes >> 4));
    let mut rng = 0x42u64;
    let mut stamp = 0u64;
    let mut seq = 0u64;
    let mut events = 0u64;
    let mut frame = Vec::with_capacity(EVENTS_PER_FRAME);
    while bytes.len() < target_bytes {
        frame.clear();
        for _ in 0..EVENTS_PER_FRAME {
            let r = mix(&mut rng);
            stamp += 1 + (r & 7);
            // Zipf-ish core pick: half the traffic on core 0.
            let core = if r & 1 == 0 { 0 } else { ((r >> 1) % 8) as u16 };
            let payload_len = 48 + (r >> 8) as usize % 49;
            frame.push(FullEvent {
                stamp,
                core,
                tid: 100 + (r >> 16) as u32 % 24,
                payload: vec![0xA5; payload_len],
            });
        }
        events += frame.len() as u64;
        bytes.extend_from_slice(&encode_frame(seq, &frame));
        seq += 1;
    }
    (bytes, events)
}

struct Run {
    threads: usize,
    wall_ms: f64,
    speedup: f64,
    events_per_sec: f64,
    fragments: usize,
    min_fragment_events: u64,
    max_fragment_events: u64,
    balance_spread_pct: f64,
    busy_ms_total: f64,
    bit_identical: bool,
    defects: usize,
}

fn run_once(bytes: &[u8], threads: usize, baseline: Option<&QueryReport>) -> (Run, QueryReport) {
    let opts = QueryOptions { threads, ..QueryOptions::default() };
    let t0 = Instant::now();
    let out = analyze_frames(bytes, opts).expect("synthetic stream decodes");
    let wall = t0.elapsed().as_secs_f64();
    let min = out.work.iter().map(|w| w.events).min().unwrap_or(0);
    let max = out.work.iter().map(|w| w.events).max().unwrap_or(0);
    let run = Run {
        threads,
        wall_ms: wall * 1e3,
        speedup: 0.0, // filled by the caller once the sequential wall is known
        events_per_sec: out.state.events as f64 / wall,
        fragments: out.work.len(),
        min_fragment_events: min,
        max_fragment_events: max,
        balance_spread_pct: if max > 0 { (max - min) as f64 * 100.0 / max as f64 } else { 0.0 },
        busy_ms_total: out.work.iter().map(|w| w.busy_ns).sum::<u64>() as f64 / 1e6,
        bit_identical: baseline
            .map(|b| b.analysis == out.analysis && b.state == out.state)
            .unwrap_or(true),
        defects: out.handoff.len(),
    };
    (run, out)
}

fn main() {
    let mib: usize = std::env::var("BTRACE_BENCH_ANALYSIS_MIB")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_MIB);
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    eprintln!("synthesizing {mib} MiB stream...");
    let (bytes, events) = synthesize(mib << 20);
    let frames = events as usize / EVENTS_PER_FRAME;

    let (mut seq, baseline) = run_once(&bytes, 1, None);
    seq.speedup = 1.0;
    let mut runs = vec![seq];
    for threads in [2usize, 4, 8] {
        let (mut run, _) = run_once(&bytes, threads, Some(&baseline));
        run.speedup = runs[0].wall_ms / run.wall_ms;
        assert!(run.bit_identical, "parallel analysis diverged at K={threads}");
        assert_eq!(run.defects, 0, "boundary defects on a healthy stream at K={threads}");
        runs.push(run);
    }

    let fmt = |r: &Run| {
        format!(
            "    {{\"threads\": {}, \"wall_ms\": {:.1}, \"speedup\": {:.2}, \
             \"events_per_sec\": {:.0}, \"fragments\": {}, \
             \"min_fragment_events\": {}, \"max_fragment_events\": {}, \
             \"balance_spread_pct\": {:.2}, \"busy_ms_total\": {:.1}, \
             \"bit_identical\": {}, \"defects\": {}}}",
            r.threads,
            r.wall_ms,
            r.speedup,
            r.events_per_sec,
            r.fragments,
            r.min_fragment_events,
            r.max_fragment_events,
            r.balance_spread_pct,
            r.busy_ms_total,
            r.bit_identical,
            r.defects,
        )
    };
    let worst_spread = runs.iter().map(|r| r.balance_spread_pct).fold(0.0f64, f64::max);
    let json = format!(
        "{{\n  \"bench\": \"fragment-parallel analysis, {:.0} MiB synthetic BTSF stream, {} events in {} frames\",\n  \
           \"stream_mib\": {:.0},\n  \
           \"events\": {events},\n  \
           \"frames\": {frames},\n  \
           \"host_cpus\": {host_cpus},\n  \
           \"worst_balance_spread_pct\": {worst_spread:.2},\n  \
           \"runs\": [\n{}\n  ],\n  \
           \"note\": \"every parallel run is asserted bit-identical to K=1; on a host with host_cpus < K the wall-clock speedup degenerates toward 1x and the per-fragment work counters (balance_spread_pct <= 20) are the scaling evidence\"\n}}\n",
        bytes.len() as f64 / (1 << 20) as f64,
        events,
        frames,
        bytes.len() as f64 / (1 << 20) as f64,
        runs.iter().map(fmt).collect::<Vec<_>>().join(",\n"),
    );
    print!("{json}");
    std::fs::write("BENCH_analysis.json", &json).expect("write BENCH_analysis.json");
    eprintln!("wrote BENCH_analysis.json");
}

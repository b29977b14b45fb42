//! The §6 frame-drop case study: the root cause dies long before the
//! symptom shows.
//!
//! A misbehaving thread busy-loops, silently raising chip temperature, and
//! exits. Seconds later the thermal daemon downclocks the CPU, and only
//! *then* do frames start dropping. By symptom time the culprit no longer
//! exists — a tracer that lost the older events cannot connect the chain:
//!
//! ```text
//! busy loop (t=0..4s)  ->  temperature climb  ->  thermal throttle (t=9s)
//!                      ->  frequency drop     ->  frame deadline misses
//! ```
//!
//! ```text
//! cargo run --release --example frame_drop_forensics
//! ```

use btrace::atrace::{Atrace, Level, OwnedEvent, TraceEvent};
use btrace::core::{BTrace, Config};
use btrace::persist::{
    analyze_frames, encode_stream, Collector, CollectorConfig, QueryOptions, TraceDump,
};
use std::sync::Arc;

const CORES: usize = 8;
const CULPRIT_TID: u32 = 6666;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sink = Arc::new(BTrace::new(
        Config::new(CORES).active_blocks(16 * CORES).block_bytes(4096).buffer_bytes(4 << 20),
    )?);
    let atrace = Atrace::new(Arc::clone(&sink), Level::Level3.categories());

    // Phase 1 (t = 0..4 s): the culprit busy-loops on cpu2 and dies.
    for tick in 0..40_000u64 {
        let core = (tick % CORES as u64) as usize;
        if core == 2 && (tick / 8) % 2 == 0 {
            atrace.event(
                2,
                CULPRIT_TID,
                TraceEvent::SchedSwitch {
                    prev: 0,
                    next: CULPRIT_TID,
                    prio: 139, // background priority: nobody suspects it
                },
            );
        } else {
            atrace.event(core, (tick % 41) as u32, TraceEvent::IdleExit { cpu: core as u8 });
        }
        // Temperature creeps up while the culprit runs.
        if tick % 500 == 0 {
            atrace.event(
                0,
                0,
                TraceEvent::ThermalThrottle { zone: 0, mdeg: 35_000 + (tick / 500 * 150) as u32 },
            );
        }
    }

    // Phase 2 (t = 4..9 s): the culprit is gone; normal traffic continues.
    for tick in 0..30_000u64 {
        let core = (tick % CORES as u64) as usize;
        atrace.event(
            core,
            (tick % 41) as u32,
            TraceEvent::SchedSwitch {
                prev: (tick % 41) as u32,
                next: ((tick + 1) % 41) as u32,
                prio: 120,
            },
        );
    }

    // Phase 3 (t = 9 s): the heat daemon reacts; frames start missing.
    atrace.event(0, 0, TraceEvent::ThermalThrottle { zone: 0, mdeg: 48_000 });
    for cpu in 0..CORES as u8 {
        atrace.event(cpu as usize, 0, TraceEvent::FreqChange { cpu, khz: 900_000 });
    }
    for frame in 0..30u32 {
        atrace.event(0, 4242, TraceEvent::Counter { name: "missed_frame", value: frame as i64 });
    }

    // The frame-drop monitor fires: dump the buffer for offline forensics.
    let dir = std::env::temp_dir().join(format!("btrace-framedrop-{}", std::process::id()));
    let collector =
        Collector::new(Arc::clone(&sink), CollectorConfig::new(&dir).prefix("framedrop"))?;
    let dump_path = collector.trigger("frame-drops-after-throttle")?;
    println!("symptom detected; buffer dumped to {}", dump_path.display());

    // Offline triage runs fragment-parallel: the dump is re-framed, split
    // at frame boundaries, and analyzed as a map-reduce over 4 workers —
    // bit-identical to the sequential readout, with the boundary hand-off
    // check vouching that no fragment was lost between workers.
    let frames = encode_stream(TraceDump::read_from(&dump_path)?.events(), 512);
    let parallel = analyze_frames(&frames, QueryOptions { threads: 4, ..Default::default() })?;
    let sequential = analyze_frames(&frames, QueryOptions::default())?;
    assert_eq!(parallel.analysis, sequential.analysis, "parallel triage must be bit-identical");
    assert!(parallel.handoff.is_empty(), "healthy dump must hand off cleanly between fragments");
    println!(
        "fragment-parallel triage: {} events in {} fragments on 4 threads, {} hand-off defects",
        parallel.state.events,
        parallel.work.len(),
        parallel.handoff.len()
    );

    // Offline analysis connects the chain backwards.
    let events = atrace.drain_decoded();
    let throttle_at = events
        .iter()
        .rfind(|e| matches!(e.event, OwnedEvent::ThermalThrottle { mdeg, .. } if mdeg >= 45_000))
        .map(|e| e.stamp)
        .expect("throttle event retained");
    let culprit_runs = events
        .iter()
        .filter(|e| {
            e.stamp < throttle_at
                && matches!(e.event, OwnedEvent::SchedSwitch { next, .. } if next == CULPRIT_TID)
        })
        .count();
    let temp_climb: Vec<u32> = events
        .iter()
        .filter_map(|e| match e.event {
            OwnedEvent::ThermalThrottle { mdeg, .. } => Some(mdeg),
            _ => None,
        })
        .collect();

    println!("retained {} events spanning the whole chain", events.len());
    println!("culprit tid {CULPRIT_TID} observed running {culprit_runs} times before the throttle");
    println!(
        "temperature series retained: {} samples, {:.1}°C -> {:.1}°C",
        temp_climb.len(),
        *temp_climb.first().unwrap() as f64 / 1000.0,
        *temp_climb.last().unwrap() as f64 / 1000.0
    );
    assert!(culprit_runs > 0, "the long-duration trace must still contain the culprit");
    println!("\n=> the busy-looping background thread that died seconds before the");
    println!("   symptom is identified from one continuous trace (paper §6, case 2).");
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

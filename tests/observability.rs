//! Self-observability under fire: the flight recorder must capture every
//! injected fault and the full causal chain of a degraded run, and
//! `diagnose` must turn that timeline into an actionable report.
//!
//! The identity being exercised: the heap backing never fails on its own,
//! so injected faults are the *only* failure source — every one of them
//! must surface both in the degradation counters (checked by
//! `fault_injection.rs`) and as a `FaultInjected` recorder event with the
//! surrounding resize narrative (checked here).

use btrace::analysis::diagnose;
use btrace::core::{BTrace, Backing, Config, FaultPlan};
use btrace::persist::{Backpressure, FrameSink, PipelineConfig, StreamPipeline};
use btrace::telemetry::EventKind;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

const BLOCK: usize = 1024;
const ACTIVE: usize = 8;
const STRIDE: usize = BLOCK * ACTIVE;

fn storm_tracer(seed: u64) -> BTrace {
    BTrace::new(
        Config::new(2)
            .active_blocks(ACTIVE)
            .block_bytes(BLOCK)
            .buffer_bytes(2 * STRIDE)
            .max_bytes(8 * STRIDE)
            .backing(Backing::Heap)
            .fault_plan(FaultPlan::new(seed).commit_failure_rate(1.0).arm_after_ops(1)),
    )
    .expect("valid configuration")
}

fn count(events: &[btrace::telemetry::RecordedEvent], kind: EventKind) -> usize {
    events.iter().filter(|e| e.kind == kind).count()
}

#[test]
fn every_injected_fault_appears_in_the_flight_recorder() {
    let t = storm_tracer(0xD0C_70B5);
    let p = t.producer(0).unwrap();
    for i in 0..200u64 {
        p.record_with(i, 0, b"pre-storm").unwrap();
    }

    // The grow's commits all fail: retries, then fallback.
    t.resize_bytes(4 * STRIDE).expect_err("sabotaged grow must fall back");

    let injected = t.fault_stats().expect("fault plan armed").commit_faults;
    assert!(injected > 0, "the storm must actually inject faults");

    let snap = t.flight_recorder().snapshot();
    assert_eq!(snap.overwritten, 0, "control shard must not wrap in this short run");
    assert_eq!(
        count(&snap.events, EventKind::FaultInjected) as u64,
        injected,
        "every injected fault must be a recorder event: {:#?}",
        snap.events
    );
    // The resize narrative around the faults: one begin, a retry per
    // backoff (attempts - 1), one fallback, the sticky bit set, no commit.
    assert_eq!(count(&snap.events, EventKind::ResizeBegin), 1);
    assert_eq!(count(&snap.events, EventKind::ResizeRetry) as u64, injected - 1);
    assert_eq!(count(&snap.events, EventKind::ResizeFallback), 1);
    assert!(count(&snap.events, EventKind::StateSet) >= 1);
    assert_eq!(count(&snap.events, EventKind::ResizeCommit), 0);

    // The FaultInjected events carry the running fault count, in order.
    let fault_counts: Vec<u64> =
        snap.events.iter().filter(|e| e.kind == EventKind::FaultInjected).map(|e| e.a).collect();
    let expected: Vec<u64> = (1..=injected).collect();
    assert_eq!(fault_counts, expected, "fault events must carry cumulative counts");
}

/// A sink that holds every write until the gate opens, so the depth-1
/// queues in front of it fill and shed no matter how the threads are
/// scheduled.
struct GatedSink(Arc<(Mutex<bool>, Condvar)>);

impl FrameSink for GatedSink {
    fn write_frame(&mut self, _frame: &[u8]) -> io::Result<()> {
        let (open, opened) = &*self.0;
        let mut open = open.lock().expect("gate lock is never poisoned");
        while !*open {
            open = opened.wait(open).expect("gate lock is never poisoned");
        }
        Ok(())
    }
}

#[test]
fn doctor_diagnoses_a_live_fault_storm() {
    let t = Arc::new(storm_tracer(0x5EED));
    // A depth-1 shedding pipeline whose sink is held shut while producers
    // spin: loss is guaranteed to show up as recorder StageDrop events.
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let pipeline = StreamPipeline::spawn(
        Arc::clone(&t),
        Box::new(GatedSink(Arc::clone(&gate))),
        PipelineConfig {
            poll_interval: Duration::from_millis(1),
            queue_depth: 1,
            backpressure: Backpressure::DropAndCount,
            ..PipelineConfig::default()
        },
    );
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for core in 0..2 {
            let p = t.producer(core).unwrap();
            let stop = &stop;
            scope.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    p.record_with(core as u64 * 1_000_000 + i, 0, b"storm").unwrap();
                    i += 1;
                    if i.is_multiple_of(1024) {
                        std::thread::yield_now();
                    }
                }
            });
        }
        std::thread::sleep(Duration::from_millis(100));
        t.resize_bytes(4 * STRIDE).expect_err("sabotaged grow must fall back");
        std::thread::sleep(Duration::from_millis(100));
        stop.store(true, Ordering::Relaxed);
    });
    *gate.0.lock().expect("gate lock is never poisoned") = true;
    gate.1.notify_all();
    let pstats = pipeline.stop();

    let mut snap = t.health_snapshot();
    snap.stream_stages = pstats.stages.clone();
    let timeline = t.flight_recorder().snapshot();
    let d = diagnose(&timeline.events, Some(&snap), None);

    assert_ne!(d.status(), "healthy", "a fault storm must not look healthy");
    assert!(
        d.findings.iter().any(|f| f.title.contains("resize fell back")),
        "diagnosis must name the fallback: {:#?}",
        d.findings
    );
    assert!(
        d.findings.iter().any(|f| f.title.contains("commit fault")),
        "diagnosis must name the injected faults: {:#?}",
        d.findings
    );
    // The loss window (pipeline shed under DropAndCount) must trace back
    // to the injected incident.
    assert!(!d.loss_windows.is_empty(), "depth-1 shedding pipeline must lose data");
    let chains: String = d.loss_windows.iter().map(|w| w.chain()).collect::<Vec<_>>().join("; ");
    assert!(
        chains.contains("commit fault") || chains.contains("resize fallback"),
        "at least one loss window must carry the injected cause chain: {chains}"
    );
    // And the machine-readable form round-trips through the JSON codec.
    let rendered = d.to_json().render();
    let parsed = btrace::telemetry::json::Json::parse(&rendered).expect("doctor json parses");
    assert_eq!(parsed.get("status").and_then(|s| s.as_str()), Some(d.status()));
}

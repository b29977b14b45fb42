//! Seeded inputs: atrace tracepoints and the query corpus.
//!
//! The tracepoint mix is the sched/irq/binder mix of the repository's query
//! bench corpus: small encoded payloads, the shape a phone actually records.

use crate::util::Rng;
use btrace_atrace::{TraceEvent, MAX_ENCODED};
use btrace_core::sink::FullEvent;

/// One generated tracepoint, kept unencoded: encoding is part of the
/// measured record path.
#[derive(Debug, Clone, Copy)]
pub struct Tracepoint {
    pub core: u16,
    kind: u8,
    a: u32,
    b: u32,
    c: u32,
    /// Events the writer stays preempted between `begin` and `commit`;
    /// 0 records in one step.
    pub park_for: u16,
}

impl Tracepoint {
    /// Thread id the tracepoint is recorded under.
    pub fn tid(&self) -> u32 {
        self.a
    }

    /// atrace-encodes the tracepoint into `buf`, returning its length.
    #[inline]
    pub fn encode(&self, buf: &mut [u8; MAX_ENCODED]) -> usize {
        let ev = match self.kind {
            0 => TraceEvent::SchedSwitch { prev: self.a, next: self.b, prio: self.c as u8 },
            1 => TraceEvent::SchedWakeup { tid: self.a, cpu: self.c as u8 },
            2 => TraceEvent::Irq { irq: self.b as u16, enter: self.c & 1 == 0 },
            _ => TraceEvent::BinderTxn { from: self.a, to: self.b, code: self.c },
        };
        ev.encode(buf)
    }
}

/// `n` tracepoints on `cores`, each core drawn with probability
/// proportional to its entry in `weights`. A tracepoint is preempted
/// mid-write with probability `preempt`, for 1 to `max_park` events.
pub fn tracepoints(
    rng: &mut Rng,
    cores: &[u16],
    weights: &[u32],
    preempt: f64,
    max_park: u16,
    n: usize,
) -> Vec<Tracepoint> {
    let total: u64 = weights.iter().map(|&w| w as u64).sum();
    let preempt_per_million = (preempt * 1e6) as u64;
    (0..n)
        .map(|_| {
            let mut pick = rng.below(total);
            let mut core = cores[cores.len() - 1];
            for (&c, &w) in cores.iter().zip(weights) {
                if pick < w as u64 {
                    core = c;
                    break;
                }
                pick -= w as u64;
            }
            let r = rng.next();
            let tid = 100 + (r % 32) as u32;
            let park_for = if max_park > 0 && rng.below(1_000_000) < preempt_per_million {
                1 + rng.below(max_park as u64) as u16
            } else {
                0
            };
            let kind = ((r >> 8) % 4) as u8;
            let b = match kind {
                2 => ((r >> 16) % 64) as u32,
                _ => tid ^ 5,
            };
            Tracepoint { core, kind, a: tid, b, c: (r >> 32) as u32 % 99, park_for }
        })
        .collect()
}

/// A drained-stream-shaped corpus, generated a frame at a time: increasing
/// stamps with jitter, one hot core among eight, atrace payloads.
pub struct Corpus {
    rng: Rng,
    stamp: u64,
}

impl Corpus {
    pub fn new(seed: u64) -> Corpus {
        Corpus { rng: Rng::new(seed, 0x51), stamp: 0 }
    }

    /// The next `n` events.
    pub fn next_events(&mut self, n: usize) -> Vec<FullEvent> {
        let cores: Vec<u16> = (0..8).collect();
        let weights = [8, 1, 1, 1, 1, 1, 1, 1];
        let points = tracepoints(&mut self.rng, &cores, &weights, 0.0, 0, n);
        let mut buf = [0u8; MAX_ENCODED];
        points
            .iter()
            .map(|p| {
                self.stamp += 1 + self.rng.below(16);
                let len = p.encode(&mut buf);
                FullEvent {
                    stamp: self.stamp,
                    core: p.core,
                    tid: p.tid(),
                    payload: buf[..len].to_vec(),
                }
            })
            .collect()
    }
}

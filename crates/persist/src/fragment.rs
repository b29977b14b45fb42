//! Fragment splitting over the [`TraceStore`](crate::TraceStore) frame
//! directory: cut a run of frames at frame boundaries into self-describing
//! [`FragmentContext`]s that the query executor maps independently on a
//! worker pool.
//!
//! Splitting is **O(frames)**, not O(events): it reads only the directory's
//! header counts and `FIDX` footers. Footer-less legacy frames still split
//! (their header carries seq and count); only the stamp/bitmap seed fields
//! degrade to "unknown" for them.

use std::ops::Range;

use btrace_core::sink::FullEvent;

use crate::store::StoreFrame;

/// What the frame index promises lies **before** a fragment — the fragment's
/// seeded entry state for the boundary hand-off check.
///
/// `events_before` and `frames_before` are always exact (frame headers carry
/// counts even without footers). The stamp/bitmap/byte fields are `None`
/// when any preceding frame lacks a footer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct FragmentSeed {
    /// Frames in all preceding fragments.
    pub frames_before: usize,
    /// Events in all preceding fragments.
    pub events_before: u64,
    /// Raw payload bytes in all preceding fragments, if indexed.
    pub payload_bytes_before: Option<u64>,
    /// Largest stamp in all preceding fragments, if indexed and non-empty.
    pub max_stamp_before: Option<u64>,
    /// Folded core bitmap of all preceding fragments, if indexed.
    pub core_bitmap_before: Option<u64>,
}

/// A self-describing slice of a BTSF stream: the frame range, its byte
/// span, cheap totals, and the seeded entry state — everything a worker
/// needs to decode and analyze the fragment independently, and everything
/// the reducer needs to verify the boundary hand-off.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct FragmentContext {
    /// Fragment position (0-based, in stream order).
    pub index: usize,
    /// Frame positions covered (into the slice given to
    /// [`split_fragments`]).
    pub frames: Range<usize>,
    /// Byte span in the stream.
    pub bytes: Range<usize>,
    /// Events in this fragment (from frame headers).
    pub events: u64,
    /// Raw payload bytes in this fragment, if every frame is indexed.
    pub payload_bytes: Option<u64>,
    /// Seeded entry state from the index of everything before.
    pub seed: FragmentSeed,
}

/// Cuts directory entries into at most `parts` contiguous fragments with
/// near-equal event counts (each boundary lands within one frame of the
/// ideal cut — frames are never split). Fewer fragments come back when
/// there are fewer non-empty frames than requested parts.
pub fn split_fragments(frames: &[StoreFrame], parts: usize) -> Vec<FragmentContext> {
    let parts = parts.max(1);
    let total_events: u64 = frames.iter().map(|f| f.events as u64).sum();
    let mut fragments = Vec::new();
    let mut frame_at = 0usize;
    let mut events_done = 0u64;
    let mut seed_payload = Some(0u64);
    let mut seed_max_stamp: Option<u64> = None;
    let mut seed_bitmap = Some(0u64);
    let mut seed_known = true; // all frames so far carried footers
    for part in 0..parts {
        if frame_at >= frames.len() {
            break;
        }
        // Ideal cumulative share after this part; the boundary is the first
        // frame end at or past it.
        let target = total_events * (part as u64 + 1) / parts as u64;
        let start = frame_at;
        let seed = FragmentSeed {
            frames_before: start,
            events_before: events_done,
            payload_bytes_before: seed_payload,
            max_stamp_before: seed_max_stamp,
            core_bitmap_before: seed_bitmap,
        };
        let mut events = 0u64;
        let mut payload = Some(0u64);
        while frame_at < frames.len() && (events_done < target || frame_at == start) {
            let frame = &frames[frame_at];
            events += frame.events as u64;
            events_done += frame.events as u64;
            match frame.index {
                Some(idx) => {
                    payload = payload.map(|p| p + idx.payload_bytes);
                    if idx.event_count > 0 {
                        seed_max_stamp =
                            Some(seed_max_stamp.map_or(idx.max_stamp, |m| m.max(idx.max_stamp)));
                    }
                    seed_bitmap = seed_bitmap.map(|b| b | idx.core_bitmap);
                }
                None => {
                    payload = None;
                    seed_known = false;
                }
            }
            frame_at += 1;
        }
        if !seed_known {
            seed_payload = None;
            seed_max_stamp = None;
            seed_bitmap = None;
        } else {
            seed_payload = seed_payload.and_then(|p| payload.map(|q| p + q));
        }
        let byte_start = frames[start].offset;
        let byte_end = frames[frame_at - 1].offset + frames[frame_at - 1].len;
        fragments.push(FragmentContext {
            index: part,
            frames: start..frame_at,
            bytes: byte_start..byte_end,
            events,
            payload_bytes: payload,
            seed,
        });
    }
    // Re-number in case trailing parts came up empty.
    for (i, frag) in fragments.iter_mut().enumerate() {
        frag.index = i;
    }
    // The last fragment must absorb any remainder (only possible when the
    // loop's target arithmetic exhausted parts early on heavily skewed
    // frames).
    if let Some(last) = fragments.last_mut() {
        if last.frames.end < frames.len() {
            for frame in &frames[last.frames.end..] {
                last.events += frame.events as u64;
                match frame.index {
                    Some(idx) => {
                        last.payload_bytes = last.payload_bytes.map(|p| p + idx.payload_bytes);
                    }
                    None => last.payload_bytes = None,
                }
            }
            let tail = frames.last().expect("non-empty");
            last.frames.end = frames.len();
            last.bytes.end = tail.offset + tail.len;
        }
    }
    fragments
}

/// Encodes events into a concatenated BTSF stream of `events_per_frame`
/// frames (seq starting at 0) — the bridge from `.btd` dumps and in-memory
/// drains into the store.
pub fn encode_stream(events: &[FullEvent], events_per_frame: usize) -> Vec<u8> {
    encode_stream_with(events, events_per_frame, crate::FrameEncoding::Plain)
}

/// [`encode_stream`] with an explicit frame encoding (see
/// [`encode_frame_with`](crate::encode_frame_with)).
pub fn encode_stream_with(
    events: &[FullEvent],
    events_per_frame: usize,
    encoding: crate::FrameEncoding,
) -> Vec<u8> {
    let per = events_per_frame.max(1);
    let mut out = Vec::new();
    for (seq, chunk) in events.chunks(per).enumerate() {
        out.extend_from_slice(&crate::encode_frame_with(seq as u64, chunk, encoding));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode_frame, TraceStore};

    fn ev(stamp: u64, core: u16, payload: usize) -> FullEvent {
        FullEvent { stamp, core, tid: 100 + core as u32, payload: vec![0x5A; payload] }
    }

    fn store_of(frames: &[Vec<FullEvent>]) -> TraceStore {
        let mut out = Vec::new();
        for (seq, events) in frames.iter().enumerate() {
            out.extend_from_slice(&encode_frame(seq as u64, events));
        }
        TraceStore::from_bytes(out)
    }

    /// Decodes a fragment's frames through the store.
    fn decode(store: &TraceStore, frag: &FragmentContext) -> Vec<FullEvent> {
        frag.frames.clone().flat_map(|i| store.decode_frame(i).expect("frame decodes")).collect()
    }

    #[test]
    fn split_balances_events_and_seeds_prefixes() {
        // 12 frames × 20 events: 4 parts of exactly 3 frames each.
        let frames: Vec<Vec<FullEvent>> = (0..12)
            .map(|f| (f * 20..f * 20 + 20).map(|s| ev(s, (s % 4) as u16, 12)).collect())
            .collect();
        let store = store_of(&frames);
        let frags = split_fragments(store.frames(), 4);
        assert_eq!(frags.len(), 4);
        assert_eq!(frags.iter().map(|f| f.events).sum::<u64>(), 240);
        for f in &frags {
            assert_eq!(f.events, 60, "even frames split evenly");
        }
        assert_eq!(frags[0].seed.events_before, 0);
        assert_eq!(frags[2].seed.events_before, 120);
        assert_eq!(frags[2].seed.frames_before, 6);
        assert_eq!(frags[2].seed.max_stamp_before, Some(119));
        assert_eq!(frags[2].seed.core_bitmap_before, Some(0b1111));
        assert_eq!(frags[2].seed.payload_bytes_before, Some(120 * 12));
        // Fragments tile the stream contiguously.
        assert_eq!(frags[0].bytes.start, 0);
        for w in frags.windows(2) {
            assert_eq!(w[0].bytes.end, w[1].bytes.start);
            assert_eq!(w[0].frames.end, w[1].frames.start);
        }
        assert_eq!(frags[3].bytes.end, store.bytes().len());
        // Each fragment decodes independently.
        let decoded = decode(&store, &frags[1]);
        assert_eq!(decoded.len(), 60);
        assert_eq!(decoded[0].stamp, 60);
    }

    #[test]
    fn split_handles_fewer_frames_than_parts() {
        let store = store_of(&[(0..7).map(|s| ev(s, 0, 8)).collect::<Vec<_>>()]);
        let frags = split_fragments(store.frames(), 8);
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].events, 7);
        assert!(split_fragments(&[], 4).is_empty());
    }

    #[test]
    fn split_balances_uneven_frames_within_one_frame() {
        // Frame sizes 1, 1, 50, 1, 1, 50, 1, 1 — boundaries may only land
        // on frame edges, so each fragment's share must stay within one
        // frame of ideal.
        let sizes = [1usize, 1, 50, 1, 1, 50, 1, 1];
        let mut stamp = 0u64;
        let frames: Vec<Vec<FullEvent>> = sizes
            .iter()
            .map(|&n| {
                (0..n)
                    .map(|_| {
                        stamp += 1;
                        ev(stamp, 0, 8)
                    })
                    .collect()
            })
            .collect();
        let store = store_of(&frames);
        let frags = split_fragments(store.frames(), 2);
        assert!(frags.len() <= 2);
        assert_eq!(frags.iter().map(|f| f.events).sum::<u64>(), 106);
        let max_frame = 50u64;
        let ideal = 106u64 / 2;
        for f in &frags {
            assert!(
                f.events <= ideal + max_frame,
                "fragment of {} events exceeds ideal {ideal} by more than one frame",
                f.events
            );
        }
    }

    #[test]
    fn encode_stream_round_trips_through_fragments() {
        let events: Vec<FullEvent> = (0..123).map(|s| ev(s, (s % 3) as u16, 9)).collect();
        let store = TraceStore::from_bytes(encode_stream(&events, 25));
        assert_eq!(store.frames().len(), 5);
        let frags = split_fragments(store.frames(), 3);
        let round: Vec<FullEvent> = frags.iter().flat_map(|f| decode(&store, f)).collect();
        assert_eq!(round, events);
    }
}

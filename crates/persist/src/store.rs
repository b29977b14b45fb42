//! The one BTSF reader: a random-access, defect-tolerant frame directory.
//!
//! [`TraceStore`] opens a frame file through a read-only memory map
//! ([`btrace_vmem::FileMap`]) and builds a **frame directory** in O(frames):
//! offsets, lengths, header fields, and the `FIDX` footer of every frame —
//! no event is decoded and no checksum verified until a reader actually
//! touches a frame. The directory is what lets predicates prune (a frame
//! whose footer proves it cannot contribute is never faulted in) and what
//! [`split_fragments`](crate::split_fragments) cuts into worker fragments.
//!
//! Corruption is a *per-frame* fact here, never a process-wide one:
//!
//! * structural damage (bad magic, a length header pointing outside the
//!   file, a truncated tail) is recorded as a [`FrameDefect`] during the
//!   directory scan, and the scanner resyncs on the next checksummed frame
//!   so intact frames beyond the damage stay queryable;
//! * content damage (checksum mismatch, body overrun, footer lies) is
//!   caught when [`TraceStore::decode_frame`] verifies the frame, again as
//!   a typed defect for that frame only.
//!
//! The strict [`decode_frames`] is this reader with zero tolerance: the same
//! directory scan and the same per-frame verify-and-decode over a borrowed
//! slice, failing on the first defect either reports.
//!
//! Nothing in this module panics on hostile bytes — the corruption battery
//! in `tests/query.rs` flips bits everywhere and asserts exactly that.

use std::io;
use std::path::Path;

use btrace_core::sink::FullEvent;
use btrace_vmem::FileMap;

use crate::stream::{
    decode_events, fnv, FOOTER_BYTES, FOOTER_MAGIC, FRAME_FLAG_COMPRESSED, FRAME_MAGIC,
};

/// The decoded per-frame index footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct FrameIndex {
    /// Smallest stamp in the frame; `u64::MAX` for an empty frame.
    pub min_stamp: u64,
    /// Largest stamp in the frame; 0 for an empty frame.
    pub max_stamp: u64,
    /// Folded 64-bit core bitmap (bit `min(core, 63)`).
    pub core_bitmap: u64,
    /// Event count (mirrors the frame header).
    pub event_count: u32,
    /// Sum of raw payload lengths.
    pub payload_bytes: u64,
}

/// What kind of damage a [`FrameDefect`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DefectKind {
    /// Bytes at the expected frame boundary do not start with `BTSF`.
    BadMagic,
    /// The length header points outside the file, or the file ends inside
    /// a frame (mid-frame / mid-footer truncation).
    Truncated,
    /// The frame's FNV checksum does not cover its bytes.
    ChecksumMismatch,
    /// The declared events do not tile the body (overrun or trailing junk
    /// that is not a footer).
    BodyOverrun,
    /// The footer disagrees with the frame (count mismatch, bad magic at
    /// the footer offset of a revision-2 frame, or a missing mandatory
    /// footer).
    FooterMismatch,
}

/// One frame's damage report. Produced either by the directory scan
/// (structural) or by [`TraceStore::decode_frame`] (content).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct FrameDefect {
    /// Directory position the defect applies to (for structural damage:
    /// the position the next frame would have had).
    pub frame: usize,
    /// Byte offset in the file where the damage was detected.
    pub offset: usize,
    /// Damage classification.
    pub kind: DefectKind,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for FrameDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frame {} at offset {}: {:?} ({})",
            self.frame, self.offset, self.kind, self.detail
        )
    }
}

impl From<FrameDefect> for io::Error {
    fn from(defect: FrameDefect) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, defect.to_string())
    }
}

/// One directory entry: where a frame lives and what its header and footer
/// promise, gathered without decoding events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct StoreFrame {
    /// Byte offset of the frame start.
    pub offset: usize,
    /// Whole frame length (magic through crc).
    pub len: usize,
    /// Frame sequence number.
    pub seq: u64,
    /// Event count (version flag masked off).
    pub events: u32,
    /// Whether the event section is delta/varint compressed (revision 2).
    pub compressed: bool,
    /// Index footer, when present and self-consistent.
    pub index: Option<FrameIndex>,
}

/// Random-access, defect-tolerant reader over one BTSF artifact.
#[derive(Debug)]
pub struct TraceStore {
    map: FileMap,
    frames: Vec<StoreFrame>,
    defects: Vec<FrameDefect>,
}

impl TraceStore {
    /// Memory-maps `path` and builds the frame directory.
    ///
    /// Corrupt regions become [`FrameDefect`]s, not errors — the only
    /// errors here are real I/O failures opening the file.
    ///
    /// # Errors
    ///
    /// Propagates `FileMap::open` failures (missing file, permissions).
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::from_map(FileMap::open(path.as_ref())?))
    }

    /// Builds a store over an in-memory stream (tests, re-framed `.btd`
    /// dumps).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Self::from_map(FileMap::from_vec(bytes))
    }

    fn from_map(map: FileMap) -> Self {
        let (frames, defects) = scan_directory(map.bytes());
        Self { map, frames, defects }
    }

    /// The underlying file bytes.
    pub fn bytes(&self) -> &[u8] {
        self.map.bytes()
    }

    /// The frame directory, in file order.
    pub fn frames(&self) -> &[StoreFrame] {
        &self.frames
    }

    /// Structural defects found while building the directory (content
    /// defects surface per frame from [`TraceStore::decode_frame`]).
    pub fn defects(&self) -> &[FrameDefect] {
        &self.defects
    }

    /// Sum of header event counts across the directory.
    pub fn total_events(&self) -> u64 {
        self.frames.iter().map(|f| f.events as u64).sum()
    }

    /// Fully decodes directory entry `idx`: checksum first, then the event
    /// section, then footer consistency. Every failure mode is a typed
    /// [`FrameDefect`] scoped to this frame.
    ///
    /// # Errors
    ///
    /// The defect describing why this frame's bytes cannot be trusted.
    pub fn decode_frame(&self, idx: usize) -> Result<Vec<FullEvent>, FrameDefect> {
        decode_entry(self.map.bytes(), idx, &self.frames[idx])
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamFrame {
    /// Frame sequence number assigned by the encode stage.
    pub seq: u64,
    /// The batch's events.
    pub events: Vec<FullEvent>,
}

/// Decodes every frame in `bytes` (the inverse of
/// [`encode_frame`](crate::encode_frame) /
/// [`encode_frame_with`](crate::encode_frame_with) — both revisions, freely
/// interleaved, legacy footer-less frames included).
///
/// This is the [`TraceStore`] reader with zero tolerance: the directory is
/// built over the borrowed slice and every entry goes through the same
/// verify-and-decode as [`TraceStore::decode_frame`].
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on the first defect: bad magic,
/// truncation, checksum mismatch, body overrun, or a footer mismatch — a
/// torn stream tail is corruption, not silence.
pub fn decode_frames(bytes: &[u8]) -> io::Result<Vec<StreamFrame>> {
    let (frames, defects) = scan_directory(bytes);
    if let Some(defect) = defects.into_iter().next() {
        return Err(defect.into());
    }
    frames
        .iter()
        .enumerate()
        .map(|(idx, entry)| {
            Ok(StreamFrame { seq: entry.seq, events: decode_entry(bytes, idx, entry)? })
        })
        .collect()
}

/// Verifies and decodes directory entry `idx` of `bytes`.
fn decode_entry(
    bytes: &[u8],
    idx: usize,
    entry: &StoreFrame,
) -> Result<Vec<FullEvent>, FrameDefect> {
    let frame = &bytes[entry.offset..entry.offset + entry.len];
    let defect = |kind: DefectKind, detail: &str| FrameDefect {
        frame: idx,
        offset: entry.offset,
        kind,
        detail: detail.to_string(),
    };
    if !checksum_ok(frame) {
        return Err(defect(DefectKind::ChecksumMismatch, "frame checksum mismatch"));
    }
    let mut r = &frame[20..entry.len - 8];
    let events = decode_events(&mut r, entry.events as usize, entry.compressed)
        .map_err(|e| defect(DefectKind::BodyOverrun, &e.to_string()))?;
    // Footer-bearing frames leave exactly one index footer after the
    // events; footer-less frames (written before the footer existed) leave
    // nothing. Compressed frames always carry a footer by construction.
    if entry.compressed && r.is_empty() {
        return Err(defect(DefectKind::FooterMismatch, "compressed frame missing footer"));
    }
    if !r.is_empty() {
        if r.len() != FOOTER_BYTES || &r[..4] != FOOTER_MAGIC {
            return Err(defect(DefectKind::BodyOverrun, "frame body overrun"));
        }
        let footer_count = u32::from_le_bytes(r[28..32].try_into().expect("4 bytes"));
        if footer_count != entry.events {
            return Err(defect(DefectKind::FooterMismatch, "frame footer count mismatch"));
        }
    }
    Ok(events)
}

/// Whether a whole frame's trailing FNV checksum covers the bytes before it.
fn checksum_ok(frame: &[u8]) -> bool {
    let (covered, crc) = frame.split_at(frame.len() - 8);
    fnv(covered) == u64::from_le_bytes(crc.try_into().expect("8 bytes"))
}

/// Tolerant O(frames) directory scan: structural damage is recorded and
/// skipped by resyncing on the next frame whose checksum proves it real.
fn scan_directory(bytes: &[u8]) -> (Vec<StoreFrame>, Vec<FrameDefect>) {
    let mut frames = Vec::new();
    let mut defects = Vec::new();
    let mut offset = 0usize;
    while offset < bytes.len() {
        match probe_frame(bytes, offset) {
            Ok(entry) => {
                let len = entry.len;
                frames.push(entry);
                offset += len;
            }
            Err((kind, detail)) => {
                defects.push(FrameDefect {
                    frame: frames.len(),
                    offset,
                    kind,
                    detail: detail.to_string(),
                });
                match resync(bytes, offset + 1) {
                    Some(next) => offset = next,
                    None => break,
                }
            }
        }
    }
    (frames, defects)
}

/// Reads one frame's directory entry at `offset`, structurally validating
/// the header (magic + length) but not the contents.
fn probe_frame(bytes: &[u8], offset: usize) -> Result<StoreFrame, (DefectKind, &'static str)> {
    let rest = &bytes[offset..];
    if rest.len() < 8 {
        return Err((DefectKind::Truncated, "file ends inside a frame header"));
    }
    if &rest[..4] != FRAME_MAGIC {
        return Err((DefectKind::BadMagic, "bad frame magic"));
    }
    let body_len = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes")) as usize;
    if body_len < 20 {
        return Err((DefectKind::Truncated, "frame shorter than its fixed fields"));
    }
    if rest.len() < 8 + body_len {
        return Err((DefectKind::Truncated, "length header points past end of file"));
    }
    let len = 8 + body_len;
    let seq = u64::from_le_bytes(rest[8..16].try_into().expect("8 bytes"));
    let raw_count = u32::from_le_bytes(rest[16..20].try_into().expect("4 bytes"));
    let compressed = raw_count & FRAME_FLAG_COMPRESSED != 0;
    let events = raw_count & !FRAME_FLAG_COMPRESSED;
    let index = probe_footer(&rest[..len], events, compressed);
    Ok(StoreFrame { offset, len, seq, events, compressed, index })
}

/// Parses the index footer at its fixed tail offset, validating it against
/// the frame header (magic, event count, and — for plain frames — the
/// body-length arithmetic `12 + 18·count + payload_bytes + footer + crc ==
/// body_len`). Returns `None` for legacy footer-less frames.
fn probe_footer(frame: &[u8], header_count: u32, compressed: bool) -> Option<FrameIndex> {
    // magic(4) + body_len(4) + seq(8) + count(4) + footer + crc(8)
    if frame.len() < 8 + 12 + FOOTER_BYTES + 8 {
        return None;
    }
    let footer = &frame[frame.len() - 8 - FOOTER_BYTES..frame.len() - 8];
    if &footer[..4] != FOOTER_MAGIC {
        return None;
    }
    let min_stamp = u64::from_le_bytes(footer[4..12].try_into().expect("8 bytes"));
    let max_stamp = u64::from_le_bytes(footer[12..20].try_into().expect("8 bytes"));
    let core_bitmap = u64::from_le_bytes(footer[20..28].try_into().expect("8 bytes"));
    let event_count = u32::from_le_bytes(footer[28..32].try_into().expect("4 bytes"));
    let payload_bytes = u64::from_le_bytes(footer[32..40].try_into().expect("8 bytes"));
    if event_count != header_count {
        return None;
    }
    // A legacy frame whose last event bytes merely *look* like a footer
    // cannot also satisfy the length equation, because the pseudo-footer's
    // 40 bytes would then be counted twice. Compressed frames have no fixed
    // per-event width for such an equation — and need none: the version bit
    // only exists in revision-2 writers, which always emit a real footer, so
    // the tail 40 bytes are unambiguous.
    if !compressed {
        let expected_len =
            8 + 12 + 18 * event_count as usize + payload_bytes as usize + FOOTER_BYTES + 8;
        if expected_len != frame.len() {
            return None;
        }
    }
    Some(FrameIndex { min_stamp, max_stamp, core_bitmap, event_count, payload_bytes })
}

/// Finds the next plausible frame start at or after `from`: a `BTSF` magic
/// whose frame is structurally whole *and* passes its checksum (so random
/// magic bytes inside a corrupt region cannot fake a resync point).
fn resync(bytes: &[u8], from: usize) -> Option<usize> {
    let mut at = from;
    while at + 4 <= bytes.len() {
        let rel = bytes[at..].windows(4).position(|w| w == FRAME_MAGIC)?;
        let cand = at + rel;
        if let Ok(entry) = probe_frame(bytes, cand) {
            if checksum_ok(&bytes[cand..cand + entry.len]) {
                return Some(cand);
            }
        }
        at = cand + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::encode_stream_with;
    use crate::FrameEncoding;

    fn ev(stamp: u64, core: u16, payload: usize) -> FullEvent {
        FullEvent { stamp, core, tid: 40 + core as u32, payload: vec![0xEE; payload] }
    }

    fn sample_stream(encoding: FrameEncoding) -> Vec<u8> {
        let events: Vec<FullEvent> = (0..120).map(|s| ev(s, (s % 4) as u16, 9)).collect();
        encode_stream_with(&events, 24, encoding)
    }

    #[test]
    fn directory_matches_scan_on_healthy_streams() {
        for encoding in [FrameEncoding::Plain, FrameEncoding::Compressed] {
            let bytes = sample_stream(encoding);
            let store = TraceStore::from_bytes(bytes.clone());
            assert!(store.defects().is_empty());
            assert_eq!(store.frames().len(), 5);
            assert_eq!(store.total_events(), 120);
            for (i, f) in store.frames().iter().enumerate() {
                assert_eq!(f.seq, i as u64);
                assert_eq!(f.compressed, encoding == FrameEncoding::Compressed);
                assert!(f.index.is_some());
                let events = store.decode_frame(i).expect("healthy frame decodes");
                assert_eq!(events.len(), 24);
            }
        }
    }

    #[test]
    fn directory_reads_headers_and_footers_without_decoding() {
        let frames = [
            (0..5).map(|i| ev(i, (i % 2) as u16, 10 + i as usize)).collect::<Vec<_>>(),
            vec![],
            (5..12).map(|i| ev(i, 3, 8)).collect(),
        ];
        let mut bytes = Vec::new();
        for (seq, events) in frames.iter().enumerate() {
            bytes.extend_from_slice(&crate::encode_frame(seq as u64, events));
        }
        let store = TraceStore::from_bytes(bytes);
        let dir = store.frames();
        assert_eq!(dir.len(), 3);
        assert_eq!(dir[0].seq, 0);
        assert_eq!(dir[0].events, 5);
        let idx = dir[0].index.expect("footer present");
        assert_eq!(idx.min_stamp, 0);
        assert_eq!(idx.max_stamp, 4);
        assert_eq!(idx.core_bitmap, 0b11);
        assert_eq!(idx.payload_bytes, (10..15).sum::<usize>() as u64);
        let empty = dir[1].index.expect("footer present");
        assert_eq!(empty.event_count, 0);
        assert_eq!(empty.min_stamp, u64::MAX);
        assert_eq!(dir[2].index.unwrap().core_bitmap, 0b1000);
        // Byte ranges tile the stream exactly.
        assert_eq!(dir[0].offset, 0);
        assert_eq!(dir[2].offset + dir[2].len, store.bytes().len());
    }

    #[test]
    fn directory_accepts_legacy_footerless_frames() {
        // Hand-build a footer-less frame exactly as the old encoder did.
        let events = [ev(7, 1, 16), ev(8, 1, 16)];
        let mut body = Vec::new();
        body.extend_from_slice(&3u64.to_le_bytes());
        body.extend_from_slice(&(events.len() as u32).to_le_bytes());
        for e in &events {
            body.extend_from_slice(&e.stamp.to_le_bytes());
            body.extend_from_slice(&e.core.to_le_bytes());
            body.extend_from_slice(&e.tid.to_le_bytes());
            body.extend_from_slice(&(e.payload.len() as u32).to_le_bytes());
            body.extend_from_slice(&e.payload);
        }
        let mut frame = Vec::new();
        frame.extend_from_slice(FRAME_MAGIC);
        frame.extend_from_slice(&((body.len() + 8) as u32).to_le_bytes());
        frame.extend_from_slice(&body);
        let crc = fnv(&frame);
        frame.extend_from_slice(&crc.to_le_bytes());

        let store = TraceStore::from_bytes(frame.clone());
        assert_eq!(store.frames().len(), 1);
        assert_eq!(store.frames()[0].seq, 3);
        assert_eq!(store.frames()[0].events, 2);
        assert!(store.frames()[0].index.is_none(), "legacy frame has no footer");
        // And the legacy frame still fully decodes, tolerant and strict.
        assert_eq!(store.decode_frame(0).unwrap(), events);
        assert_eq!(decode_frames(&frame).unwrap()[0].events, events);
    }

    #[test]
    fn body_corruption_is_one_frames_defect() {
        let mut bytes = sample_stream(FrameEncoding::Compressed);
        let store = TraceStore::from_bytes(bytes.clone());
        let target = store.frames()[2];
        bytes[target.offset + 25] ^= 0xFF;
        let store = TraceStore::from_bytes(bytes);
        assert_eq!(store.frames().len(), 5, "structure intact, all frames visible");
        let err = store.decode_frame(2).unwrap_err();
        assert_eq!(err.kind, DefectKind::ChecksumMismatch);
        for i in [0usize, 1, 3, 4] {
            assert!(store.decode_frame(i).is_ok(), "frame {i} must stay readable");
        }
    }

    #[test]
    fn length_corruption_resyncs_to_later_frames() {
        let mut bytes = sample_stream(FrameEncoding::Plain);
        let clean = TraceStore::from_bytes(bytes.clone());
        let target = clean.frames()[1];
        // Wreck frame 1's length header: frames 2.. are only reachable by
        // resync.
        bytes[target.offset + 4..target.offset + 8].copy_from_slice(&0xFFFF_FF00u32.to_le_bytes());
        let store = TraceStore::from_bytes(bytes);
        assert_eq!(store.defects().len(), 1);
        assert_eq!(store.defects()[0].kind, DefectKind::Truncated);
        assert_eq!(store.frames().len(), 4, "frames 0, 2, 3, 4 survive");
        assert!(store.frames().iter().all(|f| f.seq != 1));
    }

    #[test]
    fn truncated_tail_is_a_defect_with_prefix_intact() {
        let bytes = sample_stream(FrameEncoding::Compressed);
        let store = TraceStore::from_bytes(bytes[..bytes.len() - 10].to_vec());
        assert_eq!(store.frames().len(), 4);
        assert_eq!(store.defects().len(), 1);
        assert_eq!(store.defects()[0].kind, DefectKind::Truncated);
    }

    #[test]
    fn empty_file_is_empty_not_an_error() {
        let store = TraceStore::from_bytes(Vec::new());
        assert!(store.frames().is_empty());
        assert!(store.defects().is_empty());
    }
}

//! Fleet snapshot/restore: versioned session persistence for warm
//! restarts.
//!
//! A [`FleetImage`] is a point-in-time capture of every live session in a
//! [`crate::FleetEngine`] — trip id, full [`ScorerState`], any
//! not-yet-scored pending segments, the `ending` flag, and the session's
//! idle age (how long since its last event, so TTL/LRU ordering survives
//! the restart even though `Instant`s do not serialize). Taking one
//! quiesces each shard: the shard finishes every event already queued
//! ahead of the snapshot request, then replies with clones of its live
//! sessions, oldest first.
//!
//! The binary format is the workspace's standard checksummed envelope
//! ([`causaltad::seal_envelope`]/[`causaltad::open_envelope`], shared with
//! the session codec; little-endian): magic `TADF`, version u16, u64
//! payload length, payload (shard count, session count, then per-session
//! records embedding each state as a length-prefixed
//! [`causaltad::state_to_bytes`] blob), and a trailing FNV-1a 64 checksum
//! of the payload. Decoding hostile bytes returns a typed
//! [`SnapshotCodecError`]; no input can panic the decoder.
//!
//! A restored engine resumes scoring **bit-identically**: restoring a
//! snapshot into a fresh engine and replaying the remaining events yields
//! exactly the scores of an uninterrupted run (the umbrella `fleet.rs`
//! integration test enforces this).

use bytes::{Buf, BufMut, Bytes};
use causaltad::{
    open_envelope_summing, read_state, seal_envelope_into, write_state, EnvelopeError, ScorerState,
    StateCodecError, SummingReader,
};

use crate::event::TripId;

const MAGIC: &[u8; 4] = b"TADF";
const VERSION: u16 = 1;

/// One live session captured by [`crate::FleetEngine::snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct SessionRecord {
    /// The trip this session belongs to.
    pub id: TripId,
    /// The full scorer state at capture time.
    pub state: ScorerState,
    /// Segments received but not yet scored (empty at every quiesce point;
    /// kept in the format so a future mid-batch capture stays decodable).
    pub pending: Vec<u32>,
    /// A `TripEnd` had arrived but the trip was not yet finalised.
    pub ending: bool,
    /// How long the session had been idle at capture time, in
    /// microseconds. Restore subtracts this from its own clock so TTL
    /// eviction and LRU ordering carry across the restart.
    pub idle_micros: u64,
}

/// A point-in-time capture of every live session of a fleet engine.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FleetImage {
    /// Shard count of the engine that took the snapshot (informational —
    /// restore re-partitions sessions for the new engine's shard count).
    pub num_shards: u32,
    /// Every live session, grouped by source shard, oldest first within
    /// each group.
    pub sessions: Vec<SessionRecord>,
}

impl FleetImage {
    /// Concatenates per-backend captures into one fleet-wide image — the
    /// snapshot half of cross-process sharding: a router tier captures
    /// every backend's [`FleetImage`] over the wire and merges them into
    /// the single artifact a warm restart starts from.
    ///
    /// Sessions are kept in iteration order (callers that need a
    /// canonical blob should pass the parts in a fixed backend order);
    /// `num_shards` becomes the summed shard capacity of the parts —
    /// informational only, since restore re-partitions for the target
    /// engine anyway. Callers are responsible for the parts holding
    /// disjoint trip ids (distinct backends own distinct trips);
    /// duplicates are kept as-is and will be rejected per-trip at
    /// restore time.
    pub fn merge(parts: impl IntoIterator<Item = FleetImage>) -> FleetImage {
        let mut out = FleetImage::default();
        for part in parts {
            out.num_shards += part.num_shards;
            out.sessions.extend(part.sessions);
        }
        out.num_shards = out.num_shards.max(1);
        out
    }

    /// Splits this image into `parts` sub-images, sending each session to
    /// the part `route(trip id)` names — the restore half of
    /// cross-process sharding: a merged fleet capture is re-partitioned
    /// with the router's trip→backend function so each new backend
    /// resumes exactly the sessions whose future events will be routed to
    /// it. Relative session order is preserved within each part, and
    /// every part inherits this image's (informational) `num_shards`.
    ///
    /// # Panics
    /// When `parts` is zero or `route` returns an index `>= parts` — both
    /// are caller bugs in the partitioning function, not data errors.
    pub fn partition_by(
        self,
        parts: usize,
        mut route: impl FnMut(TripId) -> usize,
    ) -> Vec<FleetImage> {
        assert!(parts > 0, "cannot partition a fleet image into zero parts");
        let mut out: Vec<FleetImage> = (0..parts)
            .map(|_| FleetImage { num_shards: self.num_shards, sessions: Vec::new() })
            .collect();
        for rec in self.sessions {
            let part = route(rec.id);
            assert!(part < parts, "route({}) returned {part}, but there are {parts} parts", rec.id);
            out[part].sessions.push(rec);
        }
        out
    }
}

/// Errors produced when decoding a serialized [`FleetImage`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotCodecError {
    /// Magic bytes did not match `TADF`.
    BadMagic,
    /// Unsupported snapshot-format version.
    BadVersion(u16),
    /// Input ended before the named field could be read.
    Truncated(&'static str),
    /// The payload checksum did not match (bit rot or tampering).
    ChecksumMismatch,
    /// The payload parsed but violated a structural invariant.
    Malformed(&'static str),
    /// An embedded session state blob failed to decode.
    BadSession {
        /// Position of the offending record in the session list.
        index: usize,
        /// The underlying state-codec failure.
        source: StateCodecError,
    },
}

impl std::fmt::Display for SnapshotCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotCodecError::BadMagic => write!(f, "bad snapshot magic bytes"),
            SnapshotCodecError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotCodecError::Truncated(what) => write!(f, "truncated snapshot at {what}"),
            SnapshotCodecError::ChecksumMismatch => write!(f, "snapshot payload checksum mismatch"),
            SnapshotCodecError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            SnapshotCodecError::BadSession { index, source } => {
                write!(f, "session record {index} failed to decode: {source}")
            }
        }
    }
}

impl std::error::Error for SnapshotCodecError {}

impl From<EnvelopeError> for SnapshotCodecError {
    fn from(e: EnvelopeError) -> Self {
        match e {
            EnvelopeError::BadMagic => SnapshotCodecError::BadMagic,
            EnvelopeError::BadVersion(v) => SnapshotCodecError::BadVersion(v),
            EnvelopeError::Truncated(what) => SnapshotCodecError::Truncated(what),
            EnvelopeError::ChecksumMismatch => SnapshotCodecError::ChecksumMismatch,
            EnvelopeError::TrailingBytes => {
                SnapshotCodecError::Malformed("trailing bytes after checksum")
            }
        }
    }
}

/// Why a live snapshot (full, checkpoint, delta, or drain capture) could
/// not be taken.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The shard's worker is gone (it panicked or the engine is shutting
    /// down), so its sessions cannot be captured.
    ShardUnavailable {
        /// Index of the unresponsive shard.
        shard: usize,
    },
    /// A delta was requested before any [`crate::FleetEngine::checkpoint`]
    /// armed delta tracking — there is no base for the delta to extend.
    NoCheckpoint,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::ShardUnavailable { shard } => {
                write!(f, "shard {shard} is unavailable; cannot capture its sessions")
            }
            SnapshotError::NoCheckpoint => {
                write!(f, "no checkpoint taken yet; a delta has no base to extend")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Smallest possible encoded [`SessionRecord`] (empty pending, whose state
/// blob length would still be >= 0); bounding record counts by it caps
/// decoder allocations at the actual input size. Shared with the delta
/// codec ([`crate::delta`]), which embeds the same record layout.
pub(crate) const MIN_RECORD_LEN: usize = 25;

/// Appends one session record in the shared TADF/TADD record layout.
pub(crate) fn encode_record(rec: &SessionRecord, out: &mut Vec<u8>) {
    write_record(out, rec.id, rec.idle_micros, rec.ending, rec.pending.iter().copied(), &rec.state);
}

/// Appends one session record in the shared `TADF`/`TADD` record layout
/// straight from borrowed parts — the one record encoder, used by the
/// image and delta codecs and by shards encoding live sessions in place
/// at a quiesce point (no [`SessionRecord`] clone). Layout
/// (little-endian): trip id u64, idle micros u64, ending u8, pending
/// count u32 and segments u32 each, state length u32, then the
/// [`causaltad::state_to_bytes`] blob.
pub fn write_record(
    out: &mut Vec<u8>,
    id: TripId,
    idle_micros: u64,
    ending: bool,
    pending: impl IntoIterator<Item = u32>,
    state: &ScorerState,
) {
    out.put_u64_le(id);
    out.put_u64_le(idle_micros);
    out.put_u8(ending as u8);
    let count_at = out.len();
    out.put_u32_le(0);
    let mut count = 0u32;
    for seg in pending {
        out.put_u32_le(seg);
        count += 1;
    }
    out[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
    let len_at = out.len();
    out.put_u32_le(0);
    write_state(state, out);
    let state_len = (out.len() - len_at - 4) as u32;
    out[len_at..len_at + 4].copy_from_slice(&state_len.to_le_bytes());
}

/// Opens one `TADF`/`TADD` envelope and decodes its payload with `parse`,
/// verifying the envelope checksum in the same pass that parses the
/// payload (the `TADC` states embedded in the records fold theirs into it
/// too). A corrupt payload is a checksum mismatch whatever its parse made
/// of it; the payload must be consumed exactly.
pub(crate) fn decode_sealed<T>(
    magic: &[u8; 4],
    version: u16,
    bytes: &[u8],
    parse: impl FnOnce(&mut SummingReader<'_>) -> Result<T, SnapshotCodecError>,
) -> Result<T, SnapshotCodecError> {
    let (mut payload, stored) = open_envelope_summing(magic, version, bytes)?;
    let parsed = parse(&mut payload);
    payload.verify(stored)?;
    let value = parsed?;
    if payload.remaining() != 0 {
        return Err(SnapshotCodecError::Malformed("trailing payload bytes"));
    }
    Ok(value)
}

/// Decodes one session record in the shared TADF/TADD record layout;
/// `index` is the record's position in its list, carried into
/// [`SnapshotCodecError::BadSession`] for diagnostics. The embedded state
/// is parsed (and its checksum verified) in place.
pub(crate) fn decode_record(
    payload: &mut SummingReader<'_>,
    index: usize,
) -> Result<SessionRecord, SnapshotCodecError> {
    if payload.remaining() < 8 + 8 + 1 + 4 {
        return Err(SnapshotCodecError::Truncated("record header"));
    }
    let id = payload.get_u64_le();
    let idle_micros = payload.get_u64_le();
    let ending = match payload.get_u8() {
        0 => false,
        1 => true,
        _ => return Err(SnapshotCodecError::Malformed("ending flag")),
    };
    let pending_len = payload.get_u32_le() as usize;
    if pending_len.checked_mul(4).is_none_or(|need| payload.remaining() < need) {
        return Err(SnapshotCodecError::Truncated("pending segments"));
    }
    let mut pending = Vec::with_capacity(pending_len);
    for _ in 0..pending_len {
        pending.push(payload.get_u32_le());
    }
    if payload.remaining() < 4 {
        return Err(SnapshotCodecError::Truncated("state length"));
    }
    let state_len = payload.get_u32_le() as usize;
    if payload.remaining() < state_len {
        return Err(SnapshotCodecError::Truncated("state blob"));
    }
    let state = read_state(payload, state_len)
        .map_err(|source| SnapshotCodecError::BadSession { index, source })?;
    Ok(SessionRecord { id, state, pending, ending, idle_micros })
}

/// Serialises a fleet image (the persistent artifact of a warm restart).
pub fn image_to_bytes(image: &FleetImage) -> Bytes {
    let mut out = Vec::with_capacity(64 + image.sessions.len() * 256);
    seal_envelope_into(MAGIC, VERSION, &mut out, |payload| {
        payload.put_u32_le(image.num_shards);
        payload.put_u32_le(image.sessions.len() as u32);
        for rec in &image.sessions {
            encode_record(rec, payload);
        }
    });
    Bytes::from(out)
}

/// Restores a fleet image serialized by [`image_to_bytes`]. The whole
/// input must be one snapshot (trailing bytes are rejected); decoding
/// never panics, whatever the input.
pub fn image_from_bytes(bytes: Bytes) -> Result<FleetImage, SnapshotCodecError> {
    decode_sealed(MAGIC, VERSION, &bytes, |payload| {
        if payload.remaining() < 8 {
            return Err(SnapshotCodecError::Truncated("session count"));
        }
        let num_shards = payload.get_u32_le();
        let count = payload.get_u32_le() as usize;
        // Bounding `count` by the smallest possible record caps the
        // allocation below at the actual input size. Checked math keeps
        // the guard honest on 32-bit targets too.
        if count.checked_mul(MIN_RECORD_LEN).is_none_or(|need| payload.remaining() < need) {
            return Err(SnapshotCodecError::Truncated("session records"));
        }
        let mut sessions = Vec::with_capacity(count);
        for index in 0..count {
            sessions.push(decode_record(payload, index)?);
        }
        Ok(FleetImage { num_shards, sessions })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use causaltad::checksum64;

    fn record(id: TripId, idle_micros: u64) -> SessionRecord {
        SessionRecord {
            id,
            state: ScorerState::from_parts(vec![0.25, -1.5, 3.0], 1.25, 2.5, -0.75, Some(4), 2, 1),
            pending: vec![7, 9],
            ending: false,
            idle_micros,
        }
    }

    fn image(n: usize) -> FleetImage {
        FleetImage {
            num_shards: 3,
            sessions: (0..n).map(|i| record(i as TripId, (n - i) as u64 * 1000)).collect(),
        }
    }

    #[test]
    fn image_roundtrips_exactly() {
        for n in [0, 1, 5] {
            let img = image(n);
            let blob = image_to_bytes(&img);
            let restored = image_from_bytes(blob.clone()).expect("decode");
            assert_eq!(restored, img);
            // Canonical encoding: re-encoding is byte-for-byte identical.
            assert_eq!(image_to_bytes(&restored).to_vec(), blob.to_vec());
        }
    }

    #[test]
    fn merge_and_partition_are_inverse_up_to_order() {
        let a = FleetImage { num_shards: 2, sessions: vec![record(0, 10), record(2, 30)] };
        let b = FleetImage { num_shards: 3, sessions: vec![record(1, 20), record(5, 50)] };
        let merged = FleetImage::merge([a.clone(), b.clone()]);
        assert_eq!(merged.num_shards, 5);
        assert_eq!(merged.sessions.len(), 4);
        // Route even ids to part 0, odd to part 1: partitioning preserves
        // relative order within each part and loses no session.
        let parts = merged.clone().partition_by(2, |id| (id % 2) as usize);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].sessions, vec![record(0, 10), record(2, 30)]);
        assert_eq!(parts[1].sessions, vec![record(1, 20), record(5, 50)]);
        assert!(parts.iter().all(|p| p.num_shards == merged.num_shards));
        // Empty input merges to the inert image.
        let empty = FleetImage::merge([]);
        assert_eq!(empty.num_shards, 1);
        assert!(empty.sessions.is_empty());
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn partition_into_zero_parts_is_a_caller_bug() {
        let _ = image(1).partition_by(0, |_| 0);
    }

    #[test]
    fn image_decode_rejects_corruption_without_panicking() {
        let blob = image_to_bytes(&image(3)).to_vec();

        let mut raw = blob.clone();
        raw[0] ^= 0xFF;
        assert_eq!(image_from_bytes(Bytes::from(raw)), Err(SnapshotCodecError::BadMagic));

        let mut raw = blob.clone();
        raw[4] = 0x7F;
        assert!(matches!(
            image_from_bytes(Bytes::from(raw)),
            Err(SnapshotCodecError::BadVersion(_))
        ));

        for cut in 0..blob.len() {
            assert!(image_from_bytes(Bytes::from(blob[..cut].to_vec())).is_err(), "cut={cut}");
        }

        for byte in 6..blob.len() {
            let mut raw = blob.clone();
            raw[byte] ^= 1;
            assert!(image_from_bytes(Bytes::from(raw)).is_err(), "byte={byte}");
        }

        let mut raw = blob.clone();
        raw.push(0);
        assert_eq!(
            image_from_bytes(Bytes::from(raw)),
            Err(SnapshotCodecError::Malformed("trailing bytes after checksum"))
        );
    }

    #[test]
    fn huge_crafted_lengths_error_instead_of_panicking() {
        // A payload length near u64::MAX must not wrap the bounds guard.
        let mut raw = Vec::new();
        raw.extend_from_slice(MAGIC);
        raw.extend_from_slice(&VERSION.to_le_bytes());
        raw.extend_from_slice(&u64::MAX.to_le_bytes());
        raw.extend_from_slice(&[0u8; 16]);
        assert_eq!(
            image_from_bytes(Bytes::from(raw)),
            Err(SnapshotCodecError::Truncated("payload"))
        );
        // Same for an absurd session count inside a checksummed payload.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u32.to_le_bytes()); // num_shards
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // count
        let mut raw = Vec::new();
        raw.extend_from_slice(MAGIC);
        raw.extend_from_slice(&VERSION.to_le_bytes());
        raw.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        raw.extend_from_slice(&payload);
        raw.extend_from_slice(&checksum64(&payload).to_le_bytes());
        assert_eq!(
            image_from_bytes(Bytes::from(raw)),
            Err(SnapshotCodecError::Truncated("session records"))
        );
    }

    #[test]
    fn embedded_state_errors_carry_their_index() {
        let img = image(2);
        let blob = image_to_bytes(&img).to_vec();
        // Corrupt the second record's embedded state magic, then re-seal
        // the envelope checksum so only the nested decode fails.
        let needle = b"TADC";
        let positions: Vec<usize> =
            (0..blob.len() - 3).filter(|&i| &blob[i..i + 4] == needle).collect();
        assert_eq!(positions.len(), 2);
        let mut raw = blob;
        raw[positions[1]] ^= 0xFF;
        let payload_start = 14;
        let payload_end = raw.len() - 8;
        let fixed = checksum64(&raw[payload_start..payload_end]);
        raw.splice(payload_end.., fixed.to_le_bytes());
        match image_from_bytes(Bytes::from(raw)) {
            Err(SnapshotCodecError::BadSession { index: 1, source: StateCodecError::BadMagic }) => {
            }
            other => panic!("expected BadSession at index 1, got {other:?}"),
        }
    }
}

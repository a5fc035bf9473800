//! Incremental fleet snapshots: a log-structured delta layer over the
//! full-image [`crate::FleetImage`] codec, so checkpoint cost scales with
//! **churn** (sessions touched since the last capture) rather than fleet
//! size.
//!
//! A chain starts from a **checkpoint** — a full [`FleetImage`] stamped
//! with an epoch by [`crate::FleetEngine::checkpoint`] — and grows by
//! [`FleetDelta`]s captured with [`crate::FleetEngine::delta`]: the
//! sessions dirtied since the previous capture (per-session dirty bits in
//! the session store) plus the ids removed since then (tombstones).
//! [`DeltaBase`] replays a chain back into the equivalent full image;
//! admission order is validated by the shared [`causaltad::DeltaChain`]
//! cursor, so a skipped, repeated, or cross-epoch delta is a typed
//! [`DeltaChainError`], never a silently wrong reconstruction.
//!
//! The binary format is the workspace's standard checksummed envelope:
//! magic `TADD`, version u16, then base epoch, sequence number, shard
//! count, the tombstoned trip ids, and the dirty sessions in the same
//! record layout as the `TADF` image codec. Decoding hostile bytes
//! returns a typed [`SnapshotCodecError`]; no input can panic the
//! decoder.
//!
//! A restore from a reconstructed image is **score-bit-identical** to a
//! restore from a full image taken at the same quiesce point: dirty
//! tracking over-approximates (a touched-but-unchanged session is
//! re-recorded, never skipped), and tombstones are replayed before
//! upserts so a remove-then-restart of the same trip id lands in the
//! rebuilt image exactly once, with its newest state.

use std::collections::HashMap;

use bytes::{Buf, BufMut, Bytes};
use causaltad::{seal_envelope_into, DeltaChain, DeltaChainError, DeltaId};

use crate::event::TripId;
use crate::snapshot::{
    decode_record, decode_sealed, encode_record, FleetImage, SessionRecord, SnapshotCodecError,
    MIN_RECORD_LEN,
};

const MAGIC: &[u8; 4] = b"TADD";
const VERSION: u16 = 1;

/// One increment of a delta-snapshot chain: everything that changed in a
/// fleet engine since the previous capture of the same chain.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FleetDelta {
    /// Epoch of the checkpoint image this delta extends.
    pub base_epoch: u64,
    /// 1-based position in the epoch's delta log.
    pub seq: u64,
    /// Shard count of the engine that captured the delta (informational,
    /// like [`FleetImage::num_shards`]).
    pub num_shards: u32,
    /// Trips whose sessions left the store since the previous capture
    /// (completed, evicted, or drained). Replayed before `sessions`, so a
    /// trip that ended and restarted within one interval survives as its
    /// new session.
    pub removed: Vec<TripId>,
    /// Sessions dirtied since the previous capture, oldest first. An id
    /// already present in the base is replaced; a new id is appended.
    pub sessions: Vec<SessionRecord>,
}

impl FleetDelta {
    /// This delta's chain identity (epoch + sequence number).
    pub fn id(&self) -> DeltaId {
        DeltaId { base_epoch: self.base_epoch, seq: self.seq }
    }
}

/// Lets [`DeltaBase::apply`] take a borrowed delta: the delta is cloned.
/// Pass it by value to fold it in without the copy.
impl From<&FleetDelta> for FleetDelta {
    fn from(delta: &FleetDelta) -> Self {
        delta.clone()
    }
}

/// Serialises a fleet delta (the incremental artifact of a checkpoint
/// chain).
pub fn delta_to_bytes(delta: &FleetDelta) -> Bytes {
    seal_delta(delta.id(), delta.num_shards, &delta.removed, delta.sessions.len(), |out| {
        out.reserve(delta.sessions.len() * 256);
        for rec in &delta.sessions {
            encode_record(rec, out);
        }
    })
}

/// The one `TADD` writer: the chain header, the tombstones, the record
/// count, then the `count` records that `records` appends in place (a
/// shard-encoded chunk or [`delta_to_bytes`]'s own encoding), sealed
/// without copying the payload.
pub(crate) fn seal_delta(
    id: DeltaId,
    num_shards: u32,
    removed: &[TripId],
    count: usize,
    records: impl FnOnce(&mut Vec<u8>),
) -> Bytes {
    let mut out = Vec::with_capacity(64 + removed.len() * 8);
    seal_envelope_into(MAGIC, VERSION, &mut out, |payload| {
        payload.put_u64_le(id.base_epoch);
        payload.put_u64_le(id.seq);
        payload.put_u32_le(num_shards);
        payload.put_u32_le(removed.len() as u32);
        for &id in removed {
            payload.put_u64_le(id);
        }
        payload.put_u32_le(count as u32);
        records(payload);
    });
    Bytes::from(out)
}

/// Restores a fleet delta serialized by [`delta_to_bytes`]. The whole
/// input must be one delta (trailing bytes are rejected); decoding never
/// panics, whatever the input.
pub fn delta_from_bytes(bytes: Bytes) -> Result<FleetDelta, SnapshotCodecError> {
    decode_sealed(MAGIC, VERSION, &bytes, |payload| {
        if payload.remaining() < 8 + 8 + 4 + 4 {
            return Err(SnapshotCodecError::Truncated("delta header"));
        }
        let base_epoch = payload.get_u64_le();
        let seq = payload.get_u64_le();
        let num_shards = payload.get_u32_le();
        let removed_len = payload.get_u32_le() as usize;
        if removed_len.checked_mul(8).is_none_or(|need| payload.remaining() < need) {
            return Err(SnapshotCodecError::Truncated("tombstones"));
        }
        let mut removed = Vec::with_capacity(removed_len);
        for _ in 0..removed_len {
            removed.push(payload.get_u64_le());
        }
        if payload.remaining() < 4 {
            return Err(SnapshotCodecError::Truncated("session count"));
        }
        let count = payload.get_u32_le() as usize;
        if count.checked_mul(MIN_RECORD_LEN).is_none_or(|need| payload.remaining() < need) {
            return Err(SnapshotCodecError::Truncated("session records"));
        }
        let mut sessions = Vec::with_capacity(count);
        for index in 0..count {
            sessions.push(decode_record(payload, index)?);
        }
        Ok(FleetDelta { base_epoch, seq, num_shards, removed, sessions })
    })
}

/// A checkpoint image plus the deltas applied onto it so far — the
/// restore side of a delta-snapshot chain. Feed it the chain in capture
/// order and [`DeltaBase::into_image`] yields the image a full snapshot
/// taken at the last delta's quiesce point would have produced (modulo
/// the idle clocks of untouched sessions, which a full capture would have
/// re-aged).
#[derive(Clone, Debug)]
pub struct DeltaBase {
    image: FleetImage,
    /// Trip id → position in `image.sessions`, kept in step across
    /// applies so a fold costs the delta's size, not the image's.
    index: HashMap<TripId, usize>,
    chain: DeltaChain,
}

impl DeltaBase {
    /// Starts a chain from the checkpoint `image` stamped with `epoch`
    /// (both come from [`crate::FleetEngine::checkpoint`]).
    pub fn new(image: FleetImage, epoch: u64) -> Self {
        let index = image.sessions.iter().enumerate().map(|(i, rec)| (rec.id, i)).collect();
        DeltaBase { image, index, chain: DeltaChain::new(epoch) }
    }

    /// Epoch of the checkpoint this chain extends.
    pub fn epoch(&self) -> u64 {
        self.chain.epoch()
    }

    /// How many deltas have been applied so far.
    pub fn applied(&self) -> u64 {
        self.chain.applied()
    }

    /// The current reconstruction.
    pub fn image(&self) -> &FleetImage {
        &self.image
    }

    /// Consumes the chain, returning the reconstructed image.
    pub fn into_image(self) -> FleetImage {
        self.image
    }

    /// Applies the next delta of the chain: tombstones first, then
    /// upserts (replace an existing id in place, append a new one).
    /// Records are moved into the reconstruction; a borrowed delta is
    /// cloned first.
    ///
    /// # Errors
    /// [`DeltaChainError`] when `delta` is not exactly the next delta of
    /// this chain (wrong epoch, or a skipped/repeated/reordered sequence
    /// number); the reconstruction is unchanged on error.
    pub fn apply(&mut self, delta: impl Into<FleetDelta>) -> Result<(), DeltaChainError> {
        let delta = delta.into();
        self.chain.admit(delta.id())?;
        self.remove(&delta.removed);
        for rec in delta.sessions {
            match self.index.get(&rec.id) {
                Some(&i) => self.image.sessions[i] = rec,
                None => {
                    self.index.insert(rec.id, self.image.sessions.len());
                    self.image.sessions.push(rec);
                }
            }
        }
        Ok(())
    }

    /// Drops the tombstoned sessions, keeping the survivors in order and
    /// re-pointing the index only for the ones that shifted.
    fn remove(&mut self, removed: &[TripId]) {
        let Some(first) = removed.iter().filter_map(|id| self.index.remove(id)).min() else {
            return;
        };
        let sessions = &mut self.image.sessions;
        let mut kept = first;
        for i in first..sessions.len() {
            // Removed ids are already gone from the index; a survivor
            // still maps to its old position.
            if self.index.get(&sessions[i].id) == Some(&i) {
                self.index.insert(sessions[i].id, kept);
                sessions.swap(kept, i);
                kept += 1;
            }
        }
        sessions.truncate(kept);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causaltad::ScorerState;

    fn record(id: TripId, tag: f32) -> SessionRecord {
        SessionRecord {
            id,
            state: ScorerState::from_parts(vec![tag], 0.0, 0.0, 0.0, None, 0, 0),
            pending: Vec::new(),
            ending: false,
            idle_micros: 0,
        }
    }

    fn ids(base: &DeltaBase) -> Vec<TripId> {
        base.image().sessions.iter().map(|rec| rec.id).collect()
    }

    #[test]
    fn delta_roundtrips_exactly() {
        for (removed, n) in [(vec![], 0usize), (vec![3, 9], 2), (vec![1], 0)] {
            let delta = FleetDelta {
                base_epoch: 4,
                seq: 2,
                num_shards: 3,
                removed,
                sessions: (0..n).map(|i| record(i as TripId, i as f32)).collect(),
            };
            let blob = delta_to_bytes(&delta);
            let decoded = delta_from_bytes(blob.clone()).expect("decode");
            assert_eq!(decoded, delta);
            // Canonical encoding: re-encoding is byte-for-byte identical.
            assert_eq!(delta_to_bytes(&decoded).to_vec(), blob.to_vec());
        }
    }

    #[test]
    fn apply_replays_tombstones_then_upserts_in_order() {
        let base_image = FleetImage {
            num_shards: 2,
            sessions: vec![record(1, 1.0), record(2, 2.0), record(3, 3.0)],
        };
        let mut base = DeltaBase::new(base_image, 5);
        // Delta 1: trip 2 left, trip 3 changed, trip 4 is new.
        base.apply(&FleetDelta {
            base_epoch: 5,
            seq: 1,
            num_shards: 2,
            removed: vec![2],
            sessions: vec![record(3, 3.5), record(4, 4.0)],
        })
        .unwrap();
        assert_eq!(ids(&base), vec![1, 3, 4]);
        assert_eq!(base.image().sessions[1], record(3, 3.5));
        // Delta 2: trip 3 ended and restarted within the interval — the
        // tombstone lands first, so the reborn session survives.
        base.apply(&FleetDelta {
            base_epoch: 5,
            seq: 2,
            num_shards: 2,
            removed: vec![3],
            sessions: vec![record(3, 3.9)],
        })
        .unwrap();
        assert_eq!(base.applied(), 2);
        assert_eq!(ids(&base), vec![1, 4, 3]);
        assert_eq!(base.image().sessions[2], record(3, 3.9));
    }

    /// The kept index stays in step with the image over a long chain of
    /// mixed removals, restarts, replacements and appends: every fold
    /// matches the retain-then-upsert reference rebuilt from scratch.
    #[test]
    fn kept_index_matches_a_rebuilt_fold_over_a_long_chain() {
        let mut reference: Vec<SessionRecord> = (0..40).map(|id| record(id, 0.0)).collect();
        let mut base = DeltaBase::new(FleetImage { num_shards: 1, sessions: reference.clone() }, 1);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        for seq in 1..=60u64 {
            let removed: Vec<TripId> = (0..next(6)).map(|_| next(70)).collect();
            let sessions: Vec<SessionRecord> =
                (0..next(9)).map(|_| record(next(70), seq as f32)).collect();
            reference.retain(|rec| !removed.contains(&rec.id));
            for rec in &sessions {
                match reference.iter().position(|r| r.id == rec.id) {
                    Some(i) => reference[i] = rec.clone(),
                    None => reference.push(rec.clone()),
                }
            }
            base.apply(FleetDelta { base_epoch: 1, seq, num_shards: 1, removed, sessions })
                .unwrap();
            assert_eq!(base.image().sessions, reference, "after delta {seq}");
        }
    }

    #[test]
    fn out_of_order_and_cross_epoch_deltas_are_rejected_typed() {
        let mut base = DeltaBase::new(FleetImage::default(), 9);
        let d1 = FleetDelta { base_epoch: 9, seq: 1, ..FleetDelta::default() };
        let d2 = FleetDelta { base_epoch: 9, seq: 2, ..FleetDelta::default() };
        // Skipping ahead, wrong epoch, then replaying an already-applied
        // delta: all typed, none mutate the reconstruction.
        assert_eq!(
            base.apply(&d2),
            Err(DeltaChainError::OutOfOrder { expected_seq: 1, found_seq: 2 })
        );
        assert_eq!(
            base.apply(&FleetDelta { base_epoch: 8, seq: 1, ..FleetDelta::default() }),
            Err(DeltaChainError::BaseMismatch { expected_epoch: 9, found_epoch: 8 })
        );
        base.apply(&d1).unwrap();
        assert_eq!(
            base.apply(&d1),
            Err(DeltaChainError::OutOfOrder { expected_seq: 2, found_seq: 1 })
        );
        base.apply(&d2).unwrap();
        assert_eq!(base.applied(), 2);
    }
}

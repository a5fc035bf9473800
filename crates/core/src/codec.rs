//! Binary persistence for trained CausalTAD models and live scorer
//! sessions.
//!
//! Two codecs live here:
//!
//! * **Model codec** ([`model_to_bytes`] / [`model_from_bytes`]) —
//!   serialises the configuration, every parameter tensor, and the
//!   precomputed scaling table, so a model trained offline can be shipped
//!   to an online-detection service. The road network is *not* embedded —
//!   the caller supplies it at load time (it defines the successor sets),
//!   and the codec verifies the vocabulary matches. Layout
//!   (little-endian): magic `TADM`, version u16, config block,
//!   scaling-table block (optional), then the [`ParamStore`] blob.
//! * **Session codec** ([`state_to_bytes`] / [`state_from_bytes`]) —
//!   serialises one in-flight [`ScorerState`] so a serving layer can
//!   persist live sessions across a restart (see `tad-serve`'s fleet
//!   snapshots, which embed these blobs). The blob is a standard
//!   checksummed envelope ([`seal_envelope`]/[`open_envelope`] from the
//!   shared [`crate::envelope`] module, also used by the fleet-snapshot
//!   and wire-frame codecs): magic `TADC`, version u16, u64
//!   payload length, payload (hidden row, score accumulators, last
//!   segment, time slot, segment count — fixed-size for a given hidden
//!   width), then a FNV-1a 64 checksum of the payload. Version 1 blobs
//!   (which carried a per-segment trace) decode to
//!   [`StateCodecError::BadVersion`]. Decoding hostile bytes returns a typed
//!   [`StateCodecError`]; no input can panic the decoder.
//!
//! [`ParamStore`]: tad_autodiff::ParamStore

use bytes::{Buf, BufMut, Bytes, BytesMut};
use tad_roadnet::RoadNetwork;

use crate::config::CausalTadConfig;
use crate::model::CausalTad;
use crate::online::ScorerState;
use crate::scaling::ScalingTable;

use crate::envelope::{
    open_envelope_slice, seal_envelope_into, EnvelopeError, SummingReader, ENVELOPE_OVERHEAD,
};

const MAGIC: &[u8; 4] = b"TADM";
const VERSION: u16 = 1;

const STATE_MAGIC: &[u8; 4] = b"TADC";
const STATE_VERSION: u16 = 2;

/// Errors produced when decoding a serialized model.
#[derive(Debug, PartialEq, Eq)]
pub enum ModelCodecError {
    /// Magic bytes did not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Input ended before the named field could be read.
    Truncated(&'static str),
    /// The parameter blob failed to decode.
    BadParams,
    /// The supplied road network's segment count does not match the model.
    VocabMismatch {
        /// Segment count the model was trained on.
        expected: usize,
        /// Segment count of the supplied road network.
        actual: usize,
    },
}

impl std::fmt::Display for ModelCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelCodecError::BadMagic => write!(f, "bad magic bytes"),
            ModelCodecError::BadVersion(v) => write!(f, "unsupported version {v}"),
            ModelCodecError::Truncated(what) => write!(f, "truncated input at {what}"),
            ModelCodecError::BadParams => write!(f, "parameter blob failed to decode"),
            ModelCodecError::VocabMismatch { expected, actual } => {
                write!(f, "model was trained on {expected} segments, network has {actual}")
            }
        }
    }
}

impl std::error::Error for ModelCodecError {}

/// Serialises a trained model.
pub fn model_to_bytes(model: &CausalTad) -> Bytes {
    let cfg = model.config();
    let mut buf = BytesMut::with_capacity(1024);
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);

    // Config block.
    buf.put_u32_le(model.vocab() as u32);
    buf.put_u32_le(cfg.embed_dim as u32);
    buf.put_u32_le(cfg.hidden_dim as u32);
    buf.put_u32_le(cfg.latent_dim as u32);
    buf.put_u32_le(cfg.rp_latent_dim as u32);
    buf.put_f64_le(cfg.lambda);
    buf.put_u32_le(cfg.scaling_mc_samples as u32);
    buf.put_u32_le(cfg.num_time_slots as u32);
    buf.put_u8(flag_bits(cfg));
    buf.put_u64_le(cfg.seed);

    // Scaling table.
    match model.scaling() {
        Some(table) => {
            buf.put_u8(1);
            let blob = table.to_bytes();
            buf.put_u32_le(blob.len() as u32);
            buf.put_slice(&blob);
        }
        None => buf.put_u8(0),
    }

    // Parameters.
    let params = model.store().to_bytes();
    buf.put_u32_le(params.len() as u32);
    buf.put_slice(&params);
    buf.freeze()
}

/// Restores a model serialized by [`model_to_bytes`] against a road
/// network (which must have the same segment count the model was trained
/// on).
///
/// # Errors
/// Returns the [`ModelCodecError`] naming what failed: wrong magic or
/// version, a truncation point, an undecodable parameter blob, or a
/// vocabulary mismatch against `net`. Decoding never panics.
pub fn model_from_bytes(net: &RoadNetwork, mut bytes: Bytes) -> Result<CausalTad, ModelCodecError> {
    if bytes.remaining() < 6 {
        return Err(ModelCodecError::Truncated("header"));
    }
    let mut magic = [0u8; 4];
    bytes.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(ModelCodecError::BadMagic);
    }
    let version = bytes.get_u16_le();
    if version != VERSION {
        return Err(ModelCodecError::BadVersion(version));
    }
    if bytes.remaining() < 4 * 7 + 8 + 1 + 8 {
        return Err(ModelCodecError::Truncated("config"));
    }
    let vocab = bytes.get_u32_le() as usize;
    if vocab != net.num_segments() {
        return Err(ModelCodecError::VocabMismatch { expected: vocab, actual: net.num_segments() });
    }
    let mut cfg = CausalTadConfig {
        embed_dim: bytes.get_u32_le() as usize,
        hidden_dim: bytes.get_u32_le() as usize,
        latent_dim: bytes.get_u32_le() as usize,
        rp_latent_dim: bytes.get_u32_le() as usize,
        lambda: bytes.get_f64_le(),
        scaling_mc_samples: bytes.get_u32_le() as usize,
        num_time_slots: bytes.get_u32_le() as usize,
        ..CausalTadConfig::default()
    };
    let flags = bytes.get_u8();
    apply_flag_bits(&mut cfg, flags);
    cfg.seed = bytes.get_u64_le();

    if bytes.remaining() < 1 {
        return Err(ModelCodecError::Truncated("scaling flag"));
    }
    let scaling = if bytes.get_u8() == 1 {
        if bytes.remaining() < 4 {
            return Err(ModelCodecError::Truncated("scaling length"));
        }
        let len = bytes.get_u32_le() as usize;
        if bytes.remaining() < len {
            return Err(ModelCodecError::Truncated("scaling blob"));
        }
        let blob = bytes.copy_to_bytes(len);
        Some(
            ScalingTable::from_bytes(blob)
                .map_err(|_| ModelCodecError::Truncated("scaling table"))?,
        )
    } else {
        None
    };

    if bytes.remaining() < 4 {
        return Err(ModelCodecError::Truncated("param length"));
    }
    let plen = bytes.get_u32_le() as usize;
    if bytes.remaining() < plen {
        return Err(ModelCodecError::Truncated("param blob"));
    }
    let pblob = bytes.copy_to_bytes(plen);
    let store =
        tad_autodiff::ParamStore::from_bytes(pblob).map_err(|_| ModelCodecError::BadParams)?;

    let mut model = CausalTad::new(net, cfg);
    model.replace_state(store, scaling);
    Ok(model)
}

/// Errors produced when decoding a serialized [`ScorerState`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StateCodecError {
    /// Magic bytes did not match `TADC`.
    BadMagic,
    /// Unsupported session-format version.
    BadVersion(u16),
    /// Input ended before the named field could be read.
    Truncated(&'static str),
    /// The payload checksum did not match (bit rot or tampering).
    ChecksumMismatch,
    /// The payload parsed but violated a structural invariant.
    Malformed(&'static str),
}

impl std::fmt::Display for StateCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateCodecError::BadMagic => write!(f, "bad session magic bytes"),
            StateCodecError::BadVersion(v) => write!(f, "unsupported session version {v}"),
            StateCodecError::Truncated(what) => write!(f, "truncated session input at {what}"),
            StateCodecError::ChecksumMismatch => write!(f, "session payload checksum mismatch"),
            StateCodecError::Malformed(what) => write!(f, "malformed session payload: {what}"),
        }
    }
}

impl std::error::Error for StateCodecError {}

impl From<EnvelopeError> for StateCodecError {
    fn from(e: EnvelopeError) -> Self {
        match e {
            EnvelopeError::BadMagic => StateCodecError::BadMagic,
            EnvelopeError::BadVersion(v) => StateCodecError::BadVersion(v),
            EnvelopeError::Truncated(what) => StateCodecError::Truncated(what),
            EnvelopeError::ChecksumMismatch => StateCodecError::ChecksumMismatch,
            EnvelopeError::TrailingBytes => {
                StateCodecError::Malformed("trailing bytes after checksum")
            }
        }
    }
}

/// Serialises one live [`ScorerState`]. The blob is self-describing
/// (magic, version, length-prefixed payload, checksum) so it can be stored
/// standalone or embedded length-prefixed inside a larger snapshot.
pub fn state_to_bytes(state: &ScorerState) -> Bytes {
    let mut out = Vec::new();
    write_state(state, &mut out);
    Bytes::from(out)
}

/// Appends the [`state_to_bytes`] blob of `state` to `out` in place — the
/// one state encoder, for callers that embed many states in one buffer.
pub fn write_state(state: &ScorerState, out: &mut Vec<u8>) {
    out.reserve(ENVELOPE_OVERHEAD + 42 + state.h.len() * 4);
    seal_envelope_into(STATE_MAGIC, STATE_VERSION, out, |payload| {
        payload.put_u32_le(state.h.cols() as u32);
        payload.extend(state.h.data().iter().flat_map(|x| x.to_le_bytes()));
        payload.put_f64_le(state.base_nll);
        payload.put_f64_le(state.traj_nll);
        payload.put_f64_le(state.scale_log_sum);
        match state.last {
            Some(seg) => {
                payload.put_u8(1);
                payload.put_u32_le(seg);
            }
            None => payload.put_u8(0),
        }
        payload.put_u8(state.time_slot);
        payload.put_u32_le(state.segments);
    });
}

/// Restores a state serialized by [`state_to_bytes`]. The whole input must
/// be one session blob (trailing bytes are rejected); decoding never
/// panics, whatever the input.
///
/// # Errors
/// Returns the [`StateCodecError`] naming what failed: wrong magic or
/// version, a truncation point, a checksum mismatch, or a structural
/// violation of the payload.
pub fn state_from_bytes(bytes: Bytes) -> Result<ScorerState, StateCodecError> {
    parse_state_blob(open_envelope_slice(STATE_MAGIC, STATE_VERSION, &bytes)?)
}

/// Decodes a [`state_to_bytes`] blob embedded in a larger envelope: the
/// next `len` bytes of `reader`. The blob's own checksum is verified in
/// the same pass that folds its bytes into the enclosing envelope's sum,
/// and the state is parsed straight from the reader's buffer.
///
/// # Errors
/// As [`state_from_bytes`].
pub fn read_state(
    reader: &mut SummingReader<'_>,
    len: usize,
) -> Result<ScorerState, StateCodecError> {
    parse_state_blob(reader.nested_envelope(STATE_MAGIC, STATE_VERSION, len)?)
}

/// Parses a verified state payload, which must be consumed exactly.
fn parse_state_blob(mut payload: &[u8]) -> Result<ScorerState, StateCodecError> {
    let state = parse_state_payload(&mut payload)?;
    if payload.remaining() != 0 {
        return Err(StateCodecError::Malformed("trailing payload bytes"));
    }
    Ok(state)
}

fn parse_state_payload(payload: &mut &[u8]) -> Result<ScorerState, StateCodecError> {
    if payload.remaining() < 4 {
        return Err(StateCodecError::Truncated("hidden width"));
    }
    let hidden_cols = payload.get_u32_le() as usize;
    if hidden_cols.checked_mul(4).is_none_or(|need| payload.remaining() < need) {
        return Err(StateCodecError::Truncated("hidden row"));
    }
    let (row, rest) = payload.split_at(hidden_cols * 4);
    *payload = rest;
    let hidden: Vec<f32> =
        row.chunks_exact(4).map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])).collect();
    if payload.remaining() < 8 * 3 + 1 {
        return Err(StateCodecError::Truncated("accumulators"));
    }
    let base_nll = payload.get_f64_le();
    let traj_nll = payload.get_f64_le();
    let scale_log_sum = payload.get_f64_le();
    let last = match payload.get_u8() {
        0 => None,
        1 => {
            if payload.remaining() < 4 {
                return Err(StateCodecError::Truncated("last segment"));
            }
            Some(payload.get_u32_le())
        }
        _ => return Err(StateCodecError::Malformed("last-segment flag")),
    };
    if payload.remaining() < 1 + 4 {
        return Err(StateCodecError::Truncated("segment count"));
    }
    let (time_slot, count) = (payload.get_u8(), payload.get_u32_le());
    Ok(ScorerState::from_parts(hidden, base_nll, traj_nll, scale_log_sum, last, time_slot, count))
}

fn flag_bits(cfg: &CausalTadConfig) -> u8 {
    (cfg.time_factorised_scaling as u8)
        | ((cfg.disable_sd_decoder as u8) << 1)
        | ((cfg.tie_sd_embedding as u8) << 2)
        | ((cfg.score_includes_sd_nll as u8) << 3)
        | ((cfg.disable_road_constraint as u8) << 4)
}

fn apply_flag_bits(cfg: &mut CausalTadConfig, flags: u8) {
    cfg.time_factorised_scaling = flags & 1 != 0;
    cfg.disable_sd_decoder = flags & 2 != 0;
    cfg.tie_sd_embedding = flags & 4 != 0;
    cfg.score_includes_sd_nll = flags & 8 != 0;
    cfg.disable_road_constraint = flags & 16 != 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::seal_envelope;
    use tad_trajsim::{generate_city, CityConfig};

    /// One trained model shared by every test in this module (training in
    /// debug mode is expensive).
    fn trained() -> &'static (tad_trajsim::City, CausalTad) {
        static SHARED: std::sync::OnceLock<(tad_trajsim::City, CausalTad)> =
            std::sync::OnceLock::new();
        SHARED.get_or_init(|| {
            let city = generate_city(&CityConfig::test_scale(700));
            let mut cfg = CausalTadConfig::test_scale();
            cfg.epochs = 2;
            let mut model = CausalTad::new(&city.net, cfg);
            model.fit(&city.data.train);
            (city, model)
        })
    }

    #[test]
    fn roundtrip_preserves_scores_exactly() {
        let (city, model) = trained();
        let blob = model_to_bytes(model);
        let restored = model_from_bytes(&city.net, blob).expect("decode");
        for t in city.data.test_id.iter().take(5).chain(city.data.detour.iter().take(5)) {
            assert_eq!(model.score(t), restored.score(t));
        }
    }

    #[test]
    fn vocab_mismatch_rejected() {
        let (_, model) = trained();
        let other = generate_city(&CityConfig::test_scale(701));
        let blob = model_to_bytes(model);
        match model_from_bytes(&other.net, blob) {
            Err(ModelCodecError::VocabMismatch { .. }) => {}
            other => panic!("expected VocabMismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncated_blob_rejected() {
        let (city, model) = trained();
        let blob = model_to_bytes(model);
        let cut = blob.slice(0..blob.len() / 2);
        assert!(model_from_bytes(&city.net, cut).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        let (city, model) = trained();
        let mut raw = model_to_bytes(model).to_vec();
        raw[0] = b'Z';
        assert!(matches!(
            model_from_bytes(&city.net, Bytes::from(raw)),
            Err(ModelCodecError::BadMagic)
        ));
    }

    fn live_state(model: &CausalTad, t: &tad_trajsim::Trajectory, upto: usize) -> ScorerState {
        let sd = t.sd_pair();
        let mut state =
            model.start_state(sd.source.0, sd.dest.0, t.time_slot).expect("valid request");
        for &seg in &t.segments[..upto] {
            model.push_state(&mut state, seg.0);
        }
        state
    }

    #[test]
    fn state_roundtrip_is_exact_and_resumable() {
        let (city, model) = trained();
        let t = &city.data.test_id[0];
        let mid = t.len() / 2;
        let state = live_state(model, t, mid);
        let blob = state_to_bytes(&state);
        let mut restored = state_from_bytes(blob.clone()).expect("decode");
        assert_eq!(restored, state);
        // Canonical encoding: re-encoding the decoded state is byte-for-byte
        // identical.
        assert_eq!(state_to_bytes(&restored).to_vec(), blob.to_vec());
        // Resuming the restored state matches resuming the original exactly.
        let mut original = state;
        for &seg in &t.segments[mid..] {
            let a = model.push_state(&mut original, seg.0);
            let b = model.push_state(&mut restored, seg.0);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn default_state_roundtrips() {
        let state = ScorerState::default();
        let restored = state_from_bytes(state_to_bytes(&state)).expect("decode");
        assert_eq!(restored, state);
        assert_eq!(restored.hidden_width(), 0);
    }

    #[test]
    fn state_decode_rejects_corruption_without_panicking() {
        let (city, model) = trained();
        let state = live_state(model, &city.data.test_id[0], 3);
        let blob = state_to_bytes(&state).to_vec();

        // Wrong magic.
        let mut raw = blob.clone();
        raw[0] ^= 0xFF;
        assert_eq!(state_from_bytes(Bytes::from(raw)), Err(StateCodecError::BadMagic));

        // Wrong version.
        let mut raw = blob.clone();
        raw[4] = 0xEE;
        assert!(matches!(state_from_bytes(Bytes::from(raw)), Err(StateCodecError::BadVersion(_))));

        // Every truncation point errors instead of panicking.
        for cut in 0..blob.len() {
            assert!(state_from_bytes(Bytes::from(blob[..cut].to_vec())).is_err(), "cut={cut}");
        }

        // Any single-bit flip in the body is caught (magic/version flips are
        // caught by the header checks above; the rest by the checksum).
        for byte in 6..blob.len() {
            let mut raw = blob.clone();
            raw[byte] ^= 1;
            assert!(state_from_bytes(Bytes::from(raw)).is_err(), "byte={byte}");
        }

        // Trailing garbage is rejected.
        let mut raw = blob.clone();
        raw.push(0);
        assert_eq!(
            state_from_bytes(Bytes::from(raw)),
            Err(StateCodecError::Malformed("trailing bytes after checksum"))
        );
    }

    #[test]
    fn huge_crafted_state_lengths_error_instead_of_panicking() {
        // Payload length u64::MAX with almost no bytes behind it: the
        // checked envelope guard must fail, not wrap.
        let mut raw = Vec::new();
        raw.extend_from_slice(STATE_MAGIC);
        raw.extend_from_slice(&STATE_VERSION.to_le_bytes());
        raw.extend_from_slice(&u64::MAX.to_le_bytes());
        raw.extend_from_slice(&[0u8; 16]);
        assert_eq!(state_from_bytes(Bytes::from(raw)), Err(StateCodecError::Truncated("payload")));
        // A checksummed payload claiming a near-u32::MAX hidden width.
        let payload = u32::MAX.to_le_bytes().to_vec();
        let blob = seal_envelope(STATE_MAGIC, STATE_VERSION, Bytes::from(payload));
        assert_eq!(state_from_bytes(blob), Err(StateCodecError::Truncated("hidden row")));
    }

    #[test]
    fn config_flags_roundtrip() {
        let mut cfg = CausalTadConfig::test_scale();
        cfg.time_factorised_scaling = true;
        cfg.score_includes_sd_nll = true;
        cfg.tie_sd_embedding = false;
        let bits = flag_bits(&cfg);
        let mut restored = CausalTadConfig::default();
        apply_flag_bits(&mut restored, bits);
        assert!(restored.time_factorised_scaling);
        assert!(restored.score_includes_sd_nll);
        assert!(!restored.tie_sd_embedding);
        assert!(!restored.disable_sd_decoder);
    }
}

//! The workspace's shared binary envelope: magic + version + checksummed,
//! length-prefixed payload.
//!
//! Every binary format in this workspace — the session codec here in
//! `causaltad` (magic `TADC`), `tad-serve`'s fleet-snapshot codec
//! (`TADF`), and `tad-net`'s wire frames (`TADN`) — wraps its payload in
//! the same envelope so one pair of helpers carries the hostile-input
//! guarantees for all of them:
//!
//! * **Layout** (little-endian): 4 magic bytes, `u16` version, `u64`
//!   payload length, the payload, then a FNV-1a 64 checksum of the
//!   payload ([`checksum64`]).
//! * **Totality**: [`open_envelope`] does checked length arithmetic on
//!   every field, so no input — truncated, bit-flipped, or with a crafted
//!   near-`u64::MAX` length — can panic the decoder. Codecs built on it
//!   inherit that guarantee for their headers.
//! * **One taxonomy per format**: failures surface as [`EnvelopeError`],
//!   which each codec converts into its own error type (e.g.
//!   [`crate::StateCodecError`]) so callers see a single error enum per
//!   format.
//! * **No copies on the bulk paths**: [`seal_envelope_into`] seals a
//!   payload written in place, and [`open_envelope_summing`] verifies a
//!   payload while it is parsed — folding the checksums of envelopes
//!   nested inside it (the `TADC` states inside a `TADF`/`TADD` capture)
//!   into the same pass, since FNV's serial multiply chains for the
//!   outer and the nested sum run side by side at the cost of one.

use bytes::{Buf, BufMut, Bytes};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit checksum used by every checksummed-envelope codec in the
/// workspace (session states, fleet snapshots, wire frames).
pub fn checksum64(data: &[u8]) -> u64 {
    fnv(FNV_OFFSET, data)
}

/// Continues an FNV-1a 64 sum over `data`.
fn fnv(mut h: u64, data: &[u8]) -> u64 {
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Continues the sum `outer` over `data` and starts a fresh sum of `data`
/// alone, in one pass. FNV is one serial multiply chain per sum, so the
/// two independent chains run side by side for about the price of one.
fn fnv_nested(mut outer: u64, data: &[u8]) -> (u64, u64) {
    let mut inner = FNV_OFFSET;
    for &b in data {
        outer ^= b as u64;
        outer = outer.wrapping_mul(FNV_PRIME);
        inner ^= b as u64;
        inner = inner.wrapping_mul(FNV_PRIME);
    }
    (outer, inner)
}

/// Failures shared by every checksummed-envelope codec (the session codec
/// in this crate, `tad-serve`'s fleet-snapshot codec, and `tad-net`'s
/// frame codec). Each codec maps these into its own error type so callers
/// see one taxonomy per format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EnvelopeError {
    /// Magic bytes did not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Input ended before the named field could be read.
    Truncated(&'static str),
    /// The payload checksum did not match (bit rot or tampering).
    ChecksumMismatch,
    /// Bytes followed the checksum.
    TrailingBytes,
}

impl std::fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvelopeError::BadMagic => write!(f, "bad envelope magic bytes"),
            EnvelopeError::BadVersion(v) => write!(f, "unsupported envelope version {v}"),
            EnvelopeError::Truncated(what) => write!(f, "truncated envelope at {what}"),
            EnvelopeError::ChecksumMismatch => write!(f, "envelope payload checksum mismatch"),
            EnvelopeError::TrailingBytes => write!(f, "trailing bytes after envelope checksum"),
        }
    }
}

impl std::error::Error for EnvelopeError {}

/// Byte length the envelope adds around a payload (header + checksum).
pub const ENVELOPE_OVERHEAD: usize = ENVELOPE_HEADER_LEN + 8;

/// Byte length of the fixed envelope header (magic, version, payload
/// length) — what a streaming reader must fetch before it knows how many
/// payload bytes follow.
pub const ENVELOPE_HEADER_LEN: usize = 4 + 2 + 8;

/// Wraps `payload` in the workspace's standard binary envelope
/// (little-endian): `magic`, `version` u16, u64 payload length, the
/// payload, then a FNV-1a 64 checksum of the payload.
pub fn seal_envelope(magic: &[u8; 4], version: u16, payload: Bytes) -> Bytes {
    let mut out = Vec::with_capacity(payload.len() + ENVELOPE_OVERHEAD);
    seal_envelope_into(magic, version, &mut out, |buf| buf.put_slice(&payload));
    Bytes::from(out)
}

/// Appends one envelope to `out` whose payload `write` appends in place:
/// the payload is never copied — its length field is patched and its
/// checksum computed once `write` returns. Byte-identical to
/// [`seal_envelope`] over the same payload.
pub fn seal_envelope_into(
    magic: &[u8; 4],
    version: u16,
    out: &mut Vec<u8>,
    write: impl FnOnce(&mut Vec<u8>),
) {
    out.put_slice(magic);
    out.put_u16_le(version);
    let len_at = out.len();
    out.put_u64_le(0);
    let start = out.len();
    write(out);
    let plen = (out.len() - start) as u64;
    out[len_at..start].copy_from_slice(&plen.to_le_bytes());
    let sum = checksum64(&out[start..]);
    out.put_u64_le(sum);
}

/// Opens an envelope written by [`seal_envelope`], returning the verified
/// payload. The whole input must be one envelope (trailing bytes are
/// rejected); all length arithmetic is checked, so no input can panic —
/// the guarantee every codec built on this inherits.
///
/// # Errors
/// Returns the [`EnvelopeError`] naming what failed: wrong magic or
/// version, a truncation point, a checksum mismatch, or trailing bytes.
pub fn open_envelope(magic: &[u8; 4], version: u16, bytes: Bytes) -> Result<Bytes, EnvelopeError> {
    open_envelope_slice(magic, version, &bytes).map(Bytes::from)
}

/// [`open_envelope`] over a borrowed buffer: the verified payload is
/// returned as a sub-slice of `bytes`, not a copy.
pub(crate) fn open_envelope_slice<'a>(
    magic: &[u8; 4],
    version: u16,
    bytes: &'a [u8],
) -> Result<&'a [u8], EnvelopeError> {
    let (payload, stored) = envelope_parts(magic, version, bytes)?;
    if checksum64(payload) != stored {
        return Err(EnvelopeError::ChecksumMismatch);
    }
    Ok(payload)
}

/// Checks an envelope's header and framing and returns a reader over its
/// payload plus the stored checksum, **without** checksumming the payload
/// yet: the reader sums every byte it consumes, so a decoder verifies the
/// checksum in the same pass that parses the payload (with
/// [`SummingReader::verify`]) — and envelopes nested in the payload fold
/// their own checksums into that pass ([`SummingReader::nested_envelope`]).
/// A decoder must still treat a payload as corrupt whenever
/// [`checksum64`] of it does not match, whatever its parse made of it.
///
/// # Errors
/// As [`open_envelope`], except that a checksum mismatch is left to the
/// caller.
pub fn open_envelope_summing<'a>(
    magic: &[u8; 4],
    version: u16,
    bytes: &'a [u8],
) -> Result<(SummingReader<'a>, u64), EnvelopeError> {
    let (payload, stored) = envelope_parts(magic, version, bytes)?;
    Ok((SummingReader::new(payload), stored))
}

/// Splits one envelope into its payload and stored checksum, checking
/// everything but the checksum.
fn envelope_parts<'a>(
    magic: &[u8; 4],
    version: u16,
    mut bytes: &'a [u8],
) -> Result<(&'a [u8], u64), EnvelopeError> {
    if bytes.remaining() < ENVELOPE_HEADER_LEN {
        return Err(EnvelopeError::Truncated("header"));
    }
    let mut found = [0u8; 4];
    bytes.copy_to_slice(&mut found);
    if &found != magic {
        return Err(EnvelopeError::BadMagic);
    }
    let found_version = bytes.get_u16_le();
    if found_version != version {
        return Err(EnvelopeError::BadVersion(found_version));
    }
    let plen = bytes.get_u64_le();
    // Checked arithmetic: a crafted plen near u64::MAX must fail the
    // guard, not wrap it.
    if plen.checked_add(8).is_none_or(|need| (bytes.remaining() as u64) < need) {
        return Err(EnvelopeError::Truncated("payload"));
    }
    let (payload, mut rest) = bytes.split_at(plen as usize);
    let stored = rest.get_u64_le();
    if rest.remaining() != 0 {
        return Err(EnvelopeError::TrailingBytes);
    }
    Ok((payload, stored))
}

/// A cursor over an envelope payload that folds every byte it consumes
/// into a running FNV-1a 64 sum; see [`open_envelope_summing`].
#[derive(Debug)]
pub struct SummingReader<'a> {
    whole: &'a [u8],
    rest: &'a [u8],
    sum: u64,
}

impl<'a> SummingReader<'a> {
    fn new(payload: &'a [u8]) -> Self {
        SummingReader { whole: payload, rest: payload, sum: FNV_OFFSET }
    }

    /// Takes the next `len` bytes as one nested envelope and returns its
    /// payload, verified against the nested checksum — computed in the
    /// same pass that folds those bytes into this reader's sum.
    ///
    /// # Errors
    /// As [`open_envelope`] for the nested envelope; `len` beyond the
    /// bytes left is [`EnvelopeError::Truncated`].
    pub fn nested_envelope(
        &mut self,
        magic: &[u8; 4],
        version: u16,
        len: usize,
    ) -> Result<&'a [u8], EnvelopeError> {
        if self.rest.len() < len {
            return Err(EnvelopeError::Truncated("nested envelope"));
        }
        let (blob, rest) = self.rest.split_at(len);
        let (payload, stored) = envelope_parts(magic, version, blob)?;
        let header = fnv(self.sum, &blob[..ENVELOPE_HEADER_LEN]);
        let (outer, inner) = fnv_nested(header, payload);
        if inner != stored {
            return Err(EnvelopeError::ChecksumMismatch);
        }
        self.sum = fnv(outer, &stored.to_le_bytes());
        self.rest = rest;
        Ok(payload)
    }

    /// Checks, once the payload is fully consumed, that its sum matches
    /// `stored` — or, when the parse stopped early or failed, that the
    /// whole payload does. A mismatch means the payload is corrupt, which
    /// outranks whatever its parse concluded.
    ///
    /// # Errors
    /// [`EnvelopeError::ChecksumMismatch`] when the payload does not match
    /// its stored checksum.
    pub fn verify(&self, stored: u64) -> Result<(), EnvelopeError> {
        let sum = if self.rest.is_empty() { self.sum } else { checksum64(self.whole) };
        if sum == stored {
            Ok(())
        } else {
            Err(EnvelopeError::ChecksumMismatch)
        }
    }
}

impl Buf for SummingReader<'_> {
    fn remaining(&self) -> usize {
        self.rest.len()
    }

    fn chunk(&self) -> &[u8] {
        self.rest
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.rest.len(), "SummingReader: advance past end");
        let (taken, rest) = self.rest.split_at(n);
        self.sum = fnv(self.sum, taken);
        self.rest = rest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 4] = b"TEST";

    #[test]
    fn checksum64_is_stable() {
        // FNV-1a 64 reference values.
        assert_eq!(checksum64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(checksum64(b"ab"), checksum64(b"ba"));
    }

    #[test]
    fn seal_open_roundtrips() {
        let payload = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let sealed = seal_envelope(MAGIC, 7, payload.clone());
        assert_eq!(sealed.len(), payload.len() + ENVELOPE_OVERHEAD);
        let opened = open_envelope(MAGIC, 7, sealed).expect("valid envelope");
        assert_eq!(opened.to_vec(), payload.to_vec());
    }

    #[test]
    fn in_place_seal_matches_seal_at_any_offset() {
        let payload = vec![3u8, 1, 4, 1, 5];
        let mut out = vec![0xEEu8; 7];
        seal_envelope_into(MAGIC, 2, &mut out, |buf| buf.extend_from_slice(&payload));
        let sealed = seal_envelope(MAGIC, 2, Bytes::from(payload.clone()));
        assert_eq!(&out[..7], &[0xEEu8; 7]);
        assert_eq!(&out[7..], &sealed[..]);
        assert_eq!(open_envelope_slice(MAGIC, 2, &out[7..]), Ok(&payload[..]));
    }

    /// A payload holding a nested envelope between plain fields: the
    /// summing reader verifies the nested checksum and accumulates exactly
    /// the outer checksum, and any flipped bit is caught by one or the
    /// other.
    #[test]
    fn summing_reader_verifies_nested_and_outer_sums_in_one_pass() {
        let nested = seal_envelope(b"NEST", 3, Bytes::from(vec![7u8; 21]));
        let mut payload = vec![1u8, 2, 3, 4];
        payload.extend_from_slice(&nested);
        payload.push(9);
        let sealed = seal_envelope(MAGIC, 1, Bytes::from(payload.clone())).to_vec();
        type Fields = (u32, Vec<u8>, u8);
        let read = |blob: &[u8]| -> Result<Fields, EnvelopeError> {
            let (mut reader, stored) = open_envelope_summing(MAGIC, 1, blob)?;
            let head = reader.get_u32_le();
            let parsed = reader.nested_envelope(b"NEST", 3, nested.len()).map(<[u8]>::to_vec);
            let tail = reader.get_u8();
            reader.verify(stored)?;
            Ok((head, parsed?, tail))
        };
        assert_eq!(read(&sealed), Ok((u32::from_le_bytes([1, 2, 3, 4]), vec![7u8; 21], 9)));
        let (mut reader, _) = open_envelope_summing(MAGIC, 1, &sealed).unwrap();
        reader.advance(payload.len());
        assert_eq!(reader.verify(checksum64(&payload)), Ok(()));
        for byte in ENVELOPE_HEADER_LEN..sealed.len() - 8 {
            let mut flipped = sealed.clone();
            flipped[byte] ^= 0x10;
            assert!(read(&flipped).is_err(), "flip at byte {byte} accepted");
        }
    }

    #[test]
    fn header_mismatches_are_typed() {
        let sealed = seal_envelope(MAGIC, 7, Bytes::from(vec![9u8; 3]));
        assert_eq!(open_envelope(b"XXXX", 7, sealed.clone()), Err(EnvelopeError::BadMagic));
        assert_eq!(open_envelope(MAGIC, 8, sealed), Err(EnvelopeError::BadVersion(7)));
    }

    #[test]
    fn every_truncation_is_an_error() {
        let sealed = seal_envelope(MAGIC, 1, Bytes::from(vec![0xABu8; 9])).to_vec();
        for cut in 0..sealed.len() {
            assert!(open_envelope(MAGIC, 1, sealed[..cut].to_vec().into()).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn crafted_huge_length_fails_instead_of_wrapping() {
        let mut raw = Vec::new();
        raw.extend_from_slice(MAGIC);
        raw.extend_from_slice(&1u16.to_le_bytes());
        raw.extend_from_slice(&u64::MAX.to_le_bytes());
        raw.extend_from_slice(&[0u8; 16]);
        assert_eq!(open_envelope(MAGIC, 1, raw.into()), Err(EnvelopeError::Truncated("payload")));
    }
}

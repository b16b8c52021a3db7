//! Minimal little-endian byte codec for checkpoint payloads.
//!
//! Checkpoint payloads must round-trip **bit-identically** — the whole
//! point of resume is that a resumed run is indistinguishable from an
//! uninterrupted one — so floats are stored as raw IEEE-754 bits
//! (`f64::to_bits`), never formatted text, and every integer is a
//! fixed-width little-endian field. The writer is infallible; the
//! reader checks bounds on every read so a truncated payload surfaces
//! as a [`CodecError`] instead of a panic.

use std::fmt;

/// Decoding failure: the payload was shorter than the reader expected,
/// or a length/UTF-8 field was malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// What the reader was trying to decode.
    pub context: &'static str,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "checkpoint payload decode failed at {}", self.context)
    }
}

impl std::error::Error for CodecError {}

/// Append-only little-endian byte writer.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing was written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u128`.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (the on-disk format is
    /// platform-independent).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` as its raw IEEE-754 bits (exact round-trip,
    /// NaN payloads included).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Writes a length-prefixed bit-packed set of `len` flags (8 flags
    /// per byte — capture sets are large). Flag `i` is bit `i % 64` of
    /// `words[i / 64]`; `words` holds at least `len` bits, and bits at
    /// or past `len` are not written.
    pub fn bitset(&mut self, len: usize, words: &[u64]) {
        self.usize(len);
        let bytes = len.div_ceil(8);
        for (k, w) in words.iter().enumerate().take(bytes.div_ceil(8)) {
            let le = w.to_le_bytes();
            let n = (bytes - 8 * k).min(8);
            self.buf.extend_from_slice(&le[..n]);
        }
        if !len.is_multiple_of(8) {
            // Clear the unused high bits of the last byte.
            let last = self.buf.len() - 1;
            self.buf[last] &= (1u8 << (len % 8)) - 1;
        }
    }
}

/// Bounds-checked little-endian byte reader over an encoded payload.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte was consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let s = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let s = self.take(8, "u64")?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, CodecError> {
        let s = self.take(16, "u128")?;
        let mut b = [0u8; 16];
        b.copy_from_slice(s);
        Ok(u128::from_le_bytes(b))
    }

    /// Reads a `u64` and converts to `usize`, rejecting values that do
    /// not fit the platform.
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?).map_err(|_| CodecError { context: "usize" })
    }

    /// Reads an `f64` from its raw IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool byte (any nonzero value is `true`).
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        Ok(self.u8()? != 0)
    }

    /// Reads a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.usize()?;
        self.take(n, "bytes body")
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| CodecError {
            context: "utf-8 str",
        })
    }

    /// Reads a set written by [`ByteWriter::bitset`]: its flag count
    /// and its words, with every bit at or past the count clear.
    pub fn bitset(&mut self) -> Result<(usize, Vec<u64>), CodecError> {
        let n = self.usize()?;
        let packed = self.take(n.div_ceil(8), "bitset body")?;
        let mut words: Vec<u64> = packed
            .chunks(8)
            .map(|chunk| {
                let mut le = [0u8; 8];
                le[..chunk.len()].copy_from_slice(chunk);
                u64::from_le_bytes(le)
            })
            .collect();
        if let Some(last) = words.last_mut() {
            if !n.is_multiple_of(64) {
                *last &= (1u64 << (n % 64)) - 1;
            }
        }
        Ok((n, words))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_primitives() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.u128(u128::MAX / 3);
        w.usize(42);
        w.f64(-0.1);
        w.f64(f64::NAN);
        w.bool(true);
        w.bytes(&[1, 2, 3]);
        w.str("φρ/harden");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.u128().unwrap(), u128::MAX / 3);
        assert_eq!(r.usize().unwrap(), 42);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.1f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert!(r.bool().unwrap());
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.str().unwrap(), "φρ/harden");
        assert!(r.is_exhausted());
    }

    /// The bitset encoding is the one the bool-slice encoding it
    /// replaced wrote (so existing checkpoints still decode): a length,
    /// then flags packed eight to a byte, low bit first.
    #[test]
    fn bitmap_round_trips_at_odd_lengths() {
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let flags: Vec<bool> = (0..n).map(|i| i % 3 == 0 || i % 7 == 2).collect();
            let mut words = vec![0u64; n.div_ceil(64)];
            for (i, _) in flags.iter().enumerate().filter(|(_, &f)| f) {
                words[i / 64] |= 1 << (i % 64);
            }
            let mut w = ByteWriter::new();
            w.bitset(n, &words);
            let bytes = w.into_bytes();
            let mut packed = vec![0u8; n.div_ceil(8)];
            for (i, _) in flags.iter().enumerate().filter(|(_, &f)| f) {
                packed[i / 8] |= 1 << (i % 8);
            }
            assert_eq!(bytes[..8], (n as u64).to_le_bytes(), "n={n}");
            assert_eq!(bytes[8..], packed[..], "n={n}");
            let mut r = ByteReader::new(&bytes);
            assert_eq!(r.bitset().unwrap(), (n, words), "n={n}");
            assert!(r.is_exhausted());
        }
        // Bits past the length are neither written nor read back.
        let mut w = ByteWriter::new();
        w.bitset(3, &[u64::MAX]);
        let bytes = w.into_bytes();
        assert_eq!(bytes[8..], [0b111]);
        let mut dirty = bytes.clone();
        dirty[8] = 0xff;
        assert_eq!(ByteReader::new(&dirty).bitset().unwrap(), (3, vec![0b111]));
    }

    #[test]
    fn truncated_payload_errors_instead_of_panicking() {
        let mut w = ByteWriter::new();
        w.u64(5);
        let mut bytes = w.into_bytes();
        bytes.truncate(3);
        let mut r = ByteReader::new(&bytes);
        assert!(r.u64().is_err());
        // A bytes header larger than the remaining buffer is rejected.
        let mut w = ByteWriter::new();
        w.usize(1_000_000);
        let bytes = w.into_bytes();
        assert!(ByteReader::new(&bytes).bytes().is_err());
    }

    #[test]
    fn reader_tracks_position() {
        let mut w = ByteWriter::new();
        w.u32(1);
        w.u32(2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.remaining(), 8);
        r.u32().unwrap();
        assert_eq!(r.remaining(), 4);
    }
}

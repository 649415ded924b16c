//! The byte-level wire primitives every binary stream shares.
//!
//! v2 trace documents ([`crate::binary`]), session streams
//! ([`crate::session`]) and metrics snapshots ([`crate::snapshot`]) all
//! carry their messages in one envelope:
//!
//! ```text
//! frame := kind u8 , payload_len varint , payload , crc32(payload) u32-le
//! ```
//!
//! This module owns that envelope (`push_frame` / `split_frame`), the
//! [`crc32`] behind it, and the LEB128 varint, raw little-endian `f64`
//! and length-prefixed string spellings the payloads are built from,
//! plus `ByteReader`, the bounds-checked reader that parses them back
//! and turns every malformed input into a typed
//! [`Error::InvalidInput`].

use ppep_types::{Error, Result};

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), slicing-by-8
// ---------------------------------------------------------------------

/// One reflected CRC-32 step over the eight bits of `c`'s low byte.
const fn crc_byte(mut c: u32) -> u32 {
    let mut bit = 0;
    while bit < 8 {
        c = if c & 1 != 0 {
            0xEDB8_8320 ^ (c >> 1)
        } else {
            c >> 1
        };
        bit += 1;
    }
    c
}

/// `CRC_TABLES[k][b]` is the register contribution of byte `b`
/// followed by `k` zero bytes, so eight table lookups advance the CRC
/// over eight input bytes at once. Table 0 is the classic bytewise
/// table.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut rest: &mut [[u32; 256]] = &mut tables;
    let mut zeros = 0;
    while let [table, tail @ ..] = rest {
        let mut entries: &mut [u32] = table;
        let mut byte = 0;
        while let [slot, more @ ..] = entries {
            let mut c = crc_byte(byte);
            let mut k = 0;
            while k < zeros {
                c = crc_byte(c & 0xFF) ^ (c >> 8);
                k += 1;
            }
            *slot = c;
            byte += 1;
            entries = more;
        }
        zeros += 1;
        rest = tail;
    }
    tables
}

#[inline(always)]
fn lookup(table: &[u32; 256], byte: u8) -> u32 {
    // A `u8` always indexes a 256-entry table; the fallback is dead.
    table.get(usize::from(byte)).copied().unwrap_or_default()
}

/// CRC-32 (IEEE) of `bytes`, as used for per-frame checksums.
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let (blocks, tail) = bytes.as_chunks::<8>();
    let mut c = 0xFFFF_FFFFu32;
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in blocks {
        let [x0, x1, x2, x3] = (c ^ u32::from_le_bytes([b0, b1, b2, b3])).to_le_bytes();
        c = lookup(t7, x0)
            ^ lookup(t6, x1)
            ^ lookup(t5, x2)
            ^ lookup(t4, x3)
            ^ lookup(t3, b4)
            ^ lookup(t2, b5)
            ^ lookup(t1, b6)
            ^ lookup(t0, b7);
    }
    for b in tail {
        c = lookup(t0, c.to_le_bytes()[0] ^ b) ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

/// Appends `v` as an unsigned LEB128 varint.
pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends the raw bits of `v`, little-endian.
pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends `s` as a varint byte length followed by its UTF-8 bytes.
pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Appends one envelope: `kind, payload_len varint, payload, crc32`.
pub(crate) fn push_frame(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    out.push(kind);
    put_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

/// Splits the first envelope off `src` and checks its CRC, returning
/// the kind byte, the payload and the bytes consumed. `ctx` prefixes
/// every error message (`"v2 trace"`, `"session frame"`, ...).
pub(crate) fn split_frame<'a>(src: &'a [u8], ctx: &'static str) -> Result<(u8, &'a [u8], usize)> {
    let mut r = ByteReader::new(src, ctx);
    let kind = r.u8("frame kind")?;
    let len = r.usize_capped("payload length", r.remaining())?;
    let payload = r.take(len, "frame payload")?;
    let stored = u32::from_le_bytes(r.array("frame crc")?);
    let actual = crc32(payload);
    if stored != actual {
        return Err(Error::InvalidInput(format!(
            "{ctx}: CRC mismatch on kind {kind} (stored {stored:#010x}, computed {actual:#010x})"
        )));
    }
    Ok((kind, payload, r.pos))
}

/// A bounds-checked reader over a byte slice; every failure is an
/// [`Error::InvalidInput`] whose message starts with the reader's
/// context.
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    ctx: &'static str,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(buf: &'a [u8], ctx: &'static str) -> Self {
        Self { buf, pos: 0, ctx }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// An [`Error::InvalidInput`] carrying the reader's context.
    pub(crate) fn invalid(&self, msg: std::fmt::Arguments<'_>) -> Error {
        Error::InvalidInput(format!("{}: {msg}", self.ctx))
    }

    pub(crate) fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let slice = self
            .pos
            .checked_add(n)
            .and_then(|end| self.buf.get(self.pos..end))
            .ok_or_else(|| self.invalid(format_args!("truncated {what}")))?;
        self.pos += n;
        Ok(slice)
    }

    pub(crate) fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N]> {
        let bytes = self.take(N, what)?;
        <[u8; N]>::try_from(bytes).map_err(|_| self.invalid(format_args!("truncated {what}")))
    }

    pub(crate) fn u8(&mut self, what: &str) -> Result<u8> {
        let [b] = self.array(what)?;
        Ok(b)
    }

    pub(crate) fn varint(&mut self, what: &str) -> Result<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8(what)?;
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(self.invalid(format_args!("varint overflow in {what}")))
    }

    /// A varint that must fit in `u32`.
    pub(crate) fn u32_of(&mut self, what: &str) -> Result<u32> {
        let v = self.varint(what)?;
        u32::try_from(v).map_err(|_| self.invalid(format_args!("{what} out of range")))
    }

    /// A varint length or index, refused above `cap` before the caller
    /// allocates or indexes with it.
    pub(crate) fn usize_capped(&mut self, what: &str, cap: usize) -> Result<usize> {
        let v = self.varint(what)?;
        let n =
            usize::try_from(v).map_err(|_| self.invalid(format_args!("{what} out of range")))?;
        if n > cap {
            return Err(self.invalid(format_args!("{what} of {n} exceeds plausible bound {cap}")));
        }
        Ok(n)
    }

    pub(crate) fn f64(&mut self, what: &str) -> Result<f64> {
        Ok(f64::from_bits(u64::from_le_bytes(self.array(what)?)))
    }

    pub(crate) fn str_(&mut self, what: &str) -> Result<&'a str> {
        let n = self.usize_capped(what, self.remaining())?;
        let bytes = self.take(n, what)?;
        std::str::from_utf8(bytes).map_err(|_| self.invalid(format_args!("non-UTF-8 {what}")))
    }

    /// Fails unless every byte has been consumed.
    pub(crate) fn finish(&self, what: &str) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(self.invalid(format_args!("{extra} trailing byte(s) after {what}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise table walk `crc32` replaced, kept as its oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let table: Vec<u32> = (0..256).map(crc_byte).collect();
        let mut c = 0xFFFF_FFFFu32;
        for b in bytes {
            c = table[((c ^ u32::from(*b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc_matches_reference_vector() {
        // The classic IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_the_bytewise_oracle_at_every_length() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..=4096)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state.to_le_bytes()[0]
            })
            .collect();
        for len in 0..=data.len() {
            let prefix = &data[..len];
            assert_eq!(crc32(prefix), crc32_bytewise(prefix), "length {len}");
        }
        // Unaligned starts exercise every head/tail split of the blocks.
        for start in 1..8 {
            let s = &data[start..];
            assert_eq!(crc32(s), crc32_bytewise(s), "offset {start}");
        }
    }

    #[test]
    fn envelope_splits_what_it_wrote() {
        let mut out = Vec::new();
        push_frame(&mut out, 7, b"payload");
        push_frame(&mut out, 9, &[]);
        let (kind, payload, used) = split_frame(&out, "test").expect("first frame");
        assert_eq!((kind, payload), (7, &b"payload"[..]));
        let (kind, payload, rest) = split_frame(&out[used..], "test").expect("second frame");
        assert_eq!((kind, payload, used + rest), (9, &[][..], out.len()));
        for cut in 0..used {
            assert!(split_frame(&out[..cut], "test").is_err(), "prefix {cut}");
        }
        let mut corrupt = out.clone();
        corrupt[3] ^= 1;
        assert!(matches!(
            split_frame(&corrupt, "test"),
            Err(Error::InvalidInput(_))
        ));
    }

    proptest! {
        #[test]
        fn varints_and_f64s_round_trip(v in any::<u64>(), bits in any::<u64>()) {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            put_f64(&mut out, f64::from_bits(bits));
            put_str(&mut out, "héllo");
            let mut r = ByteReader::new(&out, "test");
            prop_assert_eq!(r.varint("v").unwrap(), v);
            prop_assert_eq!(r.f64("f").unwrap().to_bits(), bits);
            prop_assert_eq!(r.str_("s").unwrap(), "héllo");
            prop_assert!(r.finish("test").is_ok());
        }
    }
}

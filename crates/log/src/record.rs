//! Sealed record framing: CRC for crash detection, CMAC for tamper
//! detection, CTR encryption for confidentiality.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     frame_len  — bytes that follow this field
//! 4       4     crc32      — IEEE CRC over bytes [8, 8+frame_len-4)
//! 8       8     seqno
//! 16      1     kind       — 0 put, 1 delete (tombstone)
//! 17      4     klen
//! 21      4     vlen
//! 25      k+v   ciphertext — CTR(key || value), counter from seqno
//! 25+k+v  16    mac        — CMAC over seqno|kind|klen|vlen|ciphertext
//! ```
//!
//! The split of responsibilities matters for recovery semantics: the
//! CRC is *not* a secret and a malicious host can recompute it, so it
//! proves nothing about integrity — it exists purely so a reader can
//! distinguish "the tail of this file was torn by a crash" from "these
//! bytes were deliberately rewritten" (which passes the CRC but fails
//! the MAC). Encrypt-then-MAC; the MAC covers the header fields so a
//! record cannot be re-typed (put↔delete) or length-spliced.

use aria_crypto::{CipherSuite, RealSuite, MAC_LEN};

use crate::LogError;

/// Largest key a log record will frame.
pub const MAX_KEY_LEN: usize = 1 << 20;
/// Largest value a log record will frame.
pub const MAX_VALUE_LEN: usize = 1 << 25;

/// Fixed bytes before the ciphertext: frame_len + crc + seqno + kind +
/// klen + vlen.
pub(crate) const HEADER_LEN: usize = 4 + 4 + 8 + 1 + 4 + 4;

/// Upper bound on `frame_len` accepted from disk; anything larger is
/// corruption (a crash can truncate a frame, not inflate one).
pub(crate) const MAX_FRAME_LEN: u32 =
    (HEADER_LEN - 4 + MAX_KEY_LEN + MAX_VALUE_LEN + MAC_LEN) as u32;

/// Smallest `frame_len` a writer can produce (empty key and value).
pub(crate) const MIN_FRAME_LEN: u32 = (HEADER_LEN - 4 + MAC_LEN) as u32;

/// What a record asserts about its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// The key maps to the record's value.
    Put,
    /// The key was deleted at this sequence number (tombstone; the
    /// value payload is empty).
    Delete,
}

impl RecordKind {
    fn to_byte(self) -> u8 {
        match self {
            RecordKind::Put => 0,
            RecordKind::Delete => 1,
        }
    }

    fn from_byte(b: u8) -> Option<RecordKind> {
        match b {
            0 => Some(RecordKind::Put),
            1 => Some(RecordKind::Delete),
            _ => None,
        }
    }
}

/// Stable address of a record: segment id, byte offset of the frame
/// within the segment, and total frame length (including the 4-byte
/// `frame_len` field itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecordPtr {
    /// Segment file id.
    pub segment: u64,
    /// Byte offset of the frame inside the segment.
    pub offset: u64,
    /// Total on-disk frame length in bytes.
    pub len: u32,
}

/// Seals and opens records under a 16-byte log key. The CTR counter
/// block is derived from the record's seqno, which is unique per
/// logical write and *preserved by compaction rewrites* — so a rewrite
/// of the same (seqno, key, value) produces byte-identical ciphertext
/// and the content root stays stable across compaction.
///
/// Because the counter depends only on the seqno, keystream uniqueness
/// rests on two caller obligations: the log key must be unique *per
/// log* (derive it by mixing the directory's [`crate::meta`] `LOGID`
/// nonce into the master secret — never seal two logs under one key),
/// and a seqno, once allocated, must never be re-allocated to
/// different plaintext (enforced by the sealed `SEQNO` reservation in
/// [`crate::SegmentLog`]).
pub(crate) struct Sealer {
    suite: RealSuite,
}

impl Sealer {
    pub(crate) fn new(log_key: &[u8; 16]) -> Sealer {
        Sealer { suite: RealSuite::from_master(log_key) }
    }

    fn counter_block(seqno: u64) -> [u8; 16] {
        let mut ctr = [0u8; 16];
        ctr[..8].copy_from_slice(&seqno.to_le_bytes());
        ctr[8..].copy_from_slice(b"arialogr");
        ctr
    }

    /// Encode one record into a fresh frame buffer.
    pub(crate) fn encode(&self, seqno: u64, kind: RecordKind, key: &[u8], value: &[u8]) -> Vec<u8> {
        debug_assert!(key.len() <= MAX_KEY_LEN && value.len() <= MAX_VALUE_LEN);
        let body = key.len() + value.len();
        let frame_len = (HEADER_LEN - 4 + body + MAC_LEN) as u32;
        let mut buf = Vec::with_capacity(4 + frame_len as usize);
        buf.extend_from_slice(&frame_len.to_le_bytes());
        buf.extend_from_slice(&[0u8; 4]); // crc placeholder
        buf.extend_from_slice(&seqno.to_le_bytes());
        buf.push(kind.to_byte());
        buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(value.len() as u32).to_le_bytes());
        let ct_start = buf.len();
        buf.extend_from_slice(key);
        buf.extend_from_slice(value);
        self.suite.crypt(&Self::counter_block(seqno), &mut buf[ct_start..]);
        let mac = self.suite.mac_parts(&[&buf[8..]]);
        buf.extend_from_slice(&mac);
        let crc = crc32(&buf[8..]);
        buf[4..8].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Check the record framed at `frame` (a complete frame as sliced
    /// by the caller using `frame_len`): CRC, lengths, MAC and kind.
    /// Returns the seqno, kind and key length; decrypts nothing.
    /// `segment`/`offset` only locate errors.
    fn verify(
        &self,
        frame: &[u8],
        segment: u64,
        offset: u64,
    ) -> Result<(u64, RecordKind, usize), LogError> {
        let corrupt = LogError::Corrupt { segment, offset };
        if frame.len() < HEADER_LEN + MAC_LEN {
            return Err(corrupt);
        }
        let stored_crc = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes"));
        if crc32(&frame[8..]) != stored_crc {
            return Err(corrupt);
        }
        let seqno = u64::from_le_bytes(frame[8..16].try_into().expect("8 bytes"));
        let kind_byte = frame[16];
        let klen = u32::from_le_bytes(frame[17..21].try_into().expect("4 bytes")) as usize;
        let vlen = u32::from_le_bytes(frame[21..25].try_into().expect("4 bytes")) as usize;
        if klen > MAX_KEY_LEN
            || vlen > MAX_VALUE_LEN
            || frame.len() != HEADER_LEN + klen + vlen + MAC_LEN
        {
            return Err(corrupt);
        }
        // From here the frame is CRC-consistent; failures are tampering.
        let tampered = LogError::Tampered { segment, offset };
        let mac_start = frame.len() - MAC_LEN;
        let mac: [u8; MAC_LEN] = frame[mac_start..].try_into().expect("16 bytes");
        if !self.suite.verify_parts(&[&frame[8..mac_start]], &mac) {
            return Err(tampered);
        }
        let kind = RecordKind::from_byte(kind_byte).ok_or(tampered)?;
        Ok((seqno, kind, klen))
    }

    /// Decode the record framed at `frame`: [`Sealer::verify`], then
    /// decrypt key and value.
    pub(crate) fn decode(
        &self,
        frame: &[u8],
        segment: u64,
        offset: u64,
    ) -> Result<DecodedRecord, LogError> {
        let (seqno, kind, klen) = self.verify(frame, segment, offset)?;
        let mut plain = frame[HEADER_LEN..frame.len() - MAC_LEN].to_vec();
        self.suite.crypt(&Self::counter_block(seqno), &mut plain);
        let value = plain.split_off(klen);
        Ok(DecodedRecord { seqno, kind, key: plain, value })
    }

    /// Verify the record framed at `frame` exactly as
    /// [`Sealer::decode`] does, but decrypt only its key: the CTR
    /// keystream starts at the first ciphertext byte, so the key is a
    /// prefix of it. Returns the seqno, kind and plaintext key.
    pub(crate) fn decode_key(
        &self,
        frame: &[u8],
        segment: u64,
        offset: u64,
    ) -> Result<(u64, RecordKind, Vec<u8>), LogError> {
        let (seqno, kind, klen) = self.verify(frame, segment, offset)?;
        let mut key = frame[HEADER_LEN..HEADER_LEN + klen].to_vec();
        self.suite.crypt(&Self::counter_block(seqno), &mut key);
        Ok((seqno, kind, key))
    }
}

/// A record decoded and verified from disk.
#[derive(Debug)]
pub(crate) struct DecodedRecord {
    pub seqno: u64,
    pub kind: RecordKind,
    pub key: Vec<u8>,
    pub value: Vec<u8>,
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected), sliced by 16. Tables built at compile
// time.

/// Bytes the CRC folds per step of its main loop.
const CRC_SLICE: usize = 16;

/// `CRC32_TABLES[0]` is the classic bytewise table: the CRC of one byte
/// run through the register. `CRC32_TABLES[k][b]` is `b`'s contribution
/// when `k` more bytes follow it in the same step, so one step folds 16
/// bytes with 16 independent lookups instead of a chain of 16.
const fn crc32_tables() -> [[u32; 256]; CRC_SLICE] {
    let mut tables = [[0u32; 256]; CRC_SLICE];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < CRC_SLICE {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; CRC_SLICE] = crc32_tables();

/// IEEE CRC32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xffff_ffffu32;
    let mut chunks = data.chunks_exact(CRC_SLICE);
    for chunk in &mut chunks {
        // The register folds into the first four bytes; byte j of the
        // step is looked up in the table for the 15 - j bytes after it.
        let word = |at: usize| u32::from_le_bytes(chunk[at..at + 4].try_into().expect("4 bytes"));
        let w = [word(0) ^ c, word(4), word(8), word(12)];
        c = 0;
        for (j, w) in w.into_iter().enumerate() {
            let base = CRC_SLICE - 1 - 4 * j;
            c ^= t[base][(w & 0xff) as usize]
                ^ t[base - 1][((w >> 8) & 0xff) as usize]
                ^ t[base - 2][((w >> 16) & 0xff) as usize]
                ^ t[base - 3][(w >> 24) as usize];
        }
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealer() -> Sealer {
        Sealer::new(b"log-key-16-bytes")
    }

    /// The textbook bitwise CRC, sharing nothing with the tables.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut c = 0xffff_ffffu32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            }
        }
        c ^ 0xffff_ffff
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789" (remainder loop only).
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        // Vectors of 32 bytes and more run the sliced loop.
        assert_eq!(crc32(&[0u8; 32]), 0x190a_55ad);
        assert_eq!(crc32(&[0xffu8; 32]), 0xff6c_ab0b);
        assert_eq!(crc32(&(0..32u8).collect::<Vec<_>>()), 0x9126_7e8a);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414f_a339);
    }

    #[test]
    fn sliced_crc_equals_bitwise_at_every_length_and_alignment() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut data = vec![0u8; 600 + 16];
        StdRng::seed_from_u64(0xc3c3).fill(&mut data[..]);
        for offset in 0..16 {
            for len in 0..=600 {
                let slice = &data[offset..offset + len];
                assert_eq!(crc32(slice), crc32_bitwise(slice), "offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn golden_frame_pins_the_on_disk_layout() {
        // One frame as every version of this log has written it: frame
        // length, CRC, seqno, kind, key and value lengths, ciphertext,
        // CMAC. A change here orphans every existing log.
        let frame = sealer().encode(
            0x0102_0304_0506_0708,
            RecordKind::Put,
            b"golden-key",
            b"golden value, 31 bytes long....",
        );
        let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            concat!(
                "4e000000",         // frame_len 78
                "bfe1194f",         // crc32
                "0807060504030201", // seqno
                "00",               // kind: put
                "0a000000",         // klen 10
                "1f000000",         // vlen 31
                // ciphertext of the 10-byte key and 31-byte value
                "c3e65ad2df909e1aee6639f5b0de96ffe04b467974f2d9359388285776e7a272",
                "599d224aff7901da94",
                "f139513c164beaad1378cbb1e60533ce", // CMAC
            )
        );
    }

    #[test]
    fn round_trip_put_and_delete() {
        let s = sealer();
        for (kind, key, value) in [
            (RecordKind::Put, b"alpha".as_slice(), b"value-1".as_slice()),
            (RecordKind::Delete, b"gone".as_slice(), b"".as_slice()),
            (RecordKind::Put, b"".as_slice(), b"".as_slice()),
        ] {
            let frame = s.encode(7, kind, key, value);
            let frame_len = u32::from_le_bytes(frame[..4].try_into().unwrap());
            assert_eq!(frame.len(), 4 + frame_len as usize);
            let rec = s.decode(&frame, 0, 0).expect("round trip");
            assert_eq!(rec.seqno, 7);
            assert_eq!(rec.kind, kind);
            assert_eq!(rec.key, key);
            assert_eq!(rec.value, value);
        }
    }

    #[test]
    fn ciphertext_hides_plaintext_and_is_seqno_deterministic() {
        let s = sealer();
        let a = s.encode(1, RecordKind::Put, b"secret-key", b"secret-value");
        // Plaintext must not appear in the frame.
        assert!(!a.windows(10).any(|w| w == b"secret-key"));
        // Same seqno+payload → identical bytes (compaction rewrites are
        // byte-stable); different seqno → different ciphertext.
        assert_eq!(a, s.encode(1, RecordKind::Put, b"secret-key", b"secret-value"));
        assert_ne!(a, s.encode(2, RecordKind::Put, b"secret-key", b"secret-value"));
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let s = sealer();
        let frame = s.encode(42, RecordKind::Put, b"key", b"value");
        // Bytes 0..4 are frame_len, which governs how the caller slices
        // the frame out of the segment; flips there are exercised by the
        // segment-level tests. Everything from the CRC on is covered
        // here.
        for i in 4..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            let err = s.decode(&bad, 3, 99).expect_err("flip must be rejected");
            assert!(
                matches!(err, LogError::Corrupt { segment: 3, offset: 99 }),
                "flip at {i} gave {err:?}"
            );
        }
    }

    #[test]
    fn crc_fixed_flip_is_tampering() {
        let s = sealer();
        let mut frame = s.encode(9, RecordKind::Put, b"key", b"value");
        // Adversary flips a ciphertext byte and recomputes the CRC.
        let i = HEADER_LEN + 1;
        frame[i] ^= 0xff;
        let crc = crc32(&frame[8..]);
        frame[4..8].copy_from_slice(&crc.to_le_bytes());
        let err = s.decode(&frame, 5, 17).expect_err("must fail MAC");
        assert_eq!(err, LogError::Tampered { segment: 5, offset: 17 });
        assert!(err.is_tamper());
    }

    #[test]
    fn retyping_a_record_is_tampering() {
        let s = sealer();
        let mut frame = s.encode(9, RecordKind::Put, b"key", b"");
        frame[16] = RecordKind::Delete.to_byte(); // put → tombstone
        let crc = crc32(&frame[8..]);
        frame[4..8].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(s.decode(&frame, 0, 0), Err(LogError::Tampered { .. })));
    }

    #[test]
    fn wrong_key_cannot_open_records() {
        let frame = sealer().encode(1, RecordKind::Put, b"k", b"v");
        let other = Sealer::new(b"other-key-16-byt");
        assert!(matches!(other.decode(&frame, 0, 0), Err(LogError::Tampered { .. })));
    }
}

//! Record framing shared by the write-ahead log and snapshot files.
//!
//! Every durable payload is wrapped in a fixed 9-byte header:
//!
//! ```text
//! ┌──────┬───────────┬───────────┬─────────────┐
//! │ kind │ len (u32) │ crc (u32) │ payload …   │
//! │ 1 B  │ LE        │ LE        │ len bytes   │
//! └──────┴───────────┴───────────┴─────────────┘
//! ```
//!
//! The CRC-32 (IEEE 802.3 polynomial, the zlib/`cksum -o3` one) covers the
//! kind byte, the length field, and the payload, so a bit flip anywhere in
//! the record — including a corrupted length — is detected. The kind byte
//! doubles as a magic marker: a region of zero fill can never decode as a
//! record because `0x00` is not a valid kind (CRC-32 of an empty payload
//! is `0`, so without the kind check an all-zero header would pass).
//!
//! Decoding is *prefix-stable*: [`decode_record`] reads one record at an
//! offset and distinguishes a cleanly-ending buffer, a torn tail (short
//! header or short payload — expected after a crash mid-write), and a
//! corrupt record (bad kind or checksum mismatch).

/// Header bytes preceding every payload: kind (1) + len (4) + crc (4).
pub const HEADER_LEN: usize = 9;

/// Hard cap on a single record payload (64 MiB). A corrupted length field
/// that happens to checksum correctly is still rejected beyond this, and
/// the reader never allocates unbounded memory from a bad header.
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// One decode step over a byte buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decoded<'a> {
    /// A whole, checksum-valid record: its kind, payload, and the offset
    /// just past it.
    Record {
        kind: u8,
        payload: &'a [u8],
        next: usize,
    },
    /// The buffer ends exactly at the offset — a clean end of log.
    End,
    /// The buffer ends inside a header or payload — a torn write.
    Torn,
    /// A structurally complete record that fails validation (unknown
    /// kind, oversized length, or checksum mismatch).
    Corrupt,
}

/// CRC-32 (IEEE, reflected, init/xorout `0xFFFF_FFFF`) over `bytes`,
/// continuing from `crc` (start from `0` for a fresh computation).
pub fn crc32(mut crc: u32, bytes: &[u8]) -> u32 {
    // Nibble-driven table: 16 entries is enough to stay fast without a
    // build-time 256-entry table.
    const TABLE: [u32; 16] = [
        0x0000_0000,
        0x1DB7_1064,
        0x3B6E_20C8,
        0x26D9_30AC,
        0x76DC_4190,
        0x6B6B_51F4,
        0x4DB2_6158,
        0x5005_713C,
        0xEDB8_8320,
        0xF00F_9344,
        0xD6D6_A3E8,
        0xCB61_B38C,
        0x9B64_C2B0,
        0x86D3_D2D4,
        0xA00A_E278,
        0xBDBD_F21C,
    ];
    crc = !crc;
    for &b in bytes {
        crc = (crc >> 4) ^ TABLE[((crc ^ b as u32) & 0xF) as usize];
        crc = (crc >> 4) ^ TABLE[((crc ^ (b as u32 >> 4)) & 0xF) as usize];
    }
    !crc
}

/// Serializes one record (header + payload) into a fresh buffer. A
/// payload over [`MAX_PAYLOAD`] is refused with
/// [`std::io::ErrorKind::InvalidInput`]: no reader would accept it.
pub fn encode_record(kind: u8, payload: &[u8]) -> std::io::Result<Vec<u8>> {
    let len = match u32::try_from(payload.len()) {
        Ok(len) if len <= MAX_PAYLOAD => len,
        _ => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "record payload of {} bytes exceeds the {MAX_PAYLOAD}-byte cap",
                    payload.len()
                ),
            ))
        }
    };
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.push(kind);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&[0; 4]); // crc placeholder
    out.extend_from_slice(payload);
    let mut crc = crc32(0, &out[..5]);
    crc = crc32(crc, payload);
    out[5..9].copy_from_slice(&crc.to_le_bytes());
    Ok(out)
}

/// Decodes the record starting at `offset`, validating `kind` against the
/// caller's set of legal kind bytes.
pub fn decode_record<'a>(buf: &'a [u8], offset: usize, valid_kinds: &[u8]) -> Decoded<'a> {
    let rest = &buf[offset.min(buf.len())..];
    if rest.is_empty() {
        return Decoded::End;
    }
    if rest.len() < HEADER_LEN {
        return Decoded::Torn;
    }
    let kind = rest[0];
    let len = u32::from_le_bytes(rest[1..5].try_into().expect("4-byte slice"));
    let stored_crc = u32::from_le_bytes(rest[5..9].try_into().expect("4-byte slice"));
    if !valid_kinds.contains(&kind) || len > MAX_PAYLOAD {
        return Decoded::Corrupt;
    }
    let Some(payload) = rest.get(HEADER_LEN..HEADER_LEN + len as usize) else {
        return Decoded::Torn;
    };
    let mut crc = crc32(0, &rest[..5]);
    crc = crc32(crc, payload);
    if crc != stored_crc {
        return Decoded::Corrupt;
    }
    Decoded::Record {
        kind,
        payload,
        next: offset + HEADER_LEN + len as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(0, b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(0, b""), 0);
        assert_eq!(crc32(0, b"a"), 0xE8B7_BE43);
        // Incremental == one-shot.
        let mut c = crc32(0, b"1234");
        c = crc32(c, b"56789");
        assert_eq!(c, 0xCBF4_3926);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let rec = encode_record(b'S', b"(insert {A1})").unwrap();
        match decode_record(&rec, 0, b"SA") {
            Decoded::Record {
                kind,
                payload,
                next,
            } => {
                assert_eq!(kind, b'S');
                assert_eq!(payload, b"(insert {A1})");
                assert_eq!(next, rec.len());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_payload_is_valid_but_zero_fill_is_not() {
        let rec = encode_record(b'A', b"").unwrap();
        assert!(matches!(
            decode_record(&rec, 0, b"A"),
            Decoded::Record { payload: b"", .. }
        ));
        // 9+ zero bytes must NOT parse as a record.
        assert_eq!(decode_record(&[0u8; 16], 0, b"A"), Decoded::Corrupt);
    }

    #[test]
    fn torn_tails_are_detected() {
        let rec = encode_record(b'S', b"payload").unwrap();
        for cut in 1..rec.len() {
            assert_eq!(
                decode_record(&rec[..cut], 0, b"S"),
                Decoded::Torn,
                "cut at {cut}"
            );
        }
        assert_eq!(decode_record(&rec, rec.len(), b"S"), Decoded::End);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let rec = encode_record(b'S', b"some payload bytes").unwrap();
        for byte in 0..rec.len() {
            for bit in 0..8 {
                let mut bad = rec.clone();
                bad[byte] ^= 1 << bit;
                match decode_record(&bad, 0, b"S") {
                    Decoded::Record { .. } => {
                        panic!("flip at byte {byte} bit {bit} went undetected")
                    }
                    // Length-field flips may also read as torn (length now
                    // exceeds the buffer) — that is still detection.
                    Decoded::Corrupt | Decoded::Torn => {}
                    Decoded::End => unreachable!(),
                }
            }
        }
    }

    #[test]
    fn back_to_back_records_decode_sequentially() {
        let mut buf = encode_record(b'A', b"rain").unwrap();
        buf.extend_from_slice(&encode_record(b'S', b"(insert {rain})").unwrap());
        let Decoded::Record { next, .. } = decode_record(&buf, 0, b"AS") else {
            panic!("first record");
        };
        let Decoded::Record {
            kind,
            payload,
            next,
        } = decode_record(&buf, next, b"AS")
        else {
            panic!("second record");
        };
        assert_eq!((kind, payload), (b'S', b"(insert {rain})".as_slice()));
        assert_eq!(decode_record(&buf, next, b"AS"), Decoded::End);
    }
}

//! On-blade memory layout: bucket slots and key/value blocks.
//!
//! A slot is one 64-bit word, CAS-able in place (RACE's design):
//!
//! ```text
//!  63      56 55      48 47                                    0
//! +----------+----------+---------------------------------------+
//! | fp (8 b) | len (8 b) |            offset (48 b)             |
//! +----------+----------+---------------------------------------+
//! ```
//!
//! `fp` is a fingerprint of the key (filters bucket scans), `len` the
//! key/value block length in 8-byte units, `offset` the block's location
//! within the subtable's blade. A zero word is an empty slot.
//!
//! A key/value block is `[key_len: u32][val_len: u32][key][value]`,
//! padded to 8 bytes. Blocks are immutable once published: updates write
//! a fresh block and CAS the slot over, so concurrent readers always see
//! a consistent block (stale at worst, never torn).

/// An encoded bucket slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Slot(pub u64);

/// Length of one bucket in bytes (8 slots × 8 B — a single RDMA READ).
pub const BUCKET_BYTES: u64 = (SLOTS_PER_BUCKET as u64) * 8;
/// Slots per bucket.
pub const SLOTS_PER_BUCKET: usize = 8;
/// Maximum encodable block length (8-byte units in an 8-bit field).
pub const MAX_BLOCK_BYTES: usize = 255 * 8;

impl Slot {
    /// The empty slot.
    pub const EMPTY: Slot = Slot(0);

    /// Encodes a slot.
    ///
    /// # Panics
    ///
    /// Panics if `offset` exceeds 48 bits or `block_bytes` exceeds
    /// [`MAX_BLOCK_BYTES`] or is not a multiple of 8.
    pub fn encode(fp: u8, block_bytes: usize, offset: u64) -> Slot {
        assert!(offset < (1 << 48), "offset {offset} exceeds 48 bits");
        assert!(
            block_bytes.is_multiple_of(8),
            "block length must be 8-byte aligned"
        );
        assert!(
            block_bytes <= MAX_BLOCK_BYTES,
            "block of {block_bytes} bytes too large"
        );
        assert!(block_bytes > 0, "block must be non-empty");
        let len_units = (block_bytes / 8) as u64;
        Slot(((fp as u64) << 56) | (len_units << 48) | offset)
    }

    /// Whether the slot is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The fingerprint.
    pub fn fp(self) -> u8 {
        (self.0 >> 56) as u8
    }

    /// Block length in bytes.
    pub fn block_bytes(self) -> usize {
        (((self.0 >> 48) & 0xFF) as usize) * 8
    }

    /// Block offset within the blade.
    pub fn offset(self) -> u64 {
        self.0 & 0xFFFF_FFFF_FFFF
    }
}

/// Hashes for key placement: two independent bucket choices plus a
/// fingerprint, all derived from one 64-bit key-hash pair.
#[derive(Clone, Copy, Debug)]
pub struct KeyHash {
    /// Primary hash: selects the subtable and the first bucket.
    pub h1: u64,
    /// Secondary hash: selects the second bucket.
    pub h2: u64,
    /// 8-bit fingerprint stored in slots.
    pub fp: u8,
}

/// Computes the placement hashes of a key.
pub fn hash_key(key: &[u8]) -> KeyHash {
    let h1 = splitmix_bytes(key, 0x51_7C_C1_B7_27_22_0A_95);
    let h2 = splitmix_bytes(key, 0x2545_F491_4F6C_DD1D);
    let mut fp = (h1 >> 48) as u8;
    if fp == 0 {
        fp = 1; // fp 0 is reserved so an empty slot never matches
    }
    KeyHash { h1, h2, fp }
}

fn splitmix_bytes(bytes: &[u8], seed: u64) -> u64 {
    let mut h = seed ^ (bytes.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for chunk in bytes.chunks(8) {
        let mut v = [0u8; 8];
        v[..chunk.len()].copy_from_slice(chunk);
        let mut z = u64::from_le_bytes(v).wrapping_add(h);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h = z ^ (z >> 31);
    }
    h
}

/// Length in bytes of the (8-byte padded) block holding a key of
/// `key_len` bytes and a value of `value_len` bytes.
pub fn block_len(key_len: usize, value_len: usize) -> usize {
    (8 + key_len + value_len).div_ceil(8) * 8
}

/// Serializes a key/value block into `buf`, padding included.
///
/// # Panics
///
/// Panics unless `buf` is exactly [`block_len`]`(key.len(), value.len())`
/// bytes long.
pub fn encode_block_into(buf: &mut [u8], key: &[u8], value: &[u8]) {
    assert_eq!(
        buf.len(),
        block_len(key.len(), value.len()),
        "block buffer must fit the block exactly"
    );
    let (header, body) = buf.split_at_mut(8);
    header[..4].copy_from_slice(&(key.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&(value.len() as u32).to_le_bytes());
    let (k, rest) = body.split_at_mut(key.len());
    k.copy_from_slice(key);
    let (v, pad) = rest.split_at_mut(value.len());
    v.copy_from_slice(value);
    pad.fill(0);
}

/// Serializes a key/value block (8-byte padded).
pub fn encode_block(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut buf = vec![0; block_len(key.len(), value.len())];
    encode_block_into(&mut buf, key, value);
    buf
}

/// Parses a key/value block; returns `(key, value)`.
///
/// Returns `None` if the header is inconsistent with the buffer length.
pub fn decode_block(buf: &[u8]) -> Option<(&[u8], &[u8])> {
    if buf.len() < 8 {
        return None;
    }
    let klen = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes")) as usize;
    let vlen = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes")) as usize;
    if 8 + klen + vlen > buf.len() {
        return None;
    }
    Some((&buf[8..8 + klen], &buf[8 + klen..8 + klen + vlen]))
}

/// Decodes a 64-byte bucket into slots.
pub fn decode_bucket(buf: &[u8]) -> [Slot; SLOTS_PER_BUCKET] {
    assert_eq!(
        buf.len() as u64,
        BUCKET_BYTES,
        "bucket must be {BUCKET_BYTES} bytes"
    );
    let mut slots = [Slot::EMPTY; SLOTS_PER_BUCKET];
    for (i, chunk) in buf.chunks_exact(8).enumerate() {
        slots[i] = Slot(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_roundtrip() {
        let s = Slot::encode(0xAB, 48, 0x1234_5678);
        assert_eq!(s.fp(), 0xAB);
        assert_eq!(s.block_bytes(), 48);
        assert_eq!(s.offset(), 0x1234_5678);
        assert!(!s.is_empty());
        assert!(Slot::EMPTY.is_empty());
    }

    #[test]
    #[should_panic(expected = "48 bits")]
    fn slot_rejects_large_offsets() {
        let _ = Slot::encode(1, 8, 1 << 48);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn slot_rejects_unaligned_len() {
        let _ = Slot::encode(1, 13, 0);
    }

    #[test]
    fn hash_fp_is_never_zero() {
        for k in 0..200u64 {
            assert_ne!(hash_key(&k.to_le_bytes()).fp, 0);
        }
    }

    #[test]
    fn hashes_differ_between_keys() {
        let a = hash_key(b"alpha");
        let b = hash_key(b"beta");
        assert_ne!(a.h1, b.h1);
        assert_ne!(a.h2, b.h2);
    }

    #[test]
    fn h1_h2_are_independent() {
        let k = hash_key(b"key");
        assert_ne!(k.h1, k.h2);
    }

    #[test]
    fn block_roundtrip_various_sizes() {
        for (k, v) in [
            (b"k".as_slice(), b"v".as_slice()),
            (b"key-123", b""),
            (b"", b"value"),
        ] {
            let buf = encode_block(k, v);
            assert_eq!(buf.len() % 8, 0);
            let (dk, dv) = decode_block(&buf).expect("valid block");
            assert_eq!((dk, dv), (k, v));
        }
    }

    #[test]
    fn encode_into_overwrites_stale_padding() {
        let mut buf = [0xEE; 24];
        assert_eq!(block_len(3, 5), 16);
        encode_block_into(&mut buf[..16], b"key", b"value");
        assert_eq!(&buf[..16], encode_block(b"key", b"value").as_slice());
        encode_block_into(&mut buf[..16], b"k", b"v");
        assert_eq!(&buf[..16], encode_block(b"k", b"v").as_slice());
        assert_eq!(buf[16..], [0xEE; 8]);
    }

    #[test]
    fn decode_block_rejects_garbage() {
        assert!(decode_block(&[0; 4]).is_none());
        let mut buf = encode_block(b"key", b"value");
        buf[0] = 0xFF; // absurd key length
        assert!(decode_block(&buf).is_none());
    }

    #[test]
    fn bucket_roundtrip() {
        let mut buf = vec![0u8; BUCKET_BYTES as usize];
        let s = Slot::encode(7, 16, 4096);
        buf[16..24].copy_from_slice(&s.0.to_le_bytes());
        let slots = decode_bucket(&buf);
        assert!(slots[0].is_empty());
        assert_eq!(slots[2], s);
    }
}

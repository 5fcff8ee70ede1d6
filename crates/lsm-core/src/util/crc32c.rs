//! CRC-32C (Castagnoli) with LevelDB's masking, used by the WAL and the
//! SSTable block trailers.
//!
//! The kernel is slicing-by-16: sixteen 256-entry tables, where
//! `TABLES[k][b]` is the CRC contribution of byte `b` followed by `k`
//! zero bytes, let one loop iteration fold sixteen input bytes with
//! sixteen independent table loads and one XOR tree instead of sixteen
//! dependent shift-and-lookup steps. It is table-driven because the
//! workspace forbids `unsafe`, which rules out the SSE4.2 / ARMv8 CRC
//! instructions; every block and WAL record is checksummed on write and
//! on read, and an LSM rewrites each user byte about twice its write
//! amplification, so this loop is the hottest on the host clock. The
//! tables (16 KiB) are built at compile time.

/// Castagnoli polynomial, reflected.
const POLY: u32 = 0x82F63B78;

const fn build_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static TABLES: [[u32; 256]; 16] = build_tables();

/// The raw (no init, no xor-out) CRC-32C of every single-byte message:
/// the table scrub's single-bit corrector walks error syndromes with.
pub(crate) fn byte_table() -> &'static [u32; 256] {
    &TABLES[0]
}

/// CRC-32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    extend(0, data)
}

/// Extends a running CRC-32C with more data.
pub(crate) fn extend(crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !crc;
    let mut chunks = data.chunks_exact(16);
    for c in &mut chunks {
        let lo = u64::from_le_bytes(c[..8].try_into().expect("8 bytes")) ^ u64::from(crc);
        let hi = u64::from_le_bytes(c[8..].try_into().expect("8 bytes"));
        crc = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][((lo >> 24) & 0xFF) as usize]
            ^ t[11][((lo >> 32) & 0xFF) as usize]
            ^ t[10][((lo >> 40) & 0xFF) as usize]
            ^ t[9][((lo >> 48) & 0xFF) as usize]
            ^ t[8][(lo >> 56) as usize]
            ^ t[7][(hi & 0xFF) as usize]
            ^ t[6][((hi >> 8) & 0xFF) as usize]
            ^ t[5][((hi >> 16) & 0xFF) as usize]
            ^ t[4][((hi >> 24) & 0xFF) as usize]
            ^ t[3][((hi >> 32) & 0xFF) as usize]
            ^ t[2][((hi >> 40) & 0xFF) as usize]
            ^ t[1][((hi >> 48) & 0xFF) as usize]
            ^ t[0][(hi >> 56) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

const MASK_DELTA: u32 = 0xa282ead8;

/// LevelDB's CRC masking: stored CRCs are masked so that computing the
/// CRC of a string containing embedded CRCs stays well-behaved.
pub(crate) fn mask(crc: u32) -> u32 {
    crc.rotate_right(15).wrapping_add(MASK_DELTA)
}

/// Inverse of [`mask`].
pub(crate) fn unmask(masked: u32) -> u32 {
    masked.wrapping_sub(MASK_DELTA).rotate_left(15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::rng::XorShift64;

    #[test]
    fn standard_vectors() {
        // From RFC 3720 (iSCSI) test vectors.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A9136AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8AB43);
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD794E);
        assert_eq!(crc32c(b"123456789"), 0xE3069283);
    }

    /// Bit-at-a-time CRC-32C straight from the polynomial: the reference
    /// the table kernel is checked against.
    fn bitwise(crc: u32, data: &[u8]) -> u32 {
        let mut crc = !crc;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (POLY & 0u32.wrapping_sub(crc & 1));
            }
        }
        !crc
    }

    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = XorShift64::new(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn kernel_matches_bitwise_reference_at_every_length_and_alignment() {
        // Every length 0..=300 covers 0..18 full 16-byte strides plus
        // every tail length; every start offset 0..16 covers every
        // alignment of the stride against the buffer.
        let buf = random_bytes(0xC2C, 16 + 300);
        for start in 0..16 {
            for len in 0..=300 {
                let data = &buf[start..start + len];
                assert_eq!(crc32c(data), bitwise(0, data), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn extend_equals_whole_at_every_split() {
        let data = random_bytes(0x5b117, 4096 + 5);
        let whole = crc32c(&data);
        assert_eq!(whole, bitwise(0, &data));
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(extend(crc32c(a), b), whole, "split {split}");
        }
    }

    #[test]
    fn mask_roundtrip() {
        for crc in [0u32, 1, 0xDEADBEEF, u32::MAX] {
            assert_eq!(unmask(mask(crc)), crc);
            assert_ne!(mask(crc), crc, "mask must change the value");
        }
    }

    #[test]
    fn different_data_different_crc() {
        assert_ne!(crc32c(b"a"), crc32c(b"b"));
        assert_ne!(crc32c(b"ab"), crc32c(b"ba"));
    }
}

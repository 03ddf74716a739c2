//! Integrity primitives shared by every checkpoint format in the
//! workspace: the table-driven [`crc32`] and the crash-safe
//! [`atomic_write`].
//!
//! Writes go through [`atomic_write`]: the full buffer is written to a
//! `.tmp` sibling, fsynced, then renamed over the destination. A crash at
//! any point leaves either the previous file intact or a stray `.tmp`
//! that is never read — the visible file is always complete. Formats add
//! a CRC32 footer on top, which additionally rejects bit rot and torn
//! writes on filesystems without atomic rename.

use std::io::Write;
use std::path::Path;

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) lookup table,
/// built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of `bytes` — the checksum `cksum`/zlib compute.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, bytes)
}

/// Streaming CRC32 step: fold `bytes` into running state `crc`.
///
/// Start from `0xFFFF_FFFF`, feed the data in any batching, and finish
/// with a bitwise NOT — `!crc32_update(0xFFFF_FFFF, b) == crc32(b)`.
/// Exported so callers hashing non-contiguous data (the checksummed
/// collectives hash f32 payloads in stack batches) reuse this table
/// instead of growing a second CRC implementation.
pub fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// Write `bytes` to `path` crash-safely: `.tmp` sibling → fsync → rename.
///
/// Concurrent writers to the same path are serialised by the filesystem's
/// rename atomicity: readers see either the old or the new complete file,
/// never a mixture.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // standard test vector: CRC32("123456789") = 0xCBF43926
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_update_streams_to_the_same_digest() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in [0, 1, 7, 20, data.len()] {
            let (a, b) = data.split_at(split);
            let streamed = !crc32_update(crc32_update(0xFFFF_FFFF, a), b);
            assert_eq!(streamed, crc32(data), "split at {split}");
        }
    }
}

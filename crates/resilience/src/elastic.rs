//! World-size-independent training checkpoints (format `GEOFMCK3`), the
//! trainer's one checkpoint format.
//!
//! A checkpoint that stored *per-rank shards* could only be resumed by a
//! world of exactly the size that wrote it, which makes a permanently lost
//! rank fatal: the surviving N−1 ranks hold a perfectly good model but no
//! checkpoint they can read. `GEOFMCK3` stores the **global** (unsharded,
//! unpadded) state plus the layout needed to re-derive any sharding:
//!
//! ```text
//! GEOFMCK3 | u64 payload_len | payload | u32 crc32(payload)
//! payload := u64 step | u64 world_written | u64 shard_n_written
//!          | u64 adam_t
//!          | u64 n_units | n_units × u64 unit_sizes
//!          | u64 n_params | n_params × f32 params
//!          | n_params × f32 adam_m | n_params × f32 adam_v
//!          | u64 n_losses | n_losses × f32 mean_losses
//! ```
//!
//! `world_written` / `shard_n_written` are *provenance*, not constraints: a
//! reader at any world size rebuilds its own `FlatLayout` from `unit_sizes`
//! and extracts its shards from the global buffers. Padding is **not**
//! stored — it is a function of the shard-group size, so it must be
//! re-derived by the reader, never trusted from disk.
//!
//! The loss series must hold exactly `step` entries, since the trainer
//! resumes its loss curve from it. Every failure is a structured
//! [`CkptError`] so callers (and the corruption test suite) can distinguish
//! truncation from bit rot from a stale format version. A file in an older
//! workspace format (the retired per-rank step checkpoint, or the retired
//! `GEOFMCK2` encoder cache) is reported as
//! [`CkptError::LegacyFormat`] rather than a generic bad-magic error, so
//! upgrade paths can be explicit.

use crate::ckpt::{atomic_write, crc32};
use std::path::Path;

const MAGIC: &[u8; 8] = b"GEOFMCK3";

/// Magics of older workspace formats, reported as [`CkptError::LegacyFormat`].
const LEGACY_MAGICS: [&[u8; 8]; 3] = [b"GEOFMSC1", b"GEOFMCK2", b"GEOFMCK1"];

/// Structured parse/IO failure for elastic checkpoints. Never a panic:
/// every malformed input maps to exactly one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The file ends before the structure it promises (`needed` more bytes
    /// than the `have` available at the failing section).
    Truncated {
        /// Bytes present.
        have: usize,
        /// Bytes the header/section demanded.
        needed: usize,
    },
    /// The first 8 bytes are not a known checkpoint magic.
    BadMagic {
        /// The bytes found (lossy, for diagnostics).
        found: [u8; 8],
    },
    /// The magic belongs to an older workspace format that must be
    /// migrated, not silently reinterpreted.
    LegacyFormat {
        /// The legacy magic as a string (e.g. `"GEOFMCK2"`).
        magic: &'static str,
    },
    /// The CRC32 footer does not match the payload (bit rot / torn write).
    BadCrc {
        /// CRC stored in the footer.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// Internally inconsistent sections (e.g. a length field that
    /// overflows the payload, zero units, trailing bytes).
    Malformed(&'static str),
    /// The checkpoint parses but does not describe this model: its
    /// `unit_sizes` differ from the live model's.
    LayoutMismatch {
        /// Units recorded in the checkpoint.
        ckpt_units: Vec<usize>,
        /// Units of the live model.
        model_units: Vec<usize>,
    },
    /// Filesystem error (missing file, permission, short read).
    Io(String),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated { have, needed } => {
                write!(f, "truncated checkpoint: have {have} bytes, need {needed}")
            }
            Self::BadMagic { found } => {
                write!(f, "bad checkpoint magic {:?}", String::from_utf8_lossy(found))
            }
            Self::LegacyFormat { magic } => {
                write!(f, "legacy checkpoint format {magic} (expected GEOFMCK3)")
            }
            Self::BadCrc { stored, computed } => {
                write!(f, "checkpoint CRC mismatch: stored {stored:#010x}, computed {computed:#010x}")
            }
            Self::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
            Self::LayoutMismatch { ckpt_units, model_units } => {
                write!(f, "checkpoint layout {ckpt_units:?} does not match model {model_units:?}")
            }
            Self::Io(e) => write!(f, "checkpoint io error: {e}"),
        }
    }
}

impl std::error::Error for CkptError {}

/// A world-size-independent training checkpoint: global parameter and
/// AdamW moment buffers plus the unit layout and (informational) shard-map
/// provenance. Readable at any world size.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ElasticCheckpoint {
    /// Number of fully completed steps (the run resumes at this index).
    pub step: u64,
    /// World size of the writer — provenance only, never a read constraint.
    pub world_written: u64,
    /// Shard-group size of the writer — provenance only.
    pub shard_n_written: u64,
    /// AdamW step counter (global; identical on every rank by SPMD).
    pub adam_t: u64,
    /// Per-unit parameter counts — the global flat layout. A reader builds
    /// `FlatLayout::new(&unit_sizes, its_own_shard_n)` and extracts shards.
    pub unit_sizes: Vec<usize>,
    /// Global unpadded flat parameters (length = sum of `unit_sizes`).
    pub params: Vec<f32>,
    /// Global AdamW first moments, aligned with `params`.
    pub adam_m: Vec<f32>,
    /// Global AdamW second moments, aligned with `params`.
    pub adam_v: Vec<f32>,
    /// World-mean loss per completed step (length = `step`; guard-skipped
    /// steps carry the canonical NaN placeholder).
    pub mean_losses: Vec<f32>,
}

impl ElasticCheckpoint {
    /// Serialise to the on-disk format (header + payload + CRC footer).
    pub fn to_bytes(&self) -> Vec<u8> {
        debug_assert_eq!(self.params.len(), self.adam_m.len());
        debug_assert_eq!(self.params.len(), self.adam_v.len());
        let mut payload = Vec::new();
        for v in [self.step, self.world_written, self.shard_n_written, self.adam_t] {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        payload.extend_from_slice(&(self.unit_sizes.len() as u64).to_le_bytes());
        for &u in &self.unit_sizes {
            payload.extend_from_slice(&(u as u64).to_le_bytes());
        }
        payload.extend_from_slice(&(self.params.len() as u64).to_le_bytes());
        for series in [&self.params, &self.adam_m, &self.adam_v] {
            for v in series.iter() {
                payload.extend_from_slice(&v.to_le_bytes());
            }
        }
        payload.extend_from_slice(&(self.mean_losses.len() as u64).to_le_bytes());
        for v in &self.mean_losses {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        let mut out = Vec::with_capacity(20 + payload.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out
    }

    /// Parse and validate. Every malformed input is a [`CkptError`]; this
    /// never panics, whatever the bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CkptError> {
        if bytes.len() < 8 {
            return Err(CkptError::Truncated { have: bytes.len(), needed: 8 });
        }
        if &bytes[..8] != MAGIC {
            for legacy in LEGACY_MAGICS {
                if &bytes[..8] == legacy {
                    // `legacy` is a 'static ASCII literal, so this never fails
                    let magic = std::str::from_utf8(legacy).unwrap_or("legacy");
                    return Err(CkptError::LegacyFormat { magic });
                }
            }
            let mut found = [0u8; 8];
            found.copy_from_slice(&bytes[..8]);
            return Err(CkptError::BadMagic { found });
        }
        if bytes.len() < 20 {
            return Err(CkptError::Truncated { have: bytes.len(), needed: 20 });
        }
        let payload_len =
            u64::from_le_bytes(bytes[8..16].try_into().expect("fixed 8-byte slice")) as usize;
        let total = match payload_len.checked_add(20) {
            Some(t) => t,
            None => return Err(CkptError::Malformed("payload length overflows")),
        };
        if bytes.len() < total {
            return Err(CkptError::Truncated { have: bytes.len(), needed: total });
        }
        if bytes.len() > total {
            return Err(CkptError::Malformed("trailing bytes after CRC footer"));
        }
        let payload = &bytes[16..16 + payload_len];
        let stored =
            u32::from_le_bytes(bytes[16 + payload_len..].try_into().expect("fixed 4-byte slice"));
        let computed = crc32(payload);
        if stored != computed {
            return Err(CkptError::BadCrc { stored, computed });
        }

        let mut off = 0usize;
        let take = |off: &mut usize, n: usize| -> Result<&[u8], CkptError> {
            let end = off
                .checked_add(n)
                .ok_or(CkptError::Malformed("section length overflows"))?;
            let s = payload
                .get(*off..end)
                .ok_or(CkptError::Truncated { have: payload.len() - *off, needed: n })?;
            *off = end;
            Ok(s)
        };
        let read_u64 = |off: &mut usize| -> Result<u64, CkptError> {
            Ok(u64::from_le_bytes(take(off, 8)?.try_into().expect("fixed 8-byte slice")))
        };
        let read_f32s = |off: &mut usize, n: usize| -> Result<Vec<f32>, CkptError> {
            let raw = take(off, n.checked_mul(4).ok_or(CkptError::Malformed("f32 count overflows"))?)?;
            Ok(raw.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect())
        };

        let step = read_u64(&mut off)?;
        let world_written = read_u64(&mut off)?;
        let shard_n_written = read_u64(&mut off)?;
        let adam_t = read_u64(&mut off)?;
        let n_units = read_u64(&mut off)? as usize;
        if n_units == 0 {
            return Err(CkptError::Malformed("zero units"));
        }
        if n_units > payload_len / 8 {
            return Err(CkptError::Malformed("unit count exceeds payload"));
        }
        let mut unit_sizes = Vec::with_capacity(n_units);
        let mut unit_total = 0usize;
        for _ in 0..n_units {
            let u = read_u64(&mut off)? as usize;
            unit_total = unit_total
                .checked_add(u)
                .ok_or(CkptError::Malformed("unit sizes overflow"))?;
            unit_sizes.push(u);
        }
        let n_params = read_u64(&mut off)? as usize;
        if n_params != unit_total {
            return Err(CkptError::Malformed("parameter count disagrees with unit sizes"));
        }
        let params = read_f32s(&mut off, n_params)?;
        let adam_m = read_f32s(&mut off, n_params)?;
        let adam_v = read_f32s(&mut off, n_params)?;
        let n_losses = read_u64(&mut off)?;
        if n_losses != step {
            return Err(CkptError::Malformed("loss series length disagrees with step"));
        }
        let mean_losses = read_f32s(&mut off, n_losses as usize)?;
        if off != payload.len() {
            return Err(CkptError::Malformed("payload bytes left over"));
        }
        Ok(Self {
            step,
            world_written,
            shard_n_written,
            adam_t,
            unit_sizes,
            params,
            adam_m,
            adam_v,
            mean_losses,
        })
    }

    /// Check that this checkpoint describes a model with `model_units`.
    /// [`CkptError::LayoutMismatch`] is the structured "wrong model /
    /// wrong world of units" verdict the trainer surfaces on resume.
    pub fn validate_units(&self, model_units: &[usize]) -> Result<(), CkptError> {
        if self.unit_sizes != model_units {
            return Err(CkptError::LayoutMismatch {
                ckpt_units: self.unit_sizes.clone(),
                model_units: model_units.to_vec(),
            });
        }
        Ok(())
    }

    /// Crash-safe save (`.tmp` sibling → fsync → rename).
    pub fn save(&self, path: &Path) -> Result<(), CkptError> {
        atomic_write(path, &self.to_bytes()).map_err(|e| CkptError::Io(e.to_string()))
    }

    /// Load and validate from disk.
    pub fn load(path: &Path) -> Result<Self, CkptError> {
        let bytes = std::fs::read(path).map_err(|e| CkptError::Io(e.to_string()))?;
        Self::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ElasticCheckpoint {
        ElasticCheckpoint {
            step: 5,
            world_written: 4,
            shard_n_written: 2,
            adam_t: 5,
            unit_sizes: vec![10, 7],
            params: (0..17).map(|i| i as f32 * 0.5).collect(),
            adam_m: (0..17).map(|i| i as f32 * 0.01).collect(),
            adam_v: (0..17).map(|i| i as f32 * 0.001).collect(),
            mean_losses: vec![3.0, 2.5, f32::NAN, 2.0, 1.75],
        }
    }

    fn bits(ck: &ElasticCheckpoint) -> Vec<u32> {
        ck.params
            .iter()
            .chain(&ck.adam_m)
            .chain(&ck.adam_v)
            .chain(&ck.mean_losses)
            .map(|v| v.to_bits())
            .collect()
    }

    #[test]
    fn roundtrip_is_bit_exact_including_nan_losses() {
        let ck = sample();
        let back = ElasticCheckpoint::from_bytes(&ck.to_bytes()).expect("must parse");
        assert_eq!(bits(&ck), bits(&back));
        assert_eq!(back.step, 5);
        assert_eq!(back.unit_sizes, vec![10, 7]);
        assert_eq!(back.world_written, 4);
        assert_eq!(back.shard_n_written, 2);
    }

    #[test]
    fn truncation_anywhere_is_a_structured_error() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            match ElasticCheckpoint::from_bytes(&bytes[..cut]) {
                Err(_) => {}
                Ok(_) => panic!("truncation at byte {cut} must be rejected"),
            }
        }
    }

    #[test]
    fn bit_flips_are_rejected() {
        let bytes = sample().to_bytes();
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x20;
            assert!(
                ElasticCheckpoint::from_bytes(&bad).is_err(),
                "bit flip at byte {pos} must be rejected"
            );
        }
    }

    #[test]
    fn legacy_magics_are_named() {
        let mut bytes = sample().to_bytes();
        bytes[..8].copy_from_slice(b"GEOFMSC1");
        assert_eq!(
            ElasticCheckpoint::from_bytes(&bytes),
            Err(CkptError::LegacyFormat { magic: "GEOFMSC1" })
        );
        bytes[..8].copy_from_slice(b"GEOFMCK2");
        assert_eq!(
            ElasticCheckpoint::from_bytes(&bytes),
            Err(CkptError::LegacyFormat { magic: "GEOFMCK2" })
        );
    }

    #[test]
    fn garbage_magic_is_bad_magic() {
        assert!(matches!(
            ElasticCheckpoint::from_bytes(b"NOTACKPT-and-the-rest"),
            Err(CkptError::BadMagic { .. })
        ));
        assert!(matches!(
            ElasticCheckpoint::from_bytes(b"abc"),
            Err(CkptError::Truncated { .. })
        ));
    }

    #[test]
    fn layout_mismatch_is_structured() {
        let ck = sample();
        assert!(ck.validate_units(&[10, 7]).is_ok());
        assert!(matches!(
            ck.validate_units(&[10, 8]),
            Err(CkptError::LayoutMismatch { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.extend_from_slice(&[0xAB; 7]);
        assert_eq!(
            ElasticCheckpoint::from_bytes(&bytes),
            Err(CkptError::Malformed("trailing bytes after CRC footer"))
        );
    }

    #[test]
    fn loss_series_disagreeing_with_step_is_malformed() {
        // CRC-valid images whose loss series is longer or shorter than the
        // step count: a resume would misalign the world-mean loss curve
        for n_losses in [10, 0, 4, 6] {
            let ck = ElasticCheckpoint { mean_losses: vec![1.0; n_losses], ..sample() };
            assert_eq!(
                ElasticCheckpoint::from_bytes(&ck.to_bytes()),
                Err(CkptError::Malformed("loss series length disagrees with step")),
                "{n_losses} losses at step 5"
            );
        }
    }

    #[test]
    fn save_load_roundtrip_and_missing_file_is_io() {
        let dir = std::env::temp_dir().join("geofm-elastic-ckpt-rt");
        let path = dir.join("elastic.ckpt");
        let ck = sample();
        ck.save(&path).unwrap();
        let back = ElasticCheckpoint::load(&path).unwrap();
        assert_eq!(bits(&ck), bits(&back));
        assert!(!path.with_extension("tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
        assert!(matches!(ElasticCheckpoint::load(&path), Err(CkptError::Io(_))));
    }
}

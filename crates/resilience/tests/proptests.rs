//! Property tests for the GEOFMCK3 decoder (`ElasticCheckpoint`): valid
//! images round-trip bit-exactly, and mutated payloads — re-sealed with a
//! correct length header and CRC so the structural checks behind the CRC
//! are reached — never panic the decoder and never decode to an image
//! that is not self-consistent.

use geofm_resilience::{crc32, ElasticCheckpoint};
use proptest::prelude::*;

/// splitmix64: one drawn seed expands into as many values as a case needs.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A valid image: arbitrary f32 bit patterns (NaN payloads, infinities,
/// subnormals) and `step` losses, some the canonical NaN skip placeholder.
fn image(unit_sizes: Vec<usize>, step: usize, seed: u64) -> ElasticCheckpoint {
    let mut s = seed;
    let mut series = |len: usize| -> Vec<f32> {
        (0..len).map(|_| f32::from_bits(mix(&mut s) as u32)).collect()
    };
    let n = unit_sizes.iter().sum();
    let (params, adam_m, adam_v) = (series(n), series(n), series(n));
    let mut mean_losses = series(step);
    for (i, v) in mean_losses.iter_mut().enumerate() {
        if (seed >> (i % 64)) & 3 == 0 {
            *v = f32::NAN;
        }
    }
    ElasticCheckpoint {
        step: step as u64,
        world_written: 1 + seed % 8,
        shard_n_written: 1 + seed % 4,
        adam_t: seed % 1000,
        unit_sizes,
        params,
        adam_m,
        adam_v,
        mean_losses,
    }
}

fn bits(ck: &ElasticCheckpoint) -> Vec<u32> {
    let series = [&ck.params, &ck.adam_m, &ck.adam_v, &ck.mean_losses];
    series.iter().flat_map(|s| s.iter().map(|x| x.to_bits())).collect()
}

/// Decode `payload` framed with a matching length header and CRC; any
/// accepted image must satisfy the decoder's postconditions.
fn decode_resealed(payload: &[u8]) -> Option<ElasticCheckpoint> {
    let mut sealed = b"GEOFMCK3".to_vec();
    sealed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    sealed.extend_from_slice(payload);
    sealed.extend_from_slice(&crc32(payload).to_le_bytes());
    let ck = ElasticCheckpoint::from_bytes(&sealed).ok()?;
    assert_eq!(ck.params.len(), ck.unit_sizes.iter().sum::<usize>());
    assert_eq!((ck.adam_m.len(), ck.adam_v.len()), (ck.params.len(), ck.params.len()));
    assert_eq!(ck.mean_losses.len() as u64, ck.step);
    assert_eq!(ck.to_bytes(), sealed, "an accepted image must re-encode to its own bytes");
    Some(ck)
}

/// Payload offsets of the image's u64 fields: the four header words, the
/// unit count and sizes, the parameter count and the loss count.
fn u64_fields(ck: &ElasticCheckpoint) -> Vec<usize> {
    let n_params_at = 40 + 8 * ck.unit_sizes.len();
    let mut at: Vec<usize> = (0..n_params_at / 8).map(|i| 8 * i).collect();
    at.extend([n_params_at, n_params_at + 8 + 12 * ck.params.len()]);
    at
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Encode then decode is the identity, bit for bit, for any unit
    /// layout (zero-length units included) and any f32 contents.
    #[test]
    fn valid_images_round_trip_bit_exactly(
        unit_sizes in proptest::collection::vec(0usize..40, 1..6),
        step in 0usize..12,
        seed in 0u64..u64::MAX,
    ) {
        let ck = image(unit_sizes, step, seed);
        let bytes = ck.to_bytes();
        let back = decode_resealed(&bytes[16..bytes.len() - 4]).expect("a valid image decodes");
        prop_assert_eq!(bits(&back), bits(&ck));
        prop_assert_eq!(&back.unit_sizes, &ck.unit_sizes);
        prop_assert_eq!(
            (back.step, back.world_written, back.shard_n_written, back.adam_t),
            (ck.step, ck.world_written, ck.shard_n_written, ck.adam_t)
        );
    }

    /// Byte flips, truncations and overwritten length fields, each
    /// re-sealed: the decoder returns a verdict (never a panic, never an
    /// unbounded allocation), and anything it accepts is self-consistent.
    #[test]
    fn resealed_mutations_never_panic_the_decoder(
        unit_sizes in proptest::collection::vec(0usize..40, 1..6),
        step in 0usize..12,
        seed in 0u64..u64::MAX,
        mutation in 0u8..3,
    ) {
        let ck = image(unit_sizes, step, seed);
        let bytes = ck.to_bytes();
        let mut payload = bytes[16..bytes.len() - 4].to_vec();
        let mut s = seed.rotate_left(17);
        let len = payload.len() as u64;
        match mutation {
            0 => {
                for _ in 0..1 + mix(&mut s) % 4 {
                    payload[(mix(&mut s) % len) as usize] ^= 1 << (mix(&mut s) % 8);
                }
            }
            1 => payload.truncate((mix(&mut s) % len) as usize),
            _ => {
                let fields = u64_fields(&ck);
                let at = fields[(mix(&mut s) % fields.len() as u64) as usize];
                let value = [0, 1, mix(&mut s) % 64, u64::MAX, 1 << 61, mix(&mut s)];
                let value = value[(mix(&mut s) % 6) as usize];
                payload[at..at + 8].copy_from_slice(&value.to_le_bytes());
            }
        }
        decode_resealed(&payload);
    }

    /// Overwriting one payload byte decodes to a self-consistent image or
    /// an error; a byte no structural check constrains (the provenance
    /// words, AdamW `t`, the f32 sections) always decodes.
    #[test]
    fn accepted_images_re_encode_to_identical_bytes(
        unit_sizes in proptest::collection::vec(0usize..40, 1..6),
        step in 0usize..12,
        seed in 0u64..u64::MAX,
    ) {
        let ck = image(unit_sizes, step, seed);
        let bytes = ck.to_bytes();
        let mut payload = bytes[16..bytes.len() - 4].to_vec();
        let mut s = seed.rotate_left(31);
        let at = (mix(&mut s) % payload.len() as u64) as usize;
        payload[at] = mix(&mut s) as u8;
        let data = 48 + 8 * ck.unit_sizes.len();
        let n_losses_at = data + 12 * ck.params.len();
        let free = (8..32).contains(&at)
            || (data..n_losses_at).contains(&at)
            || at >= n_losses_at + 8;
        let decoded = decode_resealed(&payload);
        prop_assert!(decoded.is_some() || !free, "unconstrained byte {} was rejected", at);
    }
}

//! Corrupted-checkpoint suite: every malformed on-disk artifact must be
//! *rejected*, never trusted and never a panic.
//!
//! Covers the workspace's one checkpoint format, the trainer's
//! world-size-independent `GEOFMCK3`, abused end-to-end: the file under
//! test is written by the *trainer*, and the reader must map truncation /
//! bit rot / legacy magics / layout mismatch each to its own structured
//! [`CkptError`] — `Option`-style silent `None`s are not acceptable here,
//! because the resharding trainer branches on the *kind* of rejection.
//! (The parser's unit tests in `geofm-resilience` truncate and bit-flip its
//! image at **every** byte; `crates/resilience/tests/proptests.rs` fuzzes
//! it.)

use geofm_fsdp::{try_run_elastic, DistReport, ElasticConfig, FsdpConfig, ResilienceConfig};
use geofm_nn::{Linear, Module, ParamVisitor};
use geofm_resilience::{CkptError, ElasticCheckpoint, FailureReport};
use geofm_tensor::{Tensor, TensorRng};
use std::path::PathBuf;
use std::time::Duration;

fn test_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("geofm-ws-ckpt-{tag}-{}", std::process::id()))
}

#[test]
fn both_checkpoint_formats_share_the_canonical_crc32() {
    // One table-driven CRC32 for the whole workspace, implemented in
    // geofm-resilience and reused by the GEOFMCK3 footer, the GEOFMSH1
    // shard records and the collective payload checksums. The streaming
    // form must agree with the one-shot digest.
    let payload = b"geofm shared integrity primitive";
    let mid = payload.len() / 2;
    let partial = geofm_resilience::crc32_update(0xFFFF_FFFF, &payload[..mid]);
    assert_eq!(
        !geofm_resilience::crc32_update(partial, &payload[mid..]),
        geofm_resilience::crc32(payload)
    );
}

// ---------------------------------------------------------------------------
// GEOFMCK3 (elastic) corruption coverage, end-to-end through the trainer
// ---------------------------------------------------------------------------

struct Toy {
    a: Linear,
    b: Linear,
}

impl Module for Toy {
    fn visit_params(&mut self, f: &mut ParamVisitor) {
        self.a.visit_params(f);
        self.b.visit_params(f);
    }
}

impl Toy {
    fn new(seed: u64) -> (Self, Vec<usize>) {
        let mut rng = TensorRng::seed_from(seed);
        let mut a = Linear::new(3, 2, &mut rng, "a");
        let mut b = Linear::new(3, 2, &mut rng, "b");
        let units = vec![a.num_params(), b.num_params()];
        (Self { a, b }, units)
    }

    fn compute(&mut self, x: &Tensor, y: &Tensor) -> f32 {
        self.zero_grad();
        let ya = self.a.forward(x);
        let yb = self.b.forward(x);
        let out = ya.add(&yb);
        let diff = out.sub(y);
        let n = diff.numel() as f32;
        let loss = diff.sum_sq() / n;
        let dy = diff.scale(2.0 / n);
        let _ = self.a.backward(&dy);
        let _ = self.b.backward(&dy);
        loss
    }
}

/// A short fault-free elastic run at world 2; `resilience` decides whether
/// (and where) the GEOFMCK3 image lands on disk.
fn toy_elastic_run(resilience: ResilienceConfig) -> Result<DistReport, FailureReport> {
    try_run_elastic(
        FsdpConfig::tuned(geofm_fsdp::ShardingStrategy::FullShard),
        2,
        0.01,
        4,
        |_| Toy::new(7),
        |m, rank, world, step| {
            let mut rng = TensorRng::seed_from(900 + step as u64);
            let x = rng.randn(&[8, 3], 1.0);
            let y = rng.randn(&[8, 2], 1.0);
            let per = 8 / world;
            let xl = x.rows(rank * per, (rank + 1) * per);
            let yl = y.rows(rank * per, (rank + 1) * per);
            m.compute(&xl, &yl)
        },
        |_| 0.01,
        None,
        resilience,
    )
}

fn elastic_resilience(path: PathBuf) -> ResilienceConfig {
    ResilienceConfig {
        checkpoint_every: 2,
        collective_timeout: Some(Duration::from_secs(5)),
        elastic: Some(ElasticConfig {
            checkpoint_path: Some(path),
            ..ElasticConfig::default()
        }),
        ..ResilienceConfig::disabled()
    }
}

#[test]
fn elastic_checkpoint_written_by_trainer_rejects_every_corruption() {
    let dir = test_dir("elastic");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("elastic.ck3");
    toy_elastic_run(elastic_resilience(path.clone())).expect("writer run must succeed");

    let good = std::fs::read(&path).unwrap();
    let pristine = ElasticCheckpoint::load(&path).expect("pristine GEOFMCK3 must load");
    assert_eq!(pristine.step, 4, "writer ran 4 steps at cadence 2");
    assert_eq!(pristine.world_written, 2);
    assert_eq!(pristine.params.len(), pristine.unit_sizes.iter().sum::<usize>());

    // Truncation: every structural boundary plus a stride sweep. Always a
    // structured error, never a panic, never a silently "loaded" image.
    let mut cuts = vec![0, 1, 7, 8, 9, 15, 16, 17, good.len() - 5, good.len() - 4, good.len() - 1];
    cuts.extend((0..good.len()).step_by(13));
    for cut in cuts {
        std::fs::write(&path, &good[..cut]).unwrap();
        assert!(
            ElasticCheckpoint::load(&path).is_err(),
            "truncation at byte {cut} must be a structured error"
        );
    }

    // Bit rot: flip one bit at every stride-7 offset; the CRC must catch
    // anything the structural checks miss.
    for pos in (0..good.len()).step_by(7) {
        let mut bad = good.clone();
        bad[pos] ^= 0x40;
        std::fs::write(&path, &bad).unwrap();
        assert!(
            ElasticCheckpoint::load(&path).is_err(),
            "bit flip at byte {pos} must be a structured error"
        );
    }

    // Version skew: each legacy magic is *named*, not a generic bad-magic.
    for legacy in ["GEOFMSC1", "GEOFMCK2", "GEOFMCK1"] {
        let mut stale = good.clone();
        stale[..8].copy_from_slice(legacy.as_bytes());
        std::fs::write(&path, &stale).unwrap();
        assert_eq!(
            ElasticCheckpoint::load(&path),
            Err(CkptError::LegacyFormat { magic: legacy }),
            "legacy magic {legacy} must be reported by name"
        );
    }

    // Unknown magic and appended garbage get their own verdicts.
    let mut alien = good.clone();
    alien[..8].copy_from_slice(b"NOTACKPT");
    std::fs::write(&path, &alien).unwrap();
    assert!(matches!(ElasticCheckpoint::load(&path), Err(CkptError::BadMagic { .. })));
    let mut long = good.clone();
    long.extend_from_slice(&[0xAB; 9]);
    std::fs::write(&path, &long).unwrap();
    assert!(matches!(ElasticCheckpoint::load(&path), Err(CkptError::Malformed(_))));

    // World mismatch: a checkpoint for a *different model* parses fine but
    // fails unit validation with the structured layout verdict.
    let other = ElasticCheckpoint { unit_sizes: vec![3, 4], ..pristine.clone() };
    assert!(matches!(
        other.validate_units(&pristine.unit_sizes),
        Err(CkptError::LayoutMismatch { .. })
    ));

    // After all that abuse the restored bytes still load bit-exactly.
    std::fs::write(&path, &good).unwrap();
    let back = ElasticCheckpoint::load(&path).unwrap();
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    assert_eq!(bits(&back.params), bits(&pristine.params));
    assert_eq!(bits(&back.adam_m), bits(&pristine.adam_m));
    assert_eq!(bits(&back.adam_v), bits(&pristine.adam_v));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trainer_starts_fresh_when_elastic_checkpoint_is_garbage() {
    let dir = test_dir("elastic-garbage");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("elastic.ck3");
    let fresh = toy_elastic_run(ResilienceConfig {
        collective_timeout: Some(Duration::from_secs(5)),
        ..ResilienceConfig::disabled()
    })
    .expect("fresh run must succeed");
    // a CRC-valid image of the right model whose loss series disagrees
    // with its step would misalign the resumed loss curve
    let units = Toy::new(7).1;
    let n: usize = units.iter().sum();
    let misaligned = |n_losses: usize| {
        ElasticCheckpoint {
            step: 2,
            world_written: 2,
            shard_n_written: 2,
            adam_t: 2,
            unit_sizes: units.clone(),
            params: vec![0.5; n],
            adam_m: vec![0.0; n],
            adam_v: vec![0.0; n],
            mean_losses: vec![1.0; n_losses],
        }
        .to_bytes()
    };
    // a torn/corrupt file at the resume path must be rejected and the run
    // started fresh — identical to a run with no checkpoint at all
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    for (what, bytes) in [
        ("nonsense payload", b"GEOFMCK3 but then the payload is nonsense".to_vec()),
        ("10 losses at step 2", misaligned(10)),
        ("0 losses at step 2", misaligned(0)),
    ] {
        std::fs::write(&path, &bytes).unwrap();
        let abused = toy_elastic_run(elastic_resilience(path.clone()))
            .unwrap_or_else(|e| panic!("{what}: run must not trust the image: {e}"));
        assert_eq!(bits(&abused.final_params), bits(&fresh.final_params), "{what}");
        assert_eq!(bits(&abused.mean_losses), bits(&fresh.mean_losses), "{what}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trainer_surfaces_layout_mismatch_as_structured_failure() {
    let dir = test_dir("elastic-mismatch");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("elastic.ck3");
    // a *valid* GEOFMCK3 for a different model: parses, seeds the resume,
    // then must be rejected at unit validation with a structured failure
    let wrong = ElasticCheckpoint {
        step: 2,
        world_written: 2,
        shard_n_written: 2,
        adam_t: 2,
        unit_sizes: vec![3, 4],
        params: vec![0.5; 7],
        adam_m: vec![0.0; 7],
        adam_v: vec![0.0; 7],
        mean_losses: vec![1.0, 0.9],
    };
    wrong.save(&path).unwrap();
    let mut resilience = elastic_resilience(path);
    resilience.max_restarts = 0;
    let report = toy_elastic_run(resilience).expect_err("mismatched layout must fail the run");
    assert!(
        report.failures.iter().any(|f| f.cause.contains("elastic checkpoint rejected")),
        "failure must carry the structured rejection, got {:?}",
        report.failures
    );
    let _ = std::fs::remove_dir_all(&dir);
}

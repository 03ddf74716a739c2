//! The four benchmark datasets of the paper (Table II), as synthetic
//! analogues with the same class counts and split protocol.

use crate::scene::SceneRenderer;
use geofm_tensor::{Tensor, TensorRng};

/// The datasets used in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// MillionAID: 51 classes; 990 848 pretraining images; probe split
    /// 1000 train / 9000 test.
    MillionAid,
    /// UC Merced Land Use: 21 classes; 1050/1050 at TR=50 %.
    Ucm,
    /// AID: 30 classes; 2000/8000 at TR=20 %.
    Aid,
    /// NWPU-RESISC45: 45 classes; 3150/28350 at TR=10 %.
    Nwpu,
}

/// Train/test sample counts for a probe split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitSizes {
    /// Training samples.
    pub train: usize,
    /// Testing samples.
    pub test: usize,
}

impl DatasetKind {
    /// All four datasets in paper order.
    pub fn all() -> [DatasetKind; 4] {
        [Self::MillionAid, Self::Ucm, Self::Aid, Self::Nwpu]
    }

    /// Paper display name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::MillionAid => "MillionAID",
            Self::Ucm => "UCM",
            Self::Aid => "AID",
            Self::Nwpu => "NWPU",
        }
    }

    /// Number of scene classes (Table II).
    pub fn classes(&self) -> usize {
        match self {
            Self::MillionAid => 51,
            Self::Ucm => 21,
            Self::Aid => 30,
            Self::Nwpu => 45,
        }
    }

    /// The paper's probe split sizes (Table II).
    pub fn paper_split(&self) -> SplitSizes {
        match self {
            Self::MillionAid => SplitSizes { train: 1000, test: 9000 },
            Self::Ucm => SplitSizes { train: 1050, test: 1050 },
            Self::Aid => SplitSizes { train: 2000, test: 8000 },
            Self::Nwpu => SplitSizes { train: 3150, test: 28350 },
        }
    }

    /// The paper's pretraining corpus size (MillionAID only).
    pub fn paper_pretrain_size(&self) -> Option<usize> {
        match self {
            Self::MillionAid => Some(990_848),
            _ => None,
        }
    }

    /// Training ratio TR used in Table III.
    pub fn train_ratio(&self) -> f32 {
        let s = self.paper_split();
        s.train as f32 / (s.train + s.test) as f32
    }

    /// Deterministic generator salt (one generative "sensor/geography" per
    /// dataset).
    pub fn salt(&self) -> u64 {
        match self {
            Self::MillionAid => 0x4D41_4944, // "MAID"
            Self::Ucm => 0x0055_434D,
            Self::Aid => 0x0041_4944,
            Self::Nwpu => 0x4E57_5055,
        }
    }
}

/// An in-memory labelled scene dataset.
#[derive(Debug, Clone)]
pub struct SceneDataset {
    /// Which benchmark this models.
    pub kind: DatasetKind,
    /// `[n, channels·img·img]` images.
    pub images: Tensor,
    /// Class labels, `0..kind.classes()`.
    pub labels: Vec<usize>,
    /// Image edge length.
    pub img: usize,
    /// Channels.
    pub channels: usize,
}

impl SceneDataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Generate a dataset with `n` samples distributed round-robin across
    /// classes, shuffled deterministically by `seed`. `sample_offset`
    /// separates disjoint splits (train vs test vs pretrain).
    pub fn generate(
        kind: DatasetKind,
        n: usize,
        img: usize,
        channels: usize,
        sample_offset: u64,
        seed: u64,
    ) -> Self {
        let classes = kind.classes();
        let renderer = SceneRenderer::new(img, channels, kind.salt());
        let per_class = n / classes;
        let extra = n % classes;
        let pix = channels * img * img;
        let mut images = Tensor::zeros(&[n, pix]);
        let mut labels = Vec::with_capacity(n);
        let mut row = 0usize;
        for c in 0..classes {
            let count = per_class + usize::from(c < extra);
            if count == 0 {
                continue;
            }
            let rendered = renderer.render_class(c, count, sample_offset);
            images.data_mut()[row * pix..(row + count) * pix].copy_from_slice(rendered.data());
            labels.extend(std::iter::repeat_n(c, count));
            row += count;
        }
        // deterministic shuffle so batches are class-mixed
        let mut rng = TensorRng::seed_from(seed ^ kind.salt());
        let perm = rng.permutation(n);
        let shuffled_images = images.gather_rows(&perm);
        let shuffled_labels: Vec<usize> = perm.iter().map(|&i| labels[i]).collect();
        Self { kind, images: shuffled_images, labels: shuffled_labels, img, channels }
    }

    /// Generate a probe train/test pair with the paper's class-balanced
    /// protocol, scaled by `scale` (1.0 = the paper's exact Table II sizes).
    /// Train and test samples are disjoint by construction.
    pub fn probe_split(
        kind: DatasetKind,
        scale: f64,
        img: usize,
        channels: usize,
    ) -> (SceneDataset, SceneDataset) {
        let split = kind.paper_split();
        let train_n = ((split.train as f64 * scale).round() as usize).max(kind.classes());
        let test_n = ((split.test as f64 * scale).round() as usize).max(kind.classes());
        let train = Self::generate(kind, train_n, img, channels, 0, 11);
        // offset past any train index so the sample streams are disjoint
        let test = Self::generate(kind, test_n, img, channels, 1_000_000, 13);
        (train, test)
    }

    /// Borrow a batch by indices.
    pub fn batch(&self, idx: &[usize]) -> (Tensor, Vec<usize>) {
        let images = self.images.gather_rows(idx);
        let labels = idx.iter().map(|&i| self.labels[i]).collect();
        (images, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_constants() {
        assert_eq!(DatasetKind::MillionAid.classes(), 51);
        assert_eq!(DatasetKind::Ucm.classes(), 21);
        assert_eq!(DatasetKind::Aid.classes(), 30);
        assert_eq!(DatasetKind::Nwpu.classes(), 45);
        assert_eq!(DatasetKind::MillionAid.paper_split(), SplitSizes { train: 1000, test: 9000 });
        assert_eq!(DatasetKind::Ucm.paper_split(), SplitSizes { train: 1050, test: 1050 });
        assert_eq!(DatasetKind::Aid.paper_split(), SplitSizes { train: 2000, test: 8000 });
        assert_eq!(DatasetKind::Nwpu.paper_split(), SplitSizes { train: 3150, test: 28350 });
        assert_eq!(DatasetKind::MillionAid.paper_pretrain_size(), Some(990_848));
    }

    #[test]
    fn train_ratios_match_paper() {
        assert!((DatasetKind::Ucm.train_ratio() - 0.50).abs() < 1e-6);
        assert!((DatasetKind::Aid.train_ratio() - 0.20).abs() < 1e-6);
        assert!((DatasetKind::Nwpu.train_ratio() - 0.10).abs() < 1e-6);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SceneDataset::generate(DatasetKind::Ucm, 42, 16, 3, 0, 5);
        let b = SceneDataset::generate(DatasetKind::Ucm, 42, 16, 3, 0, 5);
        assert_eq!(a.images, b.images);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn labels_cover_all_classes_when_big_enough() {
        let d = SceneDataset::generate(DatasetKind::Ucm, 63, 16, 3, 0, 5);
        let mut seen = [false; 21];
        for &l in &d.labels {
            seen[l] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 21 classes present");
        // balanced: 63 = 3 per class
        for c in 0..21 {
            assert_eq!(d.labels.iter().filter(|&&l| l == c).count(), 3);
        }
    }

    #[test]
    fn probe_split_train_test_disjoint() {
        let (train, test) = SceneDataset::probe_split(DatasetKind::Ucm, 0.05, 16, 3);
        assert!(!train.is_empty() && !test.is_empty());
        // no identical images between splits (generated from disjoint seeds)
        for i in 0..train.len().min(10) {
            for j in 0..test.len().min(10) {
                let a = train.images.row(i);
                let b = test.images.row(j);
                let same = a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9);
                assert!(!same, "train[{}] == test[{}]", i, j);
            }
        }
    }

    #[test]
    fn batch_gathers_right_rows() {
        let d = SceneDataset::generate(DatasetKind::Aid, 30, 8, 1, 0, 3);
        let (imgs, labels) = d.batch(&[4, 7]);
        assert_eq!(imgs.shape(), &[2, 64]);
        assert_eq!(labels, vec![d.labels[4], d.labels[7]]);
        assert_eq!(imgs.row(0), d.images.row(4));
    }

    #[test]
    fn different_datasets_have_different_images() {
        let a = SceneDataset::generate(DatasetKind::Ucm, 10, 16, 3, 0, 5);
        let b = SceneDataset::generate(DatasetKind::Aid, 10, 16, 3, 0, 5);
        assert!(a.images.max_abs_diff(&b.images) > 1e-3);
    }

    /// A simple nearest-class-mean classifier on raw pixels should beat
    /// chance (classes are real) but stay far from perfect (nuisances are
    /// strong) — the regime where representation quality matters.
    #[test]
    fn raw_pixel_classification_is_hard_but_not_impossible() {
        let kind = DatasetKind::Ucm;
        let train = SceneDataset::generate(kind, 210, 16, 3, 0, 5);
        let test = SceneDataset::generate(kind, 105, 16, 3, 500_000, 7);
        let classes = kind.classes();
        let pix = 3 * 16 * 16;
        // class means
        let mut means = vec![vec![0.0f32; pix]; classes];
        let mut counts = vec![0usize; classes];
        for i in 0..train.len() {
            let c = train.labels[i];
            counts[c] += 1;
            for (m, &v) in means[c].iter_mut().zip(train.images.row(i)) {
                *m += v;
            }
        }
        for (m, &c) in means.iter_mut().zip(&counts) {
            for v in m.iter_mut() {
                *v /= c.max(1) as f32;
            }
        }
        let mut correct = 0usize;
        for i in 0..test.len() {
            let row = test.images.row(i);
            let mut best = (f32::INFINITY, 0usize);
            for (c, m) in means.iter().enumerate() {
                let d: f32 = row.iter().zip(m).map(|(a, b)| (a - b) * (a - b)).sum();
                if d < best.0 {
                    best = (d, c);
                }
            }
            if best.1 == test.labels[i] {
                correct += 1;
            }
        }
        let acc = correct as f32 / test.len() as f32;
        let chance = 1.0 / classes as f32;
        assert!(acc > 2.0 * chance, "above chance: acc {} vs chance {}", acc, chance);
        assert!(acc < 0.9, "not trivially easy: acc {}", acc);
    }
}

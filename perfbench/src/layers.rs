//! Layer rows: the `tensor` kernels and `nn` layers timed in isolation at
//! the shapes the workload's step actually runs (per-rank batch, visible
//! tokens in the encoder, the full token grid in the decoder).

use crate::stats::median;
use crate::workload::Spec;
use geofm_nn::{AdamW, Gelu, LayerNorm, MultiHeadAttention, Optimizer, TransformerBlock};
use geofm_tensor::{bmm, matmul, matmul_a_bt, matmul_at_b, Tensor, TensorRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Shapes of one rank's step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shapes {
    /// Images per rank.
    pub batch: usize,
    /// Visible (encoder) tokens per image.
    pub visible: usize,
    /// All (decoder) tokens per image.
    pub tokens: usize,
    /// Encoder width, MLP width and heads.
    pub enc: (usize, usize, usize),
    /// Decoder width, MLP width and heads.
    pub dec: (usize, usize, usize),
    /// Parameters one rank's optimizer updates.
    pub owned_params: usize,
}

impl Shapes {
    /// The shapes `spec` runs.
    pub fn of(spec: &Spec, num_params: usize) -> Self {
        let cfg = spec.mae_config();
        let e = &cfg.encoder;
        let visible = geofm_mae::MaskSampler::new(e.tokens(), cfg.mask_ratio).visible();
        Self {
            batch: spec.per_rank(),
            visible,
            tokens: e.tokens(),
            enc: (e.width, e.mlp, e.heads),
            dec: (cfg.dec_width, 4 * cfg.dec_width, cfg.dec_heads),
            owned_params: num_params.div_ceil(spec.shard_n()),
        }
    }

    /// Every linear layer of a block as `(rows, in, out)`: QKV, output
    /// projection and the two MLP matmuls, for encoder then decoder.
    pub fn linears(&self) -> Vec<(usize, usize, usize)> {
        let mut out = Vec::new();
        for (rows, (w, m, _)) in [
            (self.batch * self.visible, self.enc),
            (self.batch * self.tokens, self.dec),
        ] {
            out.extend([(rows, w, 3 * w), (rows, w, w), (rows, w, m), (rows, m, w)]);
        }
        out
    }

    /// Per-head attention products as `(batch·heads, tokens, head_dim)`.
    pub fn heads(&self) -> Vec<(usize, usize, usize)> {
        let (ew, _, eh) = self.enc;
        let (dw, _, dh) = self.dec;
        vec![
            (self.batch * eh, self.visible, ew / eh),
            (self.batch * dh, self.tokens, dw / dh),
        ]
    }
}

/// Median wall time of `f` over repetitions filling `budget` (at least
/// three, after one untimed warm-up call).
fn time_median(budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || (t0.elapsed() < budget && samples.len() < 10_000) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples).expect("at least three samples")
}

/// One named layer metric.
pub type Row = (&'static str, &'static str, f64);

/// Time every layer row of `shapes`, spending about `budget` in total.
pub fn measure(shapes: &Shapes, budget: Duration) -> Vec<Row> {
    let mut rng = TensorRng::seed_from(0x1A7E);
    let lins = shapes.linears();
    let heads = shapes.heads();
    let items = 3 * lins.len() + heads.len() + 6;
    let each = budget / items as u32;
    let mut rows = Vec::new();

    // tensor: GFLOP/s summed over the step's shapes (2·m·n·k per product)
    let mut gflops = |name: &'static str,
                      shapes: &[(usize, usize, usize)],
                      run: &mut dyn FnMut(usize, usize, usize) -> f64| {
        let (mut flops, mut secs) = (0.0, 0.0);
        for &(m, k, n) in shapes {
            flops += 2.0 * (m * k * n) as f64;
            secs += run(m, k, n);
        }
        rows.push((name, "GFLOP/s", flops / secs / 1e9));
    };
    let mk = |rng: &mut TensorRng, shape: &[usize]| rng.randn(shape, 1.0);
    // forward y = x·Wᵀ: x [rows, in], W [out, in]
    gflops("tensor.matmul_a_bt.gflops", &lins, &mut |m, k, n| {
        let (x, w) = (mk(&mut rng, &[m, k]), mk(&mut rng, &[n, k]));
        time_median(each, || {
            black_box(matmul_a_bt(black_box(&x), black_box(&w)));
        })
    });
    // weight grad dW = dYᵀ·X: dY [rows, out], X [rows, in] → [out, in]
    let wgrad: Vec<_> = lins.iter().map(|&(r, i, o)| (o, r, i)).collect();
    gflops("tensor.matmul_at_b.gflops", &wgrad, &mut |m, k, n| {
        let (dy, x) = (mk(&mut rng, &[k, m]), mk(&mut rng, &[k, n]));
        time_median(each, || {
            black_box(matmul_at_b(black_box(&dy), black_box(&x)));
        })
    });
    // input grad dX = dY·W: dY [rows, out], W [out, in]
    let xgrad: Vec<_> = lins.iter().map(|&(r, i, o)| (r, o, i)).collect();
    gflops("tensor.matmul.gflops", &xgrad, &mut |m, k, n| {
        let (dy, w) = (mk(&mut rng, &[m, k]), mk(&mut rng, &[k, n]));
        time_median(each, || {
            black_box(matmul(black_box(&dy), black_box(&w)));
        })
    });
    // per-head context probs·V: [bh, t, t]·[bh, t, hd]
    let mut bmm_flops = 0.0;
    let mut bmm_secs = 0.0;
    for &(bh, t, hd) in &heads {
        let (p, v) = (mk(&mut rng, &[bh, t, t]), mk(&mut rng, &[bh, t, hd]));
        bmm_flops += 2.0 * (bh * t * t * hd) as f64;
        bmm_secs += time_median(each, || {
            black_box(bmm(black_box(&p), black_box(&v)));
        });
    }
    rows.push(("tensor.bmm.gflops", "GFLOP/s", bmm_flops / bmm_secs / 1e9));

    // nn: forward + backward of whole layers
    let (ew, em, eh) = shapes.enc;
    let (dw, dm, dh) = shapes.dec;
    let (b, v, t) = (shapes.batch, shapes.visible, shapes.tokens);
    let mut fwd_bwd_ms =
        |name: &'static str, mut layer: Box<dyn FnMut(&Tensor) -> Tensor>, x: Tensor| {
            let s = time_median(each, || {
                black_box(layer(black_box(&x)));
            });
            rows.push((name, "ms", s * 1e3));
        };
    let mut blk = TransformerBlock::new(ew, em, eh, &mut rng, "enc");
    let x = mk(&mut rng, &[b, v, ew]);
    fwd_bwd_ms(
        "nn.block_enc.fwd_bwd_ms",
        Box::new(move |x| {
            let y = blk.forward(x);
            blk.backward(&y)
        }),
        x,
    );
    let mut blk = TransformerBlock::new(dw, dm, dh, &mut rng, "dec");
    let x = mk(&mut rng, &[b, t, dw]);
    fwd_bwd_ms(
        "nn.block_dec.fwd_bwd_ms",
        Box::new(move |x| {
            let y = blk.forward(x);
            blk.backward(&y)
        }),
        x,
    );
    let mut attn = MultiHeadAttention::new(ew, eh, &mut rng, "attn");
    let x = mk(&mut rng, &[b, v, ew]);
    fwd_bwd_ms(
        "nn.attention.fwd_bwd_ms",
        Box::new(move |x| {
            let y = attn.forward(x);
            attn.backward(&y)
        }),
        x,
    );

    // elementwise layers: ns per element of one forward + backward
    let mut per_elem =
        |name: &'static str, mut layer: Box<dyn FnMut(&Tensor) -> Tensor>, x: Tensor| {
            let n = x.numel() as f64;
            let s = time_median(each, || {
                black_box(layer(black_box(&x)));
            });
            rows.push((name, "ns", s * 1e9 / n));
        };
    let mut gelu = Gelu::new();
    let x = mk(&mut rng, &[b * v, em]);
    per_elem(
        "nn.gelu.ns_per_elem",
        Box::new(move |x| {
            let y = gelu.forward(x);
            gelu.backward(&y)
        }),
        x,
    );
    let mut ln = LayerNorm::new(ew, "ln");
    let x = mk(&mut rng, &[b * v, ew]);
    per_elem(
        "nn.layernorm.ns_per_elem",
        Box::new(move |x| {
            let y = ln.forward(x);
            ln.backward(&y)
        }),
        x,
    );

    // AdamW over the parameters one rank owns
    let n = shapes.owned_params;
    let mut opt = AdamW::new(n, 0.05);
    let mut params = mk(&mut rng, &[n]).into_vec();
    let grads = mk(&mut rng, &[n]).into_vec();
    let s = time_median(each, || {
        opt.step(black_box(&mut params), black_box(&grads), 1e-3)
    });
    rows.push(("nn.adamw.ns_per_param", "ns", s * 1e9 / n as f64));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SPECS;

    #[test]
    fn shapes_follow_the_workload() {
        let s = Shapes::of(&SPECS[1], 1000);
        assert_eq!(s.batch, 8, "world 2 splits the global batch");
        assert_eq!((s.visible, s.tokens), (16, 64), "75% of 64 tokens masked");
        assert_eq!(s.enc, (96, 384, 8));
        assert_eq!(s.dec, (48, 192, 4));
        assert_eq!(
            s.owned_params, 500,
            "FULL_SHARD halves the optimizer's share"
        );
        assert_eq!(s.linears()[0], (128, 96, 288), "encoder QKV");
        assert_eq!(s.linears()[6], (512, 48, 192), "decoder MLP up-projection");
        assert_eq!(s.heads(), vec![(64, 16, 12), (32, 64, 12)]);
        assert_eq!(
            Shapes::of(&SPECS[2], 1000).owned_params,
            1000,
            "NO_SHARD replicates"
        );
    }
}

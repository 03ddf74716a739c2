//! End-to-end and per-layer benchmark of MAE-ViT pretraining through the
//! geofm FSDP engine.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload t3b_w1 --seed 1 --seconds 35 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of untraced episodes;
//! `--trace 1` alternates untraced and traced episodes, times the layer
//! rows, writes a Chrome trace and prints the per-layer metrics. The last
//! stdout line is the JSON result; a readable table goes to stderr.
//! See `perfbench/README.md` for every metric.

mod anatomy;
mod json;
mod layers;
mod report;
mod stats;
mod workload;

use anatomy::{Clock, StepSpans};
use report::{Metrics, END_TO_END, PER_LAYER};
use stats::{median, percentile, samples_needed};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{
    run_episode, Episode, Fixture, Inject, Job, Spec, REFERENCE_REL_TOL, REFERENCE_STEPS,
};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
[--inject corrupt-input|bad-reference]";
/// Scratch files and traces, relative to the directory the run starts in.
const OUT_DIR: &str = "perfbench/out";

/// Seed of the model init. Fixed, unlike the inputs: across seeds, init
/// dominates the spread of `loss_final`, and the model is not an input.
const MODEL_SEED: u64 = 0;
/// One-step engine calls per run that only sample `setup_s`.
const SETUP_PROBES: usize = 12;
/// `peak_rss_mb` is read after this many untraced episodes, a fixed amount
/// of work, so it does not grow with the episodes `--seconds` fits.
const RSS_AFTER_EPISODES: usize = 3;
/// Step-period percentile `ips` is taken at; a run times enough steps to
/// leave ten beyond it. On a shared host, neighbours slow steps by up to
/// 1.6× in bursts: the median then moves with the share of the run that
/// was contended, while the 90th percentile stays in the contended regime.
const IPS_P: f64 = 90.0;
/// Episodes stop starting after this long, whatever `--seconds` asks.
const HARD_CAP: Duration = Duration::from_secs(120);
/// Share of a traced run spent on episodes; the rest times layer rows.
const TRACED_EPISODE_SHARE: f64 = 0.8;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    inject: Option<Inject>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut inject = None;
        while let Some(flag) = it.next() {
            let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {v}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(val),
                "--seed" => seed = Some(num(&val)?),
                "--seconds" => seconds = Some(num(&val)?.max(1)),
                "--trace" => trace = Some(num(&val)? != 0),
                "--inject" => {
                    inject = Some(Inject::parse(&val).ok_or(format!("unknown --inject {val}"))?)
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            inject,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Losses of a successful episode (empty for a failed one).
fn losses(ep: &Episode) -> &[f32] {
    ep.result.as_ref().map_or(&[], |r| &r.mean_losses)
}

/// Steps of `ep` that failed, were skipped (NaN placeholder) or re-run.
fn lost_steps(ep: &Episode) -> usize {
    match &ep.result {
        Err(_) => ep.steps,
        Ok(r) => r.mean_losses.iter().filter(|l| !l.is_finite()).count() + r.restarts * ep.steps,
    }
}

/// The output checks of one episode.
fn check(ep: &Episode, reference: Option<&[f32]>, first: Option<&[f32]>) -> Result<(), String> {
    let r = ep
        .result
        .as_ref()
        .map_err(|f| format!("engine failed: {f}"))?;
    if r.mean_losses.len() != ep.steps || r.mean_losses.iter().any(|l| !l.is_finite()) {
        return Err(format!("non-finite or missing losses: {:?}", r.mean_losses));
    }
    if r.restarts != 0 {
        return Err(format!("{} restarts", r.restarts));
    }
    if let Some(g) = r.guard.as_ref().filter(|g| g.trips > 0) {
        return Err(format!("{} guard trips", g.trips));
    }
    if let Some(d) = r.data.as_ref().filter(|d| !d.quarantined.is_empty()) {
        return Err(format!("{} records quarantined", d.quarantined.len()));
    }
    if ep.marks.iter().any(|m| m.len() != ep.steps) {
        return Err("a rank missed compute-closure entries".into());
    }
    for (what, want) in [("world-1 reference", reference), ("first episode", first)] {
        let Some(want) = want else { continue };
        for (k, (a, b)) in r.mean_losses.iter().zip(want).enumerate() {
            if !stats::rel_close(*a, *b, REFERENCE_REL_TOL) {
                return Err(format!("step {k} loss {a} differs from the {what}'s {b}"));
            }
        }
    }
    Ok(())
}

/// Rank-0 step periods (ms) of the timed steps, indexed from `warmup`.
fn periods_ms(spec: &Spec, ep: &Episode) -> Vec<f64> {
    let e: Vec<Instant> = ep.marks[0].iter().map(|m| m.entry).collect();
    (spec.warmup..e.len().saturating_sub(1))
        .map(|k| (e[k + 1] - e[k]).as_secs_f64() * 1e3)
        .collect()
}

/// Global images per second at the `IPS_P`-th percentile step period of
/// the timed steps of `eps`.
fn ips(spec: &Spec, eps: &[Episode]) -> f64 {
    let periods: Vec<f64> = eps.iter().flat_map(|e| periods_ms(spec, e)).collect();
    stats::rate_at(&periods, IPS_P, spec.global_batch).unwrap_or(f64::NAN)
}

/// Mean step loss over the episode's last pass through the corpus, so
/// every image weighs in once whatever the shuffle order.
fn loss_final(spec: &Spec, losses: &[f32]) -> f64 {
    let last = &losses[losses.len().saturating_sub(spec.epoch_steps())..];
    if last.is_empty() {
        return f64::NAN;
    }
    last.iter().map(|&l| f64::from(l)).sum::<f64>() / last.len() as f64
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Analytic MAE training FLOPs per image: encoder on the visible tokens,
/// decoder embed + blocks + prediction head on all tokens, backward = 2×
/// forward.
fn mae_flops_per_image(spec: &Spec) -> f64 {
    let cfg = spec.mae_config();
    let e = &cfg.encoder;
    let visible = geofm_mae::MaskSampler::new(e.tokens(), cfg.mask_ratio).visible();
    let dec = geofm_vit::VitConfig {
        width: cfg.dec_width,
        depth: cfg.dec_depth,
        mlp: 4 * cfg.dec_width,
        heads: cfg.dec_heads,
        ..e.clone()
    };
    let fwd = geofm_vit::flops::encoder_flops(e, visible, true)
        + 2.0 * (visible * e.width * cfg.dec_width) as f64
        + geofm_vit::flops::encoder_flops(&dec, e.tokens(), false)
        + 2.0 * (e.tokens() * cfg.dec_width * e.patch_dim()) as f64;
    3.0 * fwd
}

fn run(args: &Args) -> Result<String, String> {
    let spec = workload::find(&args.workload)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let out = Path::new(OUT_DIR);
    std::fs::create_dir_all(out).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let t_fixture = Instant::now();
    let fx = Fixture::build(spec, args.seed, out, args.inject)?;
    let job = |steps, traced| Job {
        world: spec.world,
        steps,
        traced,
        checkpoint: true,
        init_seed: MODEL_SEED,
    };

    // a world-2 run must reproduce a short world-1 run of the same seed
    let reference = (spec.world > 1).then(|| {
        let init_seed = MODEL_SEED + u64::from(args.inject == Some(Inject::BadReference));
        let ep = run_episode(
            &fx,
            &Job {
                world: 1,
                steps: REFERENCE_STEPS,
                traced: false,
                checkpoint: false,
                init_seed,
            },
        );
        losses(&ep).to_vec()
    });

    eprintln!(
        "perfbench: fixture + reference in {:.2} s",
        t_fixture.elapsed().as_secs_f64()
    );
    let budget = Duration::from_secs(args.seconds);
    let per_ep = (spec.steps - 1 - spec.warmup).max(1);
    let want_samples = samples_needed(IPS_P, 10);
    // setup_s is an end-to-end metric: traced runs skip its extra samples
    let n_probes = if args.trace { 0 } else { SETUP_PROBES };
    let probes: Vec<Episode> = (0..n_probes)
        .map(|_| run_episode(&fx, &job(1, false)))
        .collect();
    let t0 = Instant::now();
    let (mut untraced, mut traced): (Vec<Episode>, Vec<Episode>) = (Vec::new(), Vec::new());
    let mut peak_rss = f64::NAN;
    // traced runs alternate untraced and traced episodes in pairs
    let (limit, per_round) = if args.trace {
        (budget.mul_f64(TRACED_EPISODE_SHARE), 2)
    } else {
        (budget, 1)
    };
    loop {
        let elapsed = t0.elapsed();
        let trace_next = args.trace && traced.len() < untraced.len();
        let run = untraced.len() + traced.len();
        let must = if args.trace {
            untraced.is_empty() || trace_next
        } else {
            untraced.len() * per_ep < want_samples
        };
        // stop once the next round would overrun the budget
        let next_round = elapsed.checked_div(run as u32).unwrap_or_default() * per_round;
        if (!must && elapsed + next_round > limit) || (elapsed >= HARD_CAP && !trace_next) {
            break;
        }
        let ep = run_episode(&fx, &job(spec.steps, trace_next));
        if trace_next {
            traced.push(ep)
        } else {
            untraced.push(ep)
        }
        if untraced.len() <= RSS_AFTER_EPISODES {
            peak_rss = peak_rss_mb();
        }
    }

    // output checks
    let first = untraced.first().map(|ep| losses(ep).to_vec());
    let mut problems = Vec::new();
    if let Some(r) = &reference {
        if r.len() != REFERENCE_STEPS {
            problems.push("the world-1 reference run failed".to_string());
        }
    }
    let all = || probes.iter().chain(&untraced).chain(&traced);
    for (i, ep) in all().enumerate() {
        if let Err(e) = check(ep, reference.as_deref(), first.as_deref()) {
            problems.push(format!("episode {i}: {e}"));
        }
    }
    let attempted: usize = all().map(|e| e.steps).sum();
    let lost: usize = all().map(lost_steps).sum();
    let correct = problems.is_empty();
    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }

    let ips_of = |eps: &[Episode]| ips(&spec, eps);
    let (catalogue, metrics) = if args.trace {
        let mut m = per_layer(&spec, &fx, &untraced, &traced, budget, out, args.seed)?;
        m.set(
            &PER_LAYER,
            "mae.gflops",
            mae_flops_per_image(&spec) * ips_of(&untraced) / 1e9,
        );
        m.set(
            &PER_LAYER,
            "telemetry.overhead_pct",
            (ips_of(&untraced) / ips_of(&traced) - 1.0) * 100.0,
        );
        m.set(
            &PER_LAYER,
            "fail_ratio",
            stats::fail_ratio(attempted, lost, correct),
        );
        (&PER_LAYER[..], m)
    } else {
        let periods: Vec<f64> = untraced.iter().flat_map(|e| periods_ms(&spec, e)).collect();
        let mut m = Metrics::default();
        m.set(&END_TO_END, "ips", ips_of(&untraced));
        let setups: Vec<f64> = probes.iter().chain(&untraced).map(|e| e.setup_s).collect();
        m.set(&END_TO_END, "setup_s", median(&setups).unwrap_or(f64::NAN));
        m.set(&END_TO_END, "peak_rss_mb", peak_rss);
        m.set(
            &END_TO_END,
            "loss_final",
            loss_final(&spec, first.as_deref().unwrap_or(&[])),
        );
        let qs: Vec<String> = [0.0, 10.0, 25.0, 50.0, 75.0, IPS_P]
            .iter()
            .map(|&p| format!("p{p}={:.1}", percentile(&periods, p).unwrap_or(f64::NAN)))
            .collect();
        eprintln!("perfbench: step period ms {}", qs.join(" "));
        eprintln!(
            "perfbench: {} episodes, {} timed steps ({} beyond p{IPS_P}), world {} ({} cores available)",
            untraced.len(),
            periods.len(),
            stats::samples_beyond(periods.len(), IPS_P),
            spec.world,
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        );
        (&END_TO_END[..], m)
    };
    let missing = metrics.missing(catalogue);
    assert!(missing.is_empty(), "metrics not computed: {missing:?}");
    eprintln!(
        "perfbench: {} seed {} trace {}",
        spec.name,
        args.seed,
        u8::from(args.trace)
    );
    for (d, v) in metrics.rows(catalogue) {
        eprintln!(
            "  {:<28} {:>14.4} {:<8} ({} is better)",
            d.name, v, d.unit, d.better
        );
    }
    Ok(report::result_line(
        correct, attempted, lost, catalogue, &metrics,
    ))
}

/// Sum and count of engine histogram `name` over traced episodes, as mean
/// milliseconds per recorded sample (0 when never recorded).
fn hist_mean_ms(traced: &[Episode], name: &str) -> f64 {
    let (sum, count) = traced
        .iter()
        .filter_map(|e| e.telemetry.as_ref())
        .filter_map(|t| t.metrics.snapshot().histograms.get(name).cloned())
        .fold((0u64, 0u64), |(s, c), h| (s + h.sum, c + h.count));
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64 / 1e6
    }
}

fn hist_sum(traced: &[Episode], name: &str) -> f64 {
    traced
        .iter()
        .filter_map(|e| e.telemetry.as_ref())
        .filter_map(|t| {
            t.metrics
                .snapshot()
                .histograms
                .get(name)
                .map(|h| h.sum as f64)
        })
        .sum()
}

/// Per-layer metrics of a traced run; also writes the Chrome trace of the
/// last traced episode.
fn per_layer(
    spec: &Spec,
    fx: &Fixture,
    untraced: &[Episode],
    traced: &[Episode],
    budget: Duration,
    out: &std::path::Path,
    seed: u64,
) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let mut set = |name: &str, v: f64| m.set(&PER_LAYER, name, v);

    // spans of every traced episode, per rank, timed steps only
    let mut per_rank: Vec<Vec<StepSpans>> = vec![Vec::new(); spec.world];
    for (i, ep) in traced.iter().enumerate() {
        let tel = ep
            .telemetry
            .as_ref()
            .expect("traced episodes carry telemetry");
        let starts = anatomy::compute_starts(&anatomy::parse_trace(tel), spec.world);
        let clock = Clock::of(tel);
        for (rank, marks) in ep.marks.iter().enumerate() {
            let spans = anatomy::step_spans(marks, &starts[rank], clock);
            if i + 1 == traced.len() {
                anatomy::record(tel, rank, &spans);
            }
            per_rank[rank].extend(spans.into_iter().skip(spec.warmup));
        }
        if i + 1 == traced.len() {
            let path = out.join(format!("trace-{}-seed{seed}.json", spec.name));
            let written = tel
                .trace
                .write_json(&path)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            eprintln!("perfbench: trace written to {}", written.display());
        }
    }
    let r0 = &per_rank[0];
    let ms = |f: &dyn Fn(&StepSpans) -> f64| {
        median(&r0.iter().map(|s| f(s) / 1e3).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    let total = |f: &dyn Fn(&StepSpans) -> f64| r0.iter().map(f).sum::<f64>();
    set("data.wait_ms_p50", ms(&|s| s.data.len()));
    set(
        "data.wait_share",
        total(&|s| s.data.len()) / total(&|s| s.step.len()),
    );
    set("mae.mask_ms_p50", ms(&|s| s.mask.len()));
    set("mae.fwd_ms_p50", ms(&|s| s.fwd.len()));
    set("mae.bwd_ms_p50", ms(&|s| s.bwd.len()));
    set("fsdp.self_ms_p50", ms(&|s| s.engine_self()));
    set(
        "fsdp.compute_share",
        total(&|s| s.closure.len()) / total(&|s| s.step.len()),
    );
    let skew: Vec<f64> = match per_rank.get(1) {
        Some(r1) => r0
            .iter()
            .zip(r1)
            .map(|(a, b)| (a.closure.len() - b.closure.len()).abs() / 1e3)
            .collect(),
        None => vec![0.0],
    };
    set("fsdp.rank_skew_ms", median(&skew).unwrap_or(f64::NAN));

    // the engine's own telemetry
    set("fsdp.gather_ms", hist_mean_ms(traced, "fsdp.gather.ns"));
    set("fsdp.regather_ms", hist_mean_ms(traced, "fsdp.regather.ns"));
    set("fsdp.reduce_ms", hist_mean_ms(traced, "fsdp.reduce.ns"));
    set(
        "fsdp.optimizer_ms",
        hist_mean_ms(traced, "fsdp.optimizer.ns"),
    );
    let step_ns = hist_sum(traced, "overlap.step.ns");
    set(
        "fsdp.exposed_comm_share",
        if step_ns > 0.0 {
            hist_sum(traced, "overlap.exposed.ns") / step_ns
        } else {
            0.0
        },
    );

    // reports: traffic, ingest accounting, checkpoints
    let reports: Vec<_> = traced
        .iter()
        .filter_map(|e| e.result.as_ref().ok())
        .collect();
    let steps: usize = traced
        .iter()
        .filter(|e| e.result.is_ok())
        .map(|e| e.steps)
        .sum();
    let per_step = |v: u64| {
        if steps == 0 {
            f64::NAN
        } else {
            v as f64 / steps as f64
        }
    };
    set(
        "collectives.bytes_per_step",
        per_step(reports.iter().map(|r| r.traffic.total()).sum()),
    );
    set(
        "collectives.calls_per_step",
        per_step(reports.iter().map(|r| r.traffic.calls).sum()),
    );
    let data = |f: &dyn Fn(&geofm_resilience::DataReport) -> u64| {
        reports
            .iter()
            .filter_map(|r| r.data.as_ref())
            .map(f)
            .sum::<u64>() as f64
    };
    set("data.retries", data(&|d| d.retries));
    set("data.hedges", data(&|d| d.hedges));
    set("data.quarantined", data(&|d| d.quarantined.len() as u64));
    let (mut ck, mut rest) = (Vec::new(), Vec::new());
    for ep in untraced {
        for (i, p) in periods_ms(spec, ep).into_iter().enumerate() {
            if spec.checkpoints_after(spec.warmup + i) {
                ck.push(p)
            } else {
                rest.push(p)
            }
        }
    }
    let stall = match (median(&ck), median(&rest)) {
        (Some(a), Some(b)) => a - b,
        _ => 0.0,
    };
    set("resilience.ckpt_stall_ms", stall);
    let ckpt_bytes = untraced
        .iter()
        .chain(traced)
        .filter_map(|e| e.ckpt_bytes)
        .next_back()
        .unwrap_or(0);
    set("resilience.ckpt_bytes", ckpt_bytes as f64);

    // layer rows at this workload's shapes, in the remaining budget
    let num_params = fx.make_model(MODEL_SEED).1.iter().sum();
    let shapes = layers::Shapes::of(spec, num_params);
    for (name, _, v) in layers::measure(&shapes, budget.mul_f64(1.0 - TRACED_EPISODE_SHARE)) {
        m.set(&PER_LAYER, name, v);
    }
    Ok(m)
}

//! `sim_paper`: the paper's Table IV four-application mixes under its
//! seven schemes, one (mix, scheme) simulation per operation, each the
//! same call the `experiment` artifacts make (`ExpConfig::run_one`:
//! default `CmpConfig`, DDR2-400, online profiling, default phases).

use std::collections::BTreeMap;
use std::time::Instant;

use bwpart_cmp::runner::AloneProfile;
use bwpart_cmp::{CmpConfig, RunObserver, Runner, ShareSource, SimOutcome};
use bwpart_core::PartitionScheme;
use bwpart_experiments::harness::ExpConfig;
use bwpart_workloads::mixes::{hetero_mixes, homo_mixes};
use bwpart_workloads::{BenchProfile, Mix};

use crate::reference::{self, OBJECTIVES};
use crate::report::Outcome;
use crate::spans::Spans;
use crate::stats;
use crate::Args;

/// Set-ups timed per run (see [`crate::Setups`]); `setup_s` is their
/// median.
const SETUPS: usize = 8;

/// Tolerance on the paper's optimal scheme trailing the best of the seven
/// schemes in an objective's geomean over the mixes run.
const OPTIMAL_TOLERANCE: f64 = 0.03;

/// The 14 Table IV mixes, homogeneous first (Figure 2's order).
fn mix_order() -> Vec<Mix> {
    homo_mixes().into_iter().chain(hetero_mixes()).collect()
}

/// What set-up produces: the mixes and the standalone reference runs.
struct Setup {
    mixes: Vec<Mix>,
    alone: BTreeMap<String, AloneProfile>,
    build_ms: f64,
    alone_ms: f64,
}

fn runner(fast_forward: bool) -> Runner {
    let exp = ExpConfig::default();
    Runner {
        cmp: CmpConfig {
            dram: exp.dram,
            fast_forward,
            ..CmpConfig::default()
        },
        phases: exp.phases,
    }
}

fn setup(stream_seed: u64) -> Setup {
    let t = Instant::now();
    let mixes = mix_order();
    for mix in &mixes {
        drop(std::hint::black_box(mix.build(1, stream_seed)));
    }
    let build_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let r = runner(true);
    let mut alone = BTreeMap::new();
    for mix in &mixes {
        for name in &mix.benches {
            if alone.contains_key(name) {
                continue;
            }
            let p = BenchProfile::by_name(name).expect("Table IV names a known benchmark");
            let prof = r.run_alone(p.spawn(stream_seed), p.core_config());
            alone.insert(name.clone(), prof);
        }
    }
    Setup {
        mixes,
        alone,
        build_ms,
        alone_ms: t.elapsed().as_secs_f64() * 1e3,
    }
}

/// Counters of one traced simulation, read through `RunObserver`.
struct Traced {
    secs: f64,
    steps: f64,
    ff_skipped: f64,
    dram_served: f64,
}

fn run_traced(
    mix: &Mix,
    scheme: PartitionScheme,
    seed: u64,
    spans: &mut Spans,
) -> (SimOutcome, Traced) {
    let obs = RunObserver::new();
    let b = spans.begin("workloads.build");
    let (workloads, cfgs) = mix.build(1, seed);
    spans.end(b);
    let s = spans.begin("cmp.run");
    let t = Instant::now();
    let out = runner(true).run_scheme_traced(
        scheme,
        workloads,
        cfgs,
        ShareSource::OnlineProfile,
        Some(&obs),
    );
    let secs = t.elapsed().as_secs_f64();
    spans.end(s);
    let reg = &obs.registry;
    let traced = Traced {
        secs,
        steps: reg.counter("cmp_steps_total").get() as f64,
        ff_skipped: reg.counter("cmp_ff_skipped_cycles_total").get() as f64,
        dram_served: reg.gauge("dram_served_total").get(),
    };
    (out, traced)
}

/// Same counters, bit for bit.
fn identical(a: &SimOutcome, b: &SimOutcome) -> bool {
    a.total_bandwidth.to_bits() == b.total_bandwidth.to_bits()
        && a.stats.len() == b.stats.len()
        && a.stats.iter().zip(&b.stats).all(|(x, y)| {
            (
                x.instructions,
                x.mem_accesses,
                x.cycles,
                x.l1_misses,
                x.l2_misses,
                x.interference_cycles,
            ) == (
                y.instructions,
                y.mem_accesses,
                y.cycles,
                y.l1_misses,
                y.l2_misses,
                y.interference_cycles,
            )
        })
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let stream_seed = crate::rng::Rng::new(args.seed).next_u64();
    let exp = ExpConfig {
        seed: stream_seed,
        ..ExpConfig::default()
    };
    let cycles_per_sim = (exp.phases.warmup + exp.phases.profile + exp.phases.measure) as f64;
    let peak = reference::ddr2_400_peak_apc();

    let mut setups = crate::Setups::new(args, SETUPS);
    let su = setups.time(|| setup(stream_seed));

    let mut spans = Spans::new(false);
    let mut sim_secs = Vec::new();
    let mut results: Vec<(usize, Vec<(PartitionScheme, SimOutcome)>)> = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    let mut round_secs = [Vec::new(), Vec::new()];
    let mut rounds = crate::Rounds::new(args);
    // One round is every mix under every scheme. A traced run follows
    // each untraced round with a traced twin of it, so the overhead
    // compares like with like.
    while let Some(tracing) = rounds.next_round() {
        spans.set_enabled(tracing);
        let rt = Instant::now();
        let mut setup_secs = 0.0;
        let root = spans.begin("round");
        for (mix_idx, mix) in su.mixes.iter().enumerate() {
            // A round is longer than a run's set-up steps, so the timed
            // set-ups fall between mixes; the round time leaves them out.
            if setups.due() && !tracing {
                let t = Instant::now();
                drop(setups.time(|| setup(stream_seed)));
                setup_secs += t.elapsed().as_secs_f64();
            }
            let mut row = Vec::new();
            for scheme in PartitionScheme::PAPER_SCHEMES {
                out.attempted += 1;
                let t = Instant::now();
                let o = if tracing {
                    let (o, tr) = run_traced(mix, scheme, stream_seed, &mut spans);
                    traced.push(tr);
                    o
                } else {
                    let o = exp.run_one(mix, scheme);
                    sim_secs.push(t.elapsed().as_secs_f64());
                    o
                };
                out.checks
                    .check(o.total_bandwidth <= peak * (1.0 + 1e-9), || {
                        format!(
                            "{} / {}: total APC {} above the DDR2-400 peak {peak}",
                            mix.name,
                            scheme.name(),
                            o.total_bandwidth
                        )
                    });
                row.push((scheme, o));
            }
            if !tracing {
                results.push((mix_idx, row));
            }
        }
        spans.end(root);
        round_secs[usize::from(tracing)].push(rt.elapsed().as_secs_f64() - setup_secs);
    }
    let measured = rounds.elapsed();
    for _ in 0..setups.left() {
        drop(setups.time(|| setup(stream_seed)));
    }

    // Outside the timed phase: stepping every cycle must give the same
    // counters as the default event-driven fast-forward.
    if let Some((mix_idx, row)) = results.first() {
        let (scheme, ff) = &row[0];
        let mix = &su.mixes[*mix_idx];
        let (w, c) = mix.build(1, stream_seed);
        let exact = runner(false).run_scheme(*scheme, w, c, ShareSource::OnlineProfile);
        out.checks.check(identical(ff, &exact), || {
            format!(
                "{} / {}: fast_forward=false counters differ from the default run",
                mix.name,
                scheme.name()
            )
        });
    }

    check_objectives(&mut out, &results, &su.mixes);
    model_error(&mut out, &results, &su);

    let n_sims = sim_secs.len() as f64;
    let run_secs: f64 = sim_secs.iter().sum();
    let lat: Vec<f64> = sim_secs.iter().map(|s| s * 1e6).collect();
    out.setup(setups.times());
    out.e2e("peak_rss_mib", "MiB", stats::peak_rss_mib());
    out.e2e("requests_per_s", "1/s", n_sims / run_secs);
    if let Some(p) = stats::nearest_rank(&lat, 50.0) {
        out.e2e_pct("latency_p50_us", "us", p);
    }
    if let Some(p) = stats::nearest_rank(&lat, 99.0) {
        out.e2e_pct("latency_p99_us", "us", p);
    }
    out.note(format!(
        "sim_paper: {} simulations ({} rounds of {} mixes x 7 schemes) in {measured:.2} s, {:.0} simulated cycles per host second",
        sim_secs.len(),
        round_secs[0].len(),
        su.mixes.len(),
        n_sims * cycles_per_sim / run_secs
    ));

    if args.trace {
        let t_secs: f64 = traced.iter().map(|t| t.secs).sum();
        let steps: f64 = traced.iter().map(|t| t.steps).sum();
        let skipped: f64 = traced.iter().map(|t| t.ff_skipped).sum();
        let served: f64 = traced.iter().map(|t| t.dram_served).sum();
        let n = traced.len().max(1) as f64;
        let run_ms: Vec<f64> = traced.iter().map(|t| t.secs * 1e3).collect();
        out.layer("workloads.build_ms", "ms", su.build_ms);
        out.layer("cmp.alone_ms", "ms", su.alone_ms);
        out.layer("cmp.run_ms", "ms", stats::median(&run_ms));
        out.layer(
            "cmp.sim_cycles_per_s",
            "1/s",
            traced.len() as f64 * cycles_per_sim / t_secs,
        );
        out.layer("cmp.steps", "count", steps / n);
        out.layer("cmp.ff_skipped_cycles", "count", skipped / n);
        out.layer(
            "cmp.ff_skip_share",
            "%",
            100.0 * skipped / (skipped + steps),
        );
        out.layer("cmp.ns_per_step", "ns", t_secs * 1e9 / steps);
        out.layer("dram.ns_per_served", "ns", t_secs * 1e9 / served);
        crate::finish_trace(&mut out, &spans, &round_secs, args);
    }
    out
}

/// For each objective, the paper's optimal scheme must beat
/// No_partitioning in the geomean over the mixes run, and come within
/// [`OPTIMAL_TOLERANCE`] of the best of the seven schemes.
fn check_objectives(
    out: &mut Outcome,
    results: &[(usize, Vec<(PartitionScheme, SimOutcome)>)],
    mixes: &[Mix],
) {
    if results.is_empty() {
        out.checks
            .check(false, || "no complete mix was simulated".into());
        return;
    }
    for (label, objective, optimal) in OBJECTIVES {
        let mut geo = Vec::new();
        for scheme in PartitionScheme::PAPER_SCHEMES {
            let norm: Vec<f64> = results
                .iter()
                .map(|(_, row)| {
                    let value = |s: PartitionScheme| {
                        let o = &row
                            .iter()
                            .find(|(x, _)| *x == s)
                            .expect("every scheme ran")
                            .1;
                        objective(&o.ipc_shared(), &o.ipc_alone_ref())
                    };
                    value(scheme) / value(PartitionScheme::NoPartitioning)
                })
                .collect();
            geo.push((scheme.name(), stats::geomean(&norm)));
        }
        let best = geo.iter().map(|g| g.1).fold(f64::MIN, f64::max);
        let opt = geo.iter().find(|g| g.0 == optimal).map_or(0.0, |g| g.1);
        let names: Vec<&str> = results
            .iter()
            .map(|(i, _)| mixes[*i].name.as_str())
            .collect();
        out.note(format!(
            "{label}: {optimal} geomean vs No_partitioning {opt:.4}, best of seven {best:.4} over {}",
            names.join(",")
        ));
        out.checks
            .check(opt > 1.0 && opt >= best * (1.0 - OPTIMAL_TOLERANCE), || {
                format!("{label}: optimal {optimal} at {opt:.4} vs best {best:.4} (table {geo:?})")
            });
    }
}

/// Model-vs-simulator error per enforced scheme: Eq. 1 predicts each
/// application's shared IPC as its reference allocation (over the
/// standalone profiles and the measured total bandwidth) divided by its
/// API. Reported only; it is the README's accuracy table.
fn model_error(
    out: &mut Outcome,
    results: &[(usize, Vec<(PartitionScheme, SimOutcome)>)],
    su: &Setup,
) {
    for scheme in PartitionScheme::ENFORCED_SCHEMES {
        let mut errs = Vec::new();
        for (mix_idx, row) in results {
            let Some((_, o)) = row.iter().find(|(s, _)| *s == scheme) else {
                continue;
            };
            let mix = &su.mixes[*mix_idx];
            let apc: Vec<f64> = mix.benches.iter().map(|b| su.alone[b].apc_alone).collect();
            let api: Vec<f64> = mix.benches.iter().map(|b| su.alone[b].api).collect();
            let Some((_, alloc)) = reference::scheme_reference(
                &scheme.canonical_name(),
                &apc,
                &api,
                o.total_bandwidth,
            ) else {
                continue;
            };
            for ((a, p), s) in alloc.iter().zip(&api).zip(o.ipc_shared()) {
                if s > 0.0 {
                    errs.push(((a / p) - s).abs() / s);
                }
            }
        }
        out.note(format!(
            "model vs simulator, {}: mean |IPC error| {:.1}% over {} applications",
            scheme.name(),
            100.0 * stats::mean(&errs),
            errs.len()
        ));
    }
}

//! `serve_control`: the service's read path as a closed loop on one
//! connection, against a service configured as
//! `bwpart serve --reactor --scheme coordinated --ways 16` would be, for
//! [`APPS`] applications in tenant groups of 16 registered with cache
//! profiles.
//!
//! One round is one epoch. In it every group, in turn, sends one
//! `Telemetry` delta per application (each application's counters are read
//! once per epoch), with one what-if `GroupShares` solve under each of the
//! seven schemes interleaved after the first seven deltas, and then one
//! `QosAdmit` sized to succeed for the next member in turn. The epoch is
//! then forced. Each round ends with one service-wide `GetShares` and one
//! `Snapshot` read, each on a fresh second connection: their replies
//! exceed the 64 KiB frame limit for this population, the service drops
//! the connection instead of answering, and both count as failed. The
//! latency percentiles are taken over the what-if round trips only.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use bwpart_core::prelude::*;
use bwpartd::protocol::{self, Codec, Request, Response, SharesReply};
use bwpartd::{Client, ShardMap};

use crate::reference::{self, CacheModel, SERVICE_SCHEMES};
use crate::report::Outcome;
use crate::rng::Rng;
use crate::service::{
    self, App, Wire, BANDWIDTH, EWMA_ALPHA, GROUP_SIZE, MIN_ALONE_FRACTION, PHASE_CHANGE_RATIO,
};
use crate::spans::Spans;
use crate::stats;
use crate::Args;

const APPS: usize = 768;
const WAYS: usize = 16;
// Each group's what-ifs ride between its telemetry deltas, one per scheme.
const _: () = assert!(SERVICE_SCHEMES.len() <= GROUP_SIZE);
/// Share of an application's current `APC_alone` estimate a QoS
/// admission reserves.
const QOS_FRACTION: f64 = 0.15;

/// Span names per scheme (span names are static).
const WHATIF_SPANS: [&str; 7] = [
    "engine.whatif.equal",
    "engine.whatif.proportional",
    "engine.whatif.square-root",
    "engine.whatif.two-thirds-power",
    "engine.whatif.priority-apc",
    "engine.whatif.priority-api",
    "engine.whatif.coordinated",
];
const SOLVE_SPANS: [&str; 7] = [
    "core.solve.equal",
    "core.solve.proportional",
    "core.solve.square-root",
    "core.solve.two-thirds-power",
    "core.solve.priority-apc",
    "core.solve.priority-api",
    "core.solve.coordinated",
];

/// One request of a round as sent and answered, kept for the checks and
/// the traced replay.
struct Op {
    kind: Kind,
    frame: Vec<u8>,
    reply: Response,
    reply_bytes: usize,
    /// Client time blocked in `write` and `read`.
    blocked_ns: u64,
    decode_ns: u64,
}

enum Kind {
    WhatIf {
        group: usize,
        scheme: usize,
        /// Reference estimates of the group's applications at the time.
        estimates: Vec<f64>,
    },
    Qos {
        app: usize,
        target: f64,
        remaining: f64,
    },
    Telemetry {
        app_id: usize,
    },
}

/// What a round did, in order: requests, and the epochs forced between
/// them (the replay forces its replica's epochs at the same points).
// Boxing the request would allocate once more per request inside the
// timed loop; the few epoch markers waste the space instead.
#[allow(clippy::large_enum_variant)]
enum Step {
    Request(Op),
    Epoch,
}

/// Per-layer timings gathered from traced rounds.
#[derive(Default)]
struct Layers {
    whatif_us: [Vec<f64>; 7],
    solve_us: [Vec<f64>; 7],
    qos_us: Vec<f64>,
    shares_bytes: Vec<f64>,
    shares_encode_us: Vec<f64>,
    shares_decode_us: Vec<f64>,
    /// Client time blocked per what-if less the replayed server work.
    residual_ns: Vec<f64>,
}

/// Send one request, wait for its reply, and append it to `steps`; returns
/// the round trip in microseconds.
fn call(
    wire: &mut Wire,
    req: &Request,
    kind: Kind,
    spans: &mut Spans,
    steps: &mut Vec<Step>,
) -> f64 {
    let t0 = Instant::now();
    let e = spans.begin("client.encode");
    let frame = protocol::encode_with(req, Codec::Binary).expect("request encodes");
    spans.end(e);
    let t1 = Instant::now();
    wire.send(&frame, spans);
    let mut decode_ns = 0;
    let (reply, reply_bytes) = wire
        .recv(1, spans, &mut decode_ns)
        .next()
        .expect("one reply");
    let total = t0.elapsed().as_nanos() as u64;
    steps.push(Step::Request(Op {
        kind,
        frame,
        reply,
        reply_bytes,
        blocked_ns: total.saturating_sub((t1 - t0).as_nanos() as u64 + decode_ns),
        decode_ns,
    }));
    total as f64 / 1e3
}

/// One service-wide read on a fresh connection; `true` when it failed.
fn fault_read(addr: std::net::SocketAddr, snapshot: bool) -> bool {
    let mut c = Client::connect_with(addr, Codec::Binary).expect("connect");
    c.set_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    if snapshot {
        c.snapshot().is_err()
    } else {
        c.get_shares(None).is_err()
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let engine = service::engine_config(PartitionScheme::Coordinated, Some(WAYS));
    let apps = service::population(APPS, args.seed, true);
    let mut setups = crate::Setups::new(args, service::SETUPS);
    let mut svc = setups.time(|| service::set_up(&engine, &apps, args.seed));
    let replica = args.trace.then(|| service::replica(engine.clone(), &svc));
    let addr = svc.handle.addr();
    let by_id: HashMap<usize, usize> = svc
        .apps
        .iter()
        .enumerate()
        .map(|(i, a)| (a.id, i))
        .collect();
    let caches: Vec<CacheAwareProfile> = svc.apps.iter().map(fit_cache).collect();

    match protocol::encode_with(&Response::Snapshot(svc.handle.snapshot()), Codec::Binary) {
        Err(e) => out.note(format!("service-wide Snapshot of {APPS} applications: {e}")),
        Ok(f) => out.note(format!(
            "service-wide Snapshot of {APPS} applications fits: {} bytes",
            f.len()
        )),
    }

    let mut wire = Wire::connect(addr);
    let mut rng = Rng::new(args.seed);
    let mut spans = Spans::new(false);
    let mut layers = Layers::default();
    let mut reservations = vec![0.0f64; APPS];
    // Round trips of the what-if requests only: the latency percentiles
    // follow the solver and `Shares` codec work, not the small frames.
    let mut whatif_us = Vec::new();
    let mut ok_requests = [0u64; 2];
    let mut round_secs = [Vec::new(), Vec::new()];
    let n_groups = svc.groups.len();

    let mut rounds = crate::Rounds::new(args);
    let mut round_no = 0usize;
    while let Some(tracing) = rounds.next_round() {
        // Fresh services, timed and dropped; the run keeps the first.
        if setups.due() {
            drop(setups.time(|| service::set_up(&engine, &apps, args.seed)));
        }
        spans.set_enabled(tracing);
        let mut steps: Vec<Step> = Vec::new();
        let rt = Instant::now();
        let root = spans.begin("round");
        for g in 0..n_groups {
            let members = g * GROUP_SIZE..(g + 1) * GROUP_SIZE;
            for (k, i) in members.clone().enumerate() {
                let app = &svc.apps[i];
                let d = service::delta(app, &mut rng);
                svc.estimators[i].report(d.accesses, d.shared_cycles, d.interference_cycles);
                let req = service::telemetry_request(app, d);
                let kind = Kind::Telemetry { app_id: app.id };
                call(&mut wire, &req, kind, &mut spans, &mut steps);
                let Some(scheme) = SERVICE_SCHEMES.get(k) else {
                    continue;
                };
                let req = Request::GroupShares {
                    group: svc.groups[g].clone(),
                    scheme: Some((*scheme).to_string()),
                };
                let estimates = svc.estimators[members.clone()]
                    .iter()
                    .map(|e| e.estimate.unwrap_or(0.0))
                    .collect();
                let kind = Kind::WhatIf {
                    group: g,
                    scheme: k,
                    estimates,
                };
                let us = call(&mut wire, &req, kind, &mut spans, &mut steps);
                if !tracing {
                    whatif_us.push(us);
                }
            }
            let i = g * GROUP_SIZE + round_no % GROUP_SIZE;
            let app = &svc.apps[i];
            let target = QOS_FRACTION * svc.estimators[i].estimate.unwrap_or(0.0) / app.api;
            reservations[i] = reference::qos_reservation(target, app.api);
            let remaining = BANDWIDTH - reservations[members].iter().sum::<f64>();
            let req = Request::QosAdmit {
                app_id: app.id,
                ipc_target: target,
            };
            let kind = Kind::Qos {
                app: i,
                target,
                remaining,
            };
            call(&mut wire, &req, kind, &mut spans, &mut steps);
        }
        round_no += 1;
        let e = spans.begin("engine.epoch");
        svc.handle.force_epoch();
        spans.end(e);
        for est in &mut svc.estimators {
            est.epoch(MIN_ALONE_FRACTION, EWMA_ALPHA, PHASE_CHANGE_RATIO);
        }
        steps.push(Step::Epoch);
        for snapshot in [false, true] {
            let f = spans.begin("client.fault_read");
            let failed = fault_read(addr, snapshot);
            spans.end(f);
            out.attempted += 1;
            out.failed += u64::from(failed);
            ok_requests[usize::from(tracing)] += u64::from(!failed);
        }
        spans.end(root);
        round_secs[usize::from(tracing)].push(rt.elapsed().as_secs_f64());

        let requests = steps
            .iter()
            .filter(|s| matches!(s, Step::Request(_)))
            .count() as u64;
        out.attempted += requests;
        ok_requests[usize::from(tracing)] += requests;
        check_round(&mut out, &steps, &svc.apps, &by_id);
        if let Some(map) = &replica {
            replay(&steps, map, &svc, &caches, tracing, &mut spans, &mut layers);
        }
    }
    drop(wire);

    let timed: f64 = round_secs[0].iter().sum();
    for _ in 0..setups.left() {
        drop(setups.time(|| service::set_up(&engine, &apps, args.seed)));
    }
    out.setup(setups.times());
    out.e2e("peak_rss_mib", "MiB", stats::peak_rss_mib());
    out.e2e("requests_per_s", "1/s", ok_requests[0] as f64 / timed);
    if let Some(p) = stats::nearest_rank(&whatif_us, 50.0) {
        out.e2e_pct("latency_p50_us", "us", p);
    }
    if let Some(p) = stats::nearest_rank(&whatif_us, 99.0) {
        out.e2e_pct("latency_p99_us", "us", p);
    }
    let snap = svc.handle.snapshot();
    out.note(format!(
        "serve_control: {} rounds, {:.0} req/s; service {} epochs, {} repartitions, {} failed epochs, shed {}",
        round_secs[0].len(),
        ok_requests[0] as f64 / timed,
        snap.epoch,
        snap.repartitions,
        snap.failed_epochs,
        snap.telemetry_shed_total
    ));
    out.checks.check(snap.telemetry_shed_total == 0, || {
        format!("{} telemetry deltas were shed", snap.telemetry_shed_total)
    });
    out.checks
        .check(snap.failed_epochs == 0 && !snap.degraded, || {
            format!(
                "{} epochs failed to solve; service degraded: {}",
                snap.failed_epochs, snap.degraded
            )
        });

    if args.trace {
        for (s, name) in SERVICE_SCHEMES.iter().enumerate() {
            out.layer(
                &format!("engine.whatif_us.{name}"),
                "us",
                stats::median(&layers.whatif_us[s]),
            );
            out.layer(
                &format!("core.solve_us.{name}"),
                "us",
                stats::median(&layers.solve_us[s]),
            );
        }
        let epochs: Vec<f64> = spans
            .durations("engine.epoch")
            .iter()
            .map(|ns| ns / 1e3)
            .collect();
        out.layer("engine.epoch_us", "us", stats::median(&epochs));
        out.layer("engine.qos_admit_us", "us", stats::median(&layers.qos_us));
        out.layer(
            "protocol.shares_reply_bytes",
            "bytes",
            stats::mean(&layers.shares_bytes),
        );
        out.layer(
            "protocol.shares_encode_us",
            "us",
            stats::median(&layers.shares_encode_us),
        );
        out.layer(
            "client.shares_decode_us",
            "us",
            stats::median(&layers.shares_decode_us),
        );
        out.layer(
            "rserver.residual_us",
            "us",
            stats::mean(&layers.residual_ns) / 1e3,
        );
        crate::finish_trace(&mut out, &spans, &round_secs, args);
    }
    svc.handle.shutdown();
    out
}

fn fit_cache(app: &App) -> CacheAwareProfile {
    let spec = app
        .cache
        .as_ref()
        .expect("control applications carry cache profiles");
    let samples: Vec<(f64, f64)> = spec.mrc.iter().map(|p| (p.ways, p.miss_ratio)).collect();
    let mrc = MissRatioCurve::fit(&samples).expect("generated curves are valid");
    CacheAwareProfile::new(
        app.name.clone(),
        spec.api_llc,
        spec.cpi_base,
        spec.mem_penalty,
        mrc,
    )
    .expect("generated profiles are valid")
}

/// Check every reply of a round against the references.
fn check_round(out: &mut Outcome, steps: &[Step], apps: &[App], by_id: &HashMap<usize, usize>) {
    for step in steps {
        let Step::Request(op) = step else { continue };
        match (&op.kind, &op.reply) {
            (Kind::Telemetry { app_id }, Response::TelemetryAck { app_id: acked, .. })
                if acked == app_id => {}
            (
                Kind::WhatIf {
                    group,
                    scheme,
                    estimates,
                },
                Response::Shares(reply),
            ) => {
                check_whatif(out, *group, *scheme, estimates, reply, apps, by_id);
            }
            (
                Kind::Qos {
                    app,
                    target,
                    remaining,
                },
                Response::QosAdmitted(grant),
            ) => {
                let a = &apps[*app];
                let want = reference::qos_reservation(*target, a.api);
                out.checks.check(
                    grant.app_id == a.id && reference::close(grant.reserved_apc, want),
                    || {
                        format!(
                            "{}: reserved {} APC, Eq. 11 gives {want}",
                            a.name, grant.reserved_apc
                        )
                    },
                );
                out.checks
                    .check(reference::close(grant.remaining_apc, *remaining), || {
                        format!(
                            "{}: {} APC left after admission, expected {remaining}",
                            a.name, grant.remaining_apc
                        )
                    });
            }
            (_, other) => {
                out.failed += 1;
                out.checks
                    .check(false, || format!("unexpected reply {other:?}"));
            }
        }
    }
}

/// A what-if reply is a simplex within the per-application caps and
/// equals the reference for its scheme over the reference estimates.
/// With 16 applications in a 16-way group every application holds its
/// one minimum way, so the coordinated solve reduces to its Square_root
/// inner scheme at those ways.
fn check_whatif(
    out: &mut Outcome,
    group: usize,
    scheme: usize,
    estimates: &[f64],
    reply: &SharesReply,
    apps: &[App],
    by_id: &HashMap<usize, usize>,
) {
    let name = SERVICE_SCHEMES[scheme];
    let base = group * GROUP_SIZE;
    let members = &apps[base..base + GROUP_SIZE];
    let api: Vec<f64> = members.iter().map(|a| a.api).collect();
    let candidates = if name == "coordinated" {
        let models: Vec<CacheModel> = members.iter().map(cache_model).collect();
        reference::coordinated_candidates(&models, estimates, &api, BANDWIDTH).0
    } else {
        let (beta, alloc) = reference::scheme_reference(name, estimates, &api, BANDWIDTH)
            .expect("bandwidth scheme");
        vec![(beta, alloc, 0.0)]
    };
    let best = candidates.iter().map(|c| c.2).fold(f64::MIN, f64::max);
    let ctx = || format!("group g{group:03} {name}");
    out.checks.check(reply.apps.len() == GROUP_SIZE, || {
        format!("{}: {} rows", ctx(), reply.apps.len())
    });
    let sum: f64 = reply.apps.iter().map(|r| r.beta).sum();
    out.checks.check((sum - 1.0).abs() <= 1e-9, || {
        format!("{}: shares sum to {sum}", ctx())
    });
    let mut ways = 0.0;
    let mut matching = vec![true; candidates.len()];
    for row in &reply.apps {
        let Some(&i) = by_id.get(&row.app_id) else {
            out.checks.check(false, || {
                format!("{}: unknown app id {}", ctx(), row.app_id)
            });
            continue;
        };
        let k = i.wrapping_sub(base);
        if k >= GROUP_SIZE {
            out.checks.check(false, || {
                format!("{}: row for {} of another group", ctx(), apps[i].name)
            });
            continue;
        }
        out.checks.check((0.0..=1.0).contains(&row.beta), || {
            format!("{}: share {} outside [0, 1]", ctx(), row.beta)
        });
        out.checks.check(
            row.allocation <= estimates[k] * (1.0 + reference::REL_TOL),
            || {
                format!(
                    "{}: {} allocated {} above its cap {}",
                    ctx(),
                    apps[i].name,
                    row.allocation,
                    estimates[k]
                )
            },
        );
        for (c, (beta, alloc, score)) in candidates.iter().enumerate() {
            let same =
                reference::close(row.beta, beta[k]) && reference::close(row.allocation, alloc[k]);
            matching[c] &= same && *score >= best * (1.0 - reference::REL_TOL);
        }
        if name == "coordinated" {
            let w = row
                .resources
                .as_ref()
                .and_then(|rs| rs.iter().find(|r| r.kind == "llc-ways"))
                .map_or(0.0, |r| r.amount);
            out.checks.check(w >= 1.0 && w.fract() == 0.0, || {
                format!("{}: {} holds {w} ways", ctx(), apps[i].name)
            });
            ways += w;
        }
    }
    out.checks.check(matching.contains(&true), || {
        format!("{}: reply matches no reference", ctx())
    });
    if name == "coordinated" {
        out.checks.check(ways == WAYS as f64, || {
            format!("{}: ways sum to {ways}", ctx())
        });
    }
}

/// The reference model of an application's registered cache profile.
fn cache_model(app: &App) -> CacheModel {
    let spec = app
        .cache
        .as_ref()
        .expect("control applications carry cache profiles");
    let miss_at = |w: f64| {
        spec.mrc
            .iter()
            .find(|p| p.ways == w)
            .map_or(1.0, |p| p.miss_ratio)
    };
    CacheModel {
        api_llc: spec.api_llc,
        cpi_base: spec.cpi_base,
        mem_penalty: spec.mem_penalty,
        miss_one_way: miss_at(1.0),
        miss_full: miss_at(WAYS as f64),
    }
}

/// Replay a round in process: every request frame through
/// `protocol::decode_frame`, the replica `ShardMap` call the service
/// makes for it, and `protocol::encode_with` of the live reply; plus the
/// `bwpart-core` solve behind each what-if. Untraced rounds are replayed
/// only to keep the replica in step.
fn replay(
    steps: &[Step],
    map: &ShardMap,
    svc: &service::Service,
    caches: &[CacheAwareProfile],
    tracing: bool,
    spans: &mut Spans,
    layers: &mut Layers,
) {
    let root = spans.begin("replay");
    for step in steps {
        let op = match step {
            Step::Request(op) => op,
            Step::Epoch => {
                map.run_epochs();
                continue;
            }
        };
        let t0 = Instant::now();
        let (req, _, _) = protocol::decode_frame::<Request>(&op.frame)
            .expect("recorded frames decode")
            .expect("recorded frames are whole");
        let t1 = Instant::now();
        let engine_span = match (&op.kind, req) {
            (
                Kind::WhatIf { scheme, .. },
                Request::GroupShares {
                    group,
                    scheme: name,
                },
            ) => {
                let s: Option<PartitionScheme> =
                    name.map(|n| n.parse().expect("canonical scheme name"));
                std::hint::black_box(map.group_shares(&group, s).expect("replica what-if"));
                WHATIF_SPANS[*scheme]
            }
            (Kind::Qos { .. }, Request::QosAdmit { app_id, ipc_target }) => {
                std::hint::black_box(
                    map.qos_admit(app_id, ipc_target)
                        .expect("replica admission"),
                );
                "engine.qos_admit"
            }
            (
                Kind::Telemetry { .. },
                Request::Telemetry {
                    app_id,
                    accesses,
                    shared_cycles,
                    interference_cycles,
                },
            ) => {
                let d = bwpart_mc::TelemetryDelta {
                    accesses,
                    shared_cycles,
                    interference_cycles,
                };
                std::hint::black_box(map.push_telemetry(app_id, d).expect("replica telemetry"));
                "engine.push"
            }
            _ => panic!("recorded op and frame disagree"),
        };
        let t2 = Instant::now();
        std::hint::black_box(
            protocol::encode_with(&op.reply, Codec::Binary).expect("reply encodes"),
        );
        let t3 = Instant::now();
        if !tracing {
            continue;
        }
        spans.record("protocol.decode", t0, t1);
        spans.record(engine_span, t1, t2);
        spans.record("protocol.encode", t2, t3);
        let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
        let server_ns = (t3 - t0).as_nanos() as f64;
        match &op.kind {
            Kind::WhatIf {
                group,
                scheme,
                estimates,
            } => {
                layers.residual_ns.push(op.blocked_ns as f64 - server_ns);
                layers.whatif_us[*scheme].push(us(t1, t2));
                layers.shares_bytes.push(op.reply_bytes as f64);
                layers.shares_encode_us.push(us(t2, t3));
                layers.shares_decode_us.push(op.decode_ns as f64 / 1e3);
                layers.solve_us[*scheme]
                    .push(time_solve(*group, *scheme, estimates, svc, caches, spans));
            }
            Kind::Qos { .. } => layers.qos_us.push(us(t1, t2)),
            Kind::Telemetry { .. } => {}
        }
    }
    spans.end(root);
}

/// Time the `bwpart-core` solve a what-if stands on, over the same group
/// estimates: `PartitionScheme::solve`, or `solve_coordinated_scaled`
/// with the service's calibration at the one-way anchor.
fn time_solve(
    group: usize,
    scheme: usize,
    estimates: &[f64],
    svc: &service::Service,
    caches: &[CacheAwareProfile],
    spans: &mut Spans,
) -> f64 {
    let base = group * GROUP_SIZE;
    let name = SERVICE_SCHEMES[scheme];
    let profiles: Vec<AppProfile> = svc.apps[base..base + GROUP_SIZE]
        .iter()
        .zip(estimates)
        .map(|(a, &e)| AppProfile::new(a.name.clone(), a.api, e).expect("positive estimate"))
        .collect();
    let group_caches = &caches[base..base + GROUP_SIZE];
    let scales: Vec<f64> = group_caches
        .iter()
        .zip(estimates)
        .map(|(c, &e)| e / c.apc_alone_at(1.0))
        .collect();
    let cfg = CoordConfig::new(BANDWIDTH, WAYS);
    let s = spans.begin(SOLVE_SPANS[scheme]);
    let t = Instant::now();
    if name == "coordinated" {
        std::hint::black_box(
            solve_coordinated_scaled(group_caches, &scales, &cfg).expect("coordinated solve"),
        );
    } else {
        let scheme: PartitionScheme = name.parse().expect("canonical scheme name");
        std::hint::black_box(scheme.solve(&profiles, BANDWIDTH).expect("bandwidth solve"));
    }
    let us = t.elapsed().as_secs_f64() * 1e6;
    spans.end(s);
    us
}

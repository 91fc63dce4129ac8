//! `serve_ingest`: the service's write path. One load thread pipelines
//! binary-codec `Telemetry` requests over two connections, [`DEPTH`] deep
//! on each, for [`APPS`] applications in tenant groups of 16. Each
//! application reports one delta per epoch, as its counters are read once
//! per epoch, so an epoch is forced after every [`BATCHES_PER_EPOCH`]
//! pipelined round trips. One operation is one request; a latency sample
//! is one round trip of a [`DEPTH`]-request batch on every connection.

use std::time::Instant;

use bwpart_core::PartitionScheme;
use bwpart_mc::TelemetryDelta;
use bwpartd::protocol::{self, Codec, Request, Response};
use bwpartd::{Client, ShardMap};

use crate::reference;
use crate::report::Outcome;
use crate::rng::Rng;
use crate::service::{self, Wire};
use crate::spans::Spans;
use crate::stats;
use crate::Args;

const APPS: usize = 256;
const CONNS: usize = 2;
const DEPTH: usize = 64;
const BATCHES_PER_EPOCH: usize = APPS / (CONNS * DEPTH);
const _: () = assert!(BATCHES_PER_EPOCH * CONNS * DEPTH == APPS);

/// Client-side work per traced or untraced rounds (index by `tracing`).
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    requests: u64,
    batches: u64,
    encode_ns: u64,
    decode_ns: u64,
    request_bytes: u64,
    reply_bytes: u64,
}

/// Server-side work replayed in process over the traced frames.
#[derive(Debug, Default)]
struct Replay {
    requests: u64,
    decode_ns: u64,
    push_ns: u64,
    encode_ns: u64,
}

/// Replay `frames` through the layers the service runs per request:
/// `protocol::decode_frame`, `ShardMap::push_telemetry` and
/// `protocol::encode_with` of the acknowledgement.
fn replay(frames: &[u8], map: &ShardMap, spans: &mut Spans, acc: &mut Replay) {
    let root = spans.begin("replay");
    let t0 = Instant::now();
    let mut requests = Vec::with_capacity(frames.len() / 32);
    let mut pos = 0;
    while pos < frames.len() {
        let (req, used, _) = protocol::decode_frame::<Request>(&frames[pos..])
            .expect("recorded frames decode")
            .expect("recorded frames are whole");
        pos += used;
        requests.push(req);
    }
    let t1 = Instant::now();
    let mut acks = Vec::with_capacity(requests.len());
    for req in &requests {
        if let Request::Telemetry {
            app_id,
            accesses,
            shared_cycles,
            interference_cycles,
        } = *req
        {
            let delta = TelemetryDelta {
                accesses,
                shared_cycles,
                interference_cycles,
            };
            let epoch = map
                .push_telemetry(app_id, delta)
                .expect("replayed telemetry is accepted");
            acks.push(Response::TelemetryAck { app_id, epoch });
        }
    }
    let t2 = Instant::now();
    for ack in &acks {
        std::hint::black_box(protocol::encode_with(ack, Codec::Binary).expect("ack encodes"));
    }
    let t3 = Instant::now();
    spans.record("protocol.decode", t0, t1);
    spans.record("engine.push", t1, t2);
    spans.record("protocol.encode", t2, t3);
    spans.end(root);
    map.run_epochs();
    acc.requests += requests.len() as u64;
    acc.decode_ns += (t1 - t0).as_nanos() as u64;
    acc.push_ns += (t2 - t1).as_nanos() as u64;
    acc.encode_ns += (t3 - t2).as_nanos() as u64;
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let engine = service::engine_config(PartitionScheme::SquareRoot, None);
    let apps = service::population(APPS, args.seed, false);
    let mut setups = crate::Setups::new(args, service::SETUPS);
    let svc = setups.time(|| service::set_up(&engine, &apps, args.seed));
    let replica = args.trace.then(|| service::replica(engine.clone(), &svc));
    let addr = svc.handle.addr();

    let mut wires: Vec<Wire> = (0..CONNS).map(|_| Wire::connect(addr)).collect();
    let mut rng = Rng::new(args.seed);
    let mut spans = Spans::new(false);
    let mut tally = [Tally::default(); 2];
    let mut replayed = Replay::default();
    let mut lat_us = Vec::new();
    let mut epoch_us = Vec::new();
    let mut round_secs = [Vec::new(), Vec::new()];
    let mut bufs: Vec<Vec<u8>> = (0..CONNS).map(|_| Vec::with_capacity(DEPTH * 64)).collect();
    let mut sent = vec![[0usize; DEPTH]; CONNS];
    let mut traced_frames: Vec<u8> = Vec::new();
    let mut next_app = 0usize;

    let mut rounds = crate::Rounds::new(args);
    while let Some(tracing) = rounds.next_round() {
        // Fresh services, timed and dropped; the run keeps the first.
        if setups.due() {
            drop(setups.time(|| service::set_up(&engine, &apps, args.seed)));
        }
        spans.set_enabled(tracing);
        let t = &mut tally[usize::from(tracing)];
        traced_frames.clear();
        let rt = Instant::now();
        let root = spans.begin("round");
        for _ in 0..BATCHES_PER_EPOCH {
            // One latency sample is one pipelined round trip: from encoding
            // the first request to decoding the last reply of a batch on
            // every connection.
            let began = Instant::now();
            for c in 0..CONNS {
                let encode = Instant::now();
                let e = spans.begin("client.encode");
                bufs[c].clear();
                for slot in sent[c].iter_mut() {
                    let app = &svc.apps[next_app];
                    *slot = next_app;
                    next_app = (next_app + 1) % APPS;
                    let req = service::telemetry_request(app, service::delta(app, &mut rng));
                    let frame =
                        protocol::encode_with(&req, Codec::Binary).expect("telemetry encodes");
                    bufs[c].extend_from_slice(&frame);
                }
                spans.end(e);
                t.encode_ns += encode.elapsed().as_nanos() as u64;
                t.request_bytes += bufs[c].len() as u64;
                wires[c].send(&bufs[c], &mut spans);
            }
            for (wire, sent) in wires.iter_mut().zip(&sent) {
                let replies = wire.recv(DEPTH, &mut spans, &mut t.decode_ns);
                for ((resp, bytes), &app_idx) in replies.zip(sent) {
                    out.attempted += 1;
                    t.reply_bytes += bytes as u64;
                    let want = svc.apps[app_idx].id;
                    let ok =
                        matches!(resp, Response::TelemetryAck { app_id, .. } if app_id == want);
                    if !ok {
                        out.failed += 1;
                        out.checks.check(false, || {
                            format!("telemetry for app {want} answered {resp:?}")
                        });
                    }
                }
            }
            if !tracing {
                lat_us.push(began.elapsed().as_secs_f64() * 1e6);
            }
            t.requests += (CONNS * DEPTH) as u64;
            t.batches += CONNS as u64;
            if tracing {
                for b in &bufs {
                    traced_frames.extend_from_slice(b);
                }
            }
        }
        let e = spans.begin("engine.epoch");
        let te = Instant::now();
        svc.handle.force_epoch();
        epoch_us.push(te.elapsed().as_secs_f64() * 1e6);
        spans.end(e);
        spans.end(root);
        round_secs[usize::from(tracing)].push(rt.elapsed().as_secs_f64());
        if let (true, Some(map)) = (tracing, &replica) {
            replay(&traced_frames, map, &mut spans, &mut replayed);
        }
    }
    drop(wires);

    check_final_state(&mut out, &svc, args.trace);

    let untraced = tally[0];
    let timed: f64 = round_secs[0].iter().sum();
    for _ in 0..setups.left() {
        drop(setups.time(|| service::set_up(&engine, &apps, args.seed)));
    }
    out.setup(setups.times());
    out.e2e("peak_rss_mib", "MiB", stats::peak_rss_mib());
    out.e2e("requests_per_s", "1/s", untraced.requests as f64 / timed);
    if let Some(p) = stats::nearest_rank(&lat_us, 50.0) {
        out.e2e_pct("latency_p50_us", "us", p);
    }
    if let Some(p) = stats::nearest_rank(&lat_us, 99.0) {
        out.e2e_pct("latency_p99_us", "us", p);
    }
    out.note(format!(
        "serve_ingest: {} requests in {} untraced rounds, {:.0} req/s; {CONNS} connections x {DEPTH} deep, epoch every {} requests",
        untraced.requests,
        round_secs[0].len(),
        untraced.requests as f64 / timed,
        BATCHES_PER_EPOCH * CONNS * DEPTH
    ));

    if args.trace {
        let tr = tally[1];
        let n = tr.requests.max(1) as f64;
        let totals = spans.totals();
        let total = |name: &str| totals.get(name).map_or(0, |t| t.total_ns) as f64;
        let server_ns = (replayed.decode_ns + replayed.push_ns + replayed.encode_ns) as f64
            / replayed.requests.max(1) as f64;
        out.layer(
            "protocol.request_bytes",
            "bytes",
            tr.request_bytes as f64 / n,
        );
        out.layer("protocol.reply_bytes", "bytes", tr.reply_bytes as f64 / n);
        out.layer("client.encode_ns", "ns", tr.encode_ns as f64 / n);
        out.layer("client.decode_ns", "ns", tr.decode_ns as f64 / n);
        out.layer(
            "protocol.decode_ns",
            "ns",
            replayed.decode_ns as f64 / replayed.requests.max(1) as f64,
        );
        out.layer(
            "engine.push_ns",
            "ns",
            replayed.push_ns as f64 / replayed.requests.max(1) as f64,
        );
        out.layer(
            "protocol.encode_ns",
            "ns",
            replayed.encode_ns as f64 / replayed.requests.max(1) as f64,
        );
        out.layer(
            "client.write_us",
            "us",
            total("client.write") / 1e3 / tr.batches.max(1) as f64,
        );
        out.layer(
            "client.wait_us",
            "us",
            total("client.wait") / 1e3 / tr.batches.max(1) as f64,
        );
        // Client and service share one CPU, so the service runs while the
        // client is inside `write` as well as while it waits in `read`.
        let blocked = total("client.write") + total("client.wait");
        out.layer("rserver.residual_ns", "ns", blocked / n - server_ns);
        let traced_epochs: Vec<f64> = spans
            .durations("engine.epoch")
            .iter()
            .map(|ns| ns / 1e3)
            .collect();
        out.layer("engine.epoch_us", "us", stats::median(&traced_epochs));
        crate::finish_trace(&mut out, &spans, &round_secs, args);
    }
    out.note(format!(
        "engine.epoch median {:.1} us over {} forced epochs",
        stats::median(&epoch_us),
        epoch_us.len()
    ));
    svc.handle.shutdown();
    svc.handle.join();
    out
}

/// After the last epoch: nothing was shed, and each group's published
/// shares sum to 1 and lie within 2% of the Square_root allocation of the
/// generator's ground-truth `APC_alone`.
fn check_final_state(out: &mut Outcome, svc: &service::Service, read_metrics: bool) {
    let mut client = Client::connect_with(svc.handle.addr(), Codec::Binary).expect("connect");
    let snap = client
        .snapshot()
        .expect("a Snapshot of this population fits a frame");
    out.checks.check(snap.telemetry_shed_total == 0, || {
        format!("{} telemetry deltas were shed", snap.telemetry_shed_total)
    });
    out.note(format!(
        "service: {} epochs, {} repartitions, {} held, shed {}",
        snap.epoch, snap.repartitions, snap.held_epochs, snap.telemetry_shed_total
    ));
    if read_metrics {
        let m = client.metrics().expect("Metrics reply");
        let epochs = m
            .snapshot
            .counters
            .iter()
            .find(|c| c.name == "bwpartd_epochs_total")
            .map_or(0, |c| c.value);
        out.note(format!("service metrics: bwpartd_epochs_total {epochs}"));
    }
    for group in &svc.groups {
        let members: Vec<&service::App> = svc.apps.iter().filter(|a| &a.group == group).collect();
        let truth: Vec<f64> = members.iter().map(|a| a.apc_true).collect();
        let want = reference::power_shares(&truth, 0.5);
        let reply = match client.group_shares(group, None) {
            Ok(r) => r,
            Err(e) => {
                out.checks.check(false, || format!("group {group}: {e}"));
                continue;
            }
        };
        let sum: f64 = reply.apps.iter().map(|r| r.beta).sum();
        out.checks.check((sum - 1.0).abs() <= 1e-9, || {
            format!("group {group}: shares sum to {sum}")
        });
        for (app, w) in members.iter().zip(&want) {
            let got = reply
                .apps
                .iter()
                .find(|r| r.app_id == app.id)
                .map_or(-1.0, |r| r.beta);
            out.checks.check((got - w).abs() <= 0.02 * w, || {
                format!(
                    "{}: share {got} vs Square_root of ground truth {w}",
                    app.name
                )
            });
        }
    }
}

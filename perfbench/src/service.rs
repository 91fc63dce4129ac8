//! What both service workloads share: the generated application
//! population, its telemetry stream, the service configuration, and a
//! framed connection that times its own encode, write, wait and decode.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use bwpart_core::PartitionScheme;
use bwpart_mc::TelemetryDelta;
use bwpartd::protocol::{self, CacheSpec, Codec, MrcPoint, Request, Response};
use bwpartd::{Client, EngineConfig, ServeConfig, ServerHandle, ShardMap};

use crate::reference::Estimator;
use crate::rng::Rng;
use crate::spans::Spans;

/// Total bandwidth `B` every tenant group partitions (the service
/// default, the paper's Mix-1 utilized bandwidth).
pub const BANDWIDTH: f64 = 0.0095;
/// Applications per tenant group (one group stands for one chip).
pub const GROUP_SIZE: usize = 16;
/// Tenant shards of the service.
pub const SHARDS: usize = 4;
/// Epoch smoothing the service is configured with (and the reference
/// estimator replays).
pub const EWMA_ALPHA: f64 = 0.5;
pub const PHASE_CHANGE_RATIO: f64 = 0.5;
pub const MIN_ALONE_FRACTION: f64 = 0.02;
/// Set-ups timed per run (see [`crate::Setups`]); `setup_s` is their
/// median.
pub const SETUPS: usize = 15;

/// One generated application.
#[derive(Debug, Clone)]
pub struct App {
    pub name: String,
    pub group: String,
    pub api: f64,
    /// Ground-truth `APC_alone` the telemetry is generated from.
    pub apc_true: f64,
    /// Share of shared-mode cycles lost to interference.
    pub intf_frac: f64,
    pub cache: Option<CacheSpec>,
    /// Public id the service assigned at registration.
    pub id: usize,
}

/// `n` applications in groups of [`GROUP_SIZE`], with standalone rates
/// log-uniform in `[3e-4, 3e-3]` APC. A group's rates typically sum to
/// about twice `B`, so the per-application caps and the priority fills
/// bind; they sum to at most `0.048`, so admissions that reserve 15% of
/// each estimate always fit in `B` (Eq. 11).
pub fn population(n: usize, seed: u64, with_cache: bool) -> Vec<App> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|i| {
            let g = i / GROUP_SIZE;
            let apc_true = 3e-4 * (10f64).powf(rng.unit());
            let api = rng.range(0.002, 0.03);
            let cache = with_cache.then(|| {
                // The miss-ratio curve is already non-increasing, so its
                // fit keeps `m(1) = 1 - x/2` and the model's API at one
                // way, `api_llc·m(1)`, equals the registered API.
                let x = rng.range(0.1, 0.7);
                CacheSpec {
                    api_llc: api / (1.0 - x / 2.0),
                    cpi_base: rng.range(0.6, 1.6),
                    mem_penalty: rng.range(80.0, 240.0),
                    mrc: vec![
                        MrcPoint {
                            ways: 1.0,
                            miss_ratio: 1.0 - x / 2.0,
                        },
                        MrcPoint {
                            ways: 4.0,
                            miss_ratio: 1.0 - x,
                        },
                        MrcPoint {
                            ways: 16.0,
                            miss_ratio: x / 4.0,
                        },
                    ],
                }
            });
            App {
                name: format!("g{g:03}/app{i:04}"),
                group: format!("g{g:03}"),
                api,
                apc_true,
                intf_frac: rng.range(0.05, 0.4),
                cache,
                id: usize::MAX,
            }
        })
        .collect()
}

/// One telemetry delta for `app`: a window of 200k–250k shared cycles,
/// the app's interference share of them, and accesses at its true
/// standalone rate with ±1% noise.
pub fn delta(app: &App, rng: &mut Rng) -> TelemetryDelta {
    let shared = 200_000 + rng.below(50_000) as u64;
    let interference = (shared as f64 * app.intf_frac).round() as u64;
    let accesses =
        (app.apc_true * (shared - interference) as f64 * rng.range(0.99, 1.01)).round() as u64;
    TelemetryDelta {
        accesses,
        shared_cycles: shared,
        interference_cycles: interference,
    }
}

pub fn telemetry_request(app: &App, d: TelemetryDelta) -> Request {
    Request::Telemetry {
        app_id: app.id,
        accesses: d.accesses,
        shared_cycles: d.shared_cycles,
        interference_cycles: d.interference_cycles,
    }
}

pub fn engine_config(scheme: PartitionScheme, total_ways: Option<usize>) -> EngineConfig {
    EngineConfig {
        scheme,
        bandwidth: BANDWIDTH,
        ewma_alpha: EWMA_ALPHA,
        hysteresis: 0.002,
        phase_change_ratio: PHASE_CHANGE_RATIO,
        min_alone_fraction: MIN_ALONE_FRACTION,
        queue_capacity: 1024,
        total_ways,
    }
}

/// The reactor front-end with one worker. Epochs run only when the
/// workload forces them, so the epoch timer is set far beyond any run.
pub fn start(engine: EngineConfig) -> ServerHandle {
    bwpartd::serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        engine,
        epoch_interval: Duration::from_secs(24 * 3600),
        read_timeout: Duration::from_secs(600),
        shards: SHARDS,
        reactor: true,
        workers: 1,
    })
    .expect("bind the service on a loopback port")
}

/// The service after set-up: population registered over the wire, every
/// application primed with one delta, the first epoch run. `estimators`
/// replays Eq. 12–13 over the same telemetry. Every set-up of a run
/// primes with the same deltas.
pub struct Service {
    pub handle: ServerHandle,
    pub apps: Vec<App>,
    pub estimators: Vec<Estimator>,
    pub groups: Vec<String>,
    /// The priming delta each application sent, by population index.
    pub priming: Vec<TelemetryDelta>,
}

pub fn set_up(engine: &EngineConfig, apps: &[App], seed: u64) -> Service {
    let mut rng = Rng::new(seed ^ 0xA11C_E5E7);
    let mut apps = apps.to_vec();
    let handle = start(engine.clone());
    let mut client = Client::connect_with(handle.addr(), Codec::Binary).expect("connect");
    for app in &mut apps {
        app.id = client
            .register_with_cache(&app.name, app.api, app.cache.clone())
            .expect("registration succeeds");
    }
    let mut estimators = vec![Estimator::default(); apps.len()];
    let mut priming = Vec::with_capacity(apps.len());
    for (app, est) in apps.iter().zip(&mut estimators) {
        let d = delta(app, &mut rng);
        client
            .telemetry(app.id, d)
            .expect("priming telemetry is acknowledged");
        est.report(d.accesses, d.shared_cycles, d.interference_cycles);
        priming.push(d);
    }
    handle.force_epoch();
    for est in &mut estimators {
        est.epoch(MIN_ALONE_FRACTION, EWMA_ALPHA, PHASE_CHANGE_RATIO);
    }
    let mut groups: Vec<String> = apps.iter().map(|a| a.group.clone()).collect();
    groups.dedup();
    Service {
        handle,
        apps,
        estimators,
        groups,
        priming,
    }
}

/// An in-process copy of the service state after set-up (same
/// registrations in the same order, so the same public ids; same priming
/// and first epoch) that traced runs replay the recorded requests against
/// to time the server-side layers.
pub fn replica(engine: EngineConfig, svc: &Service) -> ShardMap {
    let map = ShardMap::new(engine, SHARDS).expect("valid engine config");
    for app in &svc.apps {
        let id = map
            .register_with_cache(&app.name, app.api, app.cache.clone())
            .expect("replica registration");
        assert_eq!(id, app.id, "replica ids follow registration order");
    }
    for (app, d) in svc.apps.iter().zip(&svc.priming) {
        map.push_telemetry(app.id, *d).expect("replica priming");
    }
    map.run_epochs();
    map
}

/// A framed binary-codec connection whose reads and decodes are timed as
/// `client.wait` and `client.decode` spans.
pub struct Wire {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
    chunk: Vec<u8>,
    replies: Vec<(Response, usize)>,
}

impl Wire {
    pub fn connect(addr: SocketAddr) -> Self {
        let client = Client::connect_with(addr, Codec::Binary).expect("connect");
        Wire {
            stream: client.into_stream(),
            buf: Vec::new(),
            pos: 0,
            chunk: vec![0; 64 * 1024],
            replies: Vec::new(),
        }
    }

    /// Write the bytes of one or more frames.
    pub fn send(&mut self, frames: &[u8], spans: &mut Spans) {
        let s = spans.begin("client.write");
        self.stream.write_all(frames).expect("write request frames");
        spans.end(s);
    }

    /// Read the next `n` responses, each with its frame size in bytes. Time blocked in `read` is a `client.wait` span; decoding the
    /// frames a read delivered is one `client.decode` span, and
    /// `decode_ns` accumulates the decode time.
    pub fn recv(
        &mut self,
        n: usize,
        spans: &mut Spans,
        decode_ns: &mut u64,
    ) -> std::vec::Drain<'_, (Response, usize)> {
        let out = &mut self.replies;
        out.clear();
        loop {
            if self.pos < self.buf.len() {
                let t = Instant::now();
                let s = spans.begin("client.decode");
                while out.len() < n {
                    let got = protocol::decode_frame::<Response>(&self.buf[self.pos..])
                        .expect("the service sends well-formed frames");
                    let Some((resp, used, _)) = got else { break };
                    self.pos += used;
                    out.push((resp, used));
                }
                spans.end(s);
                *decode_ns += t.elapsed().as_nanos() as u64;
                if out.len() == n {
                    return out.drain(..);
                }
            }
            if self.pos > 0 {
                self.buf.drain(..self.pos);
                self.pos = 0;
            }
            let s = spans.begin("client.wait");
            let got = loop {
                match self.stream.read(&mut self.chunk) {
                    Ok(0) => panic!("the service closed a connection it should keep"),
                    Ok(got) => break got,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => panic!("read from the service: {e}"),
                }
            };
            spans.end(s);
            self.buf.extend_from_slice(&self.chunk[..got]);
        }
    }
}

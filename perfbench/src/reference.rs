//! Independent references for the checks: the paper's equations written
//! out again here, without calls into `bwpart-core`, so that a fault in
//! the program cannot hide in the check that should catch it. The tests
//! at the bottom hold each reference against `bwpart-core` on random
//! inputs.

/// Relative tolerance for comparing the program's floating-point results
/// with a reference (different summation orders differ in the last bits).
pub const REL_TOL: f64 = 1e-9;

/// True when `a` and `b` agree within [`REL_TOL`] (relative to the larger
/// magnitude, with an absolute floor for values near zero).
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1e-12)
}

/// Eq. 4–8: the power-family nominal shares `β_i = a_i^α / Σ_j a_j^α`
/// (Equal α=0, Square_root α=1/2, 2/3_power α=2/3, Proportional α=1).
pub fn power_shares(apc_alone: &[f64], alpha: f64) -> Vec<f64> {
    let w: Vec<f64> = apc_alone.iter().map(|a| a.powf(alpha)).collect();
    let total: f64 = w.iter().sum();
    w.iter().map(|x| x / total).collect()
}

/// The power-family allocation in APC units with per-application caps
/// `APC_alone,i`: every uncapped application gets `λ·w_i` for the level
/// `λ` at which the grants sum to `min(B, Σ caps)` (Eq. 2). Computed by
/// visiting applications in increasing `cap/weight` order: an application
/// saturates exactly when its cap lies below its proportional grant of
/// what is left.
pub fn power_allocation(apc_alone: &[f64], alpha: f64, b: f64) -> Vec<f64> {
    let n = apc_alone.len();
    let w: Vec<f64> = apc_alone.iter().map(|a| a.powf(alpha)).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| (apc_alone[i] / w[i]).total_cmp(&(apc_alone[j] / w[j])));
    let mut alloc = vec![0.0; n];
    let mut left = b.min(apc_alone.iter().sum());
    let mut w_left: f64 = w.iter().sum();
    let mut k = 0;
    while k < n {
        let i = order[k];
        let grant = left * w[i] / w_left;
        if apc_alone[i] > grant {
            break;
        }
        alloc[i] = apc_alone[i];
        left -= apc_alone[i];
        w_left -= w[i];
        k += 1;
    }
    for &i in &order[k..] {
        alloc[i] = left * w[i] / w_left;
    }
    alloc
}

/// Eq. 9/10: the strict-priority (fractional-knapsack) fill. Applications
/// are served in increasing `key` order (ties by index), each up to its
/// cap, until `B` is used up. Priority_APC keys on `APC_alone`,
/// Priority_API on `API`.
pub fn priority_allocation(keys: &[f64], caps: &[f64], b: f64) -> Vec<f64> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by(|&i, &j| keys[i].total_cmp(&keys[j]).then(i.cmp(&j)));
    let mut alloc = vec![0.0; keys.len()];
    let mut left = b;
    for i in order {
        let grant = caps[i].min(left).max(0.0);
        alloc[i] = grant;
        left -= grant;
    }
    alloc
}

/// Nominal shares of an allocation: each grant over the total granted.
pub fn normalize(alloc: &[f64]) -> Vec<f64> {
    let total: f64 = alloc.iter().sum();
    alloc.iter().map(|a| a / total).collect()
}

/// The schemes the service answers what-if solves for, by canonical name.
pub const SERVICE_SCHEMES: [&str; 7] = [
    "equal",
    "proportional",
    "square-root",
    "two-thirds-power",
    "priority-apc",
    "priority-api",
    "coordinated",
];

/// Reference `(β, allocation)` for one of the six bandwidth schemes over
/// applications with standalone rates `apc_alone` and `api`, bandwidth
/// `b`. `None` for a name that is not a bandwidth scheme.
pub fn scheme_reference(
    scheme: &str,
    apc_alone: &[f64],
    api: &[f64],
    b: f64,
) -> Option<(Vec<f64>, Vec<f64>)> {
    let power = |alpha: f64| {
        Some((
            power_shares(apc_alone, alpha),
            power_allocation(apc_alone, alpha, b),
        ))
    };
    let priority = |keys: &[f64]| {
        let alloc = priority_allocation(keys, apc_alone, b);
        Some((normalize(&alloc), alloc))
    };
    match scheme {
        "equal" => power(0.0),
        "proportional" => power(1.0),
        "square-root" => power(0.5),
        "two-thirds-power" => power(2.0 / 3.0),
        "priority-apc" => priority(apc_alone),
        "priority-api" => priority(api),
        _ => None,
    }
}

/// The cache-aware extension's application model, as the coordinated
/// solver sees it: `API(w) = api_llc·m(w)`, `CPI(w) = cpi_base +
/// API(w)·mem_penalty`, `APC_alone(w) = API(w)/CPI(w)`, with the miss
/// ratio `m` known at one way and at the full LLC.
#[derive(Debug, Clone, Copy)]
pub struct CacheModel {
    pub api_llc: f64,
    pub cpi_base: f64,
    pub mem_penalty: f64,
    pub miss_one_way: f64,
    pub miss_full: f64,
}

impl CacheModel {
    fn api(&self, miss: f64) -> f64 {
        (self.api_llc * miss).max(1e-9)
    }

    fn cpi(&self, miss: f64) -> f64 {
        self.cpi_base + self.api_llc * miss * self.mem_penalty
    }
}

/// The harmonic-speedup score the coordinated solver gives a bandwidth
/// allocation when every application holds one LLC way: shared IPC at one
/// way (`alloc / API(1)`, Eq. 1) against standalone IPC with the whole
/// LLC, with each model's `APC_alone` scaled so that at one way it equals
/// the telemetry estimate.
pub fn coordinated_score(models: &[CacheModel], estimates: &[f64], alloc: &[f64]) -> f64 {
    let shared: Vec<f64> = models
        .iter()
        .zip(alloc)
        .map(|(m, a)| a / m.api(m.miss_one_way))
        .collect();
    let alone: Vec<f64> = models
        .iter()
        .zip(estimates)
        .map(|(m, e)| {
            let scale = e / (m.api(m.miss_one_way) / m.cpi(m.miss_one_way));
            scale / m.cpi(m.miss_full)
        })
        .collect();
    hsp(&shared, &alone)
}

/// One candidate scheme's `(β, allocation, score)`.
pub type Candidate = (Vec<f64>, Vec<f64>, f64);

/// For a group where every application holds exactly one way, the
/// coordinated solve returns the enforced scheme with the best
/// [`coordinated_score`]. Returns each scheme's `(β, allocation, score)`
/// and the best score, so a check can accept any scheme that ties the
/// best within rounding.
pub fn coordinated_candidates(
    models: &[CacheModel],
    estimates: &[f64],
    api: &[f64],
    b: f64,
) -> (Vec<Candidate>, f64) {
    // The six bandwidth-only schemes: every service scheme but the last.
    let cands: Vec<Candidate> = SERVICE_SCHEMES[..6]
        .iter()
        .map(|s| {
            let (beta, alloc) = scheme_reference(s, estimates, api, b).expect("enforced scheme");
            let score = coordinated_score(models, estimates, &alloc);
            (beta, alloc, score)
        })
        .collect();
    let best = cands.iter().map(|c| c.2).fold(f64::MIN, f64::max);
    (cands, best)
}

/// Eq. 11: the bandwidth a QoS guarantee reserves, `IPC_target × API`.
pub fn qos_reservation(ipc_target: f64, api: f64) -> f64 {
    ipc_target * api
}

/// Eq. 12–13 with the service's epoch smoothing: per epoch,
/// `APC_alone = ΣN / max(ΣT_shared − ΣT_interference, floor)` over the
/// deltas reported since the previous epoch, then an EWMA with weight
/// `alpha` on the new value, snapping to it on a relative jump above
/// `snap`. An epoch without reports keeps the previous estimate.
#[derive(Debug, Clone, Default)]
pub struct Estimator {
    accesses: u64,
    shared: u64,
    interference: u64,
    pub estimate: Option<f64>,
}

impl Estimator {
    pub fn report(&mut self, accesses: u64, shared: u64, interference: u64) {
        self.accesses += accesses;
        self.shared += shared;
        self.interference += interference;
    }

    /// The raw Eq. 12–13 value of the reports since the last epoch.
    pub fn raw(&self, min_alone_fraction: f64) -> Option<f64> {
        if self.shared == 0 {
            return None;
        }
        let floor = (self.shared as f64 * min_alone_fraction) as u64;
        let alone = self
            .shared
            .saturating_sub(self.interference)
            .max(floor)
            .max(1);
        Some(self.accesses as f64 / alone as f64)
    }

    pub fn epoch(&mut self, min_alone_fraction: f64, alpha: f64, snap: f64) {
        if let Some(raw) = self.raw(min_alone_fraction) {
            self.estimate = Some(match self.estimate {
                Some(old) if old > 0.0 && (raw - old).abs() / old > snap => raw,
                Some(old) => alpha * raw + (1.0 - alpha) * old,
                None => raw,
            });
        }
        self.accesses = 0;
        self.shared = 0;
        self.interference = 0;
    }
}

/// Eq. 3: harmonic weighted speedup `N / Σ IPC_alone,i / IPC_shared,i`.
pub fn hsp(shared: &[f64], alone: &[f64]) -> f64 {
    let n = shared.len() as f64;
    n / shared.iter().zip(alone).map(|(s, a)| a / s).sum::<f64>()
}

/// Eq. 7: minimum fairness, `N × min_i IPC_shared,i / IPC_alone,i`.
pub fn min_fairness(shared: &[f64], alone: &[f64]) -> f64 {
    let n = shared.len() as f64;
    n * shared
        .iter()
        .zip(alone)
        .map(|(s, a)| s / a)
        .fold(f64::INFINITY, f64::min)
}

/// Eq. 9: weighted speedup, the mean of `IPC_shared,i / IPC_alone,i`.
pub fn wsp(shared: &[f64], alone: &[f64]) -> f64 {
    shared.iter().zip(alone).map(|(s, a)| s / a).sum::<f64>() / shared.len() as f64
}

/// Eq. 10: sum of IPCs.
pub fn ipc_sum(shared: &[f64], _alone: &[f64]) -> f64 {
    shared.iter().sum()
}

/// An objective over `(IPC_shared, IPC_alone)`.
pub type Objective = fn(&[f64], &[f64]) -> f64;

/// The four objectives with the scheme the paper derives as optimal for
/// each (Section III), by the paper's spelling.
pub const OBJECTIVES: [(&str, Objective, &str); 4] = [
    ("Hsp", hsp, "Square_root"),
    ("MinFairness", min_fairness, "Proportional"),
    ("Wsp", wsp, "Priority_APC"),
    ("IPCsum", ipc_sum, "Priority_API"),
];

/// Peak DDR2-400 bandwidth in accesses (64-byte lines) per 5 GHz CPU
/// cycle, from the Table II bus: a 200 MHz clock moving 8 bytes on both
/// edges gives 3.2 GB/s, i.e. 50 M lines/s against 5 G cycles/s.
pub fn ddr2_400_peak_apc() -> f64 {
    let bus_hz = 200e6;
    let transfers_per_clock = 2.0;
    let bus_bytes = 8.0;
    let line_bytes = 64.0;
    let cpu_hz = 5e9;
    bus_hz * transfers_per_clock * bus_bytes / line_bytes / cpu_hz
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use bwpart_core::prelude::*;
    use bwpart_mc::{DeltaAccumulator, TelemetryDelta};

    fn random_apps(rng: &mut Rng) -> (Vec<f64>, Vec<f64>, f64) {
        let n = 1 + rng.below(16);
        let apc: Vec<f64> = (0..n).map(|_| rng.range(1e-4, 6e-3)).collect();
        let api: Vec<f64> = (0..n).map(|_| rng.range(1e-3, 5e-2)).collect();
        let b = rng.range(1e-3, 2e-2);
        (apc, api, b)
    }

    fn profiles(apc: &[f64], api: &[f64]) -> Vec<AppProfile> {
        apc.iter()
            .zip(api)
            .enumerate()
            .map(|(i, (&c, &p))| AppProfile::new(format!("a{i}"), p, c).unwrap())
            .collect()
    }

    fn all_close(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| close(*x, *y))
    }

    #[test]
    fn scheme_references_match_core() {
        let mut rng = Rng::new(1);
        for _ in 0..2000 {
            let (apc, api, b) = random_apps(&mut rng);
            let apps = profiles(&apc, &api);
            for name in SERVICE_SCHEMES {
                let Some((beta, alloc)) = scheme_reference(name, &apc, &api, b) else {
                    continue;
                };
                let scheme: PartitionScheme = name.parse().unwrap();
                let out = scheme.solve(&apps, b).unwrap();
                assert!(
                    all_close(&beta, &out.beta),
                    "{name} beta {beta:?} vs {:?}",
                    out.beta
                );
                assert!(
                    all_close(&alloc, &out.allocation),
                    "{name} allocation {alloc:?} vs {:?}",
                    out.allocation
                );
            }
        }
    }

    #[test]
    fn qos_reservation_matches_core() {
        let mut rng = Rng::new(2);
        for _ in 0..500 {
            let (apc, api, _) = random_apps(&mut rng);
            let apps = profiles(&apc, &api);
            let i = rng.below(apps.len());
            let target = apps[i].ipc_alone() * rng.range(0.05, 0.3);
            let b = qos_reservation(target, api[i]) + rng.range(1e-3, 1e-2);
            let req = [QosRequest {
                app: i,
                target_ipc: target,
            }];
            let part = qos::partition(&apps, &req, PartitionScheme::SquareRoot, b).unwrap();
            assert!(close(part.qos_bandwidth, qos_reservation(target, api[i])));
            assert!(close(part.allocation[i], qos_reservation(target, api[i])));
        }
    }

    #[test]
    fn estimator_matches_profiler_fold() {
        let mut rng = Rng::new(3);
        for _ in 0..500 {
            let mut acc = DeltaAccumulator::new();
            let mut est = Estimator::default();
            for _ in 0..1 + rng.below(20) {
                let shared = rng.below(1_000_000) as u64;
                let intf = rng.below(shared as usize + 1) as u64;
                let accesses = rng.below(20_000) as u64;
                acc.fold(TelemetryDelta {
                    accesses,
                    shared_cycles: shared,
                    interference_cycles: intf,
                });
                est.report(accesses, shared, intf);
            }
            assert_eq!(acc.apc_alone(0.02), est.raw(0.02));
        }
    }

    #[test]
    fn objectives_match_core() {
        let mut rng = Rng::new(4);
        for _ in 0..500 {
            let n = 1 + rng.below(8);
            let alone: Vec<f64> = (0..n).map(|_| rng.range(0.1, 2.0)).collect();
            let shared: Vec<f64> = alone.iter().map(|a| a * rng.range(0.05, 1.0)).collect();
            let core = [
                Metric::HarmonicWeightedSpeedup,
                Metric::MinFairness,
                Metric::WeightedSpeedup,
                Metric::SumOfIpcs,
            ];
            for ((_, f, _), m) in OBJECTIVES.iter().zip(core) {
                let want = metrics::evaluate(m, &shared, &alone).unwrap();
                assert!(close(f(&shared, &alone), want), "{m:?}");
            }
        }
    }

    #[test]
    fn coordinated_one_way_groups_pick_a_best_enforced_scheme() {
        let mut rng = Rng::new(5);
        for _ in 0..300 {
            // At least five apps, so the full-LLC knot lies past the 4-way one.
            let n = 5 + rng.below(12);
            let (models, caches): (Vec<CacheModel>, Vec<CacheAwareProfile>) = (0..n)
                .map(|i| {
                    let x = rng.range(0.1, 0.7);
                    let m = CacheModel {
                        api_llc: rng.range(0.005, 0.05),
                        cpi_base: rng.range(0.6, 1.6),
                        mem_penalty: rng.range(80.0, 240.0),
                        miss_one_way: 1.0 - x / 2.0,
                        miss_full: x / 4.0,
                    };
                    let mrc = MissRatioCurve::fit(&[
                        (1.0, 1.0 - x / 2.0),
                        (4.0, 1.0 - x),
                        (n as f64, x / 4.0),
                    ])
                    .unwrap();
                    let c = CacheAwareProfile::new(
                        format!("a{i}"),
                        m.api_llc,
                        m.cpi_base,
                        m.mem_penalty,
                        mrc,
                    )
                    .unwrap();
                    (m, c)
                })
                .unzip();
            let est: Vec<f64> = (0..n).map(|_| rng.range(3e-4, 3e-3)).collect();
            let scales: Vec<f64> = caches
                .iter()
                .zip(&est)
                .map(|(c, e)| e / c.apc_alone_at(1.0))
                .collect();
            let b = rng.range(2e-3, 2e-2);
            let out = solve_coordinated_scaled(&caches, &scales, &CoordConfig::new(b, n)).unwrap();
            assert!(out.ways.iter().all(|&w| w == 1));
            let api: Vec<f64> = models.iter().map(|m| m.api(m.miss_one_way)).collect();
            let (cands, best) = coordinated_candidates(&models, &est, &api, b);
            assert!(
                cands
                    .iter()
                    .any(|(beta, alloc, score)| *score >= best * (1.0 - 1e-9)
                        && all_close(beta, &out.bandwidth.beta)
                        && all_close(alloc, &out.bandwidth.allocation)),
                "coordinated {:?} matches no best-scoring scheme",
                out.bandwidth.beta
            );
        }
    }

    #[test]
    fn peak_apc_matches_dram_config() {
        let cfg = bwpart_dram::DramConfig::ddr2_400();
        assert!(close(ddr2_400_peak_apc(), cfg.peak_apc()));
    }
}

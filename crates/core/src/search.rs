//! Co-Design Step 3: hardware-aware DNN search and update.
//!
//! Implements DNN initialization (Sec. 5.2.1) and the **Stochastic
//! Coordinate Descent (SCD) unit** of Algorithm 1. Given an initial
//! design, a latency target `Lat_targ`, a tolerance `ε` and a resource
//! cap, SCD repeatedly estimates the latency change of a unit move
//! along each of three coordinates — replication count `N`, channel
//! expansion `Π`, down-sampling `X` — picks one coordinate uniformly at
//! random, scales the move by `⌊|Lat_targ − Lat| / ΔLat⌋`, and applies
//! it if the resource estimate stays within budget. Designs landing
//! within `ε` of the target are collected as candidates.
//!
//! Since SCD probes differ from their predecessor by exactly one
//! coordinate, every probe is priced through the incremental
//! [`EstimatePlan`] — the DNN is elaborated once per accepted
//! trajectory, not once per probe — with results bit-identical to the
//! full analytic rebuild.

use crate::accuracy::AccuracyModel;
use codesign_dnn::builder::DnnBuilder;
use codesign_dnn::bundle::Bundle;
use codesign_dnn::space::{DesignPoint, MAX_PARALLEL_FACTOR, PARALLEL_FACTOR_STEP};
use codesign_hls::incremental::{EstimatePlan, LookupTally, MoveCoord};
use codesign_hls::model::{Estimate, HlsEstimator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Configuration of one SCD run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScdConfig {
    /// Latency target in milliseconds (at `clock_mhz`).
    pub latency_target_ms: f64,
    /// Tolerance `ε` in milliseconds.
    pub tolerance_ms: f64,
    /// Clock used to convert cycles to milliseconds.
    pub clock_mhz: f64,
    /// Number of candidate DNNs `K` to collect.
    pub candidates: usize,
    /// Iteration budget (Algorithm 1 loops until `k = K`; the budget
    /// bounds runs whose target is unreachable).
    pub max_iterations: usize,
    /// RNG seed for the stochastic coordinate choice.
    pub seed: u64,
}

impl Default for ScdConfig {
    fn default() -> Self {
        Self {
            latency_target_ms: 100.0,
            tolerance_ms: 10.0,
            clock_mhz: 100.0,
            candidates: 4,
            max_iterations: 400,
            seed: 7,
        }
    }
}

/// A candidate design produced by SCD: within tolerance of the latency
/// target and inside the resource budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// The design point.
    pub point: DesignPoint,
    /// Analytic estimate at collection time.
    pub estimate: Estimate,
    /// Latency in milliseconds at the run's clock.
    pub latency_ms: f64,
    /// Estimated accuracy (IoU).
    pub accuracy: f64,
}

/// Chooses the largest legal parallel factor whose accelerator still
/// fits the estimator's device (Sec. 5.2.1: "PF is set as the maximum
/// value that can fully utilize available resources").
///
/// The point's DNN is elaborated **once** into an [`EstimatePlan`]; the
/// ladder rungs are then priced by re-deriving the analytic terms under
/// each PF, since the parallel factor never changes layer shapes. (The
/// SCD loop itself calls [`choose_max_parallel_factor_with`] to reuse
/// its live plan instead of elaborating a fresh one.)
pub fn choose_max_parallel_factor(point: &DesignPoint, estimator: &HlsEstimator) -> usize {
    let Ok(plan) = EstimatePlan::new(estimator, point) else {
        // The point does not elaborate at all; no rung can fit.
        return PARALLEL_FACTOR_STEP;
    };
    choose_max_parallel_factor_with(&plan, point)
}

/// [`choose_max_parallel_factor`] probing through an existing plan —
/// `plan`'s base point need not equal `point`; the plan reuses whatever
/// structural prefix the two share.
pub fn choose_max_parallel_factor_with(plan: &EstimatePlan, point: &DesignPoint) -> usize {
    let estimator = plan.estimator();
    let mut probe = point.clone();
    let mut fits_at = |pf: usize| -> bool {
        probe.parallel_factor = pf;
        plan.probe(&probe)
            .map(|est| estimator.fits(&est))
            .unwrap_or(false)
    };
    // Legal PFs form the ladder STEP, 2·STEP, …, MAX (HLS
    // array-partition factors). Resource usage is monotone
    // non-decreasing in PF, so binary-search the largest rung that
    // fits — probing every rung, unlike the old fixed `-16` stride
    // that skipped values such as 8 between its probes.
    let (mut lo, mut hi) = (1usize, MAX_PARALLEL_FACTOR / PARALLEL_FACTOR_STEP);
    if !fits_at(lo * PARALLEL_FACTOR_STEP) {
        return PARALLEL_FACTOR_STEP;
    }
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if fits_at(mid * PARALLEL_FACTOR_STEP) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo * PARALLEL_FACTOR_STEP
}

/// Runs the SCD unit (Algorithm 1) for one Bundle with the default
/// 16-bit (`Relu`) quantization arm.
///
/// Returns up to `cfg.candidates` designs whose estimated latency lies
/// within `ε` of the target under the resource budget of the
/// estimator's device. The run is deterministic for a given seed.
pub fn scd_search(
    bundle: &Bundle,
    estimator: &HlsEstimator,
    model: &AccuracyModel,
    cfg: &ScdConfig,
) -> Vec<Candidate> {
    scd_search_with_activation(
        bundle,
        estimator,
        model,
        cfg,
        codesign_dnn::quant::Activation::Relu,
    )
}

/// Deepest restart landing: a stuck search restarts from
/// `DesignPoint::initial(bundle, n)` with `n` drawn from `1..=6`.
const MAX_RESTART_DEPTH: usize = 6;

/// Where a restart to depth `n` landed, recorded the first time the
/// search restarts there: the point with its maximal PF, the probe of
/// that point, and the cache lookups the PF ladder and probe counted.
#[derive(Debug)]
struct Landing {
    point: DesignPoint,
    estimate: Option<Estimate>,
    tally: LookupTally,
}

/// Runs the SCD unit with an explicit activation / quantization arm
/// (the co-design variable `Q` of Table 1).
///
/// Every probe goes through an incremental [`EstimatePlan`] instead of
/// rebuilding a DNN per query: the plan elaborates the current point
/// once and re-derives only the pipeline groups a unit move touches,
/// bit-identical to the full model (so results — and, estimator cache
/// attached, the deterministic lookup count — are unchanged from the
/// rebuild-per-probe implementation).
///
/// Restarts are replayed. A stuck search restarts from
/// `DesignPoint::initial(bundle, n)` with `n` in `1..=6`, so within one
/// search the landing (PF-ladder choice and probe) depends only on the
/// depth. The first restart to a depth runs the ladder and records its
/// landing; a repeat takes the recorded point and estimate, and counts
/// the recorded [`LookupTally`] on the cache through
/// [`EstimateCache::record_hits`](codesign_hls::cache::EstimateCache::record_hits).
/// Re-running the ladder would answer every probe from the plan's memo,
/// so it would count exactly those hits: the lookup totals, hits and
/// store hits are unchanged.
pub fn scd_search_with_activation(
    bundle: &Bundle,
    estimator: &HlsEstimator,
    model: &AccuracyModel,
    cfg: &ScdConfig,
    activation: codesign_dnn::quant::Activation,
) -> Vec<Candidate> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let builder = DnnBuilder::new();

    // DNN initialization (Sec. 5.2.1) + maximum-PF selection. The run
    // owns ONE plan: PF-ladder selection, every probe, and every
    // restart reuse it — the initial elaboration here is the only
    // from-scratch one in the whole search.
    let mut point = DesignPoint::initial(bundle.clone(), 3);
    point.activation = activation;

    let mut candidates: Vec<Candidate> = Vec::new();
    let mut seen: HashSet<Vec<u8>> = HashSet::new();

    let Ok(mut plan) = EstimatePlan::new(estimator, &point) else {
        return candidates;
    };
    point.parallel_factor = choose_max_parallel_factor_with(&plan, &point);

    // One logical cache lookup per priced point, exactly like the old
    // `estimate_point`-per-probe loop; `plan.commit_probed` (accepted
    // moves only) adopts the probe's result without touching the cache.
    let Ok(mut est) = plan.probe(&point) else {
        return candidates;
    };
    plan.commit_probed(&point, est);
    let mut lat = est.latency_ms(cfg.clock_mhz);

    // Every move is re-derived into this scratch point (`clone_from`
    // reuses its buffers) and swapped in when accepted, so the loop
    // does not allocate per probe.
    let mut moved = point.clone();
    let mut deltas: Vec<(MoveCoord, isize, f64)> = Vec::with_capacity(3);
    let mut landings: [Option<Landing>; MAX_RESTART_DEPTH] = Default::default();

    for _iter in 0..cfg.max_iterations {
        if candidates.len() >= cfg.candidates {
            break;
        }
        let gap = cfg.latency_target_ms - lat;
        if gap.abs() < cfg.tolerance_ms && estimator.fits(&est) {
            // Dedupe before elaborating: most in-window iterations
            // revisit a design already collected.
            if seen.insert(point.canonical_key()) {
                let dnn = builder.build(&point).expect("estimated points build");
                candidates.push(Candidate {
                    accuracy: model.estimate(&point, &dnn),
                    point: point.clone(),
                    estimate: est,
                    latency_ms: lat,
                });
            }
            // Perturb to hunt for the next distinct candidate.
            let coord = match rng.random_range(0..3u8) {
                0 => MoveCoord::Replications,
                1 => MoveCoord::Expansion,
                _ => MoveCoord::Downsampling,
            };
            let dir = if rng.random_bool(0.5) { 1 } else { -1 };
            moved.clone_from(&point);
            coord.apply(&mut moved, dir);
            if let Ok(e2) = plan.probe(&moved) {
                plan.commit_probed(&moved, e2);
                std::mem::swap(&mut point, &mut moved);
                est = e2;
                lat = e2.latency_ms(cfg.clock_mhz);
            }
            continue;
        }

        // Unit moves in the direction that closes the gap: positive gap
        // (target above latency) means the design may grow.
        let grow = gap > 0.0;
        let unit: isize = if grow { 1 } else { -1 };
        // Down-sampling acts inversely: more down-sampling -> faster.
        let coords = [
            (MoveCoord::Replications, unit),
            (MoveCoord::Expansion, unit),
            (MoveCoord::Downsampling, -unit),
        ];
        deltas.clear();
        for &(coord, dir) in &coords {
            moved.clone_from(&point);
            coord.apply(&mut moved, dir);
            if moved == point {
                continue; // saturated coordinate
            }
            if let Ok(e2) = plan.probe(&moved) {
                let dlat = e2.latency_ms(cfg.clock_mhz) - lat;
                if dlat.abs() > f64::EPSILON {
                    deltas.push((coord, dir, dlat));
                }
            }
        }
        if deltas.is_empty() {
            // No coordinate can move: restart from a fresh random depth.
            let n = rng.random_range(1..=MAX_RESTART_DEPTH);
            let landing = match &mut landings[n - 1] {
                Some(landing) => {
                    if let Some(cache) = estimator.cache() {
                        cache.record_hits(landing.tally.lookups, landing.tally.store_flagged);
                    }
                    landing
                }
                empty => {
                    // The plan rebases lazily: a miss below stages
                    // against the lagging slot base (bit-identical by
                    // contract).
                    let before = plan.lookup_tally();
                    let mut landed = DesignPoint::initial(bundle.clone(), n);
                    landed.activation = activation;
                    landed.parallel_factor = choose_max_parallel_factor_with(&plan, &landed);
                    let estimate = plan.probe(&landed).ok();
                    empty.insert(Landing {
                        point: landed,
                        estimate,
                        tally: plan.lookup_tally() - before,
                    })
                }
            };
            point.clone_from(&landing.point);
            if let Some(e2) = landing.estimate {
                plan.commit_probed(&point, e2);
                est = e2;
                lat = e2.latency_ms(cfg.clock_mhz);
            }
            continue;
        }

        // Pick one coordinate uniformly at random (the "stochastic" in
        // SCD) and scale the move: Δ = ⌊|Lat_targ − Lat| / ΔLat⌋.
        let (coord, dir, dlat) = deltas[rng.random_range(0..deltas.len())];
        let steps = ((gap.abs() / dlat.abs()).floor() as isize).clamp(1, 4);
        moved.clone_from(&point);
        coord.apply(&mut moved, dir * steps);
        if let Ok(e2) = plan.probe(&moved) {
            if estimator.fits(&e2) || e2.resources.dsp <= est.resources.dsp {
                plan.commit_probed(&moved, e2);
                std::mem::swap(&mut point, &mut moved);
                est = e2;
                lat = e2.latency_ms(cfg.clock_mhz);
            }
        }
    }
    candidates
}

/// Random-search baseline for the SCD ablation: samples design points
/// uniformly from the coordinate domains (no descent, no latency-scaled
/// steps) under the same evaluation budget, and keeps those inside the
/// target window.
///
/// Exists to quantify what the SCD unit buys; see the `ablation_scd`
/// bench. Returns the candidates found and the number of estimator
/// evaluations spent.
pub fn random_search(
    bundle: &Bundle,
    estimator: &HlsEstimator,
    model: &AccuracyModel,
    cfg: &ScdConfig,
    activation: codesign_dnn::quant::Activation,
) -> (Vec<Candidate>, usize) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let builder = DnnBuilder::new();
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let mut evaluations = 0usize;
    for _ in 0..cfg.max_iterations {
        if candidates.len() >= cfg.candidates {
            break;
        }
        let reps = rng.random_range(1..=8usize);
        let mut point = DesignPoint::initial(bundle.clone(), reps);
        point.activation = activation;
        for slot in 0..reps {
            point.downsample[slot] = rng.random_bool(0.5);
            if slot > 0 {
                let ladder = codesign_dnn::space::CHANNEL_EXPANSION_FACTORS;
                point.expansion[slot] = ladder[rng.random_range(0..ladder.len())];
            }
        }
        point.parallel_factor = choose_max_parallel_factor(&point, estimator);
        evaluations += 1;
        let Ok(est) = estimator.estimate_point(&point) else {
            continue;
        };
        let lat = est.latency_ms(cfg.clock_mhz);
        if (cfg.latency_target_ms - lat).abs() < cfg.tolerance_ms && estimator.fits(&est) {
            let key = point.canonical_key();
            if seen.contains(&key) {
                continue;
            }
            let Ok(dnn) = builder.build(&point) else {
                continue;
            };
            seen.insert(key);
            candidates.push(Candidate {
                accuracy: model.estimate(&point, &dnn),
                point,
                estimate: est,
                latency_ms: lat,
            });
        }
    }
    (candidates, evaluations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_dnn::bundle::{bundle_by_id, BundleId};
    use codesign_hls::calibrate::calibrate_bundle;
    use codesign_sim::device::pynq_z1;

    fn estimator(id: usize) -> (Bundle, HlsEstimator) {
        let b = bundle_by_id(BundleId(id)).unwrap();
        let params = calibrate_bundle(&b, &pynq_z1()).unwrap();
        (b, HlsEstimator::new(params, pynq_z1()))
    }

    #[test]
    fn scd_hits_latency_target() {
        let (b, est) = estimator(13);
        let cfg = ScdConfig {
            latency_target_ms: 60.0,
            tolerance_ms: 8.0,
            candidates: 3,
            ..ScdConfig::default()
        };
        let found = scd_search(&b, &est, &AccuracyModel::paper_calibrated(), &cfg);
        assert!(!found.is_empty(), "no candidates found");
        for c in &found {
            assert!(
                (c.latency_ms - 60.0).abs() < 8.0,
                "candidate at {} ms misses the 60±8 ms window",
                c.latency_ms
            );
            assert!(est.fits(&c.estimate), "candidate exceeds the device");
            assert!(c.point.validate().is_ok());
        }
    }

    #[test]
    fn candidates_are_distinct() {
        let (b, est) = estimator(13);
        let cfg = ScdConfig {
            latency_target_ms: 80.0,
            tolerance_ms: 10.0,
            candidates: 4,
            ..ScdConfig::default()
        };
        let found = scd_search(&b, &est, &AccuracyModel::paper_calibrated(), &cfg);
        for i in 0..found.len() {
            for j in (i + 1)..found.len() {
                assert_ne!(found[i].point, found[j].point);
            }
        }
    }

    #[test]
    fn search_is_seed_deterministic() {
        let (b, est) = estimator(1);
        let cfg = ScdConfig {
            latency_target_ms: 70.0,
            tolerance_ms: 10.0,
            candidates: 2,
            seed: 11,
            ..ScdConfig::default()
        };
        let a = scd_search(&b, &est, &AccuracyModel::paper_calibrated(), &cfg);
        let b2 = scd_search(&b, &est, &AccuracyModel::paper_calibrated(), &cfg);
        assert_eq!(a, b2);
    }

    #[test]
    fn unreachable_target_returns_empty_within_budget() {
        let (b, est) = estimator(13);
        let cfg = ScdConfig {
            latency_target_ms: 0.001, // faster than anything buildable
            tolerance_ms: 0.0005,
            candidates: 1,
            max_iterations: 50,
            ..ScdConfig::default()
        };
        let found = scd_search(&b, &est, &AccuracyModel::paper_calibrated(), &cfg);
        assert!(found.is_empty());
    }

    #[test]
    fn scd_beats_random_search_on_hit_rate() {
        // The ablation claim: under an equal iteration budget, SCD finds
        // at least as many in-window candidates as uniform sampling.
        let (b, est) = estimator(13);
        let cfg = ScdConfig {
            latency_target_ms: 60.0,
            tolerance_ms: 5.0,
            candidates: 8,
            max_iterations: 120,
            ..ScdConfig::default()
        };
        let model = AccuracyModel::paper_calibrated();
        let scd = scd_search(&b, &est, &model, &cfg);
        let (random, _) = random_search(
            &b,
            &est,
            &model,
            &cfg,
            codesign_dnn::quant::Activation::Relu,
        );
        assert!(
            scd.len() >= random.len(),
            "SCD found {} candidates, random found {}",
            scd.len(),
            random.len()
        );
        assert!(!scd.is_empty());
    }

    #[test]
    fn random_search_candidates_are_valid() {
        let (b, est) = estimator(13);
        let cfg = ScdConfig {
            latency_target_ms: 60.0,
            tolerance_ms: 10.0,
            candidates: 3,
            max_iterations: 150,
            ..ScdConfig::default()
        };
        let (found, evals) = random_search(
            &b,
            &est,
            &AccuracyModel::paper_calibrated(),
            &cfg,
            codesign_dnn::quant::Activation::Relu,
        );
        assert!(evals > 0);
        for c in &found {
            assert!((c.latency_ms - 60.0).abs() < 10.0);
            assert!(c.point.validate().is_ok());
        }
    }

    #[test]
    fn warm_store_replays_every_lookup_as_a_store_hit() {
        // Restart replay records lookups without probing; against a
        // store-preloaded cache every one of them must still read as a
        // store hit, exactly as re-running the PF ladder would count.
        use codesign_hls::cache::EstimateCache;
        use std::sync::Arc;
        let (b, est) = estimator(13);
        // A 20 ms target is out of reach for Bundle 13 on the PYNQ-Z1,
        // so the search keeps getting stuck and revisits every restart
        // depth many times.
        let cfg = ScdConfig {
            latency_target_ms: 20.0,
            tolerance_ms: 2.0,
            candidates: 8,
            max_iterations: 200,
            ..ScdConfig::default()
        };
        let model = AccuracyModel::paper_calibrated();
        let cold_cache = Arc::new(EstimateCache::new());
        let cold = scd_search(
            &b,
            &est.clone().with_cache(Arc::clone(&cold_cache)),
            &model,
            &cfg,
        );
        let cold_total = cold_cache.stats().total();

        let warm_cache = Arc::new(EstimateCache::new());
        for (key, value) in cold_cache.snapshot_ok() {
            assert!(warm_cache.preload(&key, value));
        }
        let warm = scd_search(&b, &est.with_cache(Arc::clone(&warm_cache)), &model, &cfg);
        let stats = warm_cache.stats();
        assert_eq!(stats.total(), cold_total);
        assert_eq!(stats.hits, stats.total());
        assert_eq!(warm_cache.store_hits(), stats.hits);
        assert_eq!(warm, cold);
    }

    #[test]
    fn max_pf_fits_device() {
        let (b, est) = estimator(13);
        let point = DesignPoint::initial(b, 4);
        let pf = choose_max_parallel_factor(&point, &est);
        let mut probe = point;
        probe.parallel_factor = pf;
        let e = est.estimate_point(&probe).unwrap();
        assert!(est.fits(&e), "chosen PF {pf} does not fit");
        assert!(pf >= 16, "suspiciously small PF {pf}");
    }

    #[test]
    fn max_pf_is_tight_on_the_legal_ladder() {
        // The chosen PF must be *maximal*: the next legal rung (a
        // multiple of PARALLEL_FACTOR_STEP, not of some larger stride)
        // must not fit. The old `pf -= 16` probe could neither return
        // nor rule out intermediate rungs like 8.
        let (b, est) = estimator(13);
        let point = DesignPoint::initial(b, 4);
        let pf = choose_max_parallel_factor(&point, &est);
        assert_eq!(pf % PARALLEL_FACTOR_STEP, 0);
        if pf < MAX_PARALLEL_FACTOR {
            let mut next = point.clone();
            next.parallel_factor = pf + PARALLEL_FACTOR_STEP;
            let fits_next = est
                .estimate_point(&next)
                .map(|e| est.fits(&e))
                .unwrap_or(false);
            assert!(!fits_next, "PF {pf} is not maximal: {} also fits", pf + 4);
        }
    }

    #[test]
    fn max_pf_pinned_for_pynq_z1() {
        // Pin the exact PF the ladder probe picks for a known device and
        // design, so regressions in the estimator or the probe are loud.
        let (b, est) = estimator(13);
        let pf = choose_max_parallel_factor(&DesignPoint::initial(b, 4), &est);
        assert_eq!(pf, 100, "PF choice drifted for PYNQ-Z1 / Bundle 13 / N=4");
    }
}

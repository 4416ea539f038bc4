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
//! full analytic rebuild. The searches of one (Bundle, quantization
//! arm) pair share that plan through one search context, and a search
//! replays the steps it has taken before from a graph of its visited
//! states instead of probing them again.

use crate::accuracy::AccuracyModel;
use codesign_dnn::builder::DnnBuilder;
use codesign_dnn::bundle::Bundle;
use codesign_dnn::quant::Activation;
use codesign_dnn::space::{DesignPoint, MAX_PARALLEL_FACTOR, PARALLEL_FACTOR_STEP};
use codesign_hls::incremental::{EstimatePlan, LookupTally, MoveCoord};
use codesign_hls::model::{Estimate, HlsEstimator};
use codesign_sim::report::ResourceUsage;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

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
    scd_search_with_activation(bundle, estimator, model, cfg, Activation::Relu)
}

/// Deepest restart landing: a stuck search restarts from
/// `DesignPoint::initial(bundle, n)` with `n` drawn from `1..=6`.
const MAX_RESTART_DEPTH: usize = 6;

/// Depth of DNN initialization (Sec. 5.2.1): a search starts where a
/// restart to this depth lands.
const START_DEPTH: usize = 3;

/// Runs the SCD unit with an explicit activation / quantization arm
/// (the co-design variable `Q` of Table 1).
///
/// Every probe goes through an incremental [`EstimatePlan`] instead of
/// rebuilding a DNN per query: the plan elaborates the current point
/// once and re-derives only the pipeline groups a unit move touches,
/// bit-identical to the full model. The flow searches the FPS targets
/// of a (Bundle, arm) pair through one such plan; this function is one
/// search with a plan of its own.
///
/// The search keeps a graph of the SCD states it has visited. A state
/// is a (point, estimate) pair, not a point, because a restart whose
/// landing probe fails moves the point but keeps the old estimate.
/// Each node holds what stepping from it needs: whether it lies in the
/// target window, the unit moves that change latency, and one outgoing
/// edge per RNG draw (a perturbation, a scaled move or a restart) with
/// the [`LookupTally`] its probes counted. A revisited state draws the
/// same RNG values as before, follows the recorded edge and counts the
/// recorded tallies through
/// [`EstimateCache::record_hits`](codesign_hls::cache::EstimateCache::record_hits)
/// without probing. Re-probing would answer every probe from the
/// plan's memo with the same store provenance, so results and,
/// estimator cache attached, the lookup totals, hits, misses and store
/// hits are exactly those of pricing every probe through
/// [`HlsEstimator::estimate_point`].
pub fn scd_search_with_activation(
    bundle: &Bundle,
    estimator: &HlsEstimator,
    model: &AccuracyModel,
    cfg: &ScdConfig,
    activation: Activation,
) -> Vec<Candidate> {
    ScdContext::new(bundle, estimator, model, activation).search(cfg)
}

/// The search context of one (Bundle, quantization arm) pair: the flow
/// searches a pair's FPS targets through one context, in target order
/// (a run of them per context when the workers outnumber the pairs).
///
/// The context owns one incremental [`EstimatePlan`]. Its probe memo
/// and interned slot bodies serve every search of the pair. Where a
/// restart to depth `n` lands (`DesignPoint::initial(bundle, n)` at its
/// maximal PF, and that point's estimate) depends only on the pair and
/// `n`, so once the pair has landed there the memo answers the whole PF
/// ladder. A search starts at the landing of depth 3, the
/// `DesignPoint::initial(bundle, 3)` of DNN initialization. Each search
/// replays its own revisited states from a graph, as
/// [`scd_search_with_activation`] describes; a restart is an edge like
/// any other, so the graph is the one replay mechanism.
pub(crate) struct ScdContext<'a> {
    bundle: &'a Bundle,
    estimator: &'a HlsEstimator,
    model: &'a AccuracyModel,
    activation: Activation,
    builder: DnnBuilder,
    /// `None` when the initial point does not elaborate: every search
    /// of the pair is then empty.
    plan: Option<EstimatePlan>,
}

impl<'a> ScdContext<'a> {
    /// A context for `bundle` under `activation`. The initial point is
    /// elaborated here, the only from-scratch elaboration of the pair.
    pub(crate) fn new(
        bundle: &'a Bundle,
        estimator: &'a HlsEstimator,
        model: &'a AccuracyModel,
        activation: Activation,
    ) -> Self {
        let mut start = DesignPoint::initial(bundle.clone(), START_DEPTH);
        start.activation = activation;
        Self {
            bundle,
            estimator,
            model,
            activation,
            builder: DnnBuilder::new(),
            plan: EstimatePlan::new(estimator, &start).ok(),
        }
    }

    /// Runs the SCD unit (Algorithm 1) for one latency target and seed.
    /// The result does not depend on which searches the context ran
    /// before.
    pub(crate) fn search(&mut self, cfg: &ScdConfig) -> Vec<Candidate> {
        let mut replayed = LookupTally::default();
        let found = self.walk(cfg, &mut replayed);
        if let Some(cache) = self.estimator.cache() {
            cache.record_hits(replayed.lookups, replayed.store_flagged);
        }
        found
    }

    /// Where a restart to depth `n` lands: the initial point of that
    /// depth at its maximal PF, and the probe of that point.
    fn land(plan: &EstimatePlan, bundle: &Bundle, activation: Activation, n: usize) -> Landed {
        let mut point = DesignPoint::initial(bundle.clone(), n);
        point.activation = activation;
        point.parallel_factor = choose_max_parallel_factor_with(plan, &point);
        let estimate = plan.probe(&point).ok();
        (point, estimate)
    }

    /// The SCD loop over the visited-state graph. Lookups that edges and
    /// nodes replay are added to `replayed` rather than counted.
    fn walk(&mut self, cfg: &ScdConfig, replayed: &mut LookupTally) -> Vec<Candidate> {
        let mut candidates: Vec<Candidate> = Vec::new();
        let Some(plan) = self.plan.as_mut() else {
            return candidates;
        };
        let (bundle, activation) = (self.bundle, self.activation);
        let estimator = self.estimator;
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        let (start, estimate) = Self::land(plan, bundle, activation, START_DEPTH);
        let Some(estimate) = estimate else {
            return candidates;
        };
        plan.commit_probed(&start, estimate);
        let mut graph = StateGraph::default();
        let mut at = graph.node(&start, estimate);

        // Probe points are re-derived into this scratch point
        // (`clone_from` reuses its buffers); only a new state copies it.
        let mut moved = start;
        for _iter in 0..cfg.max_iterations {
            if candidates.len() >= cfg.candidates {
                break;
            }
            let est = graph.nodes[at].estimate;
            let lat = est.latency_ms(cfg.clock_mhz);
            let gap = cfg.latency_target_ms - lat;
            match &graph.nodes[at].step {
                Some(Step::Descend { probes, .. }) => *replayed += *probes,
                Some(Step::Window) => {}
                None => {
                    let point = &graph.nodes[at].point;
                    let step = if gap.abs() < cfg.tolerance_ms && estimator.fits(&est) {
                        // Collected on the first step from the state: a
                        // revisit finds its point among the candidates.
                        if !candidates.iter().any(|c| c.point == *point) {
                            let dnn = self.builder.build(point).expect("estimated points build");
                            candidates.push(Candidate {
                                accuracy: self.model.estimate(point, &dnn),
                                point: point.clone(),
                                estimate: est,
                                latency_ms: lat,
                            });
                        }
                        Step::Window
                    } else {
                        // Unit moves in the direction that closes the
                        // gap: positive gap (target above latency) means
                        // the design may grow. Down-sampling acts
                        // inversely: more down-sampling -> faster.
                        let unit: isize = if gap > 0.0 { 1 } else { -1 };
                        let before = plan.lookup_tally();
                        let mut deltas = Vec::with_capacity(3);
                        for (coord, dir) in [
                            (MoveCoord::Replications, unit),
                            (MoveCoord::Expansion, unit),
                            (MoveCoord::Downsampling, -unit),
                        ] {
                            moved.clone_from(point);
                            coord.apply(&mut moved, dir);
                            if moved == *point {
                                continue; // saturated coordinate
                            }
                            if let Ok(e2) = plan.probe(&moved) {
                                let dlat = e2.latency_ms(cfg.clock_mhz) - lat;
                                if dlat.abs() > f64::EPSILON {
                                    deltas.push((coord, dir, dlat));
                                }
                            }
                        }
                        Step::Descend {
                            deltas,
                            probes: plan.lookup_tally() - before,
                        }
                    };
                    graph.nodes[at].step = Some(step);
                }
            }

            // Draw exactly what the step from this state draws, and name
            // the outgoing edge by the draw.
            let (draw, action) = match graph.nodes[at].step.as_ref().expect("stepped") {
                Step::Window => {
                    // Perturb to hunt for the next distinct candidate.
                    let c = rng.random_range(0..3u8);
                    let up = rng.random_bool(0.5);
                    let coord = match c {
                        0 => MoveCoord::Replications,
                        1 => MoveCoord::Expansion,
                        _ => MoveCoord::Downsampling,
                    };
                    let edge = 2 * usize::from(c) + usize::from(up);
                    (edge, Action::Perturb(coord, if up { 1 } else { -1 }))
                }
                Step::Descend { deltas, .. } if deltas.is_empty() => {
                    // No coordinate can move: restart from a fresh
                    // random depth.
                    let n = rng.random_range(1..=MAX_RESTART_DEPTH);
                    (n - 1, Action::Restart(n))
                }
                Step::Descend { deltas, .. } => {
                    // Pick one coordinate uniformly at random (the
                    // "stochastic" in SCD) and scale the move:
                    // Δ = ⌊|Lat_targ − Lat| / ΔLat⌋.
                    let i = rng.random_range(0..deltas.len());
                    let (coord, dir, dlat) = deltas[i];
                    let steps = ((gap.abs() / dlat.abs()).floor() as isize).clamp(1, 4);
                    (i, Action::Move(coord, dir * steps))
                }
            };
            if let Some(edge) = graph.nodes[at].edges[draw] {
                *replayed += edge.tally;
                at = edge.to;
                continue;
            }

            // First step along this edge: probe, and record where it led.
            let before = plan.lookup_tally();
            let next = match action {
                Action::Perturb(coord, dir) | Action::Move(coord, dir) => {
                    moved.clone_from(&graph.nodes[at].point);
                    coord.apply(&mut moved, dir);
                    let accepted = plan.probe(&moved).ok().filter(|e2| {
                        matches!(action, Action::Perturb(..))
                            || estimator.fits(e2)
                            || e2.resources.dsp <= est.resources.dsp
                    });
                    if let Some(e2) = accepted {
                        plan.commit_probed(&moved, e2);
                    }
                    accepted
                }
                Action::Restart(n) => {
                    let (landed, estimate) = Self::land(plan, bundle, activation, n);
                    moved = landed;
                    if let Some(e2) = estimate {
                        plan.commit_probed(&moved, e2);
                    }
                    // A failed landing probe moves the point and keeps
                    // the estimate.
                    Some(estimate.unwrap_or(est))
                }
            };
            let tally = plan.lookup_tally() - before;
            let to = match next {
                Some(e2) => graph.node(&moved, e2),
                None => at,
            };
            graph.nodes[at].edges[draw] = Some(Edge { to, tally });
            at = to;
        }
        candidates
    }
}

/// A restart landing: the point and its probe (`None` when it failed).
type Landed = (DesignPoint, Option<Estimate>);

/// What one step from a state does, before it is probed.
#[derive(Debug, Clone, Copy)]
enum Action {
    /// In the window: a unit move along `coord`, accepted if it prices.
    Perturb(MoveCoord, isize),
    /// Outside it: a scaled move, accepted if it prices and fits or
    /// does not add DSPs.
    Move(MoveCoord, isize),
    /// No coordinate moves latency: restart at this depth.
    Restart(usize),
}

/// How the search steps from a state, fixed on the first step.
#[derive(Debug)]
enum Step {
    /// In the latency window and inside the budget: the state is
    /// collected, and each step perturbs it.
    Window,
    /// Outside the window: the unit moves that change latency, and the
    /// lookups their probes counted, replayed on every later step from
    /// the state.
    Descend {
        deltas: Vec<(MoveCoord, isize, f64)>,
        probes: LookupTally,
    },
}

/// Where a recorded step led, and the lookups its probes counted.
#[derive(Debug, Clone, Copy)]
struct Edge {
    to: usize,
    tally: LookupTally,
}

/// Outgoing edges of a state: one per possible draw, the most of six
/// perturbations (three coordinates, two directions), three moves and
/// [`MAX_RESTART_DEPTH`] restarts.
const EDGES: usize = 6;
const _: () = assert!(MAX_RESTART_DEPTH <= EDGES);

/// A visited SCD state.
#[derive(Debug)]
struct Node {
    point: DesignPoint,
    estimate: Estimate,
    step: Option<Step>,
    /// Outgoing edges by draw: in the window `2·coord + up`, outside it
    /// the chosen move's index, or the restart depth minus one.
    edges: [Option<Edge>; EDGES],
}

/// The states one search has visited, indexed by the point's canonical
/// words followed by the estimate's.
#[derive(Debug, Default)]
struct StateGraph {
    nodes: Vec<Node>,
    index: HashMap<Vec<u64>, usize>,
    key: Vec<u64>,
}

impl StateGraph {
    /// The id of state (`point`, `estimate`), added if new.
    fn node(&mut self, point: &DesignPoint, estimate: Estimate) -> usize {
        self.key.clear();
        point.encode_canonical(&mut |w| self.key.push(w));
        // Destructured so that a new estimate field cannot be left out.
        let Estimate {
            latency_cycles,
            resources:
                ResourceUsage {
                    dsp,
                    lut,
                    ff,
                    bram_18k,
                },
        } = estimate;
        self.key.extend([latency_cycles, dsp, lut, ff, bram_18k]);
        if let Some(&id) = self.index.get(self.key.as_slice()) {
            return id;
        }
        let id = self.nodes.len();
        self.index.insert(self.key.clone(), id);
        self.nodes.push(Node {
            point: point.clone(),
            estimate,
            step: None,
            edges: [None; EDGES],
        });
        id
    }
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
    use codesign_hls::cache::EstimateCache;
    use codesign_hls::calibrate::calibrate_bundle;
    use codesign_sim::device::pynq_z1;
    use proptest::prelude::*;
    use std::sync::{Arc, OnceLock};

    fn estimator(id: usize) -> (Bundle, HlsEstimator) {
        let b = bundle_by_id(BundleId(id)).unwrap();
        let params = calibrate_bundle(&b, &pynq_z1()).unwrap();
        (b, HlsEstimator::new(params, pynq_z1()))
    }

    /// The per-target SCD loop that [`ScdContext`] replaced, kept as its
    /// oracle: a fresh plan per search, restart landings replayed per
    /// depth, and every other step probed.
    fn reference_scd(
        bundle: &Bundle,
        estimator: &HlsEstimator,
        model: &AccuracyModel,
        cfg: &ScdConfig,
        activation: Activation,
    ) -> Vec<Candidate> {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let builder = DnnBuilder::new();
        let mut point = DesignPoint::initial(bundle.clone(), START_DEPTH);
        point.activation = activation;
        let mut candidates: Vec<Candidate> = Vec::new();
        let mut seen: HashSet<Vec<u8>> = HashSet::new();
        let Ok(mut plan) = EstimatePlan::new(estimator, &point) else {
            return candidates;
        };
        point.parallel_factor = choose_max_parallel_factor_with(&plan, &point);
        let Ok(mut est) = plan.probe(&point) else {
            return candidates;
        };
        plan.commit_probed(&point, est);
        let mut lat = est.latency_ms(cfg.clock_mhz);
        let mut moved = point.clone();
        let mut deltas: Vec<(MoveCoord, isize, f64)> = Vec::with_capacity(3);
        // Per depth: the landing point, its probe, and the lookups the
        // PF ladder and probe counted.
        let mut landings: [Option<(DesignPoint, Option<Estimate>, LookupTally)>;
            MAX_RESTART_DEPTH] = Default::default();

        for _iter in 0..cfg.max_iterations {
            if candidates.len() >= cfg.candidates {
                break;
            }
            let gap = cfg.latency_target_ms - lat;
            if gap.abs() < cfg.tolerance_ms && estimator.fits(&est) {
                if seen.insert(point.canonical_key()) {
                    let dnn = builder.build(&point).expect("estimated points build");
                    candidates.push(Candidate {
                        accuracy: model.estimate(&point, &dnn),
                        point: point.clone(),
                        estimate: est,
                        latency_ms: lat,
                    });
                }
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
            let unit: isize = if gap > 0.0 { 1 } else { -1 };
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
                    continue;
                }
                if let Ok(e2) = plan.probe(&moved) {
                    let dlat = e2.latency_ms(cfg.clock_mhz) - lat;
                    if dlat.abs() > f64::EPSILON {
                        deltas.push((coord, dir, dlat));
                    }
                }
            }
            if deltas.is_empty() {
                let n = rng.random_range(1..=MAX_RESTART_DEPTH);
                let landing = match &mut landings[n - 1] {
                    Some(landing) => {
                        if let Some(cache) = estimator.cache() {
                            cache.record_hits(landing.2.lookups, landing.2.store_flagged);
                        }
                        landing
                    }
                    empty => {
                        let before = plan.lookup_tally();
                        let mut landed = DesignPoint::initial(bundle.clone(), n);
                        landed.activation = activation;
                        landed.parallel_factor = choose_max_parallel_factor_with(&plan, &landed);
                        let estimate = plan.probe(&landed).ok();
                        empty.insert((landed, estimate, plan.lookup_tally() - before))
                    }
                };
                point.clone_from(&landing.0);
                if let Some(e2) = landing.1 {
                    plan.commit_probed(&point, e2);
                    est = e2;
                    lat = e2.latency_ms(cfg.clock_mhz);
                }
                continue;
            }
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

    /// Calibrated estimators of all 18 Bundles, built once per process.
    fn all_estimators() -> &'static [(Bundle, HlsEstimator)] {
        static ALL: OnceLock<Vec<(Bundle, HlsEstimator)>> = OnceLock::new();
        ALL.get_or_init(|| (1..=18).map(estimator).collect())
    }

    /// How the estimator caches of a comparison start.
    #[derive(Debug, Clone, Copy)]
    enum CacheMode {
        /// No cache attached.
        Absent,
        /// An empty cache.
        Fresh,
        /// Every other entry of an earlier search, preloaded as if from
        /// a persistent store.
        Preloaded,
    }

    fn scd_config(fps: f64, fps_tolerance: f64, seed: u64) -> ScdConfig {
        let target_ms = 1000.0 / fps;
        ScdConfig {
            latency_target_ms: target_ms,
            tolerance_ms: target_ms - 1000.0 / (fps + fps_tolerance),
            clock_mhz: 100.0,
            candidates: 5,
            max_iterations: 400,
            seed,
        }
    }

    /// Searches `targets` in order through one context and through the
    /// reference on twin caches, and checks they agree after each target
    /// on candidates, cache counters and store hits.
    fn check_context_matches_reference(
        id: usize,
        activation: Activation,
        targets: &[(f64, f64)],
        seed: u64,
        mode: CacheMode,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let (bundle, base) = &all_estimators()[id - 1];
        let model = AccuracyModel::paper_calibrated();
        let twins = match mode {
            CacheMode::Absent => None,
            CacheMode::Fresh => Some((EstimateCache::new(), EstimateCache::new())),
            CacheMode::Preloaded => {
                let earlier = Arc::new(EstimateCache::new());
                let est = base.clone().with_cache(Arc::clone(&earlier));
                let cfg = scd_config(targets[0].0 * 0.8, 2.0, seed ^ 0x5eed);
                reference_scd(bundle, &est, &model, &cfg, activation);
                let (a, b) = (EstimateCache::new(), EstimateCache::new());
                for (key, value) in earlier.snapshot_ok().into_iter().step_by(2) {
                    prop_assert!(a.preload(&key, value) && b.preload(&key, value));
                }
                Some((a, b))
            }
        };
        let (ours, theirs) = match twins {
            Some((a, b)) => {
                let (a, b) = (Arc::new(a), Arc::new(b));
                (
                    base.clone().with_cache(Arc::clone(&a)),
                    base.clone().with_cache(Arc::clone(&b)),
                )
            }
            None => (base.clone(), base.clone()),
        };
        let mut context = ScdContext::new(bundle, &ours, &model, activation);
        for (ti, &(fps, tolerance)) in targets.iter().enumerate() {
            let cfg = scd_config(fps, tolerance, derive(seed, ti));
            let got = context.search(&cfg);
            let want = reference_scd(bundle, &theirs, &model, &cfg, activation);
            prop_assert_eq!(&got, &want);
            if let (Some(a), Some(b)) = (ours.cache(), theirs.cache()) {
                prop_assert_eq!(a.stats(), b.stats());
                prop_assert_eq!(a.store_hits(), b.store_hits());
            }
        }
        Ok(())
    }

    fn derive(seed: u64, stream: usize) -> u64 {
        crate::parallel::derive_seed(seed, stream as u64)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_context_matches_reference(
            id in 1usize..=18,
            arm in 0u8..2,
            fps in prop::collection::vec(4.0f64..45.0, 1..4),
            tolerance in 0.5f64..4.0,
            seed in 0u64..u64::MAX,
            mode in 0u8..3,
        ) {
            let activation = if arm == 0 { Activation::Relu } else { Activation::Relu4 };
            let mode = [CacheMode::Absent, CacheMode::Fresh, CacheMode::Preloaded][mode as usize];
            let targets: Vec<(f64, f64)> = fps.iter().map(|&f| (f, tolerance)).collect();
            check_context_matches_reference(id, activation, &targets, seed, mode)?;
        }
    }

    #[test]
    fn failed_landings_move_the_point_and_keep_the_estimate() {
        // The depth-6 landing of Bundles 6 and 16 does not price, so a
        // restart there moves the point and keeps the old estimate: the
        // same point is reached with different estimates.
        for id in [6, 16] {
            let (bundle, est) = &all_estimators()[id - 1];
            for activation in [Activation::Relu, Activation::Relu4] {
                let mut start = DesignPoint::initial(bundle.clone(), START_DEPTH);
                start.activation = activation;
                let plan = EstimatePlan::new(est, &start).unwrap();
                let (_, landed) = ScdContext::land(&plan, bundle, activation, MAX_RESTART_DEPTH);
                assert!(landed.is_none(), "bundle {id} depth-6 landing priced");
            }
        }
        for id in [6, 16] {
            for activation in [Activation::Relu, Activation::Relu4] {
                for mode in [CacheMode::Absent, CacheMode::Fresh, CacheMode::Preloaded] {
                    for seed in 0..4 {
                        let targets = [(10.0, 1.5), (15.0, 1.5), (20.0, 1.5), (40.0, 1.0)];
                        check_context_matches_reference(id, activation, &targets, seed, mode)
                            .unwrap();
                    }
                }
            }
        }
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
        // Graph replay records lookups without probing; against a
        // store-preloaded cache every one of them must still read as a
        // store hit, exactly as re-probing would count.
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

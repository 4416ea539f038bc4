//! The incremental-estimation contract: an [`EstimatePlan`] walked
//! along random coordinate sequences is **bit-identical** — estimates
//! and errors alike — to a full `estimate_point` rebuild at every step.
//!
//! This is the property the co-design flow's determinism guarantee
//! leans on: the plan may only change *how fast* an estimate is
//! derived, never a single bit of it.

use codesign_dnn::bundle::{bundle_by_id, BundleId};
use codesign_dnn::quant::Activation;
use codesign_dnn::space::{DesignPoint, MAX_PARALLEL_FACTOR, PARALLEL_FACTOR_STEP};
use codesign_hls::cache::EstimateCache;
use codesign_hls::calibrate::calibrate_bundle;
use codesign_hls::incremental::EstimatePlan;
use codesign_hls::model::HlsEstimator;
use codesign_sim::device::pynq_z1;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A random legal parallel-factor rung.
fn random_rung(rng: &mut StdRng) -> usize {
    PARALLEL_FACTOR_STEP * rng.random_range(1usize..=MAX_PARALLEL_FACTOR / PARALLEL_FACTOR_STEP)
}

/// One random step away from `point`: a unit-or-multi move along one of
/// the three SCD coordinates, a parallel-factor rung change, a combined
/// move, or a full restart (what SCD does when every coordinate
/// saturates).
fn random_target(rng: &mut StdRng, point: &DesignPoint, bundle_id: usize) -> DesignPoint {
    match rng.random_range(0..6u8) {
        0 => point.with_replication_delta(rng.random_range(-2isize..=2)),
        1 => point.with_expansion_delta(rng.random_range(-3isize..=3)),
        2 => point.with_downsample_delta(rng.random_range(-2isize..=2)),
        3 => {
            let mut p = point.clone();
            p.parallel_factor = random_rung(rng);
            p
        }
        4 => {
            // Restart: fresh structure, possibly a different arm.
            let b = bundle_by_id(BundleId(bundle_id)).unwrap();
            let mut p = DesignPoint::initial(b, rng.random_range(1usize..=6));
            p.activation = Activation::ALL[rng.random_range(0usize..3)];
            p
        }
        _ => point
            .with_expansion_delta(rng.random_range(-2isize..=2))
            .with_downsample_delta(rng.random_range(-2isize..=2)),
    }
}

/// A unit-or-multi move along one SCD coordinate or a PF rung change:
/// a walk step that keeps the Bundle and activation.
fn random_move(rng: &mut StdRng, point: &DesignPoint) -> DesignPoint {
    match rng.random_range(0..4u8) {
        0 => point.with_replication_delta(rng.random_range(-2isize..=2)),
        1 => point.with_expansion_delta(rng.random_range(-3isize..=3)),
        2 => point.with_downsample_delta(rng.random_range(-2isize..=2)),
        _ => {
            let mut p = point.clone();
            p.parallel_factor = random_rung(rng);
            p
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Slot-body interning is scoped to one (Bundle, activation) pair.
    /// One long-lived, uncached plan (so every probe stages) walks a
    /// first Bundle, another Bundle under the same activation, that
    /// Bundle under another activation, and the first pair again. Every
    /// probe must match a full rebuild.
    #[test]
    fn prop_interned_bodies_stay_exact_across_bundle_and_activation_switches(
        first_id in 1usize..=18,
        other_offset in 1usize..18,
        seed in 0u64..u64::MAX / 2,
        walk_len in 6usize..16,
    ) {
        let other_id = (first_id - 1 + other_offset) % 18 + 1;
        let first = bundle_by_id(BundleId(first_id)).unwrap();
        let params = calibrate_bundle(&first, &pynq_z1()).unwrap();
        let estimator = HlsEstimator::new(params, pynq_z1());
        let mut rng = StdRng::seed_from_u64(seed);
        let act = rng.random_range(0usize..3);
        let other_act = (act + rng.random_range(1usize..3)) % 3;
        let phases = [
            (first_id, act),
            (other_id, act),
            (other_id, other_act),
            (first_id, act),
        ];

        let mut plan: Option<EstimatePlan> = None;
        for (bundle_id, act) in phases {
            let bundle = bundle_by_id(BundleId(bundle_id)).unwrap();
            let mut point = DesignPoint::initial(bundle, rng.random_range(1usize..=5));
            point.activation = Activation::ALL[act];
            let plan = plan.get_or_insert_with(|| EstimatePlan::new(&estimator, &point).unwrap());
            prop_assert_eq!(&plan.probe(&point), &estimator.estimate_point(&point));
            if plan.commit(&point).is_err() {
                continue;
            }
            for _step in 0..walk_len {
                let target = random_move(&mut rng, &point);
                let full = estimator.estimate_point(&target);
                prop_assert_eq!(&plan.probe(&target), &full);
                if full.is_ok() && rng.random_bool(0.7) {
                    prop_assert_eq!(plan.commit(&target), full);
                    point = target;
                }
            }
        }
    }

    #[test]
    fn prop_plan_walk_is_bit_identical_to_full_rebuild(
        bundle_id in 1usize..=18,
        seed in 0u64..u64::MAX / 2,
        walk_len in 4usize..20,
    ) {
        let bundle = bundle_by_id(BundleId(bundle_id)).unwrap();
        let params = calibrate_bundle(&bundle, &pynq_z1()).unwrap();
        let estimator = HlsEstimator::new(params, pynq_z1());
        let mut rng = StdRng::seed_from_u64(seed);

        let mut point = DesignPoint::initial(bundle, rng.random_range(1usize..=5));
        point.activation = Activation::ALL[rng.random_range(0usize..3)];
        let mut plan = EstimatePlan::new(&estimator, &point).unwrap();
        prop_assert_eq!(Ok(plan.estimate()), estimator.estimate_point(&point));

        for _step in 0..walk_len {
            let target = random_target(&mut rng, &point, bundle_id);
            let full = estimator.estimate_point(&target);
            let probed = plan.probe(&target);
            prop_assert_eq!(&probed, &full);
            // Commit most successful probes so the walk actually moves
            // and later diffs run against varied base points.
            if full.is_ok() && rng.random_bool(0.7) {
                let committed = plan.commit(&target);
                prop_assert_eq!(committed, full);
                point = target;
            }
        }
    }

    /// SCD's restart path: jumps to `DesignPoint::initial(b, n)` at
    /// random PF rungs are probed through a cached plan *without*
    /// rebasing it first, and accepted moves use the free
    /// `commit_probed`, which leaves the slot base lagging after every
    /// cache or memo hit. Each probe — a memo hit, a shared hit, or a
    /// miss staged against the lagging base — must match a full rebuild.
    #[test]
    fn prop_lagging_base_jumps_are_bit_identical_to_full_rebuild(
        bundle_id in 1usize..=18,
        seed in 0u64..u64::MAX / 2,
        walk_len in 8usize..32,
    ) {
        let bundle = bundle_by_id(BundleId(bundle_id)).unwrap();
        let params = calibrate_bundle(&bundle, &pynq_z1()).unwrap();
        let estimator = HlsEstimator::new(params, pynq_z1());
        let cached = estimator.clone().with_cache(Arc::new(EstimateCache::new()));
        let mut rng = StdRng::seed_from_u64(seed);

        let mut point = DesignPoint::initial(bundle.clone(), rng.random_range(1usize..=5));
        point.activation = Activation::ALL[rng.random_range(0usize..3)];
        let mut plan = EstimatePlan::new(&cached, &point).unwrap();
        let mut probed: Vec<DesignPoint> = Vec::new();

        for _step in 0..walk_len {
            let target = match rng.random_range(0..5u8) {
                0 | 1 => {
                    let mut p = DesignPoint::initial(bundle.clone(), rng.random_range(1usize..=6));
                    p.activation = point.activation;
                    p.parallel_factor = random_rung(&mut rng);
                    p
                }
                // Revisit an earlier probe: a memo hit, and committing
                // it leaves the slot base behind.
                2 if !probed.is_empty() => probed[rng.random_range(0..probed.len())].clone(),
                _ => random_target(&mut rng, plan.point(), bundle_id),
            };
            probed.push(target.clone());
            let full = estimator.estimate_point(&target);
            prop_assert_eq!(&plan.probe(&target), &full);
            if let Ok(estimate) = full {
                if rng.random_bool(0.3) {
                    plan.commit_probed(&target, estimate);
                    prop_assert_eq!(plan.estimate(), estimate);
                }
            }
        }
    }
}

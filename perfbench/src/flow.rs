//! `flow_paper`: the paper-default co-design flow, run back to back by
//! one caller (a closed loop).
//!
//! PYNQ-Z1, 10 / 15 / 20 FPS, K = 5, coarse PF {4, 8, 16}, one worker,
//! a fresh private estimate cache per flow. The workload seed draws a
//! cycle of [`CYCLE`] flow seeds; the loop runs the cycle over and over,
//! so every repeat must reproduce the first run's output and counts
//! exactly, and the cycle's digest can be compared across runs.

use crate::reference::{self, Fingerprint};
use crate::report::Report;
use crate::stats::overhead;
use crate::sys;
use codesign_core::flow::{CoDesignFlow, FlowConfig, FlowOutput};
use codesign_core::observe::{CancelToken, FlowEvent, FlowObserver};
use codesign_core::parallel::{derive_seed, Parallelism};
use codesign_dnn::builder::DnnBuilder;
use codesign_dnn::bundle::enumerate_bundles;
use codesign_hls::calibrate::calibrate_bundle_with;
use codesign_hls::codegen::CodeGenerator;
use codesign_hls::model::HlsEstimator;
use codesign_serve::encode::{flow_result_body, fnv1a};
use codesign_sim::device::FpgaDevice;
use codesign_sim::pipeline::{simulate, AccelConfig};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Distinct flow seeds one workload seed draws.
pub const CYCLE: usize = 8;

/// The Bundles the paper's coarse evaluation selects (Fig. 4).
const PAPER_BUNDLES: [usize; 5] = [1, 3, 13, 15, 17];

/// Seed of the paper-default configuration, which set-up runs.
const PAPER_SEED: u64 = 2019;

/// How many times direct layer calls repeat over their inputs.
const LAYER_PASSES: usize = 3;

fn paper_config(seed: u64) -> FlowConfig {
    FlowConfig::builder()
        .parallelism(Parallelism::Fixed(1))
        .seed(seed)
        .build()
        .expect("the paper defaults validate")
}

/// The flow seeds workload seed `seed` draws, in run order.
fn flow_seeds(seed: u64) -> Vec<u64> {
    (0..CYCLE as u64).map(|j| derive_seed(seed, j)).collect()
}

/// Result body and exact counts of one flow.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    body: String,
    lookups: u64,
    misses: u64,
    candidates: u64,
}

impl Outcome {
    fn of(out: &FlowOutput) -> Outcome {
        Outcome {
            body: flow_result_body(out),
            lookups: out.cache_stats.total(),
            misses: out.cache_stats.misses,
            candidates: out.candidate_count() as u64,
        }
    }
}

fn fingerprint(outcomes: &[Outcome]) -> Fingerprint {
    let bodies: Vec<&str> = outcomes.iter().map(|o| o.body.as_str()).collect();
    Fingerprint {
        digest: fnv1a(bodies.join("\n").as_bytes()),
        lookups: outcomes.iter().map(|o| o.lookups).sum(),
        misses: outcomes.iter().map(|o| o.misses).sum(),
        candidates: outcomes.iter().map(|o| o.candidates).sum(),
    }
}

/// Whether `out` meets the paper's claims (see [`paper_violation`]);
/// records the reason, under `label`, when it does not.
fn meets_paper(report: &mut Report, label: &str, out: &FlowOutput, device: &FpgaDevice) -> bool {
    match paper_violation(out, device) {
        Ok(()) => true,
        Err(e) => {
            report.fail(format!("{label}: {e}"));
            false
        }
    }
}

/// The paper's claims every flow must meet: Bundles `[1, 3, 13, 15,
/// 17]` selected, and every finalized design fits its device.
fn paper_violation(out: &FlowOutput, device: &FpgaDevice) -> Result<(), String> {
    let selected = out.selected_bundle_ids();
    if selected != PAPER_BUNDLES {
        return Err(format!(
            "selected Bundles {selected:?}, not {PAPER_BUNDLES:?}"
        ));
    }
    if out.designs.is_empty() {
        return Err("no design was finalized".to_string());
    }
    for design in &out.designs {
        device
            .check_fit(&design.report.resources)
            .map_err(|e| format!("design for {} FPS does not fit: {e}", design.target_fps))?;
    }
    Ok(())
}

/// Compares `got` with the recorded fingerprint under `key`, if any;
/// false on a mismatch.
fn check_reference(report: &mut Report, key: &str, got: Fingerprint) -> bool {
    match reference::lookup(key) {
        Some(want) => report.check(want == got, || {
            format!("flow_paper `{key}`: got `{got}`, reference.txt records `{want}`")
        }),
        None => {
            eprintln!("flow_paper: seed {key} is not in reference.txt; digest {got}");
            true
        }
    }
}

/// Fingerprints of the paper-default flow and of the cycle each seed in
/// `0..seeds` draws, as `reference.txt` lines.
pub fn record_reference(seeds: u64) -> String {
    let run = |seed| {
        let out = CoDesignFlow::new(paper_config(seed))
            .run()
            .expect("the paper-default flow runs");
        Outcome::of(&out)
    };
    let mut text = String::from("# key digest lookups misses candidates (see src/reference.rs)\n");
    text.push_str(&format!(
        "paper_default {}\n",
        fingerprint(&[run(PAPER_SEED)])
    ));
    for seed in 0..seeds {
        let cycle: Vec<Outcome> = flow_seeds(seed).into_iter().map(run).collect();
        text.push_str(&format!("{seed} {}\n", fingerprint(&cycle)));
    }
    text
}

/// Stage boundaries, in the order the flow reaches them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    Started,
    Selected,
    Calibrated,
    Cell,
    Finished,
}

/// A [`FlowObserver`] that timestamps the stage boundaries.
#[derive(Default)]
struct Recorder {
    marks: Mutex<Vec<(Instant, Mark)>>,
}

impl FlowObserver for Recorder {
    fn on_event(&self, event: &FlowEvent) {
        let now = Instant::now();
        let mark = match event {
            FlowEvent::Started { .. } => Mark::Started,
            FlowEvent::BundlesSelected { .. } => Mark::Selected,
            FlowEvent::BundleCalibrated { .. } => Mark::Calibrated,
            FlowEvent::ScdSearchFinished { .. } => Mark::Cell,
            FlowEvent::Finished { .. } => Mark::Finished,
            _ => return,
        };
        self.marks.lock().expect("recorder lock").push((now, mark));
    }
}

/// Stage times of one traced flow, in milliseconds.
struct Stages {
    coarse: f64,
    calibrate: f64,
    scd: f64,
    finalize: f64,
    cells: Vec<f64>,
}

impl Stages {
    /// Splits a flow at its last event of each stage.
    fn of(marks: &[(Instant, Mark)]) -> Option<Stages> {
        let last = |mark| {
            marks
                .iter()
                .rev()
                .find(|(_, m)| *m == mark)
                .map(|(t, _)| *t)
        };
        let started = last(Mark::Started)?;
        let selected = last(Mark::Selected)?;
        let calibrated = last(Mark::Calibrated)?;
        let scd_done = last(Mark::Cell)?;
        let finished = last(Mark::Finished)?;
        let ms = |from: Instant, to: Instant| (to - from).as_secs_f64() * 1e3;
        let mut cells = Vec::new();
        let mut previous = calibrated;
        for (t, _) in marks.iter().filter(|(_, m)| *m == Mark::Cell) {
            cells.push(ms(previous, *t));
            previous = *t;
        }
        Some(Stages {
            coarse: ms(started, selected),
            calibrate: ms(selected, calibrated),
            scd: ms(calibrated, scd_done),
            finalize: ms(scd_done, finished),
            cells,
        })
    }

    fn total(&self) -> f64 {
        self.coarse + self.calibrate + self.scd + self.finalize
    }
}

/// Runs the workload for `seconds` and records its metrics: the
/// end-to-end set when `traced` is false, the per-layer set otherwise.
/// `setup_reps` set-ups are timed and their median reported.
pub fn run(seed: u64, seconds: f64, traced: bool, setup_reps: usize, report: &mut Report) {
    let device = paper_config(PAPER_SEED).device;

    // Set-up: the paper-default flow, run cold and then warm; its
    // digest is checked on every run, whatever the workload seed.
    let mut setup_s = Vec::new();
    for _ in 0..setup_reps.max(1) {
        let start = Instant::now();
        let result = CoDesignFlow::new(paper_config(PAPER_SEED)).run();
        setup_s.push(start.elapsed().as_secs_f64());
        let ok = match result {
            Ok(out) => {
                let fits = meets_paper(report, "paper-default flow", &out, &device);
                let fp = fingerprint(&[Outcome::of(&out)]);
                check_reference(report, "paper_default", fp) && fits
            }
            Err(e) => {
                report.fail(format!("paper-default flow failed: {e}"));
                false
            }
        };
        report.ops(1, u64::from(!ok));
    }

    let seeds = flow_seeds(seed);
    let mut first: Vec<Option<(Outcome, FlowOutput)>> = vec![None; CYCLE];
    let mut op_ms = Vec::new();
    // Per flow seed: latencies of traced and of untraced runs.
    let mut by_seed: Vec<(Vec<f64>, Vec<f64>)> = vec![Default::default(); CYCLE];
    let mut stages: Vec<(Stages, u64, f64)> = Vec::new();
    // Whether each flow, in run order, failed or returned a wrong output.
    let mut bad: Vec<bool> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let mut i = 0usize;
    while i < CYCLE || Instant::now() < deadline {
        let j = i % CYCLE;
        // Whole cycles alternate between traced and untraced, so both
        // halves see every flow seed equally often.
        let observe = traced && (i / CYCLE).is_multiple_of(2);
        let flow = CoDesignFlow::new(paper_config(seeds[j]));
        let recorder = Recorder::default();
        let start = Instant::now();
        let result = if observe {
            flow.run_observed(&recorder, &CancelToken::new())
        } else {
            flow.run()
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        i += 1;
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                bad.push(true);
                report.fail(format!("flow seed {} failed: {e}", seeds[j]));
                continue;
            }
        };
        op_ms.push(ms);
        let outcome = Outcome::of(&out);
        let label = format!("flow seed {}", seeds[j]);
        let mut ok = meets_paper(report, &label, &out, &device);
        match &first[j] {
            None => first[j] = Some((outcome.clone(), out)),
            Some((want, _)) => {
                ok &= report.check(*want == outcome, || {
                    format!(
                        "flow seed {} did not repeat its first run exactly \
                         (lookups {} vs {}, misses {} vs {}, candidates {} vs {}, same body: {})",
                        seeds[j],
                        outcome.lookups,
                        want.lookups,
                        outcome.misses,
                        want.misses,
                        outcome.candidates,
                        want.candidates,
                        outcome.body == want.body
                    )
                });
            }
        }
        bad.push(!ok);
        if !traced {
            continue;
        }
        if observe {
            by_seed[j].0.push(ms);
            let marks = recorder.marks.into_inner().expect("recorder lock");
            match Stages::of(&marks) {
                Some(s) => stages.push((s, outcome.lookups, ms)),
                None => report.fail("a traced flow missed a stage event".to_string()),
            }
        } else {
            by_seed[j].1.push(ms);
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds() - cpu0;

    let cycle: Vec<(Outcome, FlowOutput)> = first.into_iter().flatten().collect();
    if cycle.len() < CYCLE {
        report.ops(bad.len() as u64, bad.iter().filter(|&&b| b).count() as u64);
        report.fail("flow_paper did not complete one cycle of flows".to_string());
        return;
    }
    let outcomes: Vec<Outcome> = cycle.iter().map(|(o, _)| o.clone()).collect();
    let cycle_fp = fingerprint(&outcomes);
    if !check_reference(report, &seed.to_string(), cycle_fp) {
        // The first cycle's flows produced the recorded outputs.
        bad[..CYCLE].fill(true);
    }
    report.ops(bad.len() as u64, bad.iter().filter(|&&b| b).count() as u64);

    if !traced {
        let n = op_ms.len() as f64;
        report.put_median("op_ms.p50", &op_ms);
        report.put_p90("op_ms.p90", &op_ms);
        report.put_exact("ops_per_s", n / wall_s);
        report.put_exact("cpu_ms_per_op", cpu_s * 1e3 / n);
        report.put_median("setup_s", &setup_s);
        return;
    }

    let pick = |f: fn(&Stages) -> f64| stages.iter().map(|(s, _, _)| f(s)).collect::<Vec<_>>();
    report.put_median("core.coarse_ms", &pick(|s| s.coarse));
    report.put_median("core.calibrate_ms", &pick(|s| s.calibrate));
    report.put_median("core.scd_ms", &pick(|s| s.scd));
    report.put_median("core.finalize_ms", &pick(|s| s.finalize));
    let cells: Vec<f64> = stages
        .iter()
        .flat_map(|(s, _, _)| s.cells.clone())
        .collect();
    report.put_p90("core.scd_cell_ms.p90", &cells);
    let lookup_ns: Vec<f64> = stages
        .iter()
        .map(|(s, lookups, _)| s.scd * 1e6 / *lookups as f64)
        .collect();
    report.put_median("hls.lookup_ns", &lookup_ns);
    let unaccounted: Vec<f64> = stages
        .iter()
        .map(|(s, _, op)| 1.0 - s.total() / op)
        .collect();
    report.put_median("trace.flow_unaccounted_frac", &unaccounted);
    report.put_exact("trace.flow_overhead_frac", overhead(&by_seed));
    report.put_exact("core.scd.candidates", cycle_fp.candidates as f64);
    report.put_exact("hls.cache.lookups", cycle_fp.lookups as f64);
    report.put_exact("hls.cache.misses", cycle_fp.misses as f64);
    report.put_exact(
        "hls.cache.hit_ratio",
        1.0 - cycle_fp.misses as f64 / cycle_fp.lookups as f64,
    );

    let outputs: Vec<&FlowOutput> = cycle.iter().map(|(_, out)| out).collect();
    time_estimator(&outputs, &device, report);
    time_finalize(&outputs, &device, report);
}

/// Times uncached `HlsEstimator::estimate_point` on every candidate the
/// cycle found (the cache-miss path), checking each estimate against
/// the one the search recorded.
fn time_estimator(outputs: &[&FlowOutput], device: &FpgaDevice, report: &mut Report) {
    let bundles = enumerate_bundles();
    let mut estimators: HashMap<usize, HlsEstimator> = HashMap::new();
    for &id in &PAPER_BUNDLES {
        let bundle = &bundles[id - 1];
        match calibrate_bundle_with(bundle, device, &[1, 2, 3, 4], 96) {
            Ok(params) => {
                estimators.insert(id, HlsEstimator::new(params, device.clone()));
            }
            Err(e) => report.fail(format!("calibrating Bundle {id} failed: {e}")),
        }
    }
    let mut us = Vec::new();
    for _ in 0..LAYER_PASSES {
        for (_, candidate) in outputs.iter().flat_map(|out| &out.candidates) {
            let Some(estimator) = estimators.get(&candidate.point.bundle.id().0) else {
                continue;
            };
            let start = Instant::now();
            let estimate = estimator.estimate_point(black_box(&candidate.point));
            us.push(start.elapsed().as_secs_f64() * 1e6);
            report.check(matches!(estimate, Ok(e) if e == candidate.estimate), || {
                format!(
                    "estimate_point disagrees with the search for {}",
                    candidate.point
                )
            });
        }
    }
    report.put_median("hls.estimate_point_us", &us);
}

/// Times `simulate` and `CodeGenerator::generate` on every finalized
/// design, checking both against what the flow published.
fn time_finalize(outputs: &[&FlowOutput], device: &FpgaDevice, report: &mut Report) {
    let mut simulate_ms = Vec::new();
    let mut codegen_ms = Vec::new();
    let mut code_bytes = Vec::new();
    for _ in 0..LAYER_PASSES {
        for design in outputs.iter().flat_map(|out| &out.designs) {
            let dnn = match DnnBuilder::new().build(&design.point) {
                Ok(dnn) => dnn,
                Err(e) => {
                    report.fail(format!("design {} does not elaborate: {e}", design.point));
                    continue;
                }
            };
            let accel = AccelConfig::for_point(&design.point);
            let start = Instant::now();
            let sim = simulate(black_box(&dnn), &accel, device);
            simulate_ms.push(start.elapsed().as_secs_f64() * 1e3);
            report.check(
                matches!(&sim, Ok(r) if r.total_cycles == design.report.total_cycles),
                || format!("simulate disagrees with the flow for {}", design.point),
            );
            let start = Instant::now();
            let code = CodeGenerator::new(accel).generate(black_box(&dnn));
            codegen_ms.push(start.elapsed().as_secs_f64() * 1e3);
            report.check(code == design.code, || {
                format!("generated C differs from the flow's for {}", design.point)
            });
            code_bytes.push(code.len() as f64);
        }
    }
    report.put_median("sim.simulate_ms", &simulate_ms);
    report.put_median("hls.codegen_ms", &codegen_ms);
    report.put_median("hls.codegen_bytes", &code_bytes);
}

//! The metric registry, the correctness ledger and the run's output.
//!
//! Every metric a run may report is listed here with its unit, in the
//! same order and with the same names as `BENCHMARK.json`. A run prints
//! a table of every metric (value, sample count, quartiles) to stderr
//! and, as the last line of stdout, the JSON result the benchmark
//! contract defines.

use crate::stats::Summary;
use std::process::ExitCode;

/// Metrics of an untraced run: what a user of the system sees.
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Metrics of a traced run: one layer each.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.coarse_ms", "ms"),
    ("core.calibrate_ms", "ms"),
    ("core.scd_ms", "ms"),
    ("core.finalize_ms", "ms"),
    ("core.scd_cell_ms.p90", "ms"),
    ("core.scd.candidates", "count"),
    ("hls.cache.lookups", "count"),
    ("hls.cache.misses", "count"),
    ("hls.cache.hit_ratio", "ratio"),
    ("hls.lookup_ns", "ns"),
    ("hls.estimate_point_us", "us"),
    ("sim.simulate_ms", "ms"),
    ("hls.codegen_ms", "ms"),
    ("hls.codegen_bytes", "bytes"),
    ("hls.cache.entries", "count"),
    ("hls.cache.snapshot_ms", "ms"),
    ("serve.cache.hit_ratio", "ratio"),
    ("store.appended", "count"),
    ("store.log_bytes", "bytes"),
    ("serve.submit_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.result_ms", "ms"),
    ("serve.result_bytes", "bytes"),
    ("serve.queue_depth_max", "count"),
    ("serve.rejected", "count"),
    ("serve.route_ms.status", "ms"),
    ("serve.route_ms.events", "ms"),
    ("serve.route_ms.result", "ms"),
    ("serve.route_ms.metrics", "ms"),
    ("serve.route_ms.healthz", "ms"),
    ("serve.route_ms.rejected", "ms"),
    ("serve.threads_max", "count"),
    ("loadgen.late_ms.p90", "ms"),
    ("trace.flow_unaccounted_frac", "ratio"),
    ("trace.job_unaccounted_frac", "ratio"),
    ("trace.flow_overhead_frac", "ratio"),
    ("trace.job_overhead_frac", "ratio"),
];

struct Row {
    name: &'static str,
    unit: &'static str,
    value: f64,
    summary: Summary,
}

/// Metrics, operation counts and correctness failures of one run.
#[derive(Default)]
pub struct Report {
    rows: Vec<Row>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Report {
    /// Records `name` with `value`, printed beside `summary` of the
    /// samples it was taken from.
    fn put(&mut self, name: &'static str, value: f64, summary: Summary) {
        let (name, unit) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .copied()
            .find(|(known, _)| *known == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not registered"));
        assert!(
            self.rows.iter().all(|row| row.name != name),
            "metric `{name}` recorded twice"
        );
        self.rows.push(Row {
            name,
            unit,
            value,
            summary,
        });
    }

    /// Records the median of `samples` as `name`.
    pub fn put_median(&mut self, name: &'static str, samples: &[f64]) {
        self.put_summary(name, Summary::of(samples), |s| s.p50);
    }

    /// Records the 90th percentile of `samples` as `name`.
    pub fn put_p90(&mut self, name: &'static str, samples: &[f64]) {
        self.put_summary(name, Summary::of(samples), |s| s.p90);
    }

    /// Records `pick(summary)` as `name`; a failure when there were no
    /// samples.
    fn put_summary(
        &mut self,
        name: &'static str,
        summary: Option<Summary>,
        pick: fn(&Summary) -> f64,
    ) {
        match summary {
            Some(summary) => self.put(name, pick(&summary), summary),
            None => self.fail(format!("no samples for `{name}`")),
        }
    }

    /// Records one exact value (a count or a single reading) as `name`.
    pub fn put_exact(&mut self, name: &'static str, value: f64) {
        self.put(name, value, Summary::exact(value));
    }

    /// Counts `attempted` operations of which `failed` failed, were
    /// refused or returned a wrong output.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records a correctness failure.
    pub fn fail(&mut self, message: String) {
        if self.errors.len() < 20 {
            eprintln!("perfbench: FAILED: {message}");
        }
        self.errors.push(message);
    }

    /// Records a failure unless `ok`; returns `ok`.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) -> bool {
        if !ok {
            self.fail(message());
        }
        ok
    }

    /// Prints the table and the JSON result line, and turns the run's
    /// verdict into the exit code: non-zero on any failed operation or
    /// correctness failure.
    pub fn finish(mut self, trace: bool) -> ExitCode {
        let wanted = if trace { PER_LAYER } else { END_TO_END };
        for (name, _) in wanted {
            if !self.rows.iter().any(|row| row.name == *name) {
                self.fail(format!("metric `{name}` was not measured"));
            }
        }
        let non_finite: Vec<&str> = self
            .rows
            .iter()
            .filter(|row| !row.value.is_finite())
            .map(|row| row.name)
            .collect();
        for name in non_finite {
            self.fail(format!("metric `{name}` is not finite (too few samples?)"));
        }
        eprintln!(
            "{:<28} {:>6} {:>14} {:>7} {:>12} {:>12} {:>12}",
            "metric", "unit", "value", "n", "p25", "median", "p75"
        );
        for (name, _) in wanted {
            if let Some(row) = self.rows.iter().find(|row| row.name == *name) {
                let s = row.summary;
                eprintln!(
                    "{:<28} {:>6} {:>14.6} {:>7} {:>12.6} {:>12.6} {:>12.6}",
                    row.name, row.unit, row.value, s.n, s.p25, s.p50, s.p75
                );
            }
        }
        let failed_frac = if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        eprintln!(
            "ops: attempted={} failed={} failed_frac={failed_frac}",
            self.attempted, self.failed
        );
        let correct = self.errors.is_empty() && self.attempted > 0;
        let metrics: Vec<String> = wanted
            .iter()
            .filter_map(|(name, _)| self.rows.iter().find(|row| row.name == *name))
            .filter(|row| row.value.is_finite())
            .map(|row| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    row.name, row.value, row.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        if correct && self.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

//! Server-wide counters and job-latency percentiles for `/metrics`.

use crate::json::Json;
use codesign_hls::cache::EstimateCache;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How many of the most recent latency samples are retained for
/// percentile queries. Older samples are overwritten in place, so the
/// metrics footprint stays constant no matter how many jobs complete.
pub const LATENCY_WINDOW: usize = 512;

/// Fixed-capacity ring over the most recent latency samples.
///
/// `record_latency` used to push into an unbounded `Vec`, which grew
/// forever on a long-lived server. The ring keeps the last
/// [`LATENCY_WINDOW`] samples for percentiles and a monotone `total`
/// for the `count` field.
#[derive(Debug, Default)]
struct LatencyReservoir {
    samples: Vec<f64>,
    /// Next slot to overwrite once `samples` is at capacity.
    next: usize,
    /// Lifetime number of recorded samples (monotone).
    total: u64,
}

impl LatencyReservoir {
    fn record(&mut self, ms: f64) {
        if self.samples.len() < LATENCY_WINDOW {
            self.samples.push(ms);
        } else {
            self.samples[self.next] = ms;
            self.next = (self.next + 1) % LATENCY_WINDOW;
        }
        self.total += 1;
    }
}

/// Counters of the job server. All monotonically increasing except
/// `jobs_in_flight`, which tracks currently executing jobs.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Jobs admitted to the queue.
    pub submitted: AtomicU64,
    /// Jobs that finished with a result.
    pub completed: AtomicU64,
    /// Jobs that finished with a flow error.
    pub failed: AtomicU64,
    /// Jobs cancelled (queued or running).
    pub cancelled: AtomicU64,
    /// Jobs that hit their deadline before finishing.
    pub timed_out: AtomicU64,
    /// Jobs whose flow panicked (isolated at the executor boundary;
    /// also counted in `failed`).
    pub panicked: AtomicU64,
    /// Submissions rejected by admission control (HTTP 429).
    pub rejected: AtomicU64,
    /// Jobs currently executing on a worker.
    pub jobs_in_flight: AtomicU64,
    /// Connections handed to a handler (`http.connections`). The
    /// accept loop's 503 refusals are not counted.
    pub http_connections: AtomicU64,
    /// Requests read and answered (`http.requests`), 400, 408 and 431
    /// answers to unreadable requests included. With persistent
    /// connections this outgrows `http_connections`.
    pub http_requests: AtomicU64,
    /// End-to-end (submit → finish) latencies of completed jobs, ms —
    /// the most recent [`LATENCY_WINDOW`] of them.
    latencies_ms: Mutex<LatencyReservoir>,
}

impl Metrics {
    /// Records one completed job's end-to-end latency. Memory use is
    /// bounded: only the last [`LATENCY_WINDOW`] samples are retained.
    pub fn record_latency(&self, ms: f64) {
        self.latencies_ms.lock().expect("latency lock").record(ms);
    }

    /// The `p`-th percentile (0-100, nearest-rank on a sorted copy) of
    /// completed-job latency over the retained window; `None` before
    /// the first completion.
    pub fn latency_percentile(&self, p: f64) -> Option<f64> {
        let reservoir = self.latencies_ms.lock().expect("latency lock");
        percentile(&reservoir.samples, p)
    }

    /// Lifetime number of recorded latencies (monotone — not capped at
    /// the retention window).
    pub fn latency_count(&self) -> u64 {
        self.latencies_ms.lock().expect("latency lock").total
    }

    /// Encodes the `/metrics` document. `queue_depth` comes from the
    /// scheduler; the estimate cache is the process-wide shared one;
    /// `store` is the persistent-store section (present only when the
    /// scheduler was started with a `--store` path).
    pub fn to_json(
        &self,
        queue_depth: usize,
        max_queue: usize,
        cache: &EstimateCache,
        store: Option<Json>,
    ) -> Json {
        let stats = cache.stats();
        let latency = |p: f64| match self.latency_percentile(p) {
            Some(ms) => Json::num(ms),
            None => Json::Null,
        };
        let mut fields = vec![
            ("queue_depth".into(), Json::num(queue_depth as f64)),
            ("max_queue".into(), Json::num(max_queue as f64)),
            (
                "jobs_in_flight".into(),
                Json::num(self.jobs_in_flight.load(Ordering::Relaxed) as f64),
            ),
            (
                "submitted".into(),
                Json::num(self.submitted.load(Ordering::Relaxed) as f64),
            ),
            (
                "completed".into(),
                Json::num(self.completed.load(Ordering::Relaxed) as f64),
            ),
            (
                "failed".into(),
                Json::num(self.failed.load(Ordering::Relaxed) as f64),
            ),
            (
                "cancelled".into(),
                Json::num(self.cancelled.load(Ordering::Relaxed) as f64),
            ),
            (
                "timed_out".into(),
                Json::num(self.timed_out.load(Ordering::Relaxed) as f64),
            ),
            (
                "panicked".into(),
                Json::num(self.panicked.load(Ordering::Relaxed) as f64),
            ),
            (
                "rejected".into(),
                Json::num(self.rejected.load(Ordering::Relaxed) as f64),
            ),
            (
                "job_latency_ms".into(),
                Json::Obj(vec![
                    ("count".into(), Json::num(self.latency_count() as f64)),
                    ("p50".into(), latency(50.0)),
                    ("p99".into(), latency(99.0)),
                ]),
            ),
            (
                "http".into(),
                Json::Obj(vec![
                    (
                        "connections".into(),
                        Json::num(self.http_connections.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "requests".into(),
                        Json::num(self.http_requests.load(Ordering::Relaxed) as f64),
                    ),
                ]),
            ),
            (
                "estimate_cache".into(),
                Json::Obj(vec![
                    ("hits".into(), Json::num(stats.hits as f64)),
                    ("misses".into(), Json::num(stats.misses as f64)),
                    ("entries".into(), Json::num(stats.entries as f64)),
                    ("hit_rate".into(), Json::num(stats.hit_rate())),
                ]),
            ),
        ];
        if let Some(store) = store {
            fields.push(("estimate_store".into(), store));
        }
        Json::Obj(fields)
    }
}

/// Nearest-rank percentile over an unsorted sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    Some(sorted[rank.min(sorted.len() - 1)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(|n| n as f64).collect();
        assert_eq!(percentile(&samples, 50.0), Some(51.0));
        assert_eq!(percentile(&samples, 99.0), Some(99.0));
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
        assert_eq!(percentile(&samples, 100.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.5], 99.0), Some(7.5));
    }

    #[test]
    fn metrics_document_shape() {
        let metrics = Metrics::default();
        metrics.submitted.store(3, Ordering::Relaxed);
        metrics.completed.store(2, Ordering::Relaxed);
        metrics.http_connections.store(4, Ordering::Relaxed);
        metrics.http_requests.store(9, Ordering::Relaxed);
        metrics.record_latency(10.0);
        metrics.record_latency(20.0);
        metrics.record_latency(30.0);
        let cache = EstimateCache::new();
        let doc = metrics.to_json(1, 8, &cache, None);
        assert_eq!(doc.get("queue_depth").unwrap().as_uint(), Some(1));
        assert_eq!(doc.get("max_queue").unwrap().as_uint(), Some(8));
        assert_eq!(doc.get("submitted").unwrap().as_uint(), Some(3));
        let http = doc.get("http").unwrap();
        assert_eq!(http.get("connections").unwrap().as_uint(), Some(4));
        assert_eq!(http.get("requests").unwrap().as_uint(), Some(9));
        let lat = doc.get("job_latency_ms").unwrap();
        assert_eq!(lat.get("count").unwrap().as_uint(), Some(3));
        assert_eq!(lat.get("p50").unwrap().as_num(), Some(20.0));
        assert_eq!(lat.get("p99").unwrap().as_num(), Some(30.0));
        assert!(
            doc.get("estimate_store").is_none(),
            "store section only appears when a store is configured"
        );
    }

    #[test]
    fn latency_window_is_bounded_but_count_is_monotone() {
        let metrics = Metrics::default();
        // Far more samples than the window holds. The early (large)
        // samples must be overwritten by the later (small) ones.
        for n in 0..(LATENCY_WINDOW as u64 * 4) {
            metrics.record_latency(1e6 - n as f64);
        }
        assert_eq!(metrics.latency_count(), LATENCY_WINDOW as u64 * 4);
        let retained = metrics.latencies_ms.lock().unwrap().samples.len();
        assert_eq!(retained, LATENCY_WINDOW, "ring never outgrows the window");
        let p100 = metrics.latency_percentile(100.0).unwrap();
        assert!(
            p100 < 1e6 - (LATENCY_WINDOW as f64),
            "oldest samples must have been evicted (max retained = {p100})"
        );
    }
}

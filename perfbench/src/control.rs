//! `serve_control`: the job server's control plane under a closed loop
//! of 2 clients, with no flow running.
//!
//! Set-up finishes a few small jobs; the timed phase then sends a
//! seeded mix of status, event-stream, result, `/metrics` and
//! `/healthz` reads plus rejected submissions (unknown field or wrong
//! type, answered 400), and checks every answer. Each client pauses
//! [`THINK`] between requests; the think time is left out of
//! `ops_per_s`, which counts requests per second of request time.

use crate::jobs::{direct_body, job_body, set_up};
use crate::report::Report;
use crate::sys;
use codesign_core::parallel::derive_seed;
use codesign_serve::json::{parse, Json};
use codesign_serve::{Client, ServeConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// Jobs set-up finishes for the timed phase to read.
const JOBS: usize = 4;

/// Each client's pause between a reply and its next request. The server
/// takes one connection per request, and every closed connection sits
/// in TIME_WAIT for a minute; back to back, two clients would open
/// ~10k connections a second, fill the kernel's TIME_WAIT table
/// (65536 on Linux by default) within a few runs and slow every later
/// run. With this pause they open ~500 a second.
const THINK: Duration = Duration::from_millis(4);

/// Routes of the mix, drawn with equal weight. The mix is a chosen one:
/// no measured traffic says how often each route is hit.
const ROUTES: [Route; 6] = [
    Route::Status,
    Route::Events,
    Route::Result,
    Route::Metrics,
    Route::Healthz,
    Route::Rejected,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Status,
    Events,
    Result,
    Metrics,
    Healthz,
    Rejected,
}

impl Route {
    fn metric(self) -> &'static str {
        match self {
            Route::Status => "serve.route_ms.status",
            Route::Events => "serve.route_ms.events",
            Route::Result => "serve.route_ms.result",
            Route::Metrics => "serve.route_ms.metrics",
            Route::Healthz => "serve.route_ms.healthz",
            Route::Rejected => "serve.route_ms.rejected",
        }
    }

    fn index(self) -> usize {
        ROUTES
            .iter()
            .position(|route| *route == self)
            .expect("every route is in ROUTES")
    }

    fn draw(value: u64) -> Route {
        ROUTES[(value % ROUTES.len() as u64) as usize]
    }
}

/// The timed phase's outcome: latencies of correctly answered
/// requests, per route in [`ROUTES`] order, the failures, and the time
/// spent in requests, think time left out.
#[derive(Default)]
struct Tally {
    ms: [Vec<f64>; ROUTES.len()],
    failures: Vec<String>,
    busy_s: f64,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        for (mine, theirs) in self.ms.iter_mut().zip(other.ms) {
            mine.extend(theirs);
        }
        self.failures.extend(other.failures);
        self.busy_s += other.busy_s;
    }

    fn all(&self) -> Vec<f64> {
        self.ms.concat()
    }
}

/// What set-up left behind for the timed phase to read back.
struct Finished {
    id: u64,
    body: String,
    events: usize,
}

/// One request of the mix: sends it, checks the answer.
fn request(client: &Client, route: Route, job: &Finished, draw: u64) -> Result<(), String> {
    let json = |body: &str| parse(body).map_err(|e| format!("unparseable body: {e}"));
    let (status, body) = match route {
        Route::Status => client.get(&format!("/jobs/{}", job.id)),
        Route::Events => client.get(&format!("/jobs/{}/events", job.id)),
        Route::Result => client.get(&format!("/jobs/{}/result", job.id)),
        Route::Metrics => client.get("/metrics"),
        Route::Healthz => client.get("/healthz"),
        Route::Rejected if draw.is_multiple_of(2) => client.post("/jobs", "{\"targets\":[15]}"),
        Route::Rejected => client.post("/jobs", "{\"seed\":\"seven\"}"),
    }
    .map_err(|e| e.to_string())?;
    let want_status = if route == Route::Rejected { 400 } else { 200 };
    if status != want_status {
        return Err(format!("{route:?} answered {status}"));
    }
    let ok = match route {
        Route::Status => json(&body)?.get("status").and_then(Json::as_str) == Some("completed"),
        Route::Events => {
            let lines: Vec<&str> = body.lines().collect();
            lines.len() == job.events
                && lines
                    .last()
                    .and_then(|l| parse(l).ok())
                    .and_then(|l| l.get("event").and_then(Json::as_str).map(str::to_string))
                    .as_deref()
                    == Some("finished")
        }
        Route::Result => body == job.body,
        Route::Metrics => {
            json(&body)?.get("completed").and_then(Json::as_uint) >= Some(JOBS as u64)
        }
        Route::Healthz => json(&body)?.get("ok") == Some(&Json::Bool(true)),
        Route::Rejected => json(&body)?
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("unknown field") || e.contains("must be")),
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{route:?} answered a wrong body: {body}"))
    }
}

/// Runs the workload for `seconds` and records its metrics: the
/// end-to-end set when `traced` is false, the per-layer set otherwise.
/// `setup_reps` set-ups are timed and their median reported.
pub fn run(seed: u64, seconds: f64, traced: bool, setup_reps: usize, report: &mut Report) {
    let bodies: Vec<String> = (0..JOBS)
        .map(|k| job_body(15.0, derive_seed(seed, (1 << 44) + k as u64)))
        .collect();
    let expected: Vec<String> = match bodies.iter().map(|b| direct_body(b)).collect() {
        Ok(expected) => expected,
        Err(e) => {
            report.fail(format!("a direct run failed: {e}"));
            return;
        }
    };

    // Set-up: start an in-memory server and finish the jobs.
    let config = ServeConfig::default();
    let Some((mut server, setup_s)) = set_up(report, setup_reps, &config, &bodies, &expected)
    else {
        return;
    };
    let client = Client::new(server.addr());
    let mut jobs = Vec::new();
    // Set-up submitted the jobs on a fresh server, so their ids are
    // 1..=JOBS in submission order.
    for (k, body) in expected.into_iter().enumerate() {
        let id = k as u64 + 1;
        match client.events(id) {
            Ok(lines) => jobs.push(Finished {
                id,
                body,
                events: lines.len(),
            }),
            Err(e) => report.fail(format!("events of job {id}: {e}")),
        }
    }
    if jobs.len() != JOBS {
        return;
    }

    let clients = sys::nproc().min(2) as u64;
    let stop = AtomicBool::new(false);
    let tally = Mutex::new(Tally::default());
    let mut threads_max = 0.0f64;
    let cpu0 = sys::cpu_seconds();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    thread::scope(|scope| {
        for c in 0..clients {
            let (stop, tally, jobs, client) = (&stop, &tally, &jobs, &client);
            scope.spawn(move || {
                let mut local = Tally::default();
                let mut k = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let draw = derive_seed(seed, (c << 48) + k);
                    k += 1;
                    let route = Route::draw(draw);
                    let job = &jobs[(draw >> 32) as usize % jobs.len()];
                    let start = Instant::now();
                    let answer = request(client, route, job, draw >> 8);
                    let took_s = start.elapsed().as_secs_f64();
                    local.busy_s += took_s;
                    match answer {
                        Ok(()) => local.ms[route.index()].push(took_s * 1e3),
                        Err(e) => local.failures.push(e),
                    }
                    thread::sleep(THINK);
                }
                tally.lock().expect("tally lock").add(local);
            });
        }
        while Instant::now() < deadline {
            if traced {
                threads_max = threads_max.max(sys::threads());
                thread::sleep(Duration::from_millis(1));
            } else {
                thread::sleep(deadline.saturating_duration_since(Instant::now()));
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    let cpu_s = sys::cpu_seconds() - cpu0;
    server.shutdown();

    let mut tally = tally.into_inner().expect("tally lock");
    let all = tally.all();
    let ok = all.len() as u64;
    let failures = std::mem::take(&mut tally.failures);
    report.ops(ok + failures.len() as u64, failures.len() as u64);
    for e in failures {
        report.fail(e);
    }
    if !traced {
        report.put_median("op_ms.p50", &all);
        report.put_p90("op_ms.p90", &all);
        // Requests per second of request time, summed over the clients:
        // the think time would otherwise fix the rate.
        report.put_exact("ops_per_s", ok as f64 * clients as f64 / tally.busy_s);
        report.put_exact("cpu_ms_per_op", cpu_s * 1e3 / ok.max(1) as f64);
        report.put_median("setup_s", &setup_s);
    } else {
        for route in ROUTES {
            report.put_median(route.metric(), &tally.ms[route.index()]);
        }
        report.put_exact("serve.threads_max", threads_max);
    }
}

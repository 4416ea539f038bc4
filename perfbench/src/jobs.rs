//! `serve_jobs`: small co-design jobs sent to an in-process job server
//! at one fixed arrival rate (an open loop).
//!
//! The server has 2 executors and a disk-backed estimate store. Each
//! job is 1 FPS target from {10, 15, 20}, K = 2, PF {16}, 1 worker.
//! Most jobs repeat a pool that set-up warmed; exactly one in each
//! block of [`FRESH_ONE_IN`] carries a fresh seed, so new estimates are
//! appended to the store beside cache reads. A job is timed from the
//! moment it was due to be sent to the moment its result body arrived.
//!
//! The mix is exact, not drawn job by job: pool requests are used in
//! turn, in a seeded order, and fresh jobs cycle through the targets.
//! The seed changes which requests run, not how many of each kind, so
//! the percentiles do not move with the mix.

use crate::report::Report;
use crate::stats::overhead;
use crate::sys;
use crate::wire;
use codesign_core::flow::CoDesignFlow;
use codesign_core::parallel::derive_seed;
use codesign_serve::encode::flow_result_body;
use codesign_serve::json::{parse, Json};
use codesign_serve::request::flow_config_from_body;
use codesign_serve::{Client, ServeConfig, Server};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// Jobs sent per second; well below the two executors' capacity, so
/// no backlog builds.
const RATE_PER_S: f64 = 20.0;

/// Distinct requests the warm pool holds.
const POOL: usize = 48;

/// One job in this many carries a fresh seed.
const FRESH_ONE_IN: usize = 8;

/// Fresh-seed jobs whose bodies are checked against a direct run.
const FRESH_SAMPLE: usize = 12;

/// Snapshots timed for `hls.cache.snapshot_ms`.
const SNAPSHOT_REPS: usize = 5;

const TARGETS: [f64; 3] = [10.0, 15.0, 20.0];

/// A small job's request body. The seed is cut to 32 bits, well inside
/// the integers a JSON number carries exactly.
pub fn job_body(target_fps: f64, seed: u64) -> String {
    let seed = seed >> 32;
    format!(
        "{{\"targets_fps\":[{target_fps}],\"candidates_per_bundle\":2,\
         \"coarse_pf_sweep\":[16],\"parallelism\":1,\"seed\":{seed}}}"
    )
}

/// The result body a direct `CoDesignFlow::run` of `body` encodes to.
pub fn direct_body(body: &str) -> Result<String, String> {
    let config = flow_config_from_body(body)?;
    let out = CoDesignFlow::new(config).run().map_err(|e| e.to_string())?;
    Ok(flow_result_body(&out))
}

/// Starts a server on `config` and finishes `bodies` on it, checking
/// each result against `expected`; `reps` times over, each time on a
/// fresh server. Returns the last server, still running, and the time
/// each set-up took.
pub fn set_up(
    report: &mut Report,
    reps: usize,
    config: &ServeConfig,
    bodies: &[String],
    expected: &[String],
) -> Option<(Server, Vec<f64>)> {
    let mut setup_s = Vec::new();
    let mut server: Option<Server> = None;
    for _ in 0..reps.max(1) {
        if let Some(mut previous) = server.take() {
            previous.shutdown();
        }
        let start = Instant::now();
        let started = match Server::start(config.clone()) {
            Ok(started) => started,
            Err(e) => {
                report.fail(format!("server did not start: {e}"));
                return None;
            }
        };
        submit_and_check(report, &Client::new(started.addr()), bodies, expected);
        setup_s.push(start.elapsed().as_secs_f64());
        server = Some(started);
    }
    server.map(|server| (server, setup_s))
}

/// Submits `bodies`, waits for each result and checks it against
/// `expected`, counting each job as one set-up op.
fn submit_and_check(report: &mut Report, client: &Client, bodies: &[String], expected: &[String]) {
    let ids: Vec<Result<u64, String>> = bodies.iter().map(|b| client.submit_job(b)).collect();
    let mut failed = 0;
    for ((id, want), body) in ids.into_iter().zip(expected).zip(bodies) {
        let error = match id.and_then(|id| client.wait_result(id).map_err(|e| e.to_string())) {
            Ok((200, got)) if got == *want => continue,
            Ok((200, _)) => "served body differs from a direct run".to_string(),
            Ok((status, _)) => format!("result answered {status}"),
            Err(e) => e,
        };
        failed += 1;
        report.fail(format!("set-up job {body}: {error}"));
    }
    report.ops(bodies.len() as u64, failed);
}

enum Kind {
    Pool(usize),
    Fresh,
}

struct Job {
    body: String,
    kind: Kind,
    /// Whether a traced run traces this job: whole passes over the pool
    /// (and blocks of fresh jobs) alternate, so every request is seen
    /// both traced and untraced.
    traced: bool,
}

/// The pool's request bodies and the run's job list, both drawn from
/// the workload seed.
fn schedule(seed: u64, jobs: usize) -> (Vec<String>, Vec<Job>) {
    let pool: Vec<String> = (0..POOL)
        .map(|k| {
            job_body(
                TARGETS[k % TARGETS.len()],
                derive_seed(seed, (1 << 41) + k as u64),
            )
        })
        .collect();
    // A seeded shuffle of the pool, used in turn.
    let mut order: Vec<usize> = (0..POOL).collect();
    for k in (1..POOL).rev() {
        order.swap(
            k,
            derive_seed(seed, (1 << 45) + k as u64) as usize % (k + 1),
        );
    }
    let mut list = Vec::with_capacity(jobs);
    for i in 0..jobs {
        let block = i / FRESH_ONE_IN;
        let fresh_at = derive_seed(seed, (1 << 40) + block as u64) as usize % FRESH_ONE_IN;
        list.push(if i % FRESH_ONE_IN == fresh_at {
            Job {
                body: job_body(
                    TARGETS[block % TARGETS.len()],
                    derive_seed(seed, (1 << 42) + i as u64),
                ),
                kind: Kind::Fresh,
                traced: block.is_multiple_of(2),
            }
        } else {
            let used = i - block - usize::from(i % FRESH_ONE_IN > fresh_at);
            let k = order[used % POOL];
            Job {
                body: pool[k].clone(),
                kind: Kind::Pool(k),
                traced: (used / POOL).is_multiple_of(2),
            }
        });
    }
    (pool, list)
}

/// Where a traced job's time went, in milliseconds: POST /jobs, 202 to
/// the `started` event, `started` to the terminal event, terminal event
/// to the result body.
struct Spans {
    submit: f64,
    queue: f64,
    run: f64,
    result: f64,
}

struct Record {
    index: usize,
    late_ms: f64,
    op_ms: f64,
    done: Instant,
    spans: Option<Spans>,
    body: Result<String, String>,
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

fn event_name(line: &str) -> Option<String> {
    parse(line).ok()?.get("event")?.as_str().map(str::to_string)
}

/// Sends one job and waits for its result body.
fn send(addr: SocketAddr, index: usize, body: &str, due: Instant, traced: bool) -> Record {
    let client = Client::new(addr);
    let sent = Instant::now();
    let mut spans = None;
    let result = if traced {
        (|| {
            let id = client.submit_job(body)?;
            let submitted = Instant::now();
            let lines = wire::timed_events(addr, id).map_err(|e| e.to_string())?;
            let started = lines
                .iter()
                .find(|(_, line)| event_name(line).as_deref() == Some("started"))
                .map(|(at, _)| *at)
                .ok_or("no `started` event")?;
            let (ended, last) = lines.last().ok_or("empty event stream")?;
            if event_name(last).as_deref() != Some("finished") {
                return Err(format!("job ended with `{last}`"));
            }
            let (status, result) = client
                .get(&format!("/jobs/{id}/result"))
                .map_err(|e| e.to_string())?;
            let done = Instant::now();
            spans = Some(Spans {
                submit: ms(sent, submitted),
                queue: ms(submitted, started),
                run: ms(started, *ended),
                result: ms(*ended, done),
            });
            match status {
                200 => Ok(result),
                _ => Err(format!("result answered {status}")),
            }
        })()
    } else {
        client
            .submit_job(body)
            .and_then(|id| client.wait_result(id).map_err(|e| e.to_string()))
            .and_then(|(status, result)| match status {
                200 => Ok(result),
                _ => Err(format!("result answered {status}")),
            })
    };
    let done = Instant::now();
    Record {
        index,
        late_ms: ms(due, sent),
        op_ms: ms(due, done),
        done,
        spans,
        body: result,
    }
}

fn counter(doc: &Json, path: &[&str]) -> f64 {
    let mut node = Some(doc);
    for key in path {
        node = node.and_then(|n| n.get(key));
    }
    node.and_then(Json::as_num).unwrap_or(f64::NAN)
}

/// Runs the workload for `seconds` and records its metrics: the
/// end-to-end set when `traced` is false, the per-layer set otherwise.
/// `setup_reps` set-ups are timed and their median reported.
pub fn run(seed: u64, seconds: f64, traced: bool, setup_reps: usize, report: &mut Report) {
    let jobs = (RATE_PER_S * seconds).ceil().max(1.0) as usize;
    let (pool, list) = schedule(seed, jobs);
    let expected: Vec<String> = match pool.iter().map(|b| direct_body(b)).collect() {
        Ok(bodies) => bodies,
        Err(e) => {
            report.fail(format!("a direct run of the pool failed: {e}"));
            return;
        }
    };
    let dir = match sys::StateDir::create("serve_jobs") {
        Ok(dir) => dir,
        Err(e) => {
            report.fail(format!("cannot create the scratch directory: {e}"));
            return;
        }
    };
    let store = dir.path().join("estimates.log");
    let config = ServeConfig {
        executors: 2,
        max_queue: 64,
        store: Some(store.clone()),
        ..ServeConfig::default()
    };

    // Set-up: start the server on the store (created by the first
    // repetition, reloaded by the later ones) and warm the pool.
    let Some((mut server, setup_s)) = set_up(report, setup_reps, &config, &pool, &expected) else {
        return;
    };
    let addr = server.addr();
    let client = Client::new(addr);
    let before = client.metrics().ok();

    let clients = sys::nproc().min(2);
    let next = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let records = Mutex::new(Vec::with_capacity(jobs));
    let mut depth_max = 0usize;
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now() + Duration::from_millis(20);
    thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                let due = t0 + Duration::from_secs_f64(i as f64 / RATE_PER_S);
                thread::sleep(due.saturating_duration_since(Instant::now()));
                let record = send(addr, i, &list[i].body, due, traced && list[i].traced);
                records.lock().expect("records lock").push(record);
                finished.fetch_add(1, Ordering::Relaxed);
            });
        }
        if traced {
            // The scheduler's queue depth, as `/metrics` reports it,
            // read in-process so sampling opens no extra connection.
            while finished.load(Ordering::Relaxed) < jobs {
                depth_max = depth_max.max(server.scheduler().queue_depth());
                thread::sleep(Duration::from_millis(5));
            }
        }
    });
    let cpu_s = sys::cpu_seconds() - cpu0;
    let after = client.metrics().ok();
    let mut records = records.into_inner().expect("records lock");
    records.sort_by_key(|r| r.index);

    // Correctness: pool jobs against the set-up's direct runs, a seeded
    // sample of fresh jobs against direct runs made now.
    let mut fresh: Vec<&Record> = records
        .iter()
        .filter(|r| matches!(list[r.index].kind, Kind::Fresh) && r.body.is_ok())
        .collect();
    fresh.sort_by_key(|r| derive_seed(seed, (1 << 43) + r.index as u64));
    fresh.truncate(FRESH_SAMPLE);
    let sampled: Vec<usize> = fresh.iter().map(|r| r.index).collect();
    let mut failed = 0u64;
    for record in &records {
        let job = &list[record.index];
        let verdict = match (&record.body, &job.kind) {
            (Err(e), _) => Err(e.clone()),
            (Ok(got), Kind::Pool(k)) if *got != expected[*k] => {
                Err("served body differs from a direct run".to_string())
            }
            (Ok(got), Kind::Fresh) if sampled.contains(&record.index) => {
                match direct_body(&job.body) {
                    Ok(want) if want == *got => Ok(()),
                    Ok(_) => Err("served body differs from a direct run".to_string()),
                    Err(e) => Err(format!("direct run failed: {e}")),
                }
            }
            _ => Ok(()),
        };
        if let Err(e) = verdict {
            failed += 1;
            report.fail(format!("job {} ({}): {e}", record.index, job.body));
        }
    }
    report.ops(records.len() as u64, failed);
    report.check(records.len() == jobs, || {
        format!("{} of {jobs} jobs reported back", records.len())
    });
    report.check(sampled.len() == FRESH_SAMPLE.min(fresh.len()), || {
        "fresh-seed sample is short".to_string()
    });

    let ok: Vec<&Record> = records.iter().filter(|r| r.body.is_ok()).collect();
    let op_ms: Vec<f64> = ok.iter().map(|r| r.op_ms).collect();
    if !traced {
        let last = ok.iter().map(|r| r.done).max().unwrap_or(t0);
        report.put_median("op_ms.p50", &op_ms);
        report.put_p90("op_ms.p90", &op_ms);
        report.put_exact("ops_per_s", ok.len() as f64 / ms(t0, last) * 1e3);
        report.put_exact("cpu_ms_per_op", cpu_s * 1e3 / ok.len().max(1) as f64);
        report.put_median("setup_s", &setup_s);
    } else {
        let spans: Vec<(&Record, &Spans)> = ok
            .iter()
            .filter_map(|r| r.spans.as_ref().map(|s| (*r, s)))
            .collect();
        let pick = |f: fn(&Spans) -> f64| spans.iter().map(|(_, s)| f(s)).collect::<Vec<_>>();
        report.put_median("serve.submit_ms", &pick(|s| s.submit));
        report.put_median("serve.queue_ms", &pick(|s| s.queue));
        report.put_median("serve.run_ms", &pick(|s| s.run));
        report.put_median("serve.result_ms", &pick(|s| s.result));
        // Job time starts when the job was due, so the generator's
        // lateness (reported on its own below) is part of the share the
        // four spans leave uncovered.
        let unaccounted: Vec<f64> = spans
            .iter()
            .map(|(r, s)| 1.0 - (s.submit + s.queue + s.run + s.result) / r.op_ms)
            .collect();
        report.put_median("trace.job_unaccounted_frac", &unaccounted);
        let mut by_request: Vec<(Vec<f64>, Vec<f64>)> = vec![Default::default(); POOL];
        for record in &ok {
            if let Kind::Pool(k) = list[record.index].kind {
                let (traced, plain) = &mut by_request[k];
                match record.spans {
                    Some(_) => traced.push(record.op_ms),
                    None => plain.push(record.op_ms),
                }
            }
        }
        report.put_exact("trace.job_overhead_frac", overhead(&by_request));
        let bytes: Vec<f64> = ok
            .iter()
            .map(|r| r.body.as_ref().map_or(0.0, |b| b.len() as f64))
            .collect();
        report.put_median("serve.result_bytes", &bytes);
        let late: Vec<f64> = records.iter().map(|r| r.late_ms).collect();
        report.put_p90("loadgen.late_ms.p90", &late);
        report.put_exact("serve.queue_depth_max", depth_max as f64);
        match (&before, &after) {
            (Some(before), Some(after)) => {
                let delta = |path: &[&str]| counter(after, path) - counter(before, path);
                report.put_exact("serve.rejected", delta(&["rejected"]));
                let hits = delta(&["estimate_cache", "hits"]);
                let misses = delta(&["estimate_cache", "misses"]);
                report.put_exact("serve.cache.hit_ratio", hits / (hits + misses));
                report.put_exact("store.appended", delta(&["estimate_store", "persisted"]));
            }
            _ => report.fail("GET /metrics failed around the timed phase".to_string()),
        }
        let cache = server.scheduler().cache();
        let mut snapshot_ms = Vec::new();
        let mut entries = 0;
        for _ in 0..SNAPSHOT_REPS {
            let start = Instant::now();
            entries = cache.snapshot_ok().len();
            snapshot_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        report.put_median("hls.cache.snapshot_ms", &snapshot_ms);
        report.put_exact("hls.cache.entries", entries as f64);
    }
    server.shutdown();
    if traced {
        match std::fs::metadata(&store) {
            Ok(meta) => report.put_exact("store.log_bytes", meta.len() as f64),
            Err(e) => report.fail(format!("estimate store is missing: {e}")),
        }
    }
}

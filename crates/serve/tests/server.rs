//! End-to-end tests against a real server on an ephemeral port.
//!
//! The load-bearing guarantee: a job's result body, downloaded over
//! HTTP while other tenants run concurrently, is byte-identical to
//! running [`CoDesignFlow::run`] directly on the same configuration
//! and encoding it with the shared encoder. Sharing the process-wide
//! estimate cache across jobs must not change a single byte.

use codesign_core::flow::{CoDesignFlow, FlowConfig};
use codesign_serve::encode::flow_result_body;
use codesign_serve::job::ServeConfig;
use codesign_serve::json::{parse, Json};
use codesign_serve::{Client, Server};
use codesign_sim::device::pynq_z1;
use std::thread;

fn small_body(seed: u64) -> String {
    format!(
        r#"{{"targets_fps":[15.0],"candidates_per_bundle":2,"coarse_pf_sweep":[16],"seed":{seed}}}"#
    )
}

fn small_config(seed: u64) -> FlowConfig {
    FlowConfig::builder()
        .device(pynq_z1())
        .targets_fps([15.0])
        .candidates_per_bundle(2)
        .coarse_pf_sweep([16])
        .seed(seed)
        .build()
        .unwrap()
}

#[test]
fn concurrent_jobs_are_byte_identical_to_direct_runs() {
    let mut server = Server::start(ServeConfig {
        max_queue: 8,
        executors: 2,
        ..ServeConfig::default()
    })
    .expect("start server");
    let addr = server.addr();

    // Three tenants with different seeds, submitted concurrently so
    // jobs interleave on the executors and share the estimate cache.
    let seeds = [7u64, 8, 9];
    let handles: Vec<_> = seeds
        .map(|seed| {
            thread::spawn(move || {
                let client = Client::new(addr);
                let job_id = client.submit_job(&small_body(seed)).expect("submit");
                let (status, body) = client.wait_result(job_id).expect("result");
                (seed, status, body)
            })
        })
        .into_iter()
        .collect();
    for handle in handles {
        let (seed, status, served) = handle.join().expect("client thread");
        assert_eq!(status, 200, "seed {seed}: {served}");
        let direct = CoDesignFlow::new(small_config(seed)).run().unwrap();
        assert_eq!(
            served,
            flow_result_body(&direct),
            "seed {seed}: served result differs from a direct run"
        );
    }
    server.shutdown();
}

#[test]
fn event_stream_is_ordered_ndjson() {
    let mut server = Server::start(ServeConfig {
        max_queue: 4,
        executors: 1,
        ..ServeConfig::default()
    })
    .expect("start server");
    let client = Client::new(server.addr());
    let job_id = client.submit_job(&small_body(1)).expect("submit");
    let lines = client.events(job_id).expect("events");
    assert!(
        lines.len() >= 3,
        "expected a full event schedule: {lines:?}"
    );
    for line in &lines {
        let doc = parse(line).expect("every event line is valid JSON");
        assert_eq!(doc.get("job_id").unwrap().as_uint(), Some(job_id));
    }
    assert!(lines.first().unwrap().contains("\"started\""));
    assert!(lines.last().unwrap().contains("\"finished\""));
    server.shutdown();
}

#[test]
fn full_queue_rejects_with_429_and_cancel_frees_the_slot() {
    // executors: 0 pins jobs in the queue, making admission
    // deterministic.
    let mut server = Server::start(ServeConfig {
        max_queue: 1,
        executors: 0,
        ..ServeConfig::default()
    })
    .expect("start server");
    let client = Client::new(server.addr());

    let (status, doc) = client.submit(&small_body(1)).expect("submit");
    assert_eq!(status, 202);
    let first = doc.get("job_id").unwrap().as_uint().unwrap();

    let (status, doc) = client.submit(&small_body(2)).expect("submit");
    assert_eq!(status, 429, "queue of 1 must reject the second job");
    assert_eq!(doc.get("max_queue").unwrap().as_uint(), Some(1));

    let (status, doc) = client.cancel(first).expect("cancel");
    assert_eq!(status, 200);
    assert_eq!(doc.get("cancel").unwrap().as_str(), Some("cancelled"));

    // The cancelled job's slot is free again.
    let (status, _) = client.submit(&small_body(3)).expect("submit");
    assert_eq!(status, 202, "cancelling a queued job must free its slot");

    // The cancelled job is terminal, its stream ends with `cancelled`,
    // and its result returns 409.
    let (status, body) = client.get(&format!("/jobs/{first}")).expect("status");
    assert_eq!(status, 200);
    assert!(body.contains("\"cancelled\""), "{body}");
    let lines = client.events(first).expect("events");
    assert!(lines.last().unwrap().contains("\"cancelled\""));
    let (status, _) = client
        .get(&format!("/jobs/{first}/result"))
        .expect("result");
    assert_eq!(status, 409);
    server.shutdown();
}

#[test]
fn metrics_report_counters_latency_and_cache() {
    let mut server = Server::start(ServeConfig {
        max_queue: 4,
        executors: 1,
        ..ServeConfig::default()
    })
    .expect("start server");
    let client = Client::new(server.addr());
    let job_id = client.submit_job(&small_body(5)).expect("submit");
    let (status, _) = client.wait_result(job_id).expect("result");
    assert_eq!(status, 200);

    let doc = client.metrics().expect("metrics");
    assert_eq!(doc.get("submitted").unwrap().as_uint(), Some(1));
    assert_eq!(doc.get("completed").unwrap().as_uint(), Some(1));
    assert_eq!(doc.get("queue_depth").unwrap().as_uint(), Some(0));
    assert_eq!(doc.get("max_queue").unwrap().as_uint(), Some(4));
    let latency = doc.get("job_latency_ms").unwrap();
    assert_eq!(latency.get("count").unwrap().as_uint(), Some(1));
    assert!(latency.get("p50").unwrap().as_num().unwrap() > 0.0);
    let cache = doc.get("estimate_cache").unwrap();
    assert!(cache.get("entries").unwrap().as_uint().unwrap() > 0);
    assert!(cache.get("hit_rate").unwrap().as_num().is_some());
    server.shutdown();
}

#[test]
fn evicted_jobs_return_a_distinct_expired_404() {
    let mut server = Server::start(ServeConfig {
        max_queue: 1,
        executors: 0,
        max_finished: 2,
        ..ServeConfig::default()
    })
    .expect("start server");
    let client = Client::new(server.addr());

    // Finish (via cancel) more jobs than the retention bound holds.
    let mut ids = Vec::new();
    for seed in 0..5u64 {
        let (status, doc) = client.submit(&small_body(seed)).expect("submit");
        assert_eq!(status, 202);
        let id = doc.get("job_id").unwrap().as_uint().unwrap();
        let (status, _) = client.cancel(id).expect("cancel");
        assert_eq!(status, 200);
        ids.push(id);
    }

    // The two newest finished jobs are still queryable.
    for id in &ids[3..] {
        let (status, body) = client.get(&format!("/jobs/{id}")).expect("status");
        assert_eq!(status, 200, "{body}");
    }
    // Older ones are gone, with an error distinct from never-issued.
    let (status, body) = client.get(&format!("/jobs/{}", ids[0])).expect("status");
    assert_eq!(status, 404);
    assert!(body.contains("expired"), "{body}");
    let (status, body) = client.get("/jobs/999").expect("status");
    assert_eq!(status, 404);
    assert!(!body.contains("expired"), "{body}");
    server.shutdown();
}

#[test]
fn client_errors_get_client_status_codes() {
    let mut server = Server::start(ServeConfig {
        max_queue: 4,
        executors: 0,
        ..ServeConfig::default()
    })
    .expect("start server");
    let client = Client::new(server.addr());

    let (status, body) = client.post("/jobs", r#"{"tarlets_fps":[10]}"#).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("unknown field"));

    let (status, body) = client.post("/jobs", r#"{"targets_fps":[]}"#).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("targets_fps"), "{body}");

    // ~10^6 nested `[` fits under the body cap; it must be a 400, not a
    // stack overflow that kills the server.
    let (status, body) = client.post("/jobs", &"[".repeat(1_000_000)).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("nesting deeper than"), "{body}");

    let (status, _) = client.get("/jobs/999").unwrap();
    assert_eq!(status, 404);

    let (status, _) = client.get("/jobs/not-a-number").unwrap();
    assert_eq!(status, 400);

    let (status, _) = client.post("/metrics", "").unwrap();
    assert_eq!(status, 405);

    let (status, _) = client.get("/nope").unwrap();
    assert_eq!(status, 404);

    let (status, body) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    assert_eq!(parse(&body).unwrap().get("ok"), Some(&Json::Bool(true)));
    server.shutdown();
}

/// Sends `head` raw from a writer thread (the server may stop reading
/// and close early, so write errors are expected) and reads the
/// response status on this thread.
fn raw_status(addr: std::net::SocketAddr, head: Vec<u8>) -> u16 {
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let sender = thread::spawn(move || {
        let _ = std::io::Write::write_all(&mut writer, &head);
    });
    let status = codesign_serve::http::read_response(&mut std::io::BufReader::new(&stream))
        .expect("response")
        .status;
    let _ = stream.shutdown(std::net::Shutdown::Both);
    sender.join().expect("writer thread");
    status
}

#[test]
fn oversized_request_heads_get_431() {
    use codesign_serve::http::{MAX_HEADERS, MAX_REQUEST_LINE_BYTES};
    let mut server = Server::start(ServeConfig {
        executors: 0,
        ..ServeConfig::default()
    })
    .expect("start server");

    // One 1 MiB header with no newline.
    let mut head = b"GET /healthz HTTP/1.1\r\nx-flood: ".to_vec();
    head.resize(head.len() + (1 << 20), b'a');
    assert_eq!(raw_status(server.addr(), head), 431);

    // One header more than the cap.
    let mut head = String::from("GET /healthz HTTP/1.1\r\n");
    for i in 0..=MAX_HEADERS {
        head.push_str(&format!("x-h{i}: v\r\n"));
    }
    head.push_str("\r\n");
    assert_eq!(raw_status(server.addr(), head.into_bytes()), 431);

    // A request line over its cap.
    let head = format!(
        "GET /{} HTTP/1.1\r\n\r\n",
        "p".repeat(MAX_REQUEST_LINE_BYTES)
    );
    assert_eq!(raw_status(server.addr(), head.into_bytes()), 431);

    // Exactly the header cap is still a request.
    let mut head = String::from("GET /healthz HTTP/1.1\r\n");
    for i in 0..MAX_HEADERS {
        head.push_str(&format!("x-h{i}: v\r\n"));
    }
    head.push_str("\r\n");
    assert_eq!(raw_status(server.addr(), head.into_bytes()), 200);

    let (status, body) = Client::new(server.addr()).get("/healthz").unwrap();
    assert_eq!(status, 200);
    assert_eq!(parse(&body).unwrap().get("ok"), Some(&Json::Bool(true)));
    server.shutdown();
}

#[test]
fn a_stalled_request_gets_408_and_frees_its_handler() {
    use codesign_serve::http::{read_response, REQUEST_TIMEOUT};
    use std::io::Write;
    use std::time::{Duration, Instant};
    let mut server = Server::start(ServeConfig {
        executors: 0,
        ..ServeConfig::default()
    })
    .expect("start server");

    // Half a head: no blank line ever ends it.
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(REQUEST_TIMEOUT * 4))
        .expect("set read timeout");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: stalled\r\n")
        .expect("send half a head");
    let sent = Instant::now();
    let answer =
        read_response(&mut std::io::BufReader::new(&stream)).expect("an answer, not a hang");
    let waited = sent.elapsed();
    assert_eq!(
        answer.status,
        408,
        "{}",
        String::from_utf8_lossy(&answer.body)
    );
    assert!(answer.close, "a 408 ends the connection");
    assert!(
        waited >= REQUEST_TIMEOUT - Duration::from_millis(100),
        "answered after {waited:?}, before the client stalled long enough"
    );

    let (status, body) = Client::new(server.addr()).get("/healthz").unwrap();
    assert_eq!(status, 200, "{body}");
    server.shutdown();
}

#[test]
fn sharded_jobs_serve_bytes_identical_to_in_process_jobs() {
    // `codesign-serve` itself is the worker binary: its `main` calls
    // `codesign_shard::maybe_run_worker()` before the server starts.
    let mut server = Server::start(ServeConfig {
        max_queue: 4,
        executors: 1,
        shards: 2,
        worker_exe: Some(env!("CARGO_BIN_EXE_codesign-serve").into()),
        ..ServeConfig::default()
    })
    .expect("start server");
    let client = Client::new(server.addr());
    let job_id = client.submit_job(&small_body(41)).expect("submit");
    let (status, served) = client.wait_result(job_id).expect("result");
    assert_eq!(status, 200, "{served}");
    let direct = CoDesignFlow::new(small_config(41)).run().unwrap();
    assert_eq!(
        served,
        flow_result_body(&direct),
        "sharded execution changed the served bytes"
    );
    server.shutdown();
}

#[test]
fn sharded_job_with_a_broken_worker_fails_gracefully() {
    // A worker exe that cannot spawn must fail the job — not the
    // executor, not the server.
    let mut server = Server::start(ServeConfig {
        max_queue: 4,
        executors: 1,
        shards: 2,
        worker_exe: Some("/nonexistent/codesign-shard-worker".into()),
        ..ServeConfig::default()
    })
    .expect("start server");
    let client = Client::new(server.addr());
    let job_id = client.submit_job(&small_body(42)).expect("submit");
    let lines = client.events(job_id).expect("events");
    let last = lines.last().expect("terminal event");
    assert!(last.contains("\"failed\""), "{last}");
    assert!(last.contains("sharded search failed"), "{last}");
    let (status, _) = client.get(&format!("/jobs/{job_id}/result")).unwrap();
    assert_eq!(status, 409, "a failed job has no result");
    // The executor survived: the server still answers.
    let (status, body) = client.get("/healthz").unwrap();
    assert_eq!(status, 200, "{body}");
    server.shutdown();
}

/// Opens a raw connection that fails rather than hangs if the server
/// never answers.
fn raw_connection(addr: std::net::SocketAddr) -> std::net::TcpStream {
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("set read timeout");
    stream
}

#[test]
fn sequential_client_requests_share_one_connection() {
    const REQUESTS: u64 = 20;
    let mut server = Server::start(ServeConfig {
        executors: 0,
        ..ServeConfig::default()
    })
    .expect("start server");
    let client = Client::new(server.addr());
    for _ in 1..REQUESTS {
        let (status, body) = client.get("/healthz").expect("healthz");
        assert_eq!(status, 200, "{body}");
    }
    // The last request reads the counters, itself included.
    let http = client.metrics().expect("metrics").get("http").cloned();
    let http = http.expect("`/metrics` has an `http` section");
    assert_eq!(http.get("connections").unwrap().as_uint(), Some(1));
    assert_eq!(http.get("requests").unwrap().as_uint(), Some(REQUESTS));
    server.shutdown();
}

#[test]
fn two_requests_in_one_write_are_answered_in_order() {
    use codesign_serve::http::read_response;
    use std::io::{BufReader, Read, Write};
    let mut server = Server::start(ServeConfig {
        executors: 0,
        ..ServeConfig::default()
    })
    .expect("start server");
    let mut stream = raw_connection(server.addr());
    stream
        .write_all(
            b"GET /nope HTTP/1.1\r\nhost: test\r\n\r\n\
              GET /healthz HTTP/1.1\r\nhost: test\r\nconnection: close\r\n\r\n",
        )
        .expect("send both requests");
    let mut reader = BufReader::new(&stream);
    let first = read_response(&mut reader).expect("first answer");
    assert_eq!(
        first.status,
        404,
        "{}",
        String::from_utf8_lossy(&first.body)
    );
    assert!(!first.close, "the first answer keeps the connection open");
    let second = read_response(&mut reader).expect("second answer");
    assert_eq!(
        second.status,
        200,
        "{}",
        String::from_utf8_lossy(&second.body)
    );
    assert!(second.close, "the second request asked to close");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("end of stream");
    assert!(rest.is_empty(), "{}", String::from_utf8_lossy(&rest));
    server.shutdown();
}

#[test]
fn a_request_that_asks_to_close_gets_an_answer_then_eof() {
    use codesign_serve::http::{read_response, KEEP_ALIVE_IDLE};
    use std::io::{BufReader, Read, Write};
    use std::time::Instant;
    let mut server = Server::start(ServeConfig {
        executors: 0,
        ..ServeConfig::default()
    })
    .expect("start server");
    for request in [
        "GET /healthz HTTP/1.1\r\nhost: test\r\nconnection: close\r\n\r\n",
        "GET /healthz HTTP/1.0\r\n\r\n",
    ] {
        let mut stream = raw_connection(server.addr());
        stream.write_all(request.as_bytes()).expect("send request");
        let mut reader = BufReader::new(&stream);
        let answer = read_response(&mut reader).expect("an answer");
        assert_eq!(answer.status, 200, "{request:?}");
        assert!(answer.close, "{request:?}: no `connection: close`");
        let answered = Instant::now();
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).expect("end of stream");
        assert!(rest.is_empty(), "{}", String::from_utf8_lossy(&rest));
        // Well before an idle connection would time out.
        assert!(
            answered.elapsed() < KEEP_ALIVE_IDLE / 2,
            "{request:?}: closed after {:?}",
            answered.elapsed()
        );
    }
    server.shutdown();
}

#[test]
fn a_client_that_pauses_past_the_idle_limit_retries_on_a_new_connection() {
    use codesign_serve::http::KEEP_ALIVE_IDLE;
    use std::sync::atomic::Ordering;
    use std::time::Duration;
    let mut server = Server::start(ServeConfig {
        executors: 0,
        ..ServeConfig::default()
    })
    .expect("start server");
    let client = Client::new(server.addr());
    let (status, _) = client.get("/healthz").expect("healthz");
    assert_eq!(status, 200);
    // The server closes the client's idle connection meanwhile.
    thread::sleep(KEEP_ALIVE_IDLE + Duration::from_secs(1));
    let (status, body) = client
        .get("/healthz")
        .expect("a closed idle connection is retried");
    assert_eq!(status, 200, "{body}");
    let metrics = server.scheduler().metrics();
    assert_eq!(metrics.http_connections.load(Ordering::Relaxed), 2);
    assert_eq!(metrics.http_requests.load(Ordering::Relaxed), 2);
    server.shutdown();
}

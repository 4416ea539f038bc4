//! The connection-handler pool against a live server: handlers are
//! reused, never more than `MAX_HANDLERS` are live, an idle connection
//! gives its handler back, and a stopped server leaves none behind.
//!
//! These tests count the process's `serve-conn` threads through
//! `/proc/self/task`, so they live in their own test binary, where no
//! other test's server runs, and take [`SERIAL`] so they never overlap
//! each other either.
#![cfg(target_os = "linux")]

use codesign_serve::http::{read_response, KEEP_ALIVE_IDLE, MAX_HANDLERS};
use codesign_serve::job::ServeConfig;
use codesign_serve::{Client, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

/// Live threads of this process named `serve-conn`.
fn handler_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(Result::ok)
        .filter(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .is_ok_and(|comm| comm.trim_end() == "serve-conn")
        })
        .count()
}

/// Waits up to `within` for every `serve-conn` thread to exit and
/// returns how many are left.
fn handlers_after(within: Duration) -> usize {
    let deadline = Instant::now() + within;
    while handler_threads() > 0 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(5));
    }
    handler_threads()
}

/// Takes [`SERIAL`] once the previous test's handlers are gone.
fn serial() -> MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    assert_eq!(
        handlers_after(Duration::from_secs(5)),
        0,
        "a previous test's handlers are still alive"
    );
    guard
}

/// Connects and sends `GET path` with `connection: close` in one
/// write, failing rather than hanging if the server never answers.
fn send_get(addr: SocketAddr, path: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    let request = format!(
        "GET {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: 0\r\nconnection: close\r\n\r\n"
    );
    stream.write_all(request.as_bytes()).expect("send request");
    stream
}

#[test]
fn sequential_requests_reuse_a_few_handlers() {
    let _serial = serial();
    let mut server = Server::start(ServeConfig {
        executors: 0,
        ..ServeConfig::default()
    })
    .expect("start server");
    let mut most = 0;
    // A fresh connection each time, so the pool, not the connection,
    // is what gets reused.
    for _ in 0..200 {
        let stream = send_get(server.addr(), "/healthz");
        let answer = read_response(&mut BufReader::new(&stream)).expect("healthz");
        assert_eq!(answer.status, 200);
        assert!(answer.close);
        most = most.max(handler_threads());
        // A short pause, as a real client's think time gives: back to
        // back on a loaded host, a handler descheduled between answering
        // and parking makes the next connection start another.
        thread::sleep(Duration::from_millis(1));
    }
    assert!(
        most <= 4,
        "200 sequential requests kept {most} handler threads alive"
    );
    server.shutdown();
}

#[test]
fn every_handler_busy_gets_503_with_retry_after() {
    let _serial = serial();
    // executors: 0 keeps the job queued, so each event stream holds its
    // handler until the job is cancelled.
    let mut server = Server::start(ServeConfig {
        executors: 0,
        ..ServeConfig::default()
    })
    .expect("start server");
    let addr = server.addr();
    let job_id = Client::new(addr)
        .submit_job(r#"{"targets_fps":[15.0]}"#)
        .expect("submit");

    let path = format!("/jobs/{job_id}/events");
    let mut streams = Vec::new();
    for _ in 0..MAX_HANDLERS {
        let mut reader = BufReader::new(send_get(addr, &path));
        let mut status_line = String::new();
        reader.read_line(&mut status_line).expect("stream head");
        assert!(status_line.starts_with("HTTP/1.1 200"), "{status_line}");
        streams.push(reader);
    }
    assert_eq!(handler_threads(), MAX_HANDLERS);

    let mut refused = String::new();
    send_get(addr, "/healthz")
        .read_to_string(&mut refused)
        .expect("answer from a full server");
    assert!(refused.starts_with("HTTP/1.1 503 "), "{refused}");
    assert!(refused.contains("\r\nretry-after: 1\r\n"), "{refused}");
    assert!(handler_threads() <= MAX_HANDLERS);

    server.scheduler().cancel(job_id).expect("job is tracked");
    for mut reader in streams {
        let mut rest = String::new();
        reader.read_to_string(&mut rest).expect("stream end");
        assert!(rest.contains("\"cancelled\""), "{rest}");
    }
    let (status, body) = Client::new(addr).get("/healthz").expect("healthz");
    assert_eq!(status, 200, "{body}");
    server.shutdown();
}

#[test]
fn shutdown_releases_idle_handlers() {
    let _serial = serial();
    let mut server = Server::start(ServeConfig {
        executors: 0,
        ..ServeConfig::default()
    })
    .expect("start server");
    let addr = server.addr();
    // Four connections at once start up to four handlers, which park
    // once their requests are answered.
    let open: Vec<TcpStream> = (0..4).map(|_| send_get(addr, "/healthz")).collect();
    for stream in open {
        let answer = read_response(&mut BufReader::new(&stream)).expect("healthz");
        assert_eq!(answer.status, 200);
    }
    assert!(handler_threads() > 0, "idle handlers park for their TTL");

    server.shutdown();
    assert_eq!(
        handlers_after(Duration::from_secs(1)),
        0,
        "idle handlers outlived the server by a second"
    );
}

#[test]
fn an_idle_connection_closes_silently_and_its_handler_serves_the_next() {
    let _serial = serial();
    let mut server = Server::start(ServeConfig {
        executors: 0,
        ..ServeConfig::default()
    })
    .expect("start server");
    let addr = server.addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    let request = format!("GET /healthz HTTP/1.1\r\nhost: {addr}\r\n\r\n");
    stream.write_all(request.as_bytes()).expect("send request");
    let mut reader = BufReader::new(&stream);
    let answer = read_response(&mut reader).expect("healthz");
    assert_eq!(answer.status, 200);
    assert!(!answer.close, "a keep-alive request keeps the connection");
    let answered = Instant::now();
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("the server closes");
    let idled = answered.elapsed();
    assert!(
        rest.is_empty(),
        "an idle close writes nothing: {}",
        String::from_utf8_lossy(&rest)
    );
    assert!(
        idled >= KEEP_ALIVE_IDLE - Duration::from_millis(50),
        "closed after {idled:?}, before the idle limit"
    );
    assert!(
        idled < KEEP_ALIVE_IDLE + Duration::from_secs(2),
        "closed after {idled:?}"
    );

    // The handler went back to the pool: the next connection reuses it.
    thread::sleep(Duration::from_millis(50));
    let next = send_get(addr, "/healthz");
    let answer = read_response(&mut BufReader::new(&next)).expect("healthz");
    assert_eq!(answer.status, 200);
    assert_eq!(
        handler_threads(),
        1,
        "the next connection needed a new handler"
    );
    server.shutdown();
}

#[test]
fn a_live_client_leaves_no_handler_after_shutdown() {
    let _serial = serial();
    let mut server = Server::start(ServeConfig {
        executors: 0,
        ..ServeConfig::default()
    })
    .expect("start server");
    let client = Client::new(server.addr());
    let (status, body) = client.get("/healthz").expect("healthz");
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        handler_threads(),
        1,
        "the client's idle connection holds a handler"
    );

    server.shutdown();
    assert_eq!(
        handlers_after(Duration::from_secs(1)),
        0,
        "a handler outlived the server by a second"
    );
    drop(client);
}

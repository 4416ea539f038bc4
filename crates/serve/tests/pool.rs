//! The connection-handler pool against a live server: handlers are
//! reused, never more than `MAX_HANDLERS` are live, and a stopped
//! server leaves none behind.
//!
//! These tests count the process's `serve-conn` threads through
//! `/proc/self/task`, so they live in their own test binary, where no
//! other test's server runs, and take [`SERIAL`] so they never overlap
//! each other either.
#![cfg(target_os = "linux")]

use codesign_serve::http::{read_response, MAX_HANDLERS};
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

/// Connects and sends `GET path` in one write, failing rather than
/// hanging if the server never answers.
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
    let client = Client::new(server.addr());
    let mut most = 0;
    for _ in 0..200 {
        let (status, body) = client.get("/healthz").expect("healthz");
        assert_eq!(status, 200, "{body}");
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
    for mut stream in open {
        let (status, _) = read_response(&mut stream).expect("healthz");
        assert_eq!(status, 200);
    }
    assert!(handler_threads() > 0, "idle handlers park for their TTL");

    server.shutdown();
    assert_eq!(
        handlers_after(Duration::from_secs(1)),
        0,
        "idle handlers outlived the server by a second"
    );
}

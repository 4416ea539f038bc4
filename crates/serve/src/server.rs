//! The HTTP front end: accept loop, routing, and the streaming events
//! endpoint.
//!
//! # Wire protocol
//!
//! A connection carries any number of requests, answered in order. A
//! response ends the connection, and carries `connection: close`, only
//! when the request asked for that or was HTTP/1.0, when it could not
//! be read (400, 408, 431), for the accept loop's 503, for
//! `/admin/shutdown`, and once the server is shutting down. Between
//! requests a handler waits at most [`KEEP_ALIVE_IDLE`], then closes
//! the connection without writing anything. Endpoints:
//!
//! | Method | Path                  | Response |
//! |--------|-----------------------|----------|
//! | POST   | `/jobs`               | `202 {"job_id":N,"status":"queued"}`, `400` on bad request, `429` + `Retry-After` when the queue is full, `503` + `Retry-After` while shutting down. Body may carry `deadline_ms` alongside the flow fields. |
//! | GET    | `/jobs/<id>`          | `200` status document; `404` for unknown ids, with a distinct "expired" error for finished jobs evicted under the retention bound |
//! | GET    | `/jobs/<id>/events`   | `200` chunked NDJSON progress stream, one event per line, each batch of new events one chunk, ends when the job finishes |
//! | POST   | `/jobs/<id>/cancel`   | `200 {"job_id":N,"cancel":"..."}` |
//! | GET    | `/jobs/<id>/result`   | `200` result body, `409` until completed |
//! | GET    | `/metrics`            | `200` counters + latency percentiles + cache stats + store health |
//! | GET    | `/healthz`            | `200` per-subsystem health: `{"ok":B,"status":"ok|degraded","subsystems":{...}}` |
//! | POST   | `/admin/shutdown`     | `200`, begins graceful shutdown (body: `{"policy":"drain"\|"cancel"}`, default drain) |
//! | any    | any                   | `503` + `Retry-After` when every handler is busy: all [`MAX_HANDLERS`](crate::http::MAX_HANDLERS) are serving connections. The accept loop answers before reading the request. |
//! | any    | any                   | `408` on a stalled request: head and body not received within [`REQUEST_TIMEOUT`] |
//!
//! Any request whose head breaks a limit of [`crate::http`] (request
//! line, header line, header count or total header bytes) gets `431`.
//! Every error body is `{"error":"<message>"}`.

use crate::http::{
    is_timeout, read_request, write_json_response, ChunkedWriter, HeadTooLarge, Request,
    CONNECTION_CLOSE, KEEP_ALIVE_IDLE, REQUEST_TIMEOUT, WRITE_TIMEOUT,
};
use crate::job::{CancelOutcome, JobLookup, Scheduler, ServeConfig, ShutdownPolicy, SubmitError};
use crate::json::Json;
use crate::pool::HandlerPool;
use crate::request::job_request_from_body;
use codesign_faults::FaultAction;
use std::io::{self, BufRead, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

fn error_body(message: &str) -> String {
    Json::Obj(vec![("error".to_string(), Json::str(message))]).encode()
}

/// Suggested client back-off, one second, attached to 429 (queue
/// full) and 503 (shutting down, or every handler busy) responses.
const RETRY_AFTER: (&str, &str) = ("retry-after", "1");

/// Coordination between request handlers and the thread that owns the
/// [`Server`]: `POST /admin/shutdown` records the requested policy and
/// wakes [`Server::wait_shutdown_requested`].
struct ServerControl {
    requested: Mutex<Option<ShutdownPolicy>>,
    cv: Condvar,
}

impl ServerControl {
    fn new() -> Self {
        Self {
            requested: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    /// Records a shutdown request. The first policy wins; later
    /// requests are ignored (matching the scheduler's semantics).
    fn request(&self, policy: ShutdownPolicy) {
        let mut slot = self.requested.lock().unwrap();
        if slot.is_none() {
            *slot = Some(policy);
        }
        self.cv.notify_all();
    }

    fn wait(&self) -> ShutdownPolicy {
        let mut slot = self.requested.lock().unwrap();
        loop {
            if let Some(policy) = *slot {
                return policy;
            }
            slot = self.cv.wait(slot).unwrap();
        }
    }

    fn wait_timeout(&self, timeout: Duration) -> Option<ShutdownPolicy> {
        let mut slot = self.requested.lock().unwrap();
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if let Some(policy) = *slot {
                return Some(policy);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, _) = self.cv.wait_timeout(slot, deadline - now).unwrap();
            slot = next;
        }
    }
}

/// A running job server bound to a local address.
///
/// Dropping (or [`shutdown`](Server::shutdown)) stops the accept loop,
/// cancels all jobs, and joins the executors.
pub struct Server {
    scheduler: Arc<Scheduler>,
    addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    control: Arc<ServerControl>,
}

impl Server {
    /// Binds an ephemeral port on localhost and starts serving.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn start(config: ServeConfig) -> io::Result<Self> {
        Self::bind("127.0.0.1:0", config)
    }

    /// Binds `addr` and starts serving.
    ///
    /// # Errors
    ///
    /// Propagates bind errors; estimate-store open failures (when
    /// [`ServeConfig::store`] is set) surface as `InvalidData`.
    pub fn bind(addr: &str, config: ServeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let scheduler = Scheduler::try_new(config)
            .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err.to_string()))?;
        let scheduler = Arc::new(scheduler);
        let stopping = Arc::new(AtomicBool::new(false));
        let control = Arc::new(ServerControl::new());
        let accept_thread = {
            let scheduler = Arc::clone(&scheduler);
            let stopping = Arc::clone(&stopping);
            let control = Arc::clone(&control);
            thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || {
                    let pool = HandlerPool::new(move |stream| {
                        handle_connection(stream, &scheduler, &control)
                    });
                    for stream in listener.incoming() {
                        if stopping.load(Ordering::Relaxed) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        if let Some(mut busy) = pool.dispatch(stream) {
                            // A fresh socket's send buffer takes this
                            // small answer whole, so the write cannot
                            // stall the accept loop. The request goes
                            // unread; sending FIN before the close
                            // lets the client read the answer to its
                            // end rather than hit a reset.
                            let _ = write_json_response(
                                &mut busy,
                                503,
                                &[RETRY_AFTER, CONNECTION_CLOSE],
                                &error_body("every connection handler is busy"),
                            );
                            let _ = busy.shutdown(Shutdown::Write);
                        }
                    }
                    // Dropping the pool here releases its idle handlers.
                })
                .expect("spawn accept loop")
        };
        Ok(Self {
            scheduler,
            addr,
            stopping,
            accept_thread: Some(accept_thread),
            control,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The scheduler behind this server (for in-process inspection).
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.scheduler
    }

    /// Blocks until a client requests shutdown via
    /// `POST /admin/shutdown`, returning the requested policy. The
    /// scheduler has already stopped admitting jobs by the time this
    /// returns; the caller finishes the job with
    /// [`shutdown_with`](Server::shutdown_with).
    pub fn wait_shutdown_requested(&self) -> ShutdownPolicy {
        self.control.wait()
    }

    /// [`wait_shutdown_requested`](Server::wait_shutdown_requested)
    /// with a timeout; `None` if no request arrived in time.
    pub fn wait_shutdown_requested_timeout(&self, timeout: Duration) -> Option<ShutdownPolicy> {
        self.control.wait_timeout(timeout)
    }

    /// Stops accepting connections, cancels all jobs, and joins the
    /// accept loop and executors. Idempotent.
    pub fn shutdown(&mut self) {
        self.shutdown_with(ShutdownPolicy::Cancel);
    }

    /// Stops accepting connections, then shuts the scheduler down under
    /// `policy` ([`ShutdownPolicy::Drain`] finishes queued work first),
    /// persists the estimate store, and joins every thread. Idempotent;
    /// the first call's policy wins.
    pub fn shutdown_with(&mut self, policy: ShutdownPolicy) {
        if self.stopping.swap(true, Ordering::Relaxed) {
            return;
        }
        // Refuse new work before the listener closes so in-flight
        // submissions see 503 rather than a connection reset.
        self.scheduler.begin_shutdown(policy);
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        self.scheduler.shutdown_with(policy);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Where a handler writes its answer to one request: the connection,
/// and whether this answer is the connection's last. A closing answer
/// carries `connection: close`.
struct Reply<'a> {
    stream: &'a TcpStream,
    close: bool,
}

impl<'a> Reply<'a> {
    fn json(&mut self, status: u16, body: &str) -> io::Result<()> {
        self.json_with(status, &[], body)
    }

    fn json_with(&mut self, status: u16, headers: &[(&str, &str)], body: &str) -> io::Result<()> {
        if self.close {
            let mut headers = headers.to_vec();
            headers.push(CONNECTION_CLOSE);
            write_json_response(&mut self.stream, status, &headers, body)
        } else {
            write_json_response(&mut self.stream, status, headers, body)
        }
    }

    fn chunked(&mut self, status: u16) -> io::Result<ChunkedWriter<'_, &'a TcpStream>> {
        let headers: &[(&str, &str)] = if self.close { &[CONNECTION_CLOSE] } else { &[] };
        ChunkedWriter::start(&mut self.stream, status, headers)
    }
}

/// Serves requests on one connection until it closes, ends with a
/// closing answer, or idles past [`KEEP_ALIVE_IDLE`].
fn handle_connection(stream: TcpStream, scheduler: &Scheduler, control: &ServerControl) {
    let metrics = scheduler.metrics();
    metrics.http_connections.fetch_add(1, Ordering::Relaxed);
    // Responses are written whole, so Nagle's algorithm only delays
    // them; the timeouts keep a stalled client from pinning a handler.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    // One reader for the whole connection, so requests a client sends
    // ahead of their answers stay buffered for the next read.
    let mut reader = BufReader::new(&stream);
    loop {
        // Fault site `serve.conn.drop`: sever the connection before
        // reading a request, exactly what a flaky network or dying peer
        // looks like.
        if let Some(plan) = scheduler.fault_plan() {
            if plan.decide("serve.conn.drop") == FaultAction::DropConnection {
                return;
            }
        }
        let _ = stream.set_read_timeout(Some(REQUEST_TIMEOUT));
        let request = match read_request(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => return,
            Err(err) => {
                let status = if HeadTooLarge::of(&err).is_some() {
                    431
                } else if is_timeout(&err) {
                    408
                } else {
                    400
                };
                metrics.http_requests.fetch_add(1, Ordering::Relaxed);
                let mut reply = Reply {
                    stream: &stream,
                    close: true,
                };
                let _ = reply.json(status, &error_body(&err.to_string()));
                return;
            }
        };
        metrics.http_requests.fetch_add(1, Ordering::Relaxed);
        let mut reply = Reply {
            stream: &stream,
            close: !request.keep_alive || scheduler.is_shutting_down(),
        };
        if route(&mut reply, &request, scheduler, control).is_err() || reply.close {
            return;
        }
        if reader.buffer().is_empty() {
            // Wait for the next request. Closing unanswered is safe: the
            // client has sent nothing since its last answer.
            let _ = stream.set_read_timeout(Some(KEEP_ALIVE_IDLE));
            if !matches!(reader.fill_buf(), Ok(next) if !next.is_empty()) {
                return;
            }
        }
    }
}

fn route(
    reply: &mut Reply,
    request: &Request,
    scheduler: &Scheduler,
    control: &ServerControl,
) -> io::Result<()> {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("POST", ["jobs"]) => submit_job(reply, request, scheduler),
        ("GET", ["jobs", id]) => with_job(reply, scheduler, id, |reply, _, job| {
            reply.json(200, &job.status_json().encode())
        }),
        ("GET", ["jobs", id, "events"]) => with_job(reply, scheduler, id, |reply, _, job| {
            let mut writer = reply.chunked(200)?;
            let mut cursor = 0usize;
            loop {
                let (lines, terminal) = job.events_from(cursor);
                cursor += lines.len();
                writer.lines(&lines, terminal)?;
                if terminal {
                    return Ok(());
                }
            }
        }),
        ("POST", ["jobs", id, "cancel"]) => {
            with_job(reply, scheduler, id, |reply, scheduler, job| {
                let outcome = match scheduler.cancel(job.id) {
                    Some(CancelOutcome::DequeuedAndCancelled) => "cancelled",
                    Some(CancelOutcome::SignalledRunning) => "cancelling",
                    Some(CancelOutcome::AlreadyFinished(phase)) => phase.as_str(),
                    None => unreachable!("job was just looked up"),
                };
                let body = Json::Obj(vec![
                    ("job_id".to_string(), Json::num(job.id as f64)),
                    ("cancel".to_string(), Json::str(outcome)),
                ])
                .encode();
                reply.json(200, &body)
            })
        }
        ("GET", ["jobs", id, "result"]) => {
            with_job(reply, scheduler, id, |reply, _, job| {
                match job.result_body() {
                    Some(body) => reply.json(200, &body),
                    None => {
                        let phase = job.phase();
                        reply.json(
                            409,
                            &error_body(&format!(
                                "job is {}, result not available",
                                phase.as_str()
                            )),
                        )
                    }
                }
            })
        }
        ("GET", ["metrics"]) => {
            let body = scheduler
                .metrics()
                .to_json(
                    scheduler.queue_depth(),
                    scheduler.max_queue(),
                    scheduler.cache(),
                    scheduler.store_json(),
                )
                .encode();
            reply.json(200, &body)
        }
        ("GET", ["healthz"]) => reply.json(200, &healthz_body(scheduler)),
        ("POST", ["admin", "shutdown"]) => admin_shutdown(reply, request, scheduler, control),
        (_, ["jobs"])
        | (_, ["jobs", ..])
        | (_, ["metrics"])
        | (_, ["healthz"])
        | (_, ["admin", "shutdown"]) => reply.json(405, &error_body("method not allowed")),
        _ => reply.json(404, &error_body("no such endpoint")),
    }
}

/// Per-subsystem health document. The top-level `ok`/`status` roll up
/// the subsystems: a degraded store or a shutting-down scheduler makes
/// the whole server report degraded, so load balancers stop routing to
/// it while existing clients keep getting answers.
fn healthz_body(scheduler: &Scheduler) -> String {
    let shutting_down = scheduler.is_shutting_down();
    let store_degraded = scheduler.store_degraded();
    let scheduler_status = if shutting_down { "shutting_down" } else { "ok" };
    let store_status = match (scheduler.has_store(), &store_degraded) {
        (false, _) => "absent",
        (true, Some(_)) => "degraded",
        (true, None) => "ok",
    };
    let ok = !shutting_down && store_degraded.is_none();
    let mut store_fields = vec![("status".to_string(), Json::str(store_status))];
    if let Some(reason) = &store_degraded {
        store_fields.push(("reason".to_string(), Json::str(reason)));
    }
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(ok)),
        (
            "status".to_string(),
            Json::str(if ok { "ok" } else { "degraded" }),
        ),
        (
            "subsystems".to_string(),
            Json::Obj(vec![
                (
                    "scheduler".to_string(),
                    Json::Obj(vec![("status".to_string(), Json::str(scheduler_status))]),
                ),
                ("store".to_string(), Json::Obj(store_fields)),
            ]),
        ),
    ])
    .encode()
}

/// `POST /admin/shutdown`: stop admitting jobs under the requested
/// policy (body `{"policy":"drain"|"cancel"}`, default drain), answer
/// 200, and wake the thread blocked in
/// [`Server::wait_shutdown_requested`] to finish the join. The answer
/// closes the connection.
fn admin_shutdown(
    reply: &mut Reply,
    request: &Request,
    scheduler: &Scheduler,
    control: &ServerControl,
) -> io::Result<()> {
    reply.close = true;
    let body = match request.body_text() {
        Ok(body) => body.trim(),
        Err(err) => return reply.json(400, &error_body(&err)),
    };
    let policy = if body.is_empty() || body == "{}" {
        ShutdownPolicy::Drain
    } else {
        let doc = match crate::json::parse(body) {
            Ok(doc) => doc,
            Err(err) => return reply.json(400, &error_body(&format!("invalid JSON: {err}"))),
        };
        match doc.get("policy").and_then(Json::as_str) {
            Some("drain") => ShutdownPolicy::Drain,
            Some("cancel") => ShutdownPolicy::Cancel,
            _ => {
                return reply.json(
                    400,
                    &error_body("field `policy` must be \"drain\" or \"cancel\""),
                )
            }
        }
    };
    // Stop admissions *before* answering so a client that sees the 200
    // can rely on every later submission being refused with 503.
    scheduler.begin_shutdown(policy);
    let policy_str = match policy {
        ShutdownPolicy::Drain => "drain",
        ShutdownPolicy::Cancel => "cancel",
    };
    let body = Json::Obj(vec![
        ("shutdown".to_string(), Json::str("begun")),
        ("policy".to_string(), Json::str(policy_str)),
    ])
    .encode();
    let result = reply.json(200, &body);
    control.request(policy);
    result
}

fn submit_job(reply: &mut Reply, request: &Request, scheduler: &Scheduler) -> io::Result<()> {
    let body = match request.body_text() {
        Ok(body) if !body.trim().is_empty() => body,
        Ok(_) => "{}",
        Err(err) => return reply.json(400, &error_body(&err)),
    };
    let parsed = match job_request_from_body(body) {
        Ok(parsed) => parsed,
        Err(err) => return reply.json(400, &error_body(&err)),
    };
    match scheduler.submit_request(parsed.config, parsed.deadline_ms) {
        Ok(job) => {
            let body = Json::Obj(vec![
                ("job_id".to_string(), Json::num(job.id as f64)),
                ("status".to_string(), Json::str(job.phase().as_str())),
            ])
            .encode();
            reply.json(202, &body)
        }
        Err(err @ SubmitError::QueueFull { max_queue }) => {
            let body = Json::Obj(vec![
                ("error".to_string(), Json::str(err.to_string())),
                ("max_queue".to_string(), Json::num(max_queue as f64)),
            ])
            .encode();
            reply.json_with(429, &[RETRY_AFTER], &body)
        }
        Err(err @ SubmitError::ShuttingDown) => {
            reply.json_with(503, &[RETRY_AFTER], &error_body(&err.to_string()))
        }
    }
}

fn with_job(
    reply: &mut Reply,
    scheduler: &Scheduler,
    id: &str,
    then: impl FnOnce(&mut Reply, &Scheduler, &crate::job::Job) -> io::Result<()>,
) -> io::Result<()> {
    let Ok(id) = id.parse::<u64>() else {
        return reply.json(400, &error_body("job id must be an integer"));
    };
    match scheduler.lookup(id) {
        JobLookup::Found(job) => then(reply, scheduler, &job),
        JobLookup::Expired => reply.json(
            404,
            &error_body(&format!(
                "job {id} expired: finished jobs are retained up to the \
                 configured bound, and this one has been evicted"
            )),
        ),
        JobLookup::Unknown => reply.json(404, &error_body(&format!("no job {id}"))),
    }
}

//! A small blocking HTTP client for the job server, used by the
//! integration tests, the serve bench, and `examples/serve_demo.rs`.
//!
//! Requests reuse open connections: a client keeps up to four
//! connections whose last answer left them open, shared by its clones,
//! and takes one per request. The server closes a connection only
//! between requests, so a reused connection that fails before any byte
//! of the answer arrives lost a request the server never read, and
//! the client sends it once more on a fresh connection. The events
//! helper blocks until the job's stream ends, which doubles as "wait
//! for the job to finish".

use crate::http::{read_response, Response};
use crate::json::{parse, Json};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Most idle connections a [`Client`] keeps open for reuse. Each one
/// holds a server handler until the server's
/// [`KEEP_ALIVE_IDLE`](crate::http::KEEP_ALIVE_IDLE) runs out, so a
/// client keeps only as many as it has requests in flight at once, up
/// to this bound.
const MAX_IDLE: usize = 4;

/// An open connection with its read buffer.
type Connection = BufReader<TcpStream>;

/// Blocking client bound to one server address. Clones share the idle
/// connections.
#[derive(Debug, Clone)]
pub struct Client {
    addr: SocketAddr,
    idle: Arc<Mutex<Vec<Connection>>>,
}

impl Client {
    /// A client for the server at `addr`.
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            idle: Arc::default(),
        }
    }

    /// The idle connections. Nothing panics while holding the lock, so
    /// a poisoned one still guards a valid list.
    fn idle(&self) -> MutexGuard<'_, Vec<Connection>> {
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn connect(&self) -> io::Result<Connection> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        Ok(BufReader::new(stream))
    }

    /// Sends `wire` on `conn` and reads the answer, keeping the
    /// connection for reuse unless the answer closes it. An error comes
    /// with whether any byte of the answer had arrived.
    fn exchange(&self, mut conn: Connection, wire: &[u8]) -> Result<Response, (io::Error, bool)> {
        // One write: a server that refuses the connection unread (503,
        // every handler busy) resets it, and a second write would fail
        // before the answer is read.
        let answered = conn
            .get_mut()
            .write_all(wire)
            .and_then(|()| conn.fill_buf().map(|answer| !answer.is_empty()));
        match answered {
            Ok(true) => {}
            Ok(false) => {
                let closed = io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before the response",
                );
                return Err((closed, false));
            }
            Err(err) => return Err((err, false)),
        }
        let response = read_response(&mut conn).map_err(|err| (err, true))?;
        if !response.close {
            let mut idle = self.idle();
            if idle.len() < MAX_IDLE {
                idle.push(conn);
            }
        }
        Ok(response)
    }

    fn request(&self, method: &str, path: &str, body: Option<&str>) -> io::Result<(u16, String)> {
        let body = body.unwrap_or("");
        let mut wire = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\n\r\n",
            self.addr,
            body.len()
        );
        wire.push_str(body);
        let reused = self.idle().pop();
        let response = match reused.map(|conn| self.exchange(conn, wire.as_bytes())) {
            // The reused connection closed before answering, so the
            // server never read this request: send it once more.
            None | Some(Err((_, false))) => self.exchange(self.connect()?, wire.as_bytes()),
            Some(done) => done,
        }
        .map_err(|(err, _)| err)?;
        let text = String::from_utf8(response.body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response"))?;
        Ok((response.status, text))
    }

    /// `GET path` → `(status, body)`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn get(&self, path: &str) -> io::Result<(u16, String)> {
        self.request("GET", path, None)
    }

    /// `POST path` with a JSON body → `(status, body)`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn post(&self, path: &str, body: &str) -> io::Result<(u16, String)> {
        self.request("POST", path, Some(body))
    }

    /// Submits a job. Returns `(status, parsed body)`; on `202` the body
    /// carries `job_id`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; an unparseable body surfaces as
    /// `InvalidData`.
    pub fn submit(&self, request_body: &str) -> io::Result<(u16, Json)> {
        let (status, body) = self.post("/jobs", request_body)?;
        let doc = parse(&body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad body: {e}")))?;
        Ok((status, doc))
    }

    /// Submits a job and returns its id, treating anything but `202` as
    /// an error string.
    ///
    /// # Errors
    ///
    /// Returns the server's error text for rejected submissions.
    pub fn submit_job(&self, request_body: &str) -> Result<u64, String> {
        let (status, doc) = self.submit(request_body).map_err(|e| e.to_string())?;
        if status != 202 {
            return Err(format!("submit rejected with {status}: {}", doc.encode()));
        }
        doc.get("job_id")
            .and_then(Json::as_uint)
            .ok_or_else(|| "202 body missing job_id".to_string())
    }

    /// Streams `GET /jobs/<id>/events` to completion and returns the
    /// NDJSON lines. Blocks until the job reaches a terminal phase.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn events(&self, job_id: u64) -> io::Result<Vec<String>> {
        let (status, body) = self.get(&format!("/jobs/{job_id}/events"))?;
        if status != 200 {
            return Err(io::Error::other(format!("events stream returned {status}")));
        }
        Ok(body.lines().map(str::to_string).collect())
    }

    /// Waits for the job to finish (by draining its event stream), then
    /// fetches `GET /jobs/<id>/result` → `(status, raw body)`. The raw
    /// body is returned untouched so callers can assert byte-identity.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn wait_result(&self, job_id: u64) -> io::Result<(u16, String)> {
        self.events(job_id)?;
        self.get(&format!("/jobs/{job_id}/result"))
    }

    /// `POST /jobs/<id>/cancel` → `(status, parsed body)`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; an unparseable body surfaces as
    /// `InvalidData`.
    pub fn cancel(&self, job_id: u64) -> io::Result<(u16, Json)> {
        let (status, body) = self.post(&format!("/jobs/{job_id}/cancel"), "")?;
        let doc = parse(&body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad body: {e}")))?;
        Ok((status, doc))
    }

    /// `GET /metrics` parsed.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; an unparseable body surfaces as
    /// `InvalidData`.
    pub fn metrics(&self) -> io::Result<Json> {
        let (status, body) = self.get("/metrics")?;
        if status != 200 {
            return Err(io::Error::other(format!("metrics returned {status}")));
        }
        parse(&body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad body: {e}")))
    }
}

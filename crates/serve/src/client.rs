//! A small blocking HTTP client for the job server, used by the
//! integration tests, the serve bench, and `examples/serve_demo.rs`.
//!
//! One request per connection, mirroring the server's protocol. The
//! events helper blocks until the job's stream ends, which doubles as
//! "wait for the job to finish".

use crate::http::read_response;
use crate::json::{parse, Json};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};

/// Blocking client bound to one server address.
#[derive(Debug, Clone, Copy)]
pub struct Client {
    addr: SocketAddr,
}

impl Client {
    /// A client for the server at `addr`.
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr }
    }

    fn request(&self, method: &str, path: &str, body: Option<&str>) -> io::Result<(u16, String)> {
        let mut stream = TcpStream::connect(self.addr)?;
        let body = body.unwrap_or("");
        // One write: a server that refuses the connection unread (503,
        // every handler busy) resets it, and a second write would fail
        // before the answer is read.
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
            self.addr,
            body.len()
        );
        request.push_str(body);
        stream.write_all(request.as_bytes())?;
        let (status, bytes) = read_response(&mut stream)?;
        let text = String::from_utf8(bytes)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response"))?;
        Ok((status, text))
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

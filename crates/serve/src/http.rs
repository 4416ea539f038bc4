//! Tiny std-only HTTP/1.1 layer.
//!
//! The container has no registry access, so there is no hyper/tokio —
//! and none is needed: the server speaks a small, well-defined subset
//! of HTTP/1.1 (persistent connections, `Content-Length` request
//! bodies, `Content-Length` JSON responses, and `Transfer-Encoding:
//! chunked` for the progress-event stream). Everything rides on
//! `std::net::TcpStream` and blocking I/O. Connections are served by a
//! bounded pool of at most [`MAX_HANDLERS`] reused handler threads, so
//! a burst of clients costs a bounded number of threads and a quiet
//! server holds none for longer than [`HANDLER_IDLE_TTL`].
//!
//! A connection carries requests one after another, as HTTP/1.1
//! defaults to: its handler reads the next request through the same
//! buffer, so requests a client sends ahead of their answers
//! (pipelining) are answered in order. A response ends the connection,
//! and says so with `connection: close`, only when the request asked
//! for it or was HTTP/1.0, when the request could not be read (400,
//! 408, 431), for the accept loop's 503, for `/admin/shutdown`, and
//! once the server is shutting down. Between requests a handler waits
//! at most [`KEEP_ALIVE_IDLE`] and then closes the connection without
//! a word. Every read of a request and every write
//! is bounded in time too ([`REQUEST_TIMEOUT`], [`WRITE_TIMEOUT`]), so
//! no client can pin a handler by stalling.

use std::fmt;
use std::io::{self, BufRead, Read, Write};
use std::time::{Duration, Instant};

/// Maximum accepted request-body size (a co-design request is a few
/// hundred bytes; anything larger is a client bug or abuse).
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Longest accepted request line, terminator included.
pub const MAX_REQUEST_LINE_BYTES: usize = 8 << 10;

/// Longest accepted header line, terminator included.
pub const MAX_HEADER_LINE_BYTES: usize = 8 << 10;

/// Most header lines one request may carry.
pub const MAX_HEADERS: usize = 100;

/// Most header bytes one request may carry, terminators included.
pub const MAX_HEADER_BYTES: usize = 64 << 10;

/// Most connection handlers live at once. A connection that arrives
/// while every handler is busy gets `503` with `Retry-After` from the
/// accept loop itself. Event streams hold their handler until the job
/// ends, so this also caps concurrent streams; 64 is far above the
/// handful of clients a co-design server serves, and keeps a flood of
/// connections from costing more than 64 thread stacks.
pub const MAX_HANDLERS: usize = 64;

/// How long an idle handler waits for its next connection before its
/// thread exits. Long enough that a client's submit, event stream and
/// result fetch reuse warm threads; short enough that threads spawned
/// for a burst do not outlive it by much.
pub const HANDLER_IDLE_TTL: Duration = Duration::from_secs(2);

/// How long a handler waits for the next request on an open
/// connection before closing it. An idle connection holds one of the
/// [`MAX_HANDLERS`] handlers, so this stays short: long enough for a
/// client's next request after a pause, far shorter than the time a
/// handler itself idles in the pool. The handler writes nothing before
/// closing, so a client that sends a request as the wait runs out
/// sees the connection close unanswered and may resend it on a new
/// one: the server never read it.
pub const KEEP_ALIVE_IDLE: Duration = Duration::from_millis(500);

/// The header a response carries when the server closes the
/// connection after it.
pub(crate) const CONNECTION_CLOSE: (&str, &str) = ("connection", "close");

/// Time a client has to deliver its whole request, head and body. Each
/// socket read also waits at most this long, so a request that stalls,
/// or trickles in, is answered `408` within twice this bound.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// Longest one socket write may block, so a client that stops reading
/// (an event stream, say) frees its handler.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// A request head over one of the limits above. [`read_request`]
/// returns it inside an `InvalidData` [`io::Error`] (see
/// [`HeadTooLarge::of`]); the server answers it with
/// `431 Request Header Fields Too Large`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadTooLarge {
    /// Over [`MAX_REQUEST_LINE_BYTES`].
    RequestLine,
    /// Over [`MAX_HEADER_LINE_BYTES`].
    HeaderLine,
    /// Over [`MAX_HEADERS`].
    HeaderCount,
    /// Over [`MAX_HEADER_BYTES`].
    HeaderBytes,
}

impl HeadTooLarge {
    /// The head-limit error carried by `err`, if that is what it is.
    pub fn of(err: &io::Error) -> Option<Self> {
        err.get_ref()?.downcast_ref::<Self>().copied()
    }
}

impl fmt::Display for HeadTooLarge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::RequestLine => {
                write!(f, "request line longer than {MAX_REQUEST_LINE_BYTES} bytes")
            }
            Self::HeaderLine => write!(f, "header line longer than {MAX_HEADER_LINE_BYTES} bytes"),
            Self::HeaderCount => write!(f, "more than {MAX_HEADERS} headers"),
            Self::HeaderBytes => write!(f, "headers longer than {MAX_HEADER_BYTES} bytes"),
        }
    }
}

impl std::error::Error for HeadTooLarge {}

impl From<HeadTooLarge> for io::Error {
    fn from(err: HeadTooLarge) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, err)
    }
}

/// Reads one `\n`-terminated line of at most `limit` bytes into `buf`
/// and returns it as text: at most `limit` bytes are ever buffered, so
/// a client streaming a line without end cannot grow memory. Returns
/// `Ok(None)` at end of stream, and `exceeded` when the line does not
/// end within `limit` bytes.
fn read_bounded_line<'b>(
    reader: &mut impl BufRead,
    limit: usize,
    exceeded: HeadTooLarge,
    buf: &'b mut Vec<u8>,
) -> io::Result<Option<&'b str>> {
    buf.clear();
    let n = reader.take(limit as u64).read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(None);
    }
    if n == limit && buf.last() != Some(&b'\n') {
        return Err(exceeded.into());
    }
    std::str::from_utf8(buf)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "request head is not UTF-8"))
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Request path without query string.
    pub path: String,
    /// Lowercased header names with their values.
    pub headers: Vec<(String, String)>,
    /// The request body (empty without `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the connection may carry another request after this
    /// one: an HTTP/1.1 request without `connection: close`. A request
    /// with a `transfer-encoding` is not, since its body is not read.
    pub keep_alive: bool,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text.
    ///
    /// # Errors
    ///
    /// Returns an error message for non-UTF-8 bodies.
    pub fn body_text(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|_| "request body is not UTF-8".to_string())
    }
}

/// Whether `err` is a read that ran out of time: the whole request
/// took longer than [`REQUEST_TIMEOUT`], or one socket read waited that
/// long (`WouldBlock` on Unix, `TimedOut` elsewhere). The server answers
/// it with `408 Request Timeout`.
pub fn is_timeout(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// A buffered reader that refuses to read once `deadline` has passed,
/// so a peer that trickles bytes cannot stretch one request without
/// end.
struct Deadline<R> {
    inner: R,
    deadline: Instant,
}

impl<R> Deadline<R> {
    fn check(&self) -> io::Result<()> {
        if Instant::now() >= self.deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "request not received in time",
            ));
        }
        Ok(())
    }
}

impl<R: BufRead> Read for Deadline<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.check()?;
        self.inner.read(buf)
    }
}

impl<R: BufRead> BufRead for Deadline<R> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        self.check()?;
        self.inner.fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        self.inner.consume(amt);
    }
}

/// Whether a `connection` header value lists the `close` option.
fn lists_close(value: &str) -> bool {
    value
        .split(',')
        .any(|option| option.trim().eq_ignore_ascii_case("close"))
}

/// Reads one request from a connection's reader. Returns `Ok(None)`
/// when the peer closed the connection before sending a request line.
/// Bytes after the request stay in `reader` for the next call, so keep
/// one reader per connection.
///
/// The head is bounded: [`MAX_REQUEST_LINE_BYTES`],
/// [`MAX_HEADER_LINE_BYTES`] per header, [`MAX_HEADERS`] headers and
/// [`MAX_HEADER_BYTES`] in all. The whole request must arrive within
/// [`REQUEST_TIMEOUT`]; on a socket, set a read timeout too, or one
/// stalled read can outwait the deadline.
///
/// # Errors
///
/// Propagates socket errors; malformed requests surface as
/// `InvalidData`, a head over a limit as `InvalidData` carrying a
/// [`HeadTooLarge`], and a late request as an error [`is_timeout`]
/// accepts.
pub fn read_request(reader: &mut impl BufRead) -> io::Result<Option<Request>> {
    let mut reader = Deadline {
        inner: reader,
        deadline: Instant::now() + REQUEST_TIMEOUT,
    };
    let mut buf = Vec::new();
    let Some(line) = read_bounded_line(
        &mut reader,
        MAX_REQUEST_LINE_BYTES,
        HeadTooLarge::RequestLine,
        &mut buf,
    )?
    else {
        return Ok(None);
    };
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty request line"))?
        .to_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing request target"))?;
    let path = target.split('?').next().unwrap_or(target).to_string();
    let mut keep_alive = parts.next() == Some("HTTP/1.1");

    let mut headers = Vec::new();
    let mut content_length = 0usize;
    let (mut header_lines, mut header_bytes) = (0usize, 0usize);
    loop {
        let Some(header_line) = read_bounded_line(
            &mut reader,
            MAX_HEADER_LINE_BYTES,
            HeadTooLarge::HeaderLine,
            &mut buf,
        )?
        else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside headers",
            ));
        };
        header_bytes += header_line.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err(HeadTooLarge::HeaderBytes.into());
        }
        let trimmed = header_line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        header_lines += 1;
        if header_lines > MAX_HEADERS {
            return Err(HeadTooLarge::HeaderCount.into());
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            let name = name.trim().to_lowercase();
            let value = value.trim().to_string();
            if (name == "connection" && lists_close(&value)) || name == "transfer-encoding" {
                keep_alive = false;
            }
            if name == "content-length" {
                content_length = value.parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                })?;
                if content_length > MAX_BODY_BYTES {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "request body too large",
                    ));
                }
            }
            headers.push((name, value));
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Some(Request {
        method,
        path,
        headers,
        body,
        keep_alive,
    }))
}

/// Human phrase for the status codes the server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete response with a JSON body and the given extra
/// headers (`retry-after`, `connection: close`), each written as
/// `name: value`. Head and body go out in one write, so a small
/// response is one segment on the wire.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_json_response(
    stream: &mut impl Write,
    status: u16,
    headers: &[(&str, &str)],
    body: &str,
) -> io::Result<()> {
    let mut out = Vec::with_capacity(128 + body.len());
    write!(
        out,
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n",
        reason(status),
        body.len()
    )?;
    for (name, value) in headers {
        write!(out, "{name}: {value}\r\n")?;
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body.as_bytes());
    stream.write_all(&out)?;
    stream.flush()
}

/// A `Transfer-Encoding: chunked` NDJSON response writer: one
/// [`lines`](ChunkedWriter::lines) call per batch of progress events,
/// the last one carrying the terminating zero-length chunk. Each call
/// is one write.
pub struct ChunkedWriter<'a, W: Write> {
    stream: &'a mut W,
    buf: Vec<u8>,
}

impl<'a, W: Write> ChunkedWriter<'a, W> {
    /// Starts a chunked response by writing the response head with the
    /// given extra headers, so the client sees the status before the
    /// first event exists.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn start(stream: &'a mut W, status: u16, headers: &[(&str, &str)]) -> io::Result<Self> {
        let mut head = format!(
            "HTTP/1.1 {status} {}\r\ncontent-type: application/x-ndjson\r\ntransfer-encoding: chunked\r\n",
            reason(status),
        );
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.flush()?;
        Ok(Self {
            stream,
            buf: Vec::new(),
        })
    }

    /// Writes `lines`, each ended by `\n`, as one chunk and, when
    /// `end` is set, the terminating zero-length chunk after it, in one
    /// write flushed so clients see events live.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (a disconnected client ends the
    /// stream).
    pub fn lines(&mut self, lines: &[String], end: bool) -> io::Result<()> {
        self.buf.clear();
        let len: usize = lines.iter().map(|line| line.len() + 1).sum();
        if len > 0 {
            write!(self.buf, "{len:x}\r\n")?;
            for line in lines {
                self.buf.extend_from_slice(line.as_bytes());
                self.buf.push(b'\n');
            }
            self.buf.extend_from_slice(b"\r\n");
        }
        if end {
            self.buf.extend_from_slice(b"0\r\n\r\n");
        }
        self.stream.write_all(&self.buf)?;
        self.stream.flush()
    }
}

/// A response as [`read_response`] reads it.
#[derive(Debug, Clone)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// The body, de-chunked.
    pub body: Vec<u8>,
    /// Whether the server closes the connection after this response:
    /// it said `connection: close`, answered as HTTP/1.0, or ended the
    /// body by closing.
    pub close: bool,
}

/// Client-side helper: reads one full response from a connection's
/// reader, decoding a chunked body transparently. Bytes after the
/// response stay in `reader`.
///
/// # Errors
///
/// Propagates socket errors; malformed responses surface as
/// `InvalidData`.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<Response> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let mut words = status_line.split_whitespace();
    let mut close = words.next() != Some("HTTP/1.1");
    let status: u16 = words
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside response headers",
            ));
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            match name.trim().to_lowercase().as_str() {
                "content-length" => content_length = value.trim().parse().ok(),
                "transfer-encoding" if value.trim().eq_ignore_ascii_case("chunked") => {
                    chunked = true
                }
                "connection" if lists_close(value) => close = true,
                _ => {}
            }
        }
    }
    let mut body = Vec::new();
    if chunked {
        loop {
            let mut size_line = String::new();
            reader.read_line(&mut size_line)?;
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad chunk size"))?;
            if size == 0 {
                let mut crlf = String::new();
                reader.read_line(&mut crlf)?;
                break;
            }
            let mut chunk = vec![0u8; size + 2]; // payload + CRLF
            reader.read_exact(&mut chunk)?;
            chunk.truncate(size);
            body.extend_from_slice(&chunk);
        }
    } else if let Some(len) = content_length {
        body = vec![0u8; len];
        reader.read_exact(&mut body)?;
    } else {
        reader.read_to_end(&mut body)?;
        close = true;
    }
    Ok(Response {
        status,
        body,
        close,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_line_accepts_exactly_its_limit() {
        let mut buf = Vec::new();
        let fits = format!("{}\n", "a".repeat(9));
        let mut reader = fits.as_bytes();
        let line = read_bounded_line(&mut reader, 10, HeadTooLarge::HeaderLine, &mut buf);
        assert_eq!(line.unwrap(), Some(fits.as_str()));

        let over = "a".repeat(10) + "\n";
        let mut reader = over.as_bytes();
        let err = read_bounded_line(&mut reader, 10, HeadTooLarge::HeaderLine, &mut buf);
        assert_eq!(
            HeadTooLarge::of(&err.unwrap_err()),
            Some(HeadTooLarge::HeaderLine)
        );

        let mut reader: &[u8] = b"";
        let eof = read_bounded_line(&mut reader, 10, HeadTooLarge::HeaderLine, &mut buf);
        assert_eq!(eof.unwrap(), None);
    }

    /// Records every `write` call: on a socket, each one is a syscall
    /// and, with `TCP_NODELAY`, its own segment.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write_and_a_chunk_is_one_write() {
        let mut out = CountingWriter::default();
        let headers = [("retry-after", "1"), CONNECTION_CLOSE];
        write_json_response(&mut out, 503, &headers, r#"{"error":"busy"}"#).unwrap();
        assert_eq!(out.writes, 1);
        assert_eq!(
            String::from_utf8(out.bytes).unwrap(),
            "HTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\n\
             content-length: 16\r\nretry-after: 1\r\nconnection: close\r\n\r\n\
             {\"error\":\"busy\"}"
        );

        let mut out = CountingWriter::default();
        write_json_response(&mut out, 200, &[], "{}").unwrap();
        let text = String::from_utf8(out.bytes).unwrap();
        assert!(!text.contains("connection"), "{text}");

        let mut out = CountingWriter::default();
        let mut writer = ChunkedWriter::start(&mut out, 200, &[]).unwrap();
        let first = ["{\"event\":\"queued\"}".to_string()];
        let rest = [
            "{\"event\":\"started\"}".to_string(),
            "{\"event\":\"finished\"}".to_string(),
        ];
        writer.lines(&first, false).unwrap();
        writer.lines(&rest, true).unwrap();
        assert_eq!(
            out.writes, 3,
            "head, one batch, the last batch with the terminator"
        );
        let text = String::from_utf8(out.bytes).unwrap();
        assert!(
            text.ends_with(
                "\r\n\r\n13\r\n{\"event\":\"queued\"}\n\r\n\
                 29\r\n{\"event\":\"started\"}\n{\"event\":\"finished\"}\n\r\n0\r\n\r\n"
            ),
            "{text}"
        );
        let response = read_response(&mut text.as_bytes()).unwrap();
        assert_eq!(
            String::from_utf8(response.body).unwrap(),
            "{\"event\":\"queued\"}\n{\"event\":\"started\"}\n{\"event\":\"finished\"}\n"
        );
        assert!(!response.close);

        // A terminal job with no new lines ends the stream with the
        // terminator alone.
        let mut out = CountingWriter::default();
        ChunkedWriter::start(&mut out, 200, &[])
            .unwrap()
            .lines(&[], true)
            .unwrap();
        assert_eq!(out.writes, 2);
        assert!(out.bytes.ends_with(b"\r\n\r\n0\r\n\r\n"));
    }

    #[test]
    fn keep_alive_follows_version_and_connection_header() {
        let keep_alive = |head: &str| {
            read_request(&mut head.as_bytes())
                .unwrap()
                .unwrap()
                .keep_alive
        };
        assert!(keep_alive("GET / HTTP/1.1\r\n\r\n"));
        assert!(keep_alive(
            "GET / HTTP/1.1\r\nconnection: keep-alive\r\n\r\n"
        ));
        assert!(!keep_alive(
            "GET / HTTP/1.1\r\nConnection: Keep-Alive, Close\r\n\r\n"
        ));
        assert!(!keep_alive("GET / HTTP/1.0\r\n\r\n"));
        assert!(!keep_alive("GET /\r\n\r\n"));
        assert!(!keep_alive(
            "POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"
        ));
    }

    #[test]
    fn a_read_past_the_request_deadline_times_out() {
        let mut late = Deadline {
            inner: &b"GET /healthz HTTP/1.1\r\n\r\n"[..],
            deadline: Instant::now(),
        };
        let err = late.read(&mut [0u8; 64]).unwrap_err();
        assert!(is_timeout(&err), "{err}");

        let request = read_request(&mut &b"GET /healthz?x=1 HTTP/1.1\r\n\r\n"[..]).unwrap();
        assert_eq!(request.unwrap().path, "/healthz");
    }
}

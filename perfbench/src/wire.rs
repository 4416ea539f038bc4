//! A timestamping reader for the server's chunked NDJSON event stream.
//!
//! `codesign_serve::Client::events` returns the stream only once it
//! ends; the traced `serve_jobs` run needs the moment each line
//! arrives, so it reads `GET /jobs/<id>/events` itself.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

fn invalid(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

/// Streams job `job_id`'s events to their end and returns each line
/// with the time its chunk was read.
///
/// # Errors
///
/// Socket errors, a status other than 200, or a malformed response.
pub fn timed_events(addr: SocketAddr, job_id: u64) -> io::Result<Vec<(Instant, String)>> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "GET /jobs/{job_id}/events HTTP/1.1\r\nhost: {addr}\r\ncontent-length: 0\r\nconnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    if line.split_whitespace().nth(1) != Some("200") {
        return Err(invalid(&format!(
            "events stream answered `{}`",
            line.trim()
        )));
    }
    let mut chunked = false;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(invalid("connection closed inside response headers"));
        }
        let header = line.trim_end().to_ascii_lowercase();
        if header.is_empty() {
            break;
        }
        chunked |= header == "transfer-encoding: chunked";
    }
    if !chunked {
        return Err(invalid("events stream is not chunked"));
    }
    let mut lines = Vec::new();
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        let size = usize::from_str_radix(line.trim(), 16).map_err(|_| invalid("bad chunk size"))?;
        if size == 0 {
            return Ok(lines);
        }
        let mut chunk = vec![0u8; size + 2];
        reader.read_exact(&mut chunk)?;
        let at = Instant::now();
        chunk.truncate(size);
        let text = String::from_utf8(chunk).map_err(|_| invalid("non-UTF-8 event"))?;
        lines.extend(text.lines().map(|l| (at, l.to_string())));
    }
}

//! A deliberately small HTTP/1.1 implementation over `std::net` — just
//! enough protocol for the serving daemon, with zero dependencies.
//!
//! Scope: one request per connection (`Connection: close` semantics),
//! `Content-Length` bodies with a hard size cap, fixed-body responses,
//! and chunked transfer encoding for streaming JSONL. Anything outside
//! that scope is rejected with a typed [`HttpError`] that maps to a
//! 4xx response — a malformed peer can waste one connection, never
//! wedge the daemon. A peer that closes before sending a byte (a port
//! probe) is no request at all and gets no response.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Hard cap on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed request: method, path, lower-cased headers, raw body.
#[derive(Debug)]
pub struct Request {
    /// Upper-case method token (`GET`, `POST`, ...).
    pub method: String,
    /// Path component, query string included verbatim.
    pub path: String,
    /// `(lower-case-name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value for `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read. Each variant maps to one status
/// code in the connection handler's reply.
#[derive(Debug)]
pub enum HttpError {
    /// Transport failed mid-read (peer gone, timeout).
    Io(std::io::Error),
    /// The peer closed the connection before the first byte of a
    /// request line — a port probe, or a client that hung up. Not a
    /// request: the handler closes quietly and counts nothing.
    Closed,
    /// The bytes on the wire are not an HTTP/1.1 request.
    Malformed(&'static str),
    /// The declared body exceeds the server's cap.
    TooLarge {
        /// The configured cap, echoed in the rejection message.
        limit: usize,
    },
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> HttpError {
        HttpError::Io(e)
    }
}

/// Reads and parses one request, enforcing `max_body` on the declared
/// `Content-Length`.
///
/// # Errors
///
/// [`HttpError::Closed`] when the peer sends nothing before closing,
/// [`HttpError::Malformed`] for protocol violations (a request cut off
/// after its first byte included), [`HttpError::TooLarge`] for
/// oversized bodies, [`HttpError::Io`] for transport failures.
pub fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(stream);
    let request_line = read_head_line(&mut reader)?.ok_or(HttpError::Closed)?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or(HttpError::Malformed("empty request line"))?
        .to_string();
    let path = parts
        .next()
        .ok_or(HttpError::Malformed("request line lacks a path"))?
        .to_string();
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        _ => return Err(HttpError::Malformed("not an HTTP/1.x request")),
    }

    let mut headers = Vec::new();
    let mut head_bytes = request_line.len();
    loop {
        let line = read_head_line(&mut reader)?
            .ok_or(HttpError::Malformed("connection closed mid-head"))?;
        if line.is_empty() {
            break;
        }
        head_bytes += line.len();
        if head_bytes > MAX_HEAD_BYTES {
            return Err(HttpError::Malformed("header section too large"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header line lacks a colon"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = match headers.iter().find(|(n, _)| n == "content-length") {
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed("unparseable content-length"))?,
        None => 0,
    };
    if content_length > max_body {
        return Err(HttpError::TooLarge { limit: max_body });
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// Reads one CRLF-terminated head line, tolerating bare LF; `None` at
/// end of stream before the line's first byte.
fn read_head_line(reader: &mut BufReader<&mut TcpStream>) -> Result<Option<String>, HttpError> {
    let mut line = String::new();
    let mut limited = reader.take(MAX_HEAD_BYTES as u64 + 1);
    if limited.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    if line.len() > MAX_HEAD_BYTES {
        return Err(HttpError::Malformed("head line too large"));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(Some(line))
}

/// The reason phrase sent with each status the daemon answers.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        _ => "Service Unavailable",
    }
}

/// Writes a complete fixed-length JSON response and flushes.
///
/// # Errors
///
/// Returns the underlying I/O error (the connection is done either way).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[(&str, String)],
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// A chunked-transfer response in progress: call [`line`](Self::line)
/// per JSONL record, then [`finish`](Self::finish).
#[derive(Debug)]
pub struct ChunkedBody<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedBody<'a> {
    /// Writes a `200` JSONL response head with `Transfer-Encoding:
    /// chunked` and returns the body writer.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn begin(stream: &'a mut TcpStream) -> std::io::Result<ChunkedBody<'a>> {
        let head = "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n";
        stream.write_all(head.as_bytes())?;
        Ok(ChunkedBody { stream })
    }

    /// Writes one line (a newline is appended) as one chunk and
    /// flushes, so clients observe records as they complete.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; the stream is unusable after.
    pub fn line(&mut self, line: &str) -> std::io::Result<()> {
        let chunk = format!("{:x}\r\n{line}\n\r\n", line.len() + 1);
        self.stream.write_all(chunk.as_bytes())?;
        self.stream.flush()
    }

    /// Terminates the chunked body.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn finish(self) -> std::io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

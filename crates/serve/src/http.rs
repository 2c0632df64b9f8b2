//! A deliberately small HTTP/1.1 implementation over `std::net` — just
//! enough protocol for the serving daemon, with zero dependencies.
//!
//! Scope: one request per connection (`Connection: close` semantics),
//! `Content-Length` bodies with a hard size cap, fixed-body responses,
//! and chunked transfer encoding for streaming JSONL. Anything outside
//! that scope is rejected with a typed [`HttpError`] that maps to a
//! 4xx response — a malformed peer can waste one connection, never
//! wedge the daemon.

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
/// code in [`reject`].
#[derive(Debug)]
pub enum HttpError {
    /// Transport failed mid-read (peer gone, timeout).
    Io(std::io::Error),
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
/// [`HttpError::Malformed`] for protocol violations, [`HttpError::TooLarge`]
/// for oversized bodies, [`HttpError::Io`] for transport failures.
pub fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(stream);
    let request_line = read_head_line(&mut reader)?;
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
        let line = read_head_line(&mut reader)?;
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

/// Reads one CRLF-terminated head line, tolerating bare LF.
fn read_head_line(reader: &mut BufReader<&mut TcpStream>) -> Result<String, HttpError> {
    let mut line = String::new();
    let mut limited = reader.take(MAX_HEAD_BYTES as u64 + 1);
    let n = limited.read_line(&mut line)?;
    if n == 0 {
        return Err(HttpError::Malformed("connection closed mid-head"));
    }
    if line.len() > MAX_HEAD_BYTES {
        return Err(HttpError::Malformed("head line too large"));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Writes a complete fixed-length response and flushes.
///
/// # Errors
///
/// Returns the underlying I/O error (the connection is done either way).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
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
    /// Writes the response head with `Transfer-Encoding: chunked` and
    /// returns the body writer.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn begin(
        stream: &'a mut TcpStream,
        status: u16,
        reason: &str,
        content_type: &str,
    ) -> std::io::Result<ChunkedBody<'a>> {
        let head = format!(
            "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
        );
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

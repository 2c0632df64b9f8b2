//! A minimal HTTP/1.1 client for the serve workload: one request per
//! connection, chunked JSON-lines responses read line by line with the
//! arrival time of each phase.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Reads a `Transfer-Encoding: chunked` body and yields its text lines.
/// A line may span chunks and a chunk may hold several lines.
pub struct ChunkedLines<R> {
    reader: R,
    /// Body bytes received that do not yet end in a newline.
    pending: Vec<u8>,
    done: bool,
}

impl<R: BufRead> ChunkedLines<R> {
    pub fn new(reader: R) -> ChunkedLines<R> {
        ChunkedLines {
            reader,
            pending: Vec::new(),
            done: false,
        }
    }

    fn invalid(why: &str) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, why.to_string())
    }

    /// Reads the next chunk's size line; zero at the terminating chunk.
    fn next_chunk_size(&mut self) -> std::io::Result<usize> {
        let mut size_line = String::new();
        if self.reader.read_line(&mut size_line)? == 0 {
            return Err(Self::invalid("connection closed inside a chunked body"));
        }
        let hex = size_line.trim().split(';').next().unwrap_or("");
        usize::from_str_radix(hex, 16).map_err(|_| Self::invalid("malformed chunk size"))
    }

    /// The next complete line, or `None` once the body has ended.
    pub fn next_line(&mut self) -> std::io::Result<Option<String>> {
        loop {
            if let Some(at) = self.pending.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.pending.drain(..=at).collect();
                line.pop();
                return String::from_utf8(line)
                    .map(Some)
                    .map_err(|_| Self::invalid("response line is not UTF-8"));
            }
            if self.done {
                if self.pending.is_empty() {
                    return Ok(None);
                }
                let rest = std::mem::take(&mut self.pending);
                return String::from_utf8(rest)
                    .map(Some)
                    .map_err(|_| Self::invalid("response line is not UTF-8"));
            }
            let size = self.next_chunk_size()?;
            if size == 0 {
                self.done = true;
                continue;
            }
            let mut data = vec![0u8; size];
            self.reader.read_exact(&mut data)?;
            self.pending.extend_from_slice(&data);
            let mut crlf = [0u8; 2];
            self.reader.read_exact(&mut crlf)?;
            if &crlf != b"\r\n" {
                return Err(Self::invalid("chunk data not followed by CRLF"));
            }
        }
    }
}

/// One completed exchange, with when each phase was reached.
#[derive(Debug, Clone)]
pub struct Exchange {
    pub status: u16,
    pub lines: Vec<String>,
    pub sent: Instant,
    /// Status line received: parse, admission and validation are done.
    pub head: Instant,
    /// First `record` line received (equals `done` when there is none).
    pub first_record: Instant,
    pub done: Instant,
}

fn read_head<R: BufRead>(reader: &mut R) -> std::io::Result<(u16, bool, usize)> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line")
        })?;
    let (mut chunked, mut length) = (false, 0usize);
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line.trim().is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let (name, value) = (name.trim().to_ascii_lowercase(), value.trim());
            if name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked") {
                chunked = true;
            } else if name == "content-length" {
                length = value.parse().unwrap_or(0);
            }
        }
    }
    Ok((status, chunked, length))
}

/// Sends one request and reads the whole response.
pub fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<Exchange> {
    let sent = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut reader = BufReader::new(stream);
    let (status, chunked, length) = read_head(&mut reader)?;
    let head = Instant::now();
    let mut lines = Vec::new();
    let mut first_record = None;
    if chunked {
        let mut body = ChunkedLines::new(reader);
        while let Some(line) = body.next_line()? {
            if first_record.is_none() && is_record_line(&line) {
                first_record = Some(Instant::now());
            }
            lines.push(line);
        }
    } else {
        let mut text = vec![0u8; length];
        reader.read_exact(&mut text)?;
        lines.extend(String::from_utf8_lossy(&text).lines().map(str::to_string));
    }
    let done = Instant::now();
    Ok(Exchange {
        status,
        lines,
        sent,
        head,
        first_record: first_record.unwrap_or(done),
        done,
    })
}

/// Framing lines carry a `type`; record lines are bare cell records.
pub fn is_record_line(line: &str) -> bool {
    !line.starts_with("{\"type\":")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hands out its bytes `step` at a time, like a slow socket.
    struct Dribble<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    fn lines_of(body: &[u8], step: usize) -> Vec<String> {
        let mut chunks =
            ChunkedLines::new(BufReader::with_capacity(4, Dribble { bytes: body, step }));
        let mut out = Vec::new();
        while let Some(line) = chunks.next_line().expect("well-formed body") {
            out.push(line);
        }
        out
    }

    #[test]
    fn lines_survive_any_split_of_chunks_and_reads() {
        // "alpha\n" as one chunk, "be" + "ta\nga" + "mma\n" splitting two
        // lines across three chunks, then the terminator.
        let body = b"6\r\nalpha\n\r\n2\r\nbe\r\n5\r\nta\nga\r\n4\r\nmma\n\r\n0\r\n\r\n";
        for step in [1, 2, 3, 7, 64] {
            assert_eq!(
                lines_of(body, step),
                ["alpha", "beta", "gamma"],
                "step {step}"
            );
        }
    }

    #[test]
    fn unterminated_last_line_is_still_delivered() {
        assert_eq!(lines_of(b"3\r\nabc\r\n0\r\n\r\n", 2), ["abc"]);
    }

    #[test]
    fn truncated_body_is_an_error_not_a_hang() {
        let mut chunks = ChunkedLines::new(BufReader::new(&b"5\r\nab"[..]));
        assert!(chunks.next_line().is_err());
        let mut chunks = ChunkedLines::new(BufReader::new(&b"zz\r\n"[..]));
        assert!(chunks.next_line().is_err());
    }

    #[test]
    fn record_lines_are_told_from_framing() {
        assert!(!is_record_line("{\"type\":\"header\",\"protocol\":1}"));
        assert!(is_record_line("{\"schema_version\":4,\"cell\":\"x\"}"));
    }
}

//! The load client: one thread per client, one keep-alive connection per
//! thread, closed loop. Its HTTP and JSON handling is the benchmark's own,
//! so a change to the program's client helpers cannot move the client's
//! cost.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::stats::Histogram;

/// One keep-alive connection.
pub struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
}

/// An answer: status and body.
pub struct Answer {
    /// HTTP status.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Conn {
    /// Connect with `TCP_NODELAY` and a generous read timeout.
    ///
    /// # Errors
    /// Connect or socket-option failures.
    pub fn open(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self {
            addr,
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Drop the connection and open a fresh one (after a transport error).
    ///
    /// # Errors
    /// Connect failures.
    pub fn reopen(&mut self) -> io::Result<()> {
        *self = Self::open(self.addr)?;
        Ok(())
    }

    /// Send one request and read its whole answer.
    ///
    /// # Errors
    /// Transport errors and malformed answers.
    pub fn exchange(&mut self, wire: &[u8]) -> io::Result<Answer> {
        self.stream.write_all(wire)?;
        self.read_answer()
    }

    fn read_answer(&mut self) -> io::Result<Answer> {
        let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_owned());
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed inside the answer head"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head =
            std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("head is not UTF-8"))?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let len = head
            .split("\r\n")
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse::<usize>().ok())
            .ok_or_else(|| bad("answer has no Content-Length"))?;
        let body_start = head_end + 4;
        while self.buf.len() < body_start + len {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed inside the answer body"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        Ok(Answer {
            status,
            body: self.buf[body_start..body_start + len].to_vec(),
        })
    }
}

/// Whether `text` is one well-formed JSON value (syntax only).
#[must_use]
pub fn is_json(text: &[u8]) -> bool {
    let mut p = Json { s: text, i: 0 };
    p.ws();
    let ok = p.value(0);
    p.ws();
    ok && p.i == text.len()
}

struct Json<'a> {
    s: &'a [u8],
    i: usize,
}

impl Json<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        if self.peek() == Some(c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> bool {
        if depth > 64 {
            return false;
        }
        self.ws();
        match self.peek() {
            Some(b'{') => self.seq(b'}', depth, true),
            Some(b'[') => self.seq(b']', depth, false),
            Some(b'"') => self.string(),
            Some(b't') => self.lit(b"true"),
            Some(b'f') => self.lit(b"false"),
            Some(b'n') => self.lit(b"null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => false,
        }
    }

    fn seq(&mut self, close: u8, depth: usize, object: bool) -> bool {
        self.i += 1;
        if self.eat(close) {
            return true;
        }
        loop {
            if object {
                self.ws();
                if !(self.string() && self.eat(b':')) {
                    return false;
                }
            }
            if !self.value(depth + 1) {
                return false;
            }
            if self.eat(close) {
                return true;
            }
            if !self.eat(b',') {
                return false;
            }
        }
    }

    fn string(&mut self) -> bool {
        if self.peek() != Some(b'"') {
            return false;
        }
        self.i += 1;
        while let Some(c) = self.peek() {
            self.i += 1;
            match c {
                b'"' => return true,
                b'\\' => self.i += 1,
                0..=0x1f => return false,
                _ => {}
            }
        }
        false
    }

    fn lit(&mut self, word: &[u8]) -> bool {
        if self.s[self.i..].starts_with(word) {
            self.i += word.len();
            true
        } else {
            false
        }
    }

    fn number(&mut self) -> bool {
        let start = self.i;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i]).is_ok_and(|t| t.parse::<f64>().is_ok())
    }
}

/// The `compute_us` of an answer that the daemon computed for this very
/// request (neither a cache hit nor a coalesced wait), found by a cheap
/// scan of the answer's trailing fields.
#[must_use]
pub fn fresh_compute_us(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    if !text.contains("\"cached\":false") || !text.contains("\"coalesced\":false") {
        return None;
    }
    let at = text.rfind("\"compute_us\":")? + "\"compute_us\":".len();
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// What one client thread saw during a timed window.
pub struct ClientStats {
    /// Round-trip latency of every OK answer, nanoseconds.
    pub lat_ns: Histogram,
    /// Requests sent.
    pub attempted: u64,
    /// Transport errors, non-2xx answers, and bodies that are not JSON.
    pub failed: u64,
    /// `compute_us` of answers computed for the request itself.
    pub compute_us: Vec<u64>,

    /// Start and end offsets (ns since the window start) of every OK
    /// request, kept only when the window is traced.
    pub spans: Vec<(u64, u64)>,
    /// When the last answer arrived, relative to the window start.
    pub last_end: Duration,
}

/// Run one closed-loop client: send `reqs` in order (cycling) on one
/// keep-alive connection until `deadline`; times are kept relative to
/// `start`, the window's start.
///
/// # Errors
/// When the connection cannot be opened at all.
pub fn closed_loop(
    addr: SocketAddr,
    reqs: &[Vec<u8>],
    start: Instant,
    deadline: Instant,
    traced: bool,
) -> io::Result<ClientStats> {
    let mut conn = Conn::open(addr)?;
    let mut st = ClientStats {
        lat_ns: Histogram::new(),
        attempted: 0,
        failed: 0,
        compute_us: Vec::new(),
        spans: Vec::new(),
        last_end: Duration::ZERO,
    };
    let mut i = 0usize;
    let mut now = Instant::now();
    while now < deadline {
        let wire = &reqs[i % reqs.len()];
        i += 1;
        st.attempted += 1;
        let sent = now;
        let result = conn.exchange(wire);
        now = Instant::now();
        match result {
            Ok(a) if (200..300).contains(&a.status) && is_json(&a.body) => {
                st.lat_ns.record((now - sent).as_nanos() as u64);
                if let Some(us) = fresh_compute_us(&a.body) {
                    st.compute_us.push(us);
                }
                if traced {
                    st.spans.push((
                        (sent - start).as_nanos() as u64,
                        (now - start).as_nanos() as u64,
                    ));
                }
            }
            Ok(_) => st.failed += 1,
            Err(_) => {
                st.failed += 1;
                conn.reopen()?;
            }
        }
    }
    st.last_end = now.saturating_duration_since(start);
    Ok(st)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_validator_accepts_and_rejects() {
        for ok in [
            r#"{"a":[1,2.5e3,-3],"b":{"c":"x\"y"},"d":true,"e":null}"#,
            "[]",
            "{}",
            " 1 ",
        ] {
            assert!(is_json(ok.as_bytes()), "{ok}");
        }
        for bad in [r#"{"a":1"#, r#"{"a" 1}"#, "[1,]", "tru", r#"{"a":1}x"#, ""] {
            assert!(!is_json(bad.as_bytes()), "{bad}");
        }
    }

    #[test]
    fn compute_us_only_for_fresh_answers() {
        let fresh = br#"{"x":1,"cached":false,"coalesced":false,"compute_us":1234}"#;
        let hit = br#"{"x":1,"cached":true,"coalesced":false,"compute_us":3}"#;
        assert_eq!(fresh_compute_us(fresh), Some(1234));
        assert_eq!(fresh_compute_us(hit), None);
    }
}

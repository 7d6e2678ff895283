//! A protocol client for `rpq_server`'s line protocol that survives
//! dropped connections: a request whose connection ends mid-reply fails,
//! and the next request reconnects and re-sends `binary on` first.

use rpq_server::wire;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One complete reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Text payload lines (without the trailing newline).
    pub lines: Vec<String>,
    /// Decoded `RESULT-BIN` pairs, if the reply carried a frame.
    pub pairs: Option<Vec<(u32, u32)>>,
    /// The status line without its `OK `/`ERR ` prefix.
    pub status: String,
    /// Whether the status was `OK`.
    pub ok: bool,
    /// Bytes received for this reply.
    pub bytes: usize,
}

/// Why a request produced no reply.
#[derive(Debug)]
pub enum Failure {
    /// The connection ended or reset before the reply was complete (or
    /// could not be re-established).
    Dropped(String),
    /// The reply broke the protocol's framing.
    Protocol(String),
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn read_line(reader: &mut BufReader<TcpStream>, bytes: &mut usize) -> Result<String, Failure> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err(Failure::Dropped("connection closed".into())),
        Ok(n) => {
            *bytes += n;
            if !line.ends_with('\n') {
                return Err(Failure::Dropped("connection closed mid-line".into()));
            }
            line.pop();
            Ok(line)
        }
        Err(e) => Err(Failure::Dropped(e.to_string())),
    }
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, Failure> {
        let stream = TcpStream::connect(addr).map_err(|e| Failure::Dropped(e.to_string()))?;
        let writer = stream
            .try_clone()
            .map_err(|e| Failure::Dropped(e.to_string()))?;
        let mut conn = Conn {
            reader: BufReader::new(stream),
            writer,
        };
        let greeting = conn.read_reply()?;
        if !greeting.ok {
            return Err(Failure::Dropped(format!("refused: {}", greeting.status)));
        }
        Ok(conn)
    }

    fn request(&mut self, line: &str) -> Result<Reply, Failure> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer
            .write_all(&buf)
            .map_err(|e| Failure::Dropped(e.to_string()))?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> Result<Reply, Failure> {
        let mut bytes = 0;
        let mut lines = Vec::new();
        let mut pairs = None;
        loop {
            let line = read_line(&mut self.reader, &mut bytes)?;
            if let Some(status) = line.strip_prefix("OK") {
                return Ok(Reply {
                    lines,
                    pairs,
                    status: status.trim_start().to_string(),
                    ok: true,
                    bytes,
                });
            }
            if let Some(status) = line.strip_prefix("ERR") {
                return Ok(Reply {
                    lines,
                    pairs,
                    status: status.trim_start().to_string(),
                    ok: false,
                    bytes,
                });
            }
            if line.starts_with(wire::BIN_HEADER) {
                let (byte_len, count) = wire::parse_header(&line).map_err(Failure::Protocol)?;
                let mut blob = vec![0u8; byte_len];
                self.reader
                    .read_exact(&mut blob)
                    .map_err(|e| Failure::Dropped(e.to_string()))?;
                bytes += byte_len;
                pairs = Some(wire::decode_pairs(&blob, count).map_err(Failure::Protocol)?);
            } else {
                lines.push(line);
            }
        }
    }
}

/// A client session: one connection at a time, re-opened after a drop.
pub struct Client {
    addr: SocketAddr,
    setup: Vec<String>,
    conn: Option<Conn>,
    /// Connections re-opened after a drop.
    pub reconnects: u64,
}

impl Client {
    /// Connects and runs `setup` commands (e.g. `binary on`), which are
    /// re-run on every reconnect.
    pub fn connect(addr: SocketAddr, setup: &[&str]) -> Result<Client, Failure> {
        let mut client = Client {
            addr,
            setup: setup.iter().map(|s| s.to_string()).collect(),
            conn: None,
            reconnects: 0,
        };
        client.ensure_open()?;
        Ok(client)
    }

    fn ensure_open(&mut self) -> Result<&mut Conn, Failure> {
        if self.conn.is_none() {
            let mut conn = Conn::open(self.addr)?;
            for line in &self.setup {
                let reply = conn.request(line)?;
                if !reply.ok {
                    return Err(Failure::Protocol(format!(
                        "'{line}' refused: {}",
                        reply.status
                    )));
                }
            }
            self.conn = Some(conn);
        }
        Ok(self.conn.as_mut().expect("connection was just opened"))
    }

    /// Sends one request and reads its reply. On a drop the connection is
    /// discarded and the next call reconnects (counted in `reconnects`).
    pub fn call(&mut self, line: &str) -> Result<Reply, Failure> {
        let reopening = self.conn.is_none();
        let result = match self.ensure_open() {
            Ok(conn) => conn.request(line),
            Err(e) => {
                // Do not spin on a server that refuses connections.
                std::thread::sleep(Duration::from_millis(20));
                Err(e)
            }
        };
        if reopening && self.conn.is_some() {
            self.reconnects += 1;
        }
        if result.is_err() {
            self.conn = None;
        }
        result
    }
}

/// Milliseconds in a `{:.2?}`-formatted duration such as `1.23ms`,
/// `456.00µs`, `2.10s` or `12ns`.
pub fn parse_duration_ms(text: &str) -> Option<f64> {
    let split = text.find(|c: char| !(c.is_ascii_digit() || c == '.'))?;
    let (num, unit) = text.split_at(split);
    let value: f64 = num.parse().ok()?;
    let scale = match unit {
        "s" => 1e3,
        "ms" => 1.0,
        "µs" | "us" => 1e-3,
        "ns" => 1e-6,
        _ => return None,
    };
    Some(value * scale)
}

/// The server-side evaluation time in a `query` status line
/// (`N pairs in T`).
pub fn eval_ms_of_status(status: &str) -> Option<f64> {
    let rest = status.split(" pairs in ").nth(1)?;
    parse_duration_ms(rest.split_whitespace().next()?)
}

/// The value after `key=` in a `metrics`/`cache` line, up to the next
/// space or closing bracket.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("{key}="))? + key.len() + 1;
    let rest = &line[start..];
    let end = rest.find([' ', ')', ',']).unwrap_or(rest.len());
    Some(&rest[..end])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::mpsc;

    #[test]
    fn parses_status_durations() {
        assert_eq!(parse_duration_ms("1.50ms"), Some(1.5));
        assert_eq!(parse_duration_ms("2.00s"), Some(2000.0));
        assert!((parse_duration_ms("250.00µs").unwrap() - 0.25).abs() < 1e-12);
        assert_eq!(parse_duration_ms("12ns"), Some(12e-6));
        assert_eq!(parse_duration_ms("fast"), None);
        assert_eq!(eval_ms_of_status("42 pairs in 3.00ms"), Some(3.0));
        assert_eq!(
            eval_ms_of_status("42 pairs in 3.00ms (at epoch 2)"),
            Some(3.0)
        );
        let line = "  maintenance: deltas=3 unchanged=1 incremental=2 rebuild=0 inc_time=1.20ms rebuild_time=0ns";
        assert_eq!(field(line, "incremental"), Some("2"));
        assert_eq!(field(line, "inc_time"), Some("1.20ms"));
    }

    /// A stub server: the first connection accepts `binary on` and then
    /// hangs up on the next request; the second answers one query.
    fn stub_that_drops() -> (
        SocketAddr,
        mpsc::Receiver<String>,
        std::thread::JoinHandle<()>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (seen, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            for round in 0..2 {
                let (stream, _) = listener.accept().unwrap();
                let mut w = stream.try_clone().unwrap();
                let mut r = BufReader::new(stream);
                writeln!(w, "OK rtc-rpq ready").unwrap();
                let mut line = String::new();
                r.read_line(&mut line).unwrap();
                seen.send(line.trim().to_string()).unwrap();
                writeln!(w, "OK binary on").unwrap();
                line.clear();
                r.read_line(&mut line).unwrap();
                seen.send(line.trim().to_string()).unwrap();
                if round == 0 {
                    // Drop mid-request: no reply at all.
                    drop(w);
                    drop(r);
                    continue;
                }
                let mut blob = Vec::new();
                blob.extend_from_slice(&1u32.to_le_bytes());
                blob.extend_from_slice(&2u32.to_le_bytes());
                w.write_all(b"RESULT-BIN 8 1\n").unwrap();
                w.write_all(&blob).unwrap();
                w.write_all(b"OK 1 pairs in 1.00ms\n").unwrap();
            }
        });
        (addr, rx, handle)
    }

    #[test]
    fn dropped_connection_fails_the_request_then_reconnects_with_binary_on() {
        let (addr, seen, handle) = stub_that_drops();
        let mut client = Client::connect(addr, &["binary on"]).unwrap();
        let first = client.call("query a+");
        assert!(matches!(first, Err(Failure::Dropped(_))), "{first:?}");
        let second = client.call("query a+").unwrap();
        assert!(second.ok);
        assert_eq!(second.pairs, Some(vec![(1, 2)]));
        assert_eq!(eval_ms_of_status(&second.status), Some(1.0));
        assert_eq!(
            second.bytes,
            "RESULT-BIN 8 1\n".len() + 8 + "OK 1 pairs in 1.00ms\n".len()
        );
        assert_eq!(client.reconnects, 1);
        handle.join().unwrap();
        let lines: Vec<String> = seen.try_iter().collect();
        assert_eq!(lines, ["binary on", "query a+", "binary on", "query a+"]);
    }
}

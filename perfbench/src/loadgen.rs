//! The load generator: an open-loop sender that never waits for responses, and the
//! in-process pipe that connects it to `server::serve_pipe`.
//!
//! The generator is the benchmark's main thread. It hands each request line to the
//! server's transport thread at the line's due time; responses are stamped by the
//! server's worker at the moment the line's newline is written. Latency is measured
//! from the *due* time, so a stall anywhere — in the generator, the transport thread
//! or the admission queue — is charged to every request it delays.

use std::io::{self, BufRead, Read, Write};
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::{Duration, Instant};

/// Where the open-loop generator hands request lines.
pub trait Sink {
    /// Hand one request line over (may block, which makes later requests late).
    fn send(&mut self, line: String);
}

impl Sink for Sender<String> {
    fn send(&mut self, line: String) {
        // A closed pipe means the server is gone; its missing responses are
        // counted as failures by the caller.
        let _ = Sender::send(self, line);
    }
}

/// When a request was due and when the generator actually handed it over.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    /// Scheduled send time.
    pub due: Instant,
    /// Time the line was handed to the sink.
    pub sent: Instant,
}

impl Sent {
    /// How late the generator was, in milliseconds.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// Send `lines[i]` at `start + lines[i].0`, never waiting for a response. A sink that
/// blocks delays every later send; those requests are late, and their latency
/// still counts from the due time.
pub fn open_loop<S: Sink>(start: Instant, lines: &[(Duration, String)], sink: &mut S) -> Vec<Sent> {
    let mut sent = Vec::with_capacity(lines.len());
    for (offset, line) in lines {
        let due = start + *offset;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let at = Instant::now();
        sink.send(line.clone());
        sent.push(Sent { due, sent: at });
    }
    sent
}

/// The server's input: request lines arriving over a channel, read as a byte stream.
/// End of input is the closing of the channel.
pub struct LineReceiver {
    rx: Receiver<String>,
    buf: Vec<u8>,
    pos: usize,
}

impl LineReceiver {
    /// A pipe: the sender side for the generator, the reader for the server.
    pub fn pipe() -> (Sender<String>, LineReceiver) {
        let (tx, rx) = mpsc::channel();
        (tx, LineReceiver { rx, buf: Vec::new(), pos: 0 })
    }
}

impl Read for LineReceiver {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(out.len());
        out[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for LineReceiver {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos >= self.buf.len() {
            match self.rx.recv() {
                Ok(line) => {
                    self.buf = line.into_bytes();
                    self.buf.push(b'\n');
                    self.pos = 0;
                }
                Err(_) => return Ok(&[]),
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// The server's output: every completed line is forwarded with the time its newline
/// was written.
pub struct StampedLines {
    partial: Vec<u8>,
    tx: Sender<(Instant, String)>,
}

impl StampedLines {
    /// The writer for the server and the receiver of stamped response lines.
    pub fn pipe() -> (StampedLines, Receiver<(Instant, String)>) {
        let (tx, rx) = mpsc::channel();
        (StampedLines { partial: Vec::new(), tx }, rx)
    }
}

impl Write for StampedLines {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        for &b in bytes {
            if b == b'\n' {
                let line = String::from_utf8_lossy(&self.partial).into_owned();
                self.partial.clear();
                let _ = self.tx.send((Instant::now(), line));
            } else {
                self.partial.push(b);
            }
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The `id` of a response line rendered by the server (`{"v": 1, "id": "...", ...`).
pub fn response_id(line: &str) -> Option<&str> {
    let start = line.find("\"id\": \"")? + "\"id\": \"".len();
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

/// Replace a response's id by the empty id, so responses to different requests for
/// the same spec compare byte for byte.
pub fn without_id(line: &str, id: &str) -> String {
    line.replacen(&format!("\"id\": \"{id}\""), "\"id\": \"\"", 1)
}

/// Where two renders first differ, with some context from each.
pub fn first_difference(got: &str, want: &str) -> String {
    let at = got.bytes().zip(want.bytes()).take_while(|(a, b)| a == b).count();
    let window = |s: &str| {
        let lo = s.floor_char_boundary(at.saturating_sub(60));
        let hi = s.ceil_char_boundary((at + 60).min(s.len()));
        s[lo..hi].to_string()
    };
    format!("at byte {at}: got `{}`, want `{}`", window(got), window(want))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake server that answers instantly, but stalls once on one request.
    struct StallingSink {
        stall_on: usize,
        stall: Duration,
        seen: usize,
        answered: Vec<Instant>,
    }

    impl Sink for StallingSink {
        fn send(&mut self, _line: String) {
            if self.seen == self.stall_on {
                std::thread::sleep(self.stall);
            }
            self.seen += 1;
            self.answered.push(Instant::now());
        }
    }

    #[test]
    fn a_stalled_sink_makes_later_requests_late_from_their_due_time() {
        let gap = Duration::from_millis(10);
        let lines: Vec<(Duration, String)> = (1..=8).map(|i| (gap * i, format!("r{i}"))).collect();
        let mut sink = StallingSink {
            stall_on: 2,
            stall: Duration::from_millis(120),
            seen: 0,
            answered: Vec::new(),
        };
        let start = Instant::now();
        let sent = open_loop(start, &lines, &mut sink);
        assert_eq!(sent.len(), 8);
        // Before the stall the generator is on time.
        for s in &sent[..3] {
            assert!(s.late_ms() < 8.0, "{}", s.late_ms());
        }
        // Requests due during the stall are handed over late, by at least the
        // remainder of the stall at their due time.
        for (i, s) in sent.iter().enumerate().skip(3) {
            let stall_end = 30.0 + 120.0;
            let due = 10.0 * (i + 1) as f64;
            if due < stall_end - 5.0 {
                assert!(s.late_ms() >= stall_end - due - 5.0, "request {i}: {}", s.late_ms());
            }
            // Latency counts from the due time: answered minus due covers the delay.
            let latency = sink.answered[i].duration_since(s.due).as_secs_f64() * 1e3;
            assert!(latency >= s.late_ms(), "request {i}");
        }
        let late: Vec<f64> = sent.iter().map(Sent::late_ms).collect();
        assert!(late[3] > 100.0, "the first request after the stall waited it out: {late:?}");
    }

    #[test]
    fn the_pipe_carries_lines_and_ends_on_close() {
        let (tx, mut reader) = LineReceiver::pipe();
        tx.send("a".to_string()).unwrap();
        tx.send("bc".to_string()).unwrap();
        drop(tx);
        let lines: Vec<String> = (&mut reader).lines().map(Result::unwrap).collect();
        assert_eq!(lines, ["a", "bc"]);

        let (mut out, rx) = StampedLines::pipe();
        write!(out, "{{\"v\": 1, \"id\": \"x7\"").unwrap();
        writeln!(out, ", \"status\": \"ok\"}}").unwrap();
        let (_, line) = rx.recv().unwrap();
        assert_eq!(response_id(&line), Some("x7"));
        assert_eq!(without_id(&line, "x7"), "{\"v\": 1, \"id\": \"\", \"status\": \"ok\"}");
    }
}

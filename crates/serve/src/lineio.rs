//! Length-capped newline-delimited line reading.
//!
//! Every daemon connection frames messages as one line of JSON. A plain
//! [`read_line`](std::io::BufRead::read_line) buffers without bound, so a
//! single malicious or buggy peer that never sends `\n` balloons the
//! process until the allocator gives out. [`CappedLineReader`] enforces a
//! byte budget per line: the first byte past the cap yields
//! [`LineRead::TooLarge`] exactly once, the remainder of the oversize
//! line is *discarded* (streamed, never stored) until its newline, and
//! the connection then continues with the next line — one bad request
//! costs one structured error, not the process.
//!
//! The reader also folds the read-timeout plumbing the serve tier relies
//! on: a `WouldBlock`/`TimedOut` error surfaces as [`LineRead::TimedOut`]
//! with all partial data preserved inside the `BufRead` buffer and the
//! accumulator, so callers can poll a drain flag and resume mid-line.

use std::io::{BufRead, ErrorKind};

/// Outcome of one [`CappedLineReader::read_line`] call.
#[derive(Debug)]
pub enum LineRead {
    /// One complete line, without its trailing newline.
    Line(String),
    /// The current line exceeded the cap. Reported once per oversize
    /// line; subsequent calls silently discard until the line ends, then
    /// resume with the next line.
    TooLarge,
    /// The underlying read timed out mid-line (the socket has a read
    /// timeout). Nothing is lost; call again to continue.
    TimedOut,
    /// Clean end of stream.
    Eof,
}

/// A line reader that never buffers more than `cap` bytes per line (see
/// the module docs).
pub struct CappedLineReader<R> {
    inner: R,
    buf: Vec<u8>,
    cap: usize,
    /// Inside an oversize line whose `TooLarge` has already been
    /// reported: drop bytes until the next newline.
    discarding: bool,
}

impl<R: BufRead> CappedLineReader<R> {
    /// Wraps `inner`, capping every line at `cap` bytes (minimum 1).
    pub fn new(inner: R, cap: usize) -> Self {
        CappedLineReader {
            inner,
            buf: Vec::new(),
            cap: cap.max(1),
            discarding: false,
        }
    }

    /// Reads until the next newline, the cap, a timeout, or EOF.
    pub fn read_line(&mut self) -> std::io::Result<LineRead> {
        loop {
            // Copy out what the buffer holds, then consume outside the
            // borrow; `fill_buf` is not re-called until the chunk is used.
            let (consumed, newline_at) = {
                let available = match self.inner.fill_buf() {
                    Ok(bytes) => bytes,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                        return Ok(LineRead::TimedOut)
                    }
                    Err(e) => return Err(e),
                };
                if available.is_empty() {
                    // EOF. An unterminated final line still counts as a
                    // line (like `BufRead::read_line`); a second call
                    // then yields `Eof` from the now-empty buffer.
                    if self.buf.is_empty() || self.discarding {
                        return Ok(LineRead::Eof);
                    }
                    let text = String::from_utf8_lossy(&self.buf).into_owned();
                    self.buf.clear();
                    return Ok(LineRead::Line(text));
                }
                match available.iter().position(|&b| b == b'\n') {
                    Some(pos) => {
                        if !self.discarding {
                            self.buf.extend_from_slice(&available[..pos]);
                        }
                        (pos + 1, true)
                    }
                    None => {
                        if !self.discarding {
                            self.buf.extend_from_slice(available);
                        }
                        (available.len(), false)
                    }
                }
            };
            self.inner.consume(consumed);
            if self.discarding {
                if newline_at {
                    // The oversize line (already reported) ends here.
                    self.discarding = false;
                }
                continue;
            }
            if self.buf.len() > self.cap {
                self.buf.clear();
                // If the newline already arrived the line is over;
                // otherwise keep discarding its remainder silently.
                self.discarding = !newline_at;
                return Ok(LineRead::TooLarge);
            }
            if newline_at {
                let text = String::from_utf8_lossy(&self.buf).into_owned();
                self.buf.clear();
                return Ok(LineRead::Line(text));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn reader(text: &str, cap: usize) -> CappedLineReader<BufReader<&[u8]>> {
        // A 3-byte BufReader forces every code path to handle lines
        // spanning many fill_buf chunks.
        CappedLineReader::new(BufReader::with_capacity(3, text.as_bytes()), cap)
    }

    fn lines(r: &mut CappedLineReader<BufReader<&[u8]>>) -> Vec<String> {
        let mut out = Vec::new();
        loop {
            match r.read_line().expect("read") {
                LineRead::Line(l) => out.push(l),
                LineRead::TooLarge => out.push("<too large>".to_string()),
                LineRead::TimedOut => unreachable!("in-memory reader"),
                LineRead::Eof => return out,
            }
        }
    }

    #[test]
    fn reads_lines_within_cap() {
        let mut r = reader("alpha\nbeta\n\ngamma", 64);
        assert_eq!(lines(&mut r), ["alpha", "beta", "", "gamma"]);
    }

    #[test]
    fn oversize_line_reported_once_and_skipped() {
        let mut r = reader("ok\n0123456789abcdef\nafter\n", 8);
        assert_eq!(lines(&mut r), ["ok", "<too large>", "after"]);
    }

    #[test]
    fn oversize_line_with_late_newline_is_streamed_not_stored() {
        // 1 MiB of junk against an 8-byte cap: the reader must discard,
        // not accumulate.
        let mut big = "x".repeat(1 << 20);
        big.push('\n');
        big.push_str("tail\n");
        let mut r = CappedLineReader::new(BufReader::with_capacity(512, big.as_bytes()), 8);
        assert!(matches!(r.read_line().unwrap(), LineRead::TooLarge));
        assert!(r.buf.len() <= 8, "accumulator stayed bounded");
        match r.read_line().unwrap() {
            LineRead::Line(l) => assert_eq!(l, "tail"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn exactly_cap_sized_line_is_fine() {
        let mut r = reader("12345678\n", 8);
        assert_eq!(lines(&mut r), ["12345678"]);
    }

    #[test]
    fn consecutive_oversize_lines_each_report() {
        let mut r = reader("aaaaaaaaaaaa\nbbbbbbbbbbbb\nok\n", 4);
        assert_eq!(lines(&mut r), ["<too large>", "<too large>", "ok"]);
    }

    #[test]
    fn unterminated_final_line_surfaces_before_eof() {
        // No trailing newline: the fragment still comes out as a line
        // (matching `BufRead::read_line`), then EOF.
        let mut r = reader("whole\npartial", 64);
        match r.read_line().unwrap() {
            LineRead::Line(l) => assert_eq!(l, "whole"),
            other => panic!("{other:?}"),
        }
        match r.read_line().unwrap() {
            LineRead::Line(l) => assert_eq!(l, "partial"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(r.read_line().unwrap(), LineRead::Eof));
    }
}

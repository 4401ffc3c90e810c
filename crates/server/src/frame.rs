//! Sans-IO framing: bytes in, newline-delimited frames out.
//!
//! [`FrameDecoder`] is the one framer of both serving drivers: the TCP
//! front end reads the socket into it, `cr-sim` pushes its clients'
//! bytes. It owns the frame cap — a frame plus its newline is at most
//! [`MAX_FRAME`] bytes, however many reads it spans — decodes each frame
//! as lossy UTF-8, trims it (so `\r\n` works), and skips blank lines.
//! Its buffer grows on demand and is reused, so a warm decoder yields
//! frames without allocating.

use std::borrow::Cow;
use std::fmt;
use std::io::{self, Read};

/// Longest accepted frame in bytes, including its newline.
pub const MAX_FRAME: usize = 64 * 1024;

/// Spare room guaranteed to every [`FrameDecoder::read_from`] call.
const READ_CHUNK: usize = 8 * 1024;

/// Why the decoder refused the byte stream. The connection must close:
/// the decoder gives the same error for as long as it is asked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// [`MAX_FRAME`] bytes arrived without completing a frame.
    TooLong,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooLong => f.write_str("frame exceeds 64KiB"),
        }
    }
}

/// Accumulates received bytes and yields complete frames.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Received bytes live in `buf[start..end]`; `buf[end..]` is spare
    /// room, zeroed once when the buffer grows.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// `buf[start..scan]` is known to hold no newline.
    scan: usize,
}

impl FrameDecoder {
    /// An empty decoder; it allocates on the first bytes it receives.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Append bytes received from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        let at = self.make_room(bytes.len());
        if let Some(dst) = self.buf.get_mut(at..at + bytes.len()) {
            dst.copy_from_slice(bytes);
            self.end += bytes.len();
        }
    }

    /// One `read` from `src` into the buffer, offering it at least 8 KiB
    /// of room. Returns the byte count; `Ok(0)` is end of stream.
    pub fn read_from<R: Read>(&mut self, src: &mut R) -> io::Result<usize> {
        let at = self.make_room(READ_CHUNK);
        let n = src.read(self.buf.get_mut(at..).unwrap_or_default())?;
        self.end += n;
        Ok(n)
    }

    /// The next complete, non-blank frame, trimmed; `None` until more
    /// bytes arrive. Borrowed from the buffer unless the frame held
    /// invalid UTF-8.
    pub fn next_frame(&mut self) -> Option<Result<Cow<'_, str>, FrameError>> {
        let (s, e) = loop {
            match self.split()? {
                Ok((s, e)) if is_blank(self.buf.get(s..e).unwrap_or_default()) => {}
                Ok(span) => break span,
                Err(err) => return Some(Err(err)),
            }
        };
        Some(Ok(decode(self.buf.get(s..e).unwrap_or_default())))
    }

    /// End of stream: terminate a final unterminated frame, so that
    /// [`FrameDecoder::next_frame`] yields it.
    pub fn finish(&mut self) {
        self.push(b"\n");
    }

    /// Find the next frame's span, consuming it and its newline. A
    /// newline more than [`MAX_FRAME`] - 1 bytes into the pending frame
    /// is never looked for: the frame is too long either way.
    // lint: hot
    fn split(&mut self) -> Option<Result<(usize, usize), FrameError>> {
        let limit = self.end.min(self.start + MAX_FRAME);
        let pending = self.buf.get(self.scan..limit).unwrap_or_default();
        match pending.iter().position(|&b| b == b'\n') {
            Some(i) => {
                let (s, e) = (self.start, self.scan + i);
                self.start = e + 1;
                self.scan = self.start;
                Some(Ok((s, e)))
            }
            None if limit - self.start >= MAX_FRAME => Some(Err(FrameError::TooLong)),
            None => {
                self.scan = limit;
                None
            }
        }
    }

    /// Move the pending bytes to the front and make sure `room` spare
    /// bytes follow them; returns where new bytes go.
    fn make_room(&mut self, room: usize) -> usize {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.scan -= self.start;
            self.start = 0;
        }
        if self.buf.len() < self.end + room {
            self.buf.resize(self.end + room, 0);
        }
        self.end
    }
}

/// Whether a frame is empty once trimmed (invalid UTF-8 never is).
fn is_blank(line: &[u8]) -> bool {
    std::str::from_utf8(line).is_ok_and(|s| s.trim().is_empty())
}

/// Lossy UTF-8 decode, trimmed.
fn decode(line: &[u8]) -> Cow<'_, str> {
    match String::from_utf8_lossy(line) {
        Cow::Borrowed(s) => Cow::Borrowed(s.trim()),
        Cow::Owned(s) => Cow::Owned(s.trim().to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrng::{rng_from_seed, Rng};

    /// Everything the decoder yields for `chunks` delivered in order,
    /// then end of stream; `Err` ends the stream.
    fn frames(chunks: &[&[u8]]) -> Vec<Result<String, FrameError>> {
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for chunk in chunks {
            dec.push(chunk);
            while let Some(f) = dec.next_frame() {
                let stop = f.is_err();
                out.push(f.map(Cow::into_owned));
                if stop {
                    return out;
                }
            }
        }
        dec.finish();
        while let Some(f) = dec.next_frame() {
            out.push(f.map(Cow::into_owned));
        }
        out
    }

    fn ok(lines: &[&str]) -> Vec<Result<String, FrameError>> {
        lines.iter().map(|l| Ok(l.to_string())).collect()
    }

    #[test]
    fn trims_skips_blanks_and_keeps_the_tail() {
        let got = frames(&[b"PING\r\n\n  \r\nSTATS 3 \n\xff\xfe OPEN\nQUIT"]);
        let mut want = ok(&["PING", "STATS 3"]);
        want.push(Ok("\u{fffd}\u{fffd} OPEN".to_string()));
        want.extend(ok(&["QUIT"]));
        assert_eq!(got, want);
        assert_eq!(frames(&[b"PING\n  \r"]), ok(&["PING"]));
        assert!(frames(&[b""]).is_empty());
    }

    #[test]
    fn cap_counts_the_newline() {
        let mut fits = vec![b'x'; MAX_FRAME - 1];
        fits.push(b'\n');
        assert_eq!(frames(&[&fits]).len(), 1);
        let mut over = vec![b'x'; MAX_FRAME];
        over.push(b'\n');
        assert_eq!(frames(&[&over]), vec![Err(FrameError::TooLong)]);
        assert_eq!(
            frames(&[&over[..MAX_FRAME]]),
            vec![Err(FrameError::TooLong)]
        );
        // An unterminated tail just under the cap is still a frame.
        assert_eq!(frames(&[&fits[..MAX_FRAME - 1]]).len(), 1);
    }

    /// The frames must not depend on how the stream was cut into reads.
    #[test]
    fn split_invariance() {
        let mut stream = Vec::new();
        stream.extend_from_slice(b"OPEN 8 64 hashed seed=3\r\n\r\n\n");
        stream.extend_from_slice(b"\xff\xfeSTATS \xc3\x28 1\n   \t\n");
        for sid in 0..16 {
            stream.extend_from_slice(format!("STEPN {sid} 8 uniform\n").as_bytes());
        }
        stream.extend_from_slice("TRACE 1 \u{00e9}\u{4e16}\r\n".as_bytes());
        stream.extend_from_slice(b"CLOSE 1");
        let whole = frames(&[&stream]);
        assert_eq!(whole.len(), 20, "{whole:?}");
        assert!(whole.iter().all(Result::is_ok));

        let mut rng = rng_from_seed(0x5eed_f4a3);
        for _ in 0..500 {
            let mut cuts: Vec<usize> = (0..1 + rng.below(12))
                .map(|_| rng.index(stream.len() + 1))
                .collect();
            cuts.push(0);
            cuts.push(stream.len());
            cuts.sort_unstable();
            let chunks: Vec<&[u8]> = cuts.windows(2).map(|w| &stream[w[0]..w[1]]).collect();
            assert_eq!(frames(&chunks), whole, "cuts {cuts:?}");
        }

        // One oversized frame spread over many small pushes is refused
        // once the cap is reached, never accepted at its newline.
        let mut long = b"PING\n".to_vec();
        long.resize(5 + MAX_FRAME + 100, b'y');
        long.push(b'\n');
        let chunks: Vec<&[u8]> = long.chunks(1 + rng.index(3000)).collect();
        assert_eq!(
            frames(&chunks),
            vec![Ok("PING".to_string()), Err(FrameError::TooLong)]
        );
    }

    #[test]
    fn read_from_offers_a_full_chunk() {
        struct Probe(usize);
        impl Read for Probe {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.0 = self.0.min(buf.len());
                buf[..5].copy_from_slice(b"PING\n");
                Ok(5)
            }
        }
        let mut dec = FrameDecoder::new();
        let mut probe = Probe(usize::MAX);
        for _ in 0..100 {
            assert_eq!(dec.read_from(&mut probe).unwrap(), 5);
            assert_eq!(dec.next_frame().unwrap().unwrap(), "PING");
        }
        assert!(probe.0 >= READ_CHUNK);
    }
}

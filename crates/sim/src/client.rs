//! Simulated framed clients: each one writes the real wire grammar
//! (`OPEN`/`STEPN`/`STATS`/`TRACE`/`VERIFY`/`CLOSE`) as bytes on its own
//! simulated connection, and [`deliver`] takes them through the serving
//! door a TCP connection uses — `cr_serve::frame::FrameDecoder`, then
//! `cr_serve::protocol::respond` — against the [`SimService`]. Only the
//! socket is missing.
//!
//! A client is a seeded state machine: open a session, drive its step
//! budget in random-sized `STEPN` chunks with occasional `STATS`/`TRACE`
//! probes, ask `VERIFY` for the PRAM verdict, then `CLOSE` and keep the
//! final trace hash. Chunk sizes and probe choices come from the
//! client's own forked rng, so two clients never share a stream and one
//! seed pins every frame of every client.

use cr_serve::frame::FrameDecoder;
use cr_serve::protocol::{respond, Response};
use simrng::{mix64, rng_from_seed, Rng, Xoshiro256pp};
use std::time::Duration;

use crate::service::SimService;

/// Write `bytes` on the connection whose receive side is `conn`, and
/// answer every frame they complete, in order — what the TCP front end
/// does with the bytes it reads. Stops at the first reply that closes
/// the connection. Chaos floods and clients go through this one door.
pub fn deliver(service: &SimService, conn: &mut FrameDecoder, bytes: &[u8]) -> Vec<Response> {
    conn.push(bytes);
    let mut replies = Vec::new();
    while let Some(frame) = conn.next_frame() {
        replies.push(respond(service, frame));
        if replies.last().is_some_and(|out| out.close) {
            break;
        }
    }
    replies
}

/// Per-client virtual think time between frames: 20–200µs.
const THINK_FLOOR_NS: u64 = 20_000;
const THINK_SPREAD_NS: u64 = 180_000;

/// Largest `STEPN` chunk a client requests at once.
const MAX_CHUNK: u64 = 32;

/// Why a client stopped before closing its session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Death {
    /// The session disappeared under it: shard crash or TTL eviction
    /// (`ERR shard down` / `ERR unknown session`). Expected under chaos.
    Lost,
    /// Any other error reply — never expected; fails the run.
    Error,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Opening,
    Running,
    Verifying,
    Closing,
    Closed,
    Dead(Death),
}

/// What one client did with its session, for the report.
#[derive(Debug, Clone)]
pub struct ClientOutcome {
    /// Client index.
    pub id: usize,
    /// Session id (0 if the open itself failed).
    pub sid: u64,
    /// `closed`, `lost`, or `error`.
    pub outcome: &'static str,
    /// Steps the service acknowledged.
    pub steps: u64,
    /// Final trace hash from `CLOSE` (closed clients only).
    pub trace: u64,
    /// The exact `OPEN` line sent — re-parsed for the golden replay.
    pub open_line: String,
    /// Whether `VERIFY` reported `verdict=consistent`.
    pub consistent: bool,
    /// Frames this client sent.
    pub frames: u64,
}

/// One simulated client.
pub struct SimClient {
    id: usize,
    rng: Xoshiro256pp,
    state: State,
    sid: u64,
    open_line: String,
    steps_target: u64,
    steps_done: u64,
    trace: u64,
    consistent: bool,
    frames: u64,
    /// Set by chaos: skip sending until this virtual instant — long
    /// enough past the session TTL that the sweeper evicts it first.
    stall_until_ns: Option<u64>,
    /// The receive side of this client's connection.
    conn: FrameDecoder,
}

/// What the executor should do after a wake.
pub enum Next {
    /// Schedule the next wake after this virtual delay.
    After(Duration),
    /// Terminal: no more wakes.
    Done,
}

impl SimClient {
    /// A fresh client. Its rng, session seed, and therefore every frame
    /// it will ever send derive from `(seed, id)` alone.
    pub fn new(
        seed: u64,
        id: usize,
        n: usize,
        m: usize,
        scheme: &str,
        steps: u64,
        ttl: Duration,
    ) -> SimClient {
        let client_seed = mix64(seed ^ mix64(id as u64 + 1));
        let ttl_ms = ttl.as_millis().max(1);
        SimClient {
            id,
            rng: rng_from_seed(client_seed),
            state: State::Opening,
            sid: 0,
            open_line: format!("OPEN {n} {m} {scheme} seed={client_seed} ttl-ms={ttl_ms}"),
            steps_target: steps.max(1),
            steps_done: 0,
            trace: 0,
            consistent: false,
            frames: 0,
            stall_until_ns: None,
            conn: FrameDecoder::new(),
        }
    }

    /// Whether this client is still driving its session.
    pub fn active(&self) -> bool {
        !matches!(self.state, State::Closed | State::Dead(_))
    }

    /// Whether this client holds a live session chaos can orphan.
    pub fn stallable(&self) -> bool {
        matches!(self.state, State::Running) && self.stall_until_ns.is_none()
    }

    /// Chaos: park the client past its session's TTL.
    pub fn stall(&mut self, until_ns: u64) {
        self.stall_until_ns = Some(until_ns);
    }

    /// This client's session id while one is live.
    pub fn sid(&self) -> u64 {
        self.sid
    }

    fn think(&mut self) -> Duration {
        Duration::from_nanos(THINK_FLOOR_NS + self.rng.below(THINK_SPREAD_NS))
    }

    /// Send the state machine's next frame through the real protocol
    /// and advance on the reply.
    pub fn wake(&mut self, service: &SimService, now_ns: u64) -> Next {
        if let Some(until) = self.stall_until_ns {
            if now_ns < until {
                // Parked by chaos: wake again once the TTL has passed.
                return Next::After(Duration::from_nanos(until - now_ns));
            }
            self.stall_until_ns = None;
        }
        let mut line = match self.state {
            State::Opening => self.open_line.clone(),
            State::Running => {
                // Mostly STEPN; occasionally probe STATS or TRACE (which
                // touch the session but never change its trace hash).
                if self.rng.chance(0.15) {
                    if self.rng.chance(0.5) {
                        format!("STATS {}", self.sid)
                    } else {
                        format!("TRACE {}", self.sid)
                    }
                } else {
                    let left = self.steps_target - self.steps_done;
                    let chunk = (1 + self.rng.below(MAX_CHUNK)).min(left);
                    format!("STEPN {} {chunk}", self.sid)
                }
            }
            State::Verifying => format!("VERIFY {}", self.sid),
            State::Closing => format!("CLOSE {}", self.sid),
            State::Closed | State::Dead(_) => return Next::Done,
        };
        self.frames += 1;
        line.push('\n');
        // One frame in, one reply out; no reply at all is an error.
        let reply = deliver(service, &mut self.conn, line.as_bytes())
            .pop()
            .map_or_else(String::new, |out| out.reply);
        self.advance(&reply);
        match self.state {
            State::Closed | State::Dead(_) => Next::Done,
            _ => Next::After(self.think()),
        }
    }

    fn advance(&mut self, reply: &str) {
        if let Some(err) = reply.strip_prefix("ERR ") {
            // Losing the session to a crash or eviction is a legitimate
            // chaos outcome; anything else is a client-visible bug.
            self.state = if err.starts_with("shard down") || err.starts_with("unknown session") {
                State::Dead(Death::Lost)
            } else {
                State::Dead(Death::Error)
            };
            return;
        }
        match self.state {
            State::Opening => match field(reply, "sid=").and_then(|v| v.parse().ok()) {
                Some(sid) => {
                    self.sid = sid;
                    self.state = State::Running;
                }
                None => self.state = State::Dead(Death::Error),
            },
            State::Running => {
                if let Some(executed) =
                    field(reply, "executed=").and_then(|v| v.parse::<u64>().ok())
                {
                    self.steps_done += executed;
                }
                if self.steps_done >= self.steps_target {
                    self.state = State::Verifying;
                }
            }
            State::Verifying => {
                self.consistent = field(reply, "verdict=") == Some("consistent");
                self.state = State::Closing;
            }
            State::Closing => {
                match field(reply, "trace=").and_then(|v| u64::from_str_radix(v, 16).ok()) {
                    Some(trace) => {
                        self.trace = trace;
                        self.state = State::Closed;
                    }
                    None => self.state = State::Dead(Death::Error),
                }
            }
            State::Closed | State::Dead(_) => {}
        }
    }

    /// Fold the final state into a report row.
    pub fn outcome(self) -> ClientOutcome {
        let outcome = match self.state {
            State::Closed => "closed",
            State::Dead(Death::Lost) => "lost",
            // A client still mid-flight at drain time never happens (the
            // executor only stops when every client is terminal), but
            // classify it as an error rather than hide it.
            _ => "error",
        };
        ClientOutcome {
            id: self.id,
            sid: self.sid,
            outcome,
            steps: self.steps_done,
            trace: self.trace,
            open_line: self.open_line,
            consistent: self.consistent,
            frames: self.frames,
        }
    }
}

/// The value of a `key=` field in a reply line (up to the next space).
fn field<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    let start = reply.find(key)? + key.len();
    let rest = &reply[start..];
    Some(rest.split_whitespace().next().unwrap_or(rest))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_extraction() {
        let r = "OK sid=7 shard=2 scheme=hashed r=1 modules=64";
        assert_eq!(field(r, "sid="), Some("7"));
        assert_eq!(field(r, "scheme="), Some("hashed"));
        assert_eq!(field(r, "modules="), Some("64"));
        assert_eq!(field(r, "nope="), None);
    }
}

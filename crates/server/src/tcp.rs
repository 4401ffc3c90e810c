//! The TCP front end: one accept loop, one thread per connection, the
//! newline-framed protocol of [`crate::protocol`].
//!
//! Every connection thread holds its own clone of the [`ServiceHandle`],
//! so frames go straight from the socket to the owning shard's queue —
//! the accept loop never touches a session. A connection is the socket
//! plus the two pieces `cr-sim` drives too: bytes go through a
//! [`FrameDecoder`] and every frame through [`respond`]. An unparseable
//! frame gets an `ERR` reply; a frame over [`MAX_FRAME`](crate::frame::MAX_FRAME)
//! bytes, however many reads it spans, gets an `ERR` reply and a
//! disconnect — never a panic.
//!
//! Replies are written as rendered plus one trailing newline. Multi-line
//! replies (`INFO`, `METRICS`, `EVENTS`) embed their payload newlines in
//! the rendered string and announce the count in the header's `lines=`
//! field, so this loop needs no special casing — clients read the header
//! line, then exactly that many more lines.
//!
//! The loop supports pipelining: clients may send a window of frames
//! without waiting, and replies come back one line per frame, in order.
//! Replies go through a [`BufWriter`] that is flushed only when the
//! decoder holds no further complete frame — a pipelined window costs one
//! write syscall, while a ping-pong client still sees every reply flushed
//! before the loop blocks on the socket again.

use std::io::{BufWriter, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::frame::FrameDecoder;
use crate::protocol::respond;
use crate::runtime::{Runtime, TaskHandle, ThreadRuntime};
use crate::service::ServiceHandle;

/// How often blocked socket reads / the accept loop re-check shutdown.
const POLL: Duration = Duration::from_millis(50);

/// A running TCP server (accept loop + connection threads).
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<TaskHandle>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral test port) and
    /// start accepting connections against `handle`'s service. The
    /// accept loop and every connection run on the production
    /// [`ThreadRuntime`] — the TCP front end is inherently an OS-thread
    /// affair; `cr-sim` drives the same decoder and [`respond`] with
    /// simulated clients instead of sockets.
    pub fn bind<A: ToSocketAddrs>(addr: A, handle: ServiceHandle) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let runtime = Arc::new(ThreadRuntime::real());
        let rt2 = Arc::clone(&runtime);
        let accept_thread = runtime
            .spawn(
                "cr-serve-accept",
                Box::new(move || accept_loop(listener, handle, stop2, rt2)),
            )
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        Ok(Server {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept loop. Live connection threads
    /// exit on their next poll tick.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            t.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    handle: ServiceHandle,
    stop: Arc<AtomicBool>,
    runtime: Arc<ThreadRuntime>,
) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Replies are small frames; without nodelay, Nagle +
                // delayed ACK add milliseconds to every round trip.
                let _ = stream.set_nodelay(true);
                let handle = handle.clone();
                let stop = Arc::clone(&stop);
                // Connection tasks are detached; they exit when the
                // client disconnects or the stop flag flips.
                let _ = runtime.spawn(
                    "cr-serve-conn",
                    Box::new(move || connection_loop(stream, handle, stop)),
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                runtime.sleep(POLL);
            }
            Err(_) => break,
        }
    }
}

fn connection_loop(mut stream: TcpStream, handle: ServiceHandle, stop: Arc<AtomicBool>) {
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => BufWriter::new(w),
        Err(_) => return,
    };
    // Partial frames survive read timeouts: the decoder holds them until
    // a newline (or EOF) completes them.
    let mut frames = FrameDecoder::new();
    let mut at_eof = false;
    while !stop.load(Ordering::Relaxed) {
        while let Some(frame) = frames.next_frame() {
            let out = respond(&handle, frame);
            let sent = writer
                .write_all(out.reply.as_bytes())
                .and_then(|_| writer.write_all(b"\n"));
            if sent.is_err() || out.close {
                let _ = writer.flush();
                return;
            }
        }
        // Pipelining seam: the whole answered window goes out in one
        // syscall, once the client would actually have to wait for it.
        if writer.flush().is_err() || at_eof {
            return;
        }
        match frames.read_from(&mut stream) {
            Ok(0) => {
                // The final line may lack its newline.
                frames.finish();
                at_eof = true;
            }
            Ok(_) => {}
            // Idle or mid-frame: keep the partial frame, re-check stop.
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(_) => return,
        }
    }
}

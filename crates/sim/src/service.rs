//! The simulated service: the *same* [`ShardCore`]s production runs,
//! owned directly by one thread and driven synchronously.
//!
//! [`SimShards`] is a [`Transport`], so the simulated service is a plain
//! [`ServiceHandle`] ([`SimService`]): every typed command, and
//! `cr_serve::protocol::respond` on top of them, is the code the TCP
//! front end runs against the threaded handle. The only differences are
//! the driver mechanics: commands are handled inline (no queue wait),
//! reply channels are read back immediately, and a crashed core answers
//! `shard down` the way a dead worker's closed queue would.

use std::cell::RefCell;

use cr_core::clock::Tick;
use cr_serve::ServeError;
use cr_serve::{
    build_cores, chan, Reply, ReplyTx, ServiceConfig, ServiceHandle, ShardCmd, ShardCore, Transport,
};

/// The single-threaded stand-in for a running [`cr_serve::Service`].
pub type SimService = ServiceHandle<SimShards>;

/// The sim's transport: the shard cores themselves, handled inline.
pub struct SimShards {
    cores: RefCell<Vec<ShardCore>>,
    /// Mirrors [`cr_serve::ServiceConfig::queue_capacity`]: the storm
    /// injector inflates the depth gauge past this to reproduce a
    /// saturated queue's dequeue-side accounting.
    queue_capacity: usize,
}

impl Transport for SimShards {
    fn shards(&self) -> usize {
        self.cores.borrow().len()
    }

    /// Deliver one command to a shard and read back its reply — the
    /// synchronous analogue of enqueue → worker dequeue → reply recv.
    /// The reply channel has capacity 1 and each command sends exactly
    /// once, so the send never blocks and `try_recv` never misses.
    fn call(
        &self,
        shard: usize,
        make: impl FnOnce(ReplyTx) -> ShardCmd,
    ) -> Result<Reply, ServeError> {
        let mut cores = self.cores.borrow_mut();
        let core = cores.get_mut(shard).ok_or(ServeError::ShardDown)?;
        if core.is_down() {
            return Err(ServeError::ShardDown);
        }
        let (reply_tx, reply_rx) = chan(1);
        core.queue_depth_gauge().add(1);
        core.note_dequeue();
        core.handle(make(reply_tx));
        reply_rx.try_recv().ok_or(ServeError::ShardDown)?
    }
}

impl SimShards {
    /// Build the cores and registry exactly as [`cr_serve::Service`]
    /// would — same metric families, same event rings, same clock.
    pub fn service(cfg: &ServiceConfig) -> SimService {
        let (cores, registry) = build_cores(cfg);
        let shards = SimShards {
            cores: RefCell::new(cores),
            queue_capacity: cfg.queue_capacity.max(1),
        };
        ServiceHandle::new(shards, registry)
    }

    /// Live sessions across every core.
    pub fn live_sessions(&self) -> usize {
        self.cores.borrow().iter().map(|c| c.sessions()).sum()
    }

    /// Run one shard's TTL sweep (the executor's sweep events call this
    /// on the configured cadence, exactly like the thread driver's timer).
    pub fn sweep(&self, shard: usize, now: Tick) {
        if let Some(core) = self.cores.borrow_mut().get_mut(shard) {
            core.sweep(now);
        }
    }

    /// Chaos: crash a shard (sessions lost, commands refused until
    /// [`SimShards::restart`]). Returns sessions lost; `None` if the
    /// shard was already down or out of range.
    pub fn crash(&self, shard: usize) -> Option<usize> {
        match self.cores.borrow_mut().get_mut(shard) {
            Some(core) if !core.is_down() => Some(core.crash()),
            _ => None,
        }
    }

    /// Chaos: recover a crashed shard.
    pub fn restart(&self, shard: usize) {
        if let Some(core) = self.cores.borrow_mut().get_mut(shard) {
            if core.is_down() {
                core.restart();
            }
        }
    }

    /// Chaos: reproduce a queue-full storm's dequeue-side accounting —
    /// `burst` commands found the bounded queue at or past capacity, so
    /// the first dequeues record `queue_full` incidents. Returns how
    /// many incidents the core recorded.
    pub fn queue_storm(&self, shard: usize, burst: u64) -> u64 {
        let capacity = self.queue_capacity as u64;
        let mut cores = self.cores.borrow_mut();
        let Some(core) = cores.get_mut(shard) else {
            return 0;
        };
        if core.is_down() {
            return 0;
        }
        let depth = capacity + burst;
        core.queue_depth_gauge().add(depth);
        for _ in 0..depth {
            core.note_dequeue();
        }
        // Depths capacity+burst ..= capacity were at/past the threshold.
        burst + 1
    }
}

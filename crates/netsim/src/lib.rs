//! A deterministic, cycle-level message-passing network simulator.
//!
//! This is the substrate under the 2DMOT crate: nodes connected by directed
//! unit-capacity, unit-latency links, each node holding a FIFO queue.
//! Behavior (routing, consumption, reply generation) is supplied by the
//! [`Behavior`] trait; the engine provides timing, link arbitration,
//! queueing, and statistics.
//!
//! ## Timing model
//!
//! Per cycle:
//! 1. every occupied link delivers its packet into the destination node's
//!    queue, in edge-id order (packets arriving at a **full** queue are
//!    dropped and reported — this is the "collision kill" of the
//!    deterministic 2DMOT protocols);
//! 2. every node, in index order, scans its queue in FIFO order and, for
//!    each packet, asks the behavior to [`Route`] it: a forward claims the
//!    target link if it is free this cycle (one packet per link per cycle —
//!    otherwise the packet stalls in place), a consume removes the packet,
//!    optionally spawning a reply that waits at the node for the next cycle.
//!
//! A node's queue at the start of the next cycle is therefore: its stalled
//! packets (FIFO), then the replies it spawned (in spawn order), then the
//! packets that arrive over links (in edge-id order). The capacity check in
//! step 1 counts all three.
//!
//! A packet moves at most one hop per cycle, and contention for a
//! link serializes traffic — latency and congestion are *emergent*, which is
//! what makes the 2DMOT experiments measurements rather than formulas.
//!
//! Everything is deterministic: nodes are processed in index order and
//! queues are FIFO.

/// Node index in a [`Topology`].
pub type NodeId = usize;
/// Directed-edge index in a [`Topology`].
pub type EdgeId = usize;

/// A directed multigraph with per-node out-edge lists. Node and edge ids
/// are dense and fit in `u32`.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    out: Vec<Vec<EdgeId>>,
    /// Source node of each edge.
    tails: Vec<u32>,
    /// Destination node of each edge — the one lookup delivery makes.
    heads: Vec<u32>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node; returns its id (dense, starting at 0).
    pub fn add_node(&mut self) -> NodeId {
        self.add_nodes(1)
    }

    /// Add `count` nodes; returns the id of the first.
    pub fn add_nodes(&mut self, count: usize) -> NodeId {
        let first = self.out.len();
        assert!(
            first + count <= u32::MAX as usize,
            "node ids must fit in u32"
        );
        self.out.resize_with(first + count, Vec::new);
        first
    }

    /// Add a directed edge `from → to`; returns its id.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> EdgeId {
        assert!(
            from < self.out.len() && to < self.out.len(),
            "endpoints must exist"
        );
        let id = self.heads.len();
        assert!(id < u32::MAX as usize, "edge ids must fit in u32");
        self.tails.push(from as u32);
        self.heads.push(to as u32);
        self.out[from].push(id);
        id
    }

    /// Add a pair of directed edges (full-duplex link); returns
    /// `(forward, backward)`.
    pub fn add_duplex(&mut self, a: NodeId, b: NodeId) -> (EdgeId, EdgeId) {
        (self.add_edge(a, b), self.add_edge(b, a))
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.out.len()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.heads.len()
    }

    /// Out-edges of a node.
    pub fn out_edges(&self, n: NodeId) -> &[EdgeId] {
        &self.out[n]
    }

    /// `(from, to)` of an edge.
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        (self.tails[e] as NodeId, self.heads[e] as NodeId)
    }

    /// Maximum total degree (in + out) over all nodes — the quantity the
    /// BDN/DMBDN models bound.
    pub fn max_degree(&self) -> usize {
        let mut deg = vec![0usize; self.nodes()];
        for (&a, &b) in self.tails.iter().zip(&self.heads) {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
        deg.into_iter().max().unwrap_or(0)
    }
}

/// Why the engine dropped a packet (reported through the `on_drop`
/// callback of [`Engine::run_until_quiet`]).
///
/// The distinction matters to protocols: a queue-full kill is *transient*
/// (the same packet can be retried next phase and may get through), while a
/// dead link is a *permanent* fault — retrying the **same route** can never
/// succeed, so the protocol should either reroute (retry from a different
/// source) or write the request off instead of spinning on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Arrived at a node whose queue was full (the deterministic 2DMOT
    /// protocols' "collision kill").
    QueueFull,
    /// Tried to traverse a link marked dead via [`Engine::fail_link`].
    DeadLink,
}

/// What a node does with a packet this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Send over the given out-edge (must belong to the current node). If
    /// the link is already claimed this cycle the packet stalls in the
    /// queue and is retried next cycle.
    Forward(EdgeId),
    /// Final delivery at this node; [`Behavior::consume`] runs and may
    /// spawn a reply.
    Consume,
}

/// Node behavior: pure routing decisions plus consumption.
pub trait Behavior<T> {
    /// Decide what `node` does with `packet`.
    fn route(&mut self, node: NodeId, packet: &mut T, topo: &Topology) -> Route;

    /// Handle a consumed packet; optionally return a reply packet to be
    /// enqueued at this node on the next cycle.
    fn consume(&mut self, node: NodeId, packet: T, topo: &Topology) -> Option<T>;
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Per-node queue capacity for packets arriving over links; arrivals
    /// beyond this are dropped (collision kill). Locally spawned/injected
    /// packets are exempt (they model state already at the node).
    pub queue_capacity: usize,
    /// Hard cycle limit — exceeded means livelock; `run_until_quiet`
    /// panics, since every protocol here must drain.
    pub max_cycles: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            queue_capacity: 4,
            max_cycles: 1_000_000,
        }
    }
}

/// Statistics of one engine run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Cycles elapsed until quiescence.
    pub cycles: u64,
    /// Packets consumed (final deliveries).
    pub delivered: u64,
    /// Link-hops traversed (total link utilization).
    pub hops: u64,
    /// Packets dropped on arrival at a full queue.
    pub dropped: u64,
    /// Packets dropped because they were routed onto a dead link
    /// (fault injection via [`Engine::fail_link`]).
    pub link_faulted: u64,
}

/// The cycle engine. Owns transient state; borrows a topology and a
/// behavior per run.
///
/// Packets live in a slab: each takes one slot on injection and keeps it
/// until it is consumed or dropped (a reply reuses the slot of the packet
/// that spawned it). Per cycle the engine moves only `u64` handle keys
/// between three lists:
/// * `queued` — waiting packets, `node << 32 | slot`, ordered by node and
///   FIFO within a node;
/// * `flight` — packets on links, `edge << 32 | slot`, sorted once per
///   cycle so delivery runs in edge order;
/// * `arrivals` — injections and accepted deliveries since the last
///   routing pass, merged into `queued` behind each node's stalled
///   packets and replies.
///
/// Per-node `u32` queue lengths drive the capacity check. Link claims are
/// tracked only among the out-edges of the node being routed: only an
/// edge's tail can claim it, and delivery empties every link. Work per
/// cycle is proportional to the packets in the network, not to its size,
/// and every buffer is reused, so a steady-state run allocates nothing.
#[derive(Debug)]
pub struct Engine<T> {
    slab: Vec<Option<T>>,
    free: Vec<u32>,
    queued: Vec<u64>,
    flight: Vec<u64>,
    /// `node << 32 | seq`, where `seq` indexes `arrival_slots` (so sorting
    /// by key keeps arrivals at one node in the order they arrived).
    arrivals: Vec<u64>,
    arrival_slots: Vec<u32>,
    /// This cycle's routing pass: `queued` merged with `arrivals`.
    round: Vec<u64>,
    /// Replies spawned at the node being routed; they queue behind its
    /// stalled packets.
    replies: Vec<u64>,
    /// Out-edges the node being routed has claimed this cycle.
    claimed: Vec<u32>,
    /// Packets queued at each node (stalled, replies, arrivals).
    queue_len: Vec<u32>,
    /// Edges marked dead by fault injection; forwarding onto one drops the
    /// packet (reported with [`DropReason::DeadLink`]).
    dead_links: Vec<bool>,
    cfg: EngineConfig,
}

impl<T> Engine<T> {
    /// An engine sized for `topo`.
    pub fn new(topo: &Topology, cfg: EngineConfig) -> Self {
        Engine {
            slab: Vec::new(),
            free: Vec::new(),
            queued: Vec::new(),
            flight: Vec::new(),
            arrivals: Vec::new(),
            arrival_slots: Vec::new(),
            round: Vec::new(),
            replies: Vec::new(),
            claimed: Vec::new(),
            queue_len: vec![0; topo.nodes()],
            dead_links: vec![false; topo.edge_count()],
            cfg,
        }
    }

    /// Mark a directed edge as permanently dead: any packet routed onto it
    /// is dropped and reported with [`DropReason::DeadLink`].
    pub fn fail_link(&mut self, e: EdgeId) {
        self.dead_links[e] = true;
    }

    /// Number of edges currently marked dead.
    pub fn dead_link_count(&self) -> usize {
        self.dead_links.iter().filter(|&&d| d).count()
    }

    /// Inject a packet directly into a node's queue (bypasses capacity:
    /// models work originating at the node).
    pub fn inject(&mut self, node: NodeId, packet: T) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(packet);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("packet slots fit in u32");
                self.slab.push(Some(packet));
                slot
            }
        };
        self.queue_len[node] += 1;
        self.arrivals
            .push((node as u64) << 32 | self.arrival_slots.len() as u64);
        self.arrival_slots.push(slot);
    }

    /// Run until no packet remains queued or in flight. Returns statistics;
    /// dropped packets are handed to `on_drop` with the [`DropReason`] so
    /// protocols can mark the corresponding requests failed (transiently
    /// for queue overflows, permanently for dead links).
    ///
    /// Panics when `max_cycles` is exceeded (a protocol bug, not a
    /// condition to handle).
    // lint: hot
    pub fn run_until_quiet<B: Behavior<T>>(
        &mut self,
        topo: &Topology,
        behavior: &mut B,
        mut on_drop: impl FnMut(T, DropReason),
    ) -> RunStats {
        let Engine {
            slab,
            free,
            queued,
            flight,
            arrivals,
            arrival_slots,
            round,
            replies,
            claimed,
            queue_len,
            dead_links,
            cfg,
        } = self;
        let capacity = cfg.queue_capacity;
        let mut stats = RunStats::default();

        while !flight.is_empty() || !queued.is_empty() || !arrivals.is_empty() {
            assert!(
                stats.cycles < cfg.max_cycles,
                "network did not quiesce within {} cycles (protocol livelock)",
                cfg.max_cycles
            );
            stats.cycles += 1;

            // 1. Deliver in-flight packets in edge order.
            flight.sort_unstable();
            for &key in flight.iter() {
                let slot = key as u32;
                let to = topo.heads[(key >> 32) as usize] as NodeId;
                if queue_len[to] as usize >= capacity {
                    stats.dropped += 1;
                    free.push(slot);
                    on_drop(take(slab, slot), DropReason::QueueFull);
                } else {
                    queue_len[to] += 1;
                    arrivals.push((to as u64) << 32 | arrival_slots.len() as u64);
                    arrival_slots.push(slot);
                }
            }
            flight.clear();

            // Each node's arrivals queue behind its stalled packets and
            // replies: a stable merge by node.
            arrivals.sort_unstable();
            round.clear();
            let mut arrived = arrivals
                .iter()
                .map(|&k| (k >> 32) << 32 | arrival_slots[k as u32 as usize] as u64)
                .peekable();
            for &key in queued.iter() {
                while let Some(a) = arrived.next_if(|&a| a >> 32 < key >> 32) {
                    round.push(a);
                }
                round.push(key);
            }
            round.extend(arrived);
            queued.clear();
            arrivals.clear();
            arrival_slots.clear();

            // 2. Route each node's queue: nodes in index order, FIFO within
            //    a node, one packet per out-edge per cycle (a packet whose
            //    link is taken stalls and keeps its FIFO position).
            for group in round.chunk_by(|a, b| a >> 32 == b >> 32) {
                let node = (group[0] >> 32) as NodeId;
                claimed.clear();
                for &key in group {
                    let slot = key as u32;
                    let packet = slab[slot as usize]
                        .as_mut()
                        .expect("queued slot holds a packet");
                    match behavior.route(node, packet, topo) {
                        Route::Forward(e) => {
                            debug_assert_eq!(topo.endpoints(e).0, node, "edge must leave node");
                            if dead_links[e] {
                                stats.link_faulted += 1;
                                queue_len[node] -= 1;
                                free.push(slot);
                                on_drop(take(slab, slot), DropReason::DeadLink);
                            } else if claimed.contains(&(e as u32)) {
                                queued.push(key); // stalled: link busy this cycle
                            } else {
                                claimed.push(e as u32);
                                flight.push((e as u64) << 32 | slot as u64);
                                queue_len[node] -= 1;
                                stats.hops += 1;
                            }
                        }
                        Route::Consume => {
                            stats.delivered += 1;
                            match behavior.consume(node, take(slab, slot), topo) {
                                Some(reply) => {
                                    slab[slot as usize] = Some(reply);
                                    replies.push(key);
                                }
                                None => {
                                    queue_len[node] -= 1;
                                    free.push(slot);
                                }
                            }
                        }
                    }
                }
                // Replies spawned here queue behind the stalled packets.
                queued.append(replies);
            }
        }
        stats
    }
}

/// Move the packet out of `slot`, leaving it empty.
#[inline]
fn take<T>(slab: &mut [Option<T>], slot: u32) -> T {
    slab[slot as usize]
        .take()
        .expect("live slot holds a packet")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A packet that walks toward `dest` along a path graph.
    #[derive(Debug, Clone)]
    struct WalkPacket {
        dest: NodeId,
        id: usize,
    }

    /// Routes greedily along the single out-edge of a path graph.
    struct LineBehavior {
        consumed: Vec<usize>,
    }

    impl Behavior<WalkPacket> for LineBehavior {
        fn route(&mut self, node: NodeId, p: &mut WalkPacket, topo: &Topology) -> Route {
            if node == p.dest {
                Route::Consume
            } else {
                Route::Forward(topo.out_edges(node)[0])
            }
        }
        fn consume(&mut self, _node: NodeId, p: WalkPacket, _t: &Topology) -> Option<WalkPacket> {
            self.consumed.push(p.id);
            None
        }
    }

    fn line(k: usize) -> Topology {
        let mut t = Topology::new();
        t.add_nodes(k);
        for i in 0..k - 1 {
            t.add_edge(i, i + 1);
        }
        t
    }

    #[test]
    fn unit_latency_per_hop() {
        let topo = line(5); // 0 -> 1 -> 2 -> 3 -> 4
        let mut eng = Engine::new(&topo, EngineConfig::default());
        eng.inject(0, WalkPacket { dest: 4, id: 1 });
        let mut b = LineBehavior { consumed: vec![] };
        let stats = eng.run_until_quiet(&topo, &mut b, |_, _| {});
        assert_eq!(b.consumed, vec![1]);
        assert_eq!(stats.hops, 4);
        // 4 hops at 1 cycle each + the consume cycle.
        assert_eq!(stats.cycles, 5);
        assert_eq!(stats.delivered, 1);
    }

    #[test]
    fn link_contention_serializes() {
        let topo = line(3);
        let mut eng = Engine::new(&topo, EngineConfig::default());
        for id in 0..4 {
            eng.inject(0, WalkPacket { dest: 2, id });
        }
        let mut b = LineBehavior { consumed: vec![] };
        let stats = eng.run_until_quiet(&topo, &mut b, |_, _| {});
        assert_eq!(b.consumed.len(), 4);
        // FIFO order preserved.
        assert_eq!(b.consumed, vec![0, 1, 2, 3]);
        // Pipeline: first arrives after 2 hops (+consume), one more each cycle.
        assert!(
            stats.cycles >= 6,
            "4 packets over a shared link must serialize"
        );
        assert_eq!(stats.hops, 8);
    }

    #[test]
    fn queue_overflow_drops_and_reports() {
        // Two sources feed one sink whose queue holds 1 packet.
        let mut topo = Topology::new();
        let s0 = topo.add_node();
        let s1 = topo.add_node();
        let sink = topo.add_node();
        topo.add_edge(s0, sink);
        topo.add_edge(s1, sink);
        let mut eng = Engine::new(
            &topo,
            EngineConfig {
                queue_capacity: 1,
                max_cycles: 100,
            },
        );
        eng.inject(s0, WalkPacket { dest: sink, id: 10 });
        eng.inject(s1, WalkPacket { dest: sink, id: 11 });
        let mut b = LineBehavior { consumed: vec![] };
        let mut dropped = Vec::new();
        let stats = eng.run_until_quiet(&topo, &mut b, |p, r| dropped.push((p.id, r)));
        // Both arrive in the same cycle at a capacity-1 queue: one dies.
        assert_eq!(stats.dropped, 1);
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].1, DropReason::QueueFull);
        assert_eq!(b.consumed.len(), 1);
    }

    /// The queue-full "collision kill" path: dropped packets are counted
    /// and reported, and the engine stays deterministic afterward — the
    /// same injection pattern on the same engine reproduces the same drops,
    /// deliveries, and cycle count.
    #[test]
    fn queue_overflow_is_counted_and_engine_stays_deterministic() {
        // Four sources feed one sink whose queue holds 2 packets.
        let mut topo = Topology::new();
        let sources: Vec<NodeId> = (0..4).map(|_| topo.add_node()).collect();
        let sink = topo.add_node();
        for &s in &sources {
            topo.add_edge(s, sink);
        }
        let mut eng = Engine::new(
            &topo,
            EngineConfig {
                queue_capacity: 2,
                max_cycles: 100,
            },
        );
        let run = |eng: &mut Engine<WalkPacket>| {
            for (id, &s) in sources.iter().enumerate() {
                eng.inject(s, WalkPacket { dest: sink, id });
            }
            let mut b = LineBehavior { consumed: vec![] };
            let mut dropped = Vec::new();
            let stats = eng.run_until_quiet(&topo, &mut b, |p, r| {
                assert_eq!(r, DropReason::QueueFull);
                dropped.push(p.id);
            });
            (stats, b.consumed, dropped)
        };
        let (s1, c1, d1) = run(&mut eng);
        // All four arrive in the same cycle; capacity 2 kills exactly two,
        // and every packet is accounted for exactly once.
        assert_eq!(s1.dropped, 2);
        assert_eq!(d1.len(), 2);
        assert_eq!(c1.len() + d1.len(), 4);
        // A drained engine is reusable and bit-deterministic: same batch,
        // same outcome.
        let (s2, c2, d2) = run(&mut eng);
        assert_eq!(s2.dropped, s1.dropped);
        assert_eq!(s2.cycles, s1.cycles);
        assert_eq!(c2, c1);
        assert_eq!(d2, d1);
    }

    #[test]
    fn dead_link_drops_at_forward_time() {
        let topo = line(4); // 0 -> 1 -> 2 -> 3
        let mut eng = Engine::new(&topo, EngineConfig::default());
        // Kill the 1 -> 2 edge: packets die when node 1 tries to forward.
        eng.fail_link(1);
        assert_eq!(eng.dead_link_count(), 1);
        eng.inject(0, WalkPacket { dest: 3, id: 7 });
        let mut b = LineBehavior { consumed: vec![] };
        let mut dropped = Vec::new();
        let stats = eng.run_until_quiet(&topo, &mut b, |p, r| dropped.push((p.id, r)));
        assert!(b.consumed.is_empty());
        assert_eq!(stats.link_faulted, 1);
        assert_eq!(stats.dropped, 0);
        assert_eq!(dropped, vec![(7, DropReason::DeadLink)]);
        // Only the 0 -> 1 hop was traversed.
        assert_eq!(stats.hops, 1);
    }

    #[test]
    fn consume_can_spawn_reply() {
        // 0 <-> 1; a request 0->1 spawns a reply 1->0.
        let mut topo = Topology::new();
        let a = topo.add_node();
        let bnode = topo.add_node();
        let (fwd, back) = topo.add_duplex(a, bnode);

        #[derive(Debug)]
        struct ReqRep {
            is_reply: bool,
        }
        struct RB {
            replies_received: usize,
            fwd: EdgeId,
            back: EdgeId,
            a: NodeId,
            b: NodeId,
        }
        impl Behavior<ReqRep> for RB {
            fn route(&mut self, node: NodeId, p: &mut ReqRep, _t: &Topology) -> Route {
                match (node, p.is_reply) {
                    (n, false) if n == self.a => Route::Forward(self.fwd),
                    (n, false) if n == self.b => Route::Consume,
                    (n, true) if n == self.b => Route::Forward(self.back),
                    (n, true) if n == self.a => Route::Consume,
                    _ => unreachable!(),
                }
            }
            fn consume(&mut self, node: NodeId, p: ReqRep, _t: &Topology) -> Option<ReqRep> {
                if p.is_reply {
                    self.replies_received += 1;
                    None
                } else {
                    debug_assert_eq!(node, self.b);
                    Some(ReqRep { is_reply: true })
                }
            }
        }

        let mut eng = Engine::new(&topo, EngineConfig::default());
        eng.inject(a, ReqRep { is_reply: false });
        let mut b = RB {
            replies_received: 0,
            fwd,
            back,
            a,
            b: bnode,
        };
        let stats = eng.run_until_quiet(&topo, &mut b, |_, _| {});
        assert_eq!(b.replies_received, 1);
        assert_eq!(stats.delivered, 2); // request + reply
        assert_eq!(stats.hops, 2);
    }

    #[test]
    #[should_panic(expected = "livelock")]
    fn livelock_detected() {
        // A packet that forwards around a 2-cycle forever.
        let mut topo = Topology::new();
        let a = topo.add_node();
        let b = topo.add_node();
        topo.add_duplex(a, b);
        struct Spin;
        impl Behavior<u32> for Spin {
            fn route(&mut self, node: NodeId, _p: &mut u32, topo: &Topology) -> Route {
                Route::Forward(topo.out_edges(node)[0])
            }
            fn consume(&mut self, _n: NodeId, _p: u32, _t: &Topology) -> Option<u32> {
                None
            }
        }
        let mut eng = Engine::new(
            &topo,
            EngineConfig {
                queue_capacity: 4,
                max_cycles: 50,
            },
        );
        eng.inject(a, 0);
        let _ = eng.run_until_quiet(&topo, &mut Spin, |_, _| {});
    }

    #[test]
    fn topology_accessors() {
        let mut t = Topology::new();
        let n0 = t.add_node();
        let n1 = t.add_node();
        let e = t.add_edge(n0, n1);
        assert_eq!(t.nodes(), 2);
        assert_eq!(t.edge_count(), 1);
        assert_eq!(t.endpoints(e), (n0, n1));
        assert_eq!(t.out_edges(n0), &[e]);
        assert_eq!(t.max_degree(), 1);
        let first = t.add_nodes(3);
        assert_eq!(first, 2);
        assert_eq!(t.nodes(), 5);
    }

    #[test]
    fn distinct_out_edges_move_in_same_cycle() {
        // One node fans out to two sinks; both packets leave in cycle 1.
        let mut topo = Topology::new();
        let src = topo.add_node();
        let s1 = topo.add_node();
        let s2 = topo.add_node();
        let e1 = topo.add_edge(src, s1);
        let e2 = topo.add_edge(src, s2);

        struct Fan {
            e1: EdgeId,
            e2: EdgeId,
            src: NodeId,
            got: usize,
        }
        impl Behavior<usize> for Fan {
            fn route(&mut self, node: NodeId, p: &mut usize, _t: &Topology) -> Route {
                if node == self.src {
                    Route::Forward(if *p == 0 { self.e1 } else { self.e2 })
                } else {
                    Route::Consume
                }
            }
            fn consume(&mut self, _n: NodeId, _p: usize, _t: &Topology) -> Option<usize> {
                self.got += 1;
                None
            }
        }

        let mut eng = Engine::new(&topo, EngineConfig::default());
        eng.inject(src, 0);
        eng.inject(src, 1);
        let mut b = Fan {
            e1,
            e2,
            src,
            got: 0,
        };
        let stats = eng.run_until_quiet(&topo, &mut b, |_, _| {});
        assert_eq!(b.got, 2);
        // Both depart cycle 1, arrive cycle 2, consumed cycle 2.
        assert_eq!(stats.cycles, 2);
    }
}

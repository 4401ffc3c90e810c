//! The flat data plane's headline invariant, asserted: after warm-up, the
//! DMMPC protocol path performs **zero heap allocations** per step — and
//! therefore per phase (DESIGN.md §7).
//!
//! This test binary installs the counting global allocator from
//! `metrics::counting` (each Rust test binary may have its own global
//! allocator), warms a scheme/workspace to steady-state capacity, and then
//! counts allocations across whole protocol runs.
//!
//! Counting windows use the **thread-attributed** counter
//! (`counting::thread_allocations`), not the process-global one: libtest
//! runs tests on worker threads and allocates on the main thread (test
//! spawning, event plumbing), which polluted process-global windows under
//! load. Each window here counts exactly what *its* thread allocated, so
//! the assertions stay strict per-window.

use pramsim::core::protocol::{run_protocol, FlatPlacement, ProtocolWorkspace};
use pramsim::core::{executors::BipartiteExec, SchemeConfig, SchemeKind, SimBuilder};
use pramsim::memdist::{Clusters, MemoryMap};
use pramsim::metrics::counting;
use pramsim::serve::frame::FrameDecoder;
use pramsim::simrng::rng_from_seed;

#[global_allocator]
static ALLOC: counting::CountingAlloc = counting::CountingAlloc;

/// Zero allocations across entire `run_protocol` calls (hence zero per
/// phase) on the DMMPC path, once the workspace has warmed up. Covers the
/// workload regime (`r = 11`, one copy-mask word per request) and the
/// two-processor regime the builder gives `c = 40`, `r = 79` (two words).
#[test]
fn dmmpc_protocol_steps_allocate_nothing_after_warmup() {
    assert!(
        counting::is_active(),
        "counting allocator must be installed"
    );
    for (n, m, words) in [(256usize, 1024usize, 1usize), (2, 1024, 2)] {
        let cfg = SimBuilder::new(n, m)
            .kind(SchemeKind::HpDmmpc)
            .seed(3)
            .fine_config()
            .expect("regime is feasible");
        assert_eq!(cfg.redundancy().div_ceil(64), words, "n = {n}");
        assert_protocol_steps_allocate_nothing(n, m, &cfg);
    }
}

fn assert_protocol_steps_allocate_nothing(n: usize, m: usize, cfg: &SchemeConfig) {
    let r = cfg.redundancy();
    let map = MemoryMap::random(cfg.m, cfg.modules, r, cfg.seed);
    let clusters = Clusters::new(n, r);
    let mut exec = BipartiteExec::new(cfg.modules);
    let mut ws = ProtocolWorkspace::new();

    // A mix of step shapes, including the largest first — warm-up must
    // leave every buffer at its high-water capacity.
    let mut rng = rng_from_seed(77);
    let steps: Vec<Vec<(usize, usize)>> = (0..6)
        .map(|k| {
            let p = workloads::uniform(n - k * (n / 16), m, 0.0, &mut rng);
            p.reads.iter().copied().enumerate().collect()
        })
        .collect();
    let drive = |exec: &mut BipartiteExec, ws: &mut ProtocolWorkspace| {
        for rq in &steps {
            let stats = run_protocol(
                rq,
                &clusters,
                cfg.c,
                r,
                &map,
                &FlatPlacement,
                exec,
                cfg.stage1_phases,
                cfg.stage2_pipeline,
                ws,
            );
            assert_eq!(stats.failed_requests, 0);
        }
    };

    drive(&mut exec, &mut ws); // warm-up: buffers grow to steady state
    let before = counting::thread_allocations();
    drive(&mut exec, &mut ws);
    drive(&mut exec, &mut ws);
    let after = counting::thread_allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state DMMPC protocol steps must not allocate (r = {r})"
    );
}

/// Every member of the zoo is bounded by the API's one unavoidable
/// allocation per step — the returned `read_values` vector — once warm.
/// This pins the regression class the IDA/hashed flattening fixed
/// (per-step `HashMap`s, Vec-returning codec calls, per-request
/// `collect()`s): a scheme whose data plane re-grows hidden allocations
/// fails its own row here, by name.
#[test]
fn every_scheme_allocates_at_most_the_result_vector_per_step() {
    assert!(
        counting::is_active(),
        "counting allocator must be installed"
    );
    for kind in SchemeKind::ALL {
        // The routed 2DMOT schemes simulate every packet; keep their
        // instances small (same policy as E15 and the golden snapshots).
        let (n, m) = match kind {
            SchemeKind::Hp2dmotLeaves | SchemeKind::Lpp2dmot => (8, 32),
            _ => (64, 256),
        };
        let mut s = SimBuilder::new(n, m)
            .kind(kind)
            .seed(9)
            .build()
            .expect("zoo regimes are feasible");
        let mut rng = rng_from_seed(79);
        let pool: Vec<workloads::StepPattern> = (0..8)
            .map(|_| workloads::uniform(n, m, 0.3, &mut rng))
            .collect();
        // Warm-up: several pool passes, so every reusable buffer reaches
        // its high-water capacity. (IDA's decode-matrix cache is already
        // complete at build time — the store prewarms one inverse per
        // write-rotation offset — so warm-up only grows plain buffers.)
        for _ in 0..4 {
            for p in &pool {
                s.access(&p.reads, &p.writes);
            }
        }
        let steps = 48;
        let before = counting::thread_allocations();
        for i in 0..steps {
            let p = &pool[i % pool.len()];
            s.access(&p.reads, &p.writes);
        }
        let allocs = counting::thread_allocations() - before;
        assert!(
            allocs <= steps as u64,
            "{kind}: expected ≤ 1 allocation per access (the read_values \
             result), got {allocs} over {steps} steps"
        );
        let (tot, warm_steps) = s.totals();
        assert_eq!(warm_steps as usize, 32 + steps);
        assert!(tot.requests > 0);
    }
}

/// The full scheme step (`access`) on the DMMPC path is bounded by the
/// API's one unavoidable allocation — the returned `read_values` vector —
/// once warm. (The protocol underneath contributes zero; see above.)
#[test]
fn dmmpc_access_steps_allocate_only_the_result_vector() {
    let (n, m) = (64usize, 256usize);
    let mut s = SimBuilder::new(n, m)
        .kind(SchemeKind::HpDmmpc)
        .seed(4)
        .build()
        .expect("regime is feasible");
    let mut rng = rng_from_seed(78);
    let pool: Vec<workloads::StepPattern> = (0..8)
        .map(|_| workloads::uniform(n, m, 0.3, &mut rng))
        .collect();
    for p in &pool {
        s.access(&p.reads, &p.writes); // warm-up
    }
    let steps = 32;
    let before = counting::thread_allocations();
    for i in 0..steps {
        let p = &pool[i % pool.len()];
        s.access(&p.reads, &p.writes);
    }
    let allocs = counting::thread_allocations() - before;
    assert!(
        allocs <= steps as u64,
        "expected ≤ 1 allocation per access (the read_values result), got {allocs} over {steps} steps"
    );
    let (tot, _) = s.totals();
    assert!(tot.phases > 0, "the steps actually ran the protocol");
}

/// Routing a batch through a warm `MotNetwork` allocates nothing: the
/// engine's packet slab and handle lists and the caller's batch buffers
/// are all reused. Covers memory at the leaves and at the roots, and a
/// batch whose capacity-1 queues overflow (the queue-full drop path).
#[test]
fn mot_routing_allocates_nothing_after_warmup() {
    use pramsim::mot::{BatchBuffers, MotNetwork, MotRequest};
    assert!(
        counting::is_active(),
        "counting allocator must be installed"
    );
    let side = 64;
    // One `2dmot-hotspot`-sized phase: 11 requests from 16 processors,
    // with a hot column.
    let phase = |to_root: bool| -> Vec<MotRequest<usize>> {
        (0..11)
            .map(|i| MotRequest {
                to_root,
                src_root: (i * 5) % 16,
                row: (i * 13) % side,
                col: if i % 3 == 0 { 7 } else { (i * 29) % side },
                payload: i,
            })
            .collect()
    };
    // Every request leaves root 0, so its capacity-1 row-tree queues
    // overflow.
    let crowd: Vec<MotRequest<usize>> = (0..side)
        .map(|i| MotRequest {
            to_root: false,
            src_root: 0,
            row: i,
            col: i,
            payload: i,
        })
        .collect();
    let cases = [
        ("leaves", MotNetwork::new(side), phase(false), 1),
        ("roots", MotNetwork::new(side), phase(true), 1),
        (
            "queue-full",
            MotNetwork::with_queue_capacity(side, 1),
            crowd,
            side,
        ),
    ];
    for (name, mut net, template, col_limit) in cases {
        let mut reqs = Vec::with_capacity(template.len());
        let mut out = BatchBuffers::new();
        let mut route = |net: &mut MotNetwork<usize>| {
            reqs.extend(template.iter().cloned());
            net.route_batch_into(&mut reqs, col_limit, |_, _, p| *p += 1, &mut out)
        };
        let warm = route(&mut net); // warm-up: buffers grow to steady state
        assert!(warm.delivered > 0, "{name}: nothing was served");
        if name == "queue-full" {
            assert!(warm.dropped > 0, "{name}: the batch must overflow a queue");
        }
        let before = counting::thread_allocations();
        for _ in 0..3 {
            route(&mut net);
        }
        let allocs = counting::thread_allocations() - before;
        assert_eq!(allocs, 0, "{name}: warm MotNetwork routing allocated");
    }
}

/// Zero allocations while a warm `FrameDecoder` takes in a pipelined
/// window of 1,000 frames and yields every one: the serving door's
/// framing costs nothing per frame once the buffer has grown.
#[test]
fn frame_decoding_allocates_nothing_after_warmup() {
    assert!(
        counting::is_active(),
        "counting allocator must be installed"
    );
    let window: Vec<u8> = (0..1000)
        .flat_map(|sid| format!("STEPN {sid} 32 uniform\r\n").into_bytes())
        .collect();
    let mut decoder = FrameDecoder::new();
    let drain = |decoder: &mut FrameDecoder| -> usize {
        decoder.push(&window);
        let mut frames = 0;
        while let Some(frame) = decoder.next_frame() {
            assert!(frame.is_ok_and(|f| f.starts_with("STEPN ")));
            frames += 1;
        }
        frames
    };
    assert_eq!(drain(&mut decoder), 1000); // warm-up: the buffer grows
    let before = counting::thread_allocations();
    let frames = drain(&mut decoder);
    let allocs = counting::thread_allocations() - before;
    assert_eq!(frames, 1000);
    assert_eq!(allocs, 0, "warm FrameDecoder allocated");
}

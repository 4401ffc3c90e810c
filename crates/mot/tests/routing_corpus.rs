//! Seeded routing corpus: pins the cycle engine's observable behaviour
//! below what the scheme-level golden snapshots can see.
//!
//! The goldens only observe what reaches a `StepReport`. This corpus also
//! pins drop order, served order, the serve-callback order and queue
//! overflows at small queue capacities. Each configuration is
//! `side × queue capacity × col_limit × {healthy, 2% dead links}`; each
//! routes two seeded batches back to back on one `MotNetwork` (a quarter
//! of the requests `to_root`) and folds every counter and order into one
//! FNV-1a hash. The table was recorded before the engine moved to packet
//! handles; any change to routing timing, arbitration, drop or queue order
//! changes a hash.

use mot::{MotNetwork, MotRequest};
use simrng::{fnv1a, rng_from_seed, Rng, FNV_OFFSET};

const SIDES: [usize; 4] = [4, 8, 16, 64];
/// `0` stands for the production default (`MotNetwork::new`).
const CAPACITIES: [usize; 4] = [1, 2, 4, 0];

/// `(side, capacity, col_limit, faulted) → hash`, recorded on the
/// per-node-queue engine. Capacity 0 is the default; `col_limit == side`
/// is the unbounded-admission case.
const EXPECTED: &[(usize, usize, usize, bool, u64)] = &[
    (4, 1, 1, false, 0x753ba441802c0ace),
    (4, 1, 1, true, 0x5b17e98a93be4284),
    (4, 1, 2, false, 0xcb4f66dd0287e168),
    (4, 1, 2, true, 0xcb4f66dd0287e168),
    (4, 1, 4, false, 0xecae5df91e01a522),
    (4, 1, 4, true, 0x4916c7f010c9e7ab),
    (4, 2, 1, false, 0x2755f19160186719),
    (4, 2, 1, true, 0x2755f19160186719),
    (4, 2, 2, false, 0x5d8ef06276e02099),
    (4, 2, 2, true, 0x4e0ebf79e9e827a9),
    (4, 2, 4, false, 0x3cef393467673196),
    (4, 2, 4, true, 0xe391f3ff6408b2f8),
    (4, 4, 1, false, 0x0974fe27140dd389),
    (4, 4, 1, true, 0xcd5a0aa4799b1777),
    (4, 4, 2, false, 0x899dd01c02c2a1e2),
    (4, 4, 2, true, 0x4af79c033baec62b),
    (4, 4, 4, false, 0xd916b353b2af743e),
    (4, 4, 4, true, 0xd916b353b2af743e),
    (4, 0, 1, false, 0xb5401329071d54d7),
    (4, 0, 1, true, 0x9668586d770745d8),
    (4, 0, 2, false, 0x720ddc8fafa0593f),
    (4, 0, 2, true, 0x720ddc8fafa0593f),
    (4, 0, 4, false, 0x79d6442ec68df037),
    (4, 0, 4, true, 0x79d6442ec68df037),
    (8, 1, 1, false, 0x8449fee7b36d10bc),
    (8, 1, 1, true, 0x25223719e30d75a3),
    (8, 1, 2, false, 0x3fbc9f0d84eabf00),
    (8, 1, 2, true, 0x3fbc9f0d84eabf00),
    (8, 1, 4, false, 0xb14dcf59f3c7717d),
    (8, 1, 4, true, 0xc5961a7018f1b9c1),
    (8, 1, 8, false, 0xbf80c01d065b0652),
    (8, 1, 8, true, 0x2c677cd11b302c7f),
    (8, 2, 1, false, 0xd928376257152203),
    (8, 2, 1, true, 0xd966baa1e816437a),
    (8, 2, 2, false, 0xdd88a84291baa4db),
    (8, 2, 2, true, 0xa15cae1f0e7b12d2),
    (8, 2, 4, false, 0x317296c04a297eac),
    (8, 2, 4, true, 0x18ad04c5cd70ddb6),
    (8, 2, 8, false, 0x81b98dc8d57fce5f),
    (8, 2, 8, true, 0xfd593c4c095e4162),
    (8, 4, 1, false, 0xabd7f1fe5b8a336e),
    (8, 4, 1, true, 0x7f23348bffd82d49),
    (8, 4, 2, false, 0xc62115cc6e655c43),
    (8, 4, 2, true, 0x02578d43b0c99dd3),
    (8, 4, 4, false, 0x81ce4bb6b80915b2),
    (8, 4, 4, true, 0x6826bc4160af2461),
    (8, 4, 8, false, 0x0bc7b756b5547d40),
    (8, 4, 8, true, 0xd61779954c792136),
    (8, 0, 1, false, 0x9e7b04bec0d6039a),
    (8, 0, 1, true, 0x71c88f0c2bced9d7),
    (8, 0, 2, false, 0x17bb3711b4ca8bd8),
    (8, 0, 2, true, 0x2f77dc646cd7f075),
    (8, 0, 4, false, 0x3cd350e379cc21ee),
    (8, 0, 4, true, 0x41e73853d9757a18),
    (8, 0, 8, false, 0xd0e8cc1da1e9bedd),
    (8, 0, 8, true, 0x533551f23c16c451),
    (16, 1, 1, false, 0xb18ffef30ee5b335),
    (16, 1, 1, true, 0x31e0880b9ba97de2),
    (16, 1, 2, false, 0x38114bddde40cdf1),
    (16, 1, 2, true, 0x6b6cc20fc78d1241),
    (16, 1, 4, false, 0x1e8004f8d01c6d02),
    (16, 1, 4, true, 0x2b2a7dff3ca297a0),
    (16, 1, 16, false, 0x4c52e02cbb4bdd9c),
    (16, 1, 16, true, 0x412b61d06f27092d),
    (16, 2, 1, false, 0x443b51d06c559a6e),
    (16, 2, 1, true, 0x4cd9fcc14e388cbb),
    (16, 2, 2, false, 0x16da13137980c7ff),
    (16, 2, 2, true, 0xeadfc5a3cb128183),
    (16, 2, 4, false, 0xce9f80ca2215d323),
    (16, 2, 4, true, 0xce19d7793ba9f79d),
    (16, 2, 16, false, 0xf5098509db166ab8),
    (16, 2, 16, true, 0x0176c6a361d515f9),
    (16, 4, 1, false, 0xc1e9ff2ad9d4ed86),
    (16, 4, 1, true, 0xa7c075e2f0db3823),
    (16, 4, 2, false, 0xb4cf74ccf13d0f5c),
    (16, 4, 2, true, 0x71523caddd45d6f9),
    (16, 4, 4, false, 0x9b01d3decfb1fa8c),
    (16, 4, 4, true, 0x9b01d3decfb1fa8c),
    (16, 4, 16, false, 0xae55e6a55b5b6375),
    (16, 4, 16, true, 0x995f9522ad1acebb),
    (16, 0, 1, false, 0x7c8a1b9b4658493c),
    (16, 0, 1, true, 0x6c0b512c30209c2c),
    (16, 0, 2, false, 0x6ebf2df87c5bdc6c),
    (16, 0, 2, true, 0x7c757305820a2feb),
    (16, 0, 4, false, 0xa1b3df8b184e1bb7),
    (16, 0, 4, true, 0xb9230eb98a5e64c1),
    (16, 0, 16, false, 0xff629e875df912b4),
    (16, 0, 16, true, 0x74cfa7646bc9aae2),
    (64, 1, 1, false, 0xb016520d12b0640a),
    (64, 1, 1, true, 0xb83224c7bf8c1123),
    (64, 1, 2, false, 0x92683fddc74d9b63),
    (64, 1, 2, true, 0xfaf6e6addda18177),
    (64, 1, 4, false, 0xbfe896298139c40f),
    (64, 1, 4, true, 0xae624a28f3f99bd9),
    (64, 1, 64, false, 0xdb7568e59ac06dad),
    (64, 1, 64, true, 0x2ec748acdfeb2056),
    (64, 2, 1, false, 0x9ef73621d9b671a7),
    (64, 2, 1, true, 0x3fc4dab2e0a5e3d1),
    (64, 2, 2, false, 0xda1b2d7b611a4ef8),
    (64, 2, 2, true, 0xd14658249093e089),
    (64, 2, 4, false, 0xf9b18087833873e3),
    (64, 2, 4, true, 0x4ffa0cfb863fd770),
    (64, 2, 64, false, 0x9d7da29f6df40007),
    (64, 2, 64, true, 0x931d89779a244227),
    (64, 4, 1, false, 0x82400317cb7af3b8),
    (64, 4, 1, true, 0x2251177bf15d5b1a),
    (64, 4, 2, false, 0x5f5aa9dc17c2729f),
    (64, 4, 2, true, 0x4ce21f57ac652801),
    (64, 4, 4, false, 0xebe83777e83f8ccf),
    (64, 4, 4, true, 0x805d086cfd2a31ef),
    (64, 4, 64, false, 0xea436ce4a002f5da),
    (64, 4, 64, true, 0x083bbe78770d301c),
    (64, 0, 1, false, 0xc32dc7d836f8abe3),
    (64, 0, 1, true, 0x6a1ef4b36c1b9d38),
    (64, 0, 2, false, 0x801c972d14867cf7),
    (64, 0, 2, true, 0xb76a684fc57cf52c),
    (64, 0, 4, false, 0x9004a2cd0fa51135),
    (64, 0, 4, true, 0x15158c1391cbf351),
    (64, 0, 64, false, 0xf0a66623a824ec0e),
    (64, 0, 64, true, 0x8f1c8bd43f41155d),
];

/// Hash of one configuration, plus its queue-full and dead-link drop
/// counts (so the corpus can show it reaches both drop paths).
fn config_hash(side: usize, capacity: usize, col_limit: usize, faulted: bool) -> (u64, u64, u64) {
    let mut net: MotNetwork<u64> = if capacity == 0 {
        MotNetwork::new(side)
    } else {
        MotNetwork::with_queue_capacity(side, capacity)
    };
    let seed = (side as u64) << 24 | (capacity as u64) << 16 | (col_limit as u64) << 1;
    if faulted {
        net.fail_random_links(0.02, seed | 1);
    }
    let mut rng = rng_from_seed(seed ^ 0x5eed);
    let mut h = FNV_OFFSET;
    let mut next_id = 0u64;
    let (mut dropped, mut link_faulted) = (0, 0);
    for _batch in 0..2 {
        let k = 1 + rng.index(2 * side);
        let reqs: Vec<MotRequest<u64>> = (0..k)
            .map(|_| {
                next_id += 1;
                MotRequest {
                    to_root: rng.below(4) == 0,
                    src_root: rng.index(side),
                    row: rng.index(side),
                    col: rng.index(side),
                    payload: next_id,
                }
            })
            .collect();
        let mut serve_order = Vec::new();
        let out = net.route_batch(reqs, col_limit, |r, c, p| {
            serve_order.push((r, c, *p));
            *p += 1 << 32;
        });
        let s = &out.stats;
        dropped += s.dropped;
        link_faulted += s.link_faulted;
        for v in [s.cycles, s.hops, s.delivered, s.dropped, s.link_faulted] {
            fnv1a(&mut h, v);
        }
        for (tag, list) in [(1u64, &out.served), (2, &out.killed), (3, &out.faulted)] {
            fnv1a(&mut h, tag << 32 | list.len() as u64);
            for r in list {
                fnv1a(&mut h, r.payload);
            }
        }
        fnv1a(&mut h, serve_order.len() as u64);
        for (r, c, p) in serve_order {
            fnv1a(&mut h, (r as u64) << 48 | (c as u64) << 32 | p);
        }
    }
    (h, dropped, link_faulted)
}

#[test]
fn routing_corpus_matches_recorded_hashes() {
    let mut actual = Vec::new();
    let (mut dropped, mut link_faulted) = (0, 0);
    for side in SIDES {
        for capacity in CAPACITIES {
            let mut limits = vec![1, 2, 4, side];
            limits.dedup(); // side 4: the unbounded limit is already 4
            for col_limit in limits {
                for faulted in [false, true] {
                    let (h, d, f) = config_hash(side, capacity, col_limit, faulted);
                    dropped += d;
                    link_faulted += f;
                    actual.push((side, capacity, col_limit, faulted, h));
                }
            }
        }
    }
    // Both drop paths are exercised, so a hash match is not vacuous.
    assert!(dropped > 0, "corpus never overflows a queue");
    assert!(link_faulted > 0, "corpus never hits a dead link");
    let table: String = actual
        .iter()
        .map(|(s, q, l, f, h)| format!("    ({s}, {q}, {l}, {f}, {h:#018x}),\n"))
        .collect();
    assert_eq!(
        actual.as_slice(),
        EXPECTED,
        "routing corpus drifted; actual table:\n{table}"
    );
}

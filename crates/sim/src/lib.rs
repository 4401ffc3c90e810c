//! `cr-sim` — deterministic whole-service simulation with seeded chaos
//! injection (DESIGN.md §13).
//!
//! The serving layer's behavior lives in [`cr_serve::ShardCore`] state
//! machines behind a runtime seam; production drives them on OS threads
//! ([`cr_serve::ThreadRuntime`]), and this crate drives the *identical*
//! cores from a single-threaded executor on virtual time — the
//! FoundationDB simulation-testing shape. One seed determines every
//! client frame, think time, sweep tick, and chaos draw, so:
//!
//! * same seed ⇒ same interleaving ⇒ byte-identical merged `EVENTS`
//!   JSONL and identical per-session trace hashes, at any shard count;
//! * a failure found at seed S is *replayed*, not chased:
//!   `repro sim --seed S --chaos`.
//!
//! Chaos (BUGGIFY-style, [`chaos::Chaos`]) crashes shards (with
//! scheduled restarts), reproduces queue-full storms, floods the serving
//! door with malformed and oversized frames, and parks clients past their
//! session TTL to race the eviction sweeper. The invariant after all of
//! it ([`SimReport::ok`]): surviving sessions close with trace hashes
//! equal to a fault-free single-threaded replay of their spec, `VERIFY`
//! stays `consistent`, and no garbage frame is ever accepted.
//!
//! ```
//! use cr_sim::{run, SimConfig};
//!
//! let report = run(&SimConfig {
//!     seed: 7,
//!     chaos: true,
//!     ..SimConfig::default()
//! });
//! assert!(report.ok(), "{}", report.render());
//! let replay = run(&SimConfig { seed: 7, chaos: true, ..SimConfig::default() });
//! assert_eq!(report.fingerprint(), replay.fingerprint());
//! ```

pub mod chaos;
pub mod client;
pub mod executor;
pub mod report;
pub mod service;

pub use chaos::ChaosTally;
pub use client::{deliver, SimClient};
pub use executor::{run, SimConfig};
pub use report::{ClientRow, SimReport};
pub use service::{SimService, SimShards};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_run_completes_every_client() {
        let report = run(&SimConfig {
            seed: 42,
            clients: 3,
            steps: 48,
            ..SimConfig::default()
        });
        assert!(report.ok(), "{}", report.render());
        assert_eq!(report.completed, 3);
        assert_eq!(report.lost, 0);
        assert_eq!(report.hash_mismatches, 0);
        assert!(report.steps_total >= 3 * 48);
        assert!(report.events_jsonl.lines().count() > 0);
    }

    #[test]
    fn report_json_is_well_formed_enough() {
        let report = run(&SimConfig {
            seed: 5,
            clients: 2,
            steps: 16,
            ..SimConfig::default()
        });
        let j = report.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert!(j.contains("\"fingerprint\":"), "{j}");
        assert!(j.contains("\"rows\":["), "{j}");
    }
}

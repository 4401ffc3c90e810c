//! The two-dimensional mesh of trees (2DMOT / "orthogonal trees" network).
//!
//! Originally proposed by Nath, Maheshwari & Bhatt (1983) as a VLSI fabric
//! for matrix–vector products; named and analyzed by Leighton (1984); used
//! by Luccio, Pietracaprina & Pucci and by this paper as the interconnect
//! for deterministic P-RAM simulation (paper Figs. 4, 7, 8).
//!
//! An `s × s` 2DMOT (for `s` a power of two) consists of
//!
//! * `s²` **leaves** arranged in a grid — in the paper's Theorem 3 scheme
//!   the leaves hold the `M = s²` memory modules (Fig. 8);
//! * `s` **row trees**: fully balanced binary trees over each leaf row;
//! * `s` **column trees** over each leaf column;
//! * row-tree root `t` and column-tree root `t` are *identified* (coalesced)
//!   into a single root node, where the paper stations the processors.
//!
//! Everything except the roots (and leaves, which are memory) is a mere
//! switch — the extra hardware the DMBDN model admits.
//!
//! Crate layout:
//! * [`topology`] — the graph, plus one 32-byte routing record per node
//!   (up and down edges of both tree families and the leaf coordinate at
//!   which each node's two subtrees split), so a routing step is one
//!   comparison;
//! * [`network`] — phase-synchronous batched request routing over the
//!   cycle-level `netsim` engine (root → row tree ↓ → column tree ↑ → root →
//!   column tree ↓ → leaf, and back), with per-column admission control
//!   (the protocols' collision-kill / pipelining knob);
//! * [`primitives`] — the native tree computations (broadcast, reduce,
//!   matrix–vector product) executed level by level with cycle counts;
//! * [`area`] — the VLSI area model (Leighton's bound, the paper's §3
//!   area claims).

pub mod area;
pub mod network;
pub mod primitives;
pub mod topology;

pub use area::{mot_layout_area, AreaReport};
pub use network::{BatchBuffers, BatchOutcome, MotNetwork, MotRequest};
pub use topology::MotTopology;

//! Construction of the 2DMOT graph with routing metadata.

use netsim::{EdgeId, NodeId, Topology};

/// Index of the row-tree family in a [`NodeRecord`]'s arrays.
const ROW: usize = 0;
/// Index of the column-tree family.
const COL: usize = 1;
/// Marks a port the node lacks.
const NONE: u32 = u32::MAX;

/// Routing record of one node, per tree family (`[ROW]`, `[COL]`): 32
/// bytes, so one cache line holds two nodes. Ports a node lacks are
/// [`NONE`] (internal row switches have no column ports; roots have no up
/// ports).
#[derive(Debug, Clone, Copy)]
struct NodeRecord {
    /// Edge toward the family's root.
    up: [u32; 2],
    /// Edges to the two children.
    down: [[u32; 2]; 2],
    /// First leaf coordinate (column for the row family, row for the
    /// column family) below `down[f][1]`; smaller ones are below
    /// `down[f][0]`.
    split: [u32; 2],
}

impl NodeRecord {
    const EMPTY: NodeRecord = NodeRecord {
        up: [NONE; 2],
        down: [[NONE; 2]; 2],
        split: [0; 2],
    };
}

/// An `s × s` two-dimensional mesh of trees with coalesced row/column roots.
///
/// Node-id layout (dense in the underlying [`Topology`]):
/// * `0 .. s` — the `s` coalesced roots;
/// * `s .. s + s²` — the leaves, `leaf(r, c) = s + r·s + c`;
/// * the rest — internal tree switches.
#[derive(Debug, Clone)]
pub struct MotTopology {
    side: usize,
    log_side: u32,
    topo: Topology,
    nodes: Vec<NodeRecord>,
}

impl MotTopology {
    /// Build an `side × side` 2DMOT. `side` must be a power of two, ≥ 2.
    pub fn new(side: usize) -> Self {
        assert!(
            side >= 2 && side.is_power_of_two(),
            "side must be a power of two >= 2"
        );
        let mut topo = Topology::new();
        // Roots 0..side, then leaves, then 2·side·(side-2) internals.
        topo.add_nodes(side + side * side);
        let mut nodes = vec![NodeRecord::EMPTY; side + side * side + 2 * side * (side - 2)];
        let leaf_id = |r: usize, c: usize| side + r * side + c;

        // Heap indices 1..side are a tree's internal nodes (heap 1 = root,
        // coalesced with the other family's root for the same t).
        let mut node_of = vec![0; side];
        for t in 0..side {
            // Row tree `t` over leaves (t, 0..side), then column tree `t`
            // over leaves (0..side, t).
            for f in [ROW, COL] {
                node_of[1] = t; // roots are nodes 0..side
                for n in &mut node_of[2..] {
                    *n = topo.add_node();
                }
                for heap in 1..side {
                    let parent = node_of[heap];
                    for (slot, child_heap) in [(0, 2 * heap), (1, 2 * heap + 1)] {
                        let child = match child_heap.checked_sub(side) {
                            None => node_of[child_heap],
                            Some(i) if f == ROW => leaf_id(t, i),
                            Some(i) => leaf_id(i, t),
                        };
                        let (down, up) = topo.add_duplex(parent, child);
                        nodes[parent].down[f][slot] = down as u32;
                        nodes[child].up[f] = up as u32;
                    }
                    // Heap node v at depth d covers `side >> d` leaves
                    // starting at (v - 2^d)·(side >> d); its children split
                    // that range in half.
                    let d = heap.ilog2();
                    let width = side >> d;
                    nodes[parent].split[f] = ((heap - (1 << d)) * width + width / 2) as u32;
                }
            }
        }
        debug_assert_eq!(topo.nodes(), nodes.len());

        MotTopology {
            side,
            log_side: side.ilog2(),
            topo,
            nodes,
        }
    }

    /// Grid side `s` (`= √M` in the paper's Theorem 3).
    #[inline]
    pub fn side(&self) -> usize {
        self.side
    }

    /// The coalesced root of row tree `t` and column tree `t`.
    #[inline]
    pub fn root(&self, t: usize) -> NodeId {
        debug_assert!(t < self.side);
        t
    }

    /// The leaf at grid position `(row, col)`.
    #[inline]
    pub fn leaf(&self, row: usize, col: usize) -> NodeId {
        debug_assert!(row < self.side && col < self.side);
        self.side + row * self.side + col
    }

    /// Whether `n` is a root, and which.
    #[inline]
    pub fn as_root(&self, n: NodeId) -> Option<usize> {
        (n < self.side).then_some(n)
    }

    /// Whether `n` is a leaf, and its `(row, col)`.
    #[inline]
    pub fn as_leaf(&self, n: NodeId) -> Option<(usize, usize)> {
        let idx = n.wrapping_sub(self.side);
        (idx < self.side * self.side).then_some((idx >> self.log_side, idx & (self.side - 1)))
    }

    /// The underlying netsim graph.
    #[inline]
    pub fn graph(&self) -> &Topology {
        &self.topo
    }

    /// Row-tree edge from `n` toward its root; `None` at roots and at
    /// column-tree switches.
    #[inline]
    pub fn row_up(&self, n: NodeId) -> Option<EdgeId> {
        port(self.nodes[n].up[ROW])
    }

    /// Column-tree edge from `n` toward its root; `None` at roots and at
    /// row-tree switches.
    #[inline]
    pub fn col_up(&self, n: NodeId) -> Option<EdgeId> {
        port(self.nodes[n].up[COL])
    }

    /// Row-tree down-edge at `n` leading toward column `col`.
    #[inline]
    pub fn row_step_down(&self, n: NodeId, col: usize) -> EdgeId {
        self.step_down(n, ROW, col)
    }

    /// Column-tree down-edge at `n` leading toward row `row`.
    #[inline]
    pub fn col_step_down(&self, n: NodeId, row: usize) -> EdgeId {
        self.step_down(n, COL, row)
    }

    #[inline]
    fn step_down(&self, n: NodeId, f: usize, coord: usize) -> EdgeId {
        let rec = &self.nodes[n];
        let e = rec.down[f][usize::from(coord as u32 >= rec.split[f])];
        debug_assert!(e != NONE, "node {n} has no children in tree family {f}");
        e as EdgeId
    }

    /// Switch count: nodes that are neither roots nor leaves — the "extra
    /// processors (albeit mere switches)" of the DMBDN model.
    pub fn switches(&self) -> usize {
        self.topo.nodes() - self.side - self.side * self.side
    }

    /// Tree depth: hops from a root to a leaf of its tree, `log₂ side`.
    pub fn depth(&self) -> usize {
        self.log_side as usize
    }

    /// Length (hops) of the full request path
    /// root → leaf → column root → leaf, one way: `3·depth`.
    pub fn request_path_len(&self) -> usize {
        3 * self.depth()
    }
}

/// A stored port as an edge id, `None` for [`NONE`].
#[inline]
fn port(e: u32) -> Option<EdgeId> {
    (e != NONE).then_some(e as EdgeId)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_counts() {
        for side in [2usize, 4, 8, 16] {
            let mot = MotTopology::new(side);
            let expect = side + side * side + 2 * side * (side.saturating_sub(2));
            assert_eq!(mot.graph().nodes(), expect, "side={side}");
            assert_eq!(mot.switches(), 2 * side * (side - 2));
            // Each of the 2·side trees has side-1 internal positions, each
            // with 2 duplex child links = 4(side-1) directed edges per tree.
            assert_eq!(mot.graph().edge_count(), 2 * side * 4 * (side - 1));
        }
    }

    #[test]
    fn bounded_degree() {
        // Roots: 4 duplex links (2 row children + 2 col children) = degree 8;
        // this constant is independent of side — the DMBDN requirement.
        for side in [4usize, 8, 32] {
            let mot = MotTopology::new(side);
            assert_eq!(mot.graph().max_degree(), 8, "side={side}");
        }
    }

    #[test]
    fn node_record_is_half_a_cache_line() {
        assert_eq!(std::mem::size_of::<NodeRecord>(), 32);
    }

    #[test]
    fn leaves_have_both_parents() {
        let mot = MotTopology::new(8);
        for r in 0..8 {
            for c in 0..8 {
                let n = mot.leaf(r, c);
                assert!(mot.row_up(n).is_some(), "leaf ({r},{c}) lacks row parent");
                assert!(mot.col_up(n).is_some(), "leaf ({r},{c}) lacks col parent");
                assert_eq!(mot.nodes[n].down, [[NONE; 2]; 2]);
            }
        }
    }

    #[test]
    fn roots_have_both_families() {
        let mot = MotTopology::new(8);
        for t in 0..8 {
            let n = mot.root(t);
            assert!(!mot.nodes[n].down.as_flattened().contains(&NONE));
            assert!(mot.row_up(n).is_none() && mot.col_up(n).is_none());
        }
    }

    #[test]
    fn row_descent_reaches_requested_leaf() {
        let side = 16;
        let mot = MotTopology::new(side);
        for t in [0usize, 5, 15] {
            for col in [0usize, 7, 8, 15] {
                // Walk down row tree t toward `col`.
                let mut node = mot.root(t);
                let mut hops = 0;
                while mot.as_leaf(node).is_none() {
                    let e = mot.row_step_down(node, col);
                    node = mot.graph().endpoints(e).1;
                    hops += 1;
                    assert!(hops <= mot.depth(), "descent too long");
                }
                assert_eq!(mot.as_leaf(node), Some((t, col)));
                assert_eq!(hops, mot.depth());
            }
        }
    }

    #[test]
    fn col_descent_reaches_requested_leaf() {
        let side = 8;
        let mot = MotTopology::new(side);
        for t in 0..side {
            for row in 0..side {
                let mut node = mot.root(t);
                while mot.as_leaf(node).is_none() {
                    let e = mot.col_step_down(node, row);
                    node = mot.graph().endpoints(e).1;
                }
                assert_eq!(mot.as_leaf(node), Some((row, t)));
            }
        }
    }

    #[test]
    fn ascent_reaches_own_roots() {
        let side = 8;
        let mot = MotTopology::new(side);
        for r in 0..side {
            for c in 0..side {
                // Row ascent from leaf (r, c) ends at root r.
                let mut node = mot.leaf(r, c);
                while let Some(e) = mot.row_up(node) {
                    node = mot.graph().endpoints(e).1;
                }
                assert_eq!(mot.as_root(node), Some(r));
                // Column ascent ends at root c.
                let mut node = mot.leaf(r, c);
                while let Some(e) = mot.col_up(node) {
                    node = mot.graph().endpoints(e).1;
                }
                assert_eq!(mot.as_root(node), Some(c));
            }
        }
    }

    #[test]
    fn smallest_mot_is_sane() {
        let mot = MotTopology::new(2);
        // 2 roots, 4 leaves, no internal switches: roots connect directly
        // to leaves.
        assert_eq!(mot.switches(), 0);
        assert_eq!(mot.depth(), 1);
        assert_eq!(mot.request_path_len(), 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn odd_side_rejected() {
        let _ = MotTopology::new(6);
    }
}

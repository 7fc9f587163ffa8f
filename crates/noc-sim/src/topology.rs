//! The 2D mesh: the one fabric the paper simulates.
//!
//! [`Mesh2D`] numbers nodes row-major and answers neighbour, coordinate
//! and hop-distance queries. The engine ([`crate::network::Network`])
//! wires each router input to the neighbour on that side (a link from
//! `a`'s East output lands on `b`'s West input) and routes head flits with
//! the configured [`crate::routing::RoutingAlgorithm`] over this mesh.
//! Every method is a pure function of the mesh dimensions, so
//! record/replay and `--jobs` invariance hold.

use crate::types::{Direction, NodeId};

/// A `cols × rows` 2D mesh.
///
/// Nodes are numbered row-major with node 0 in the upper-left corner; the
/// paper's 4-core architecture is a 2×2 mesh and the 16-core one a 4×4 mesh.
///
/// ```
/// use noc_sim::topology::Mesh2D;
/// use noc_sim::types::{Direction, NodeId};
///
/// let mesh = Mesh2D::new(4, 4);
/// assert_eq!(mesh.num_nodes(), 16);
/// assert_eq!(mesh.neighbor(NodeId(0), Direction::East), Some(NodeId(1)));
/// assert_eq!(mesh.neighbor(NodeId(0), Direction::North), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh2D {
    cols: usize,
    rows: usize,
}

impl Mesh2D {
    /// Creates a mesh with the given number of columns and rows.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(cols: usize, rows: usize) -> Self {
        assert!(cols > 0 && rows > 0, "mesh dimensions must be positive");
        Mesh2D { cols, rows }
    }

    /// A square `k × k` mesh.
    pub fn square(k: usize) -> Self {
        Self::new(k, k)
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total node count.
    pub fn num_nodes(&self) -> usize {
        self.cols * self.rows
    }

    /// The `(x, y)` coordinate of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    pub fn coords(&self, node: NodeId) -> (usize, usize) {
        assert!(node.index() < self.num_nodes(), "node {node} out of range");
        (node.index() % self.cols, node.index() / self.cols)
    }

    /// The node at coordinate `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of range.
    pub fn node_at(&self, x: usize, y: usize) -> NodeId {
        assert!(x < self.cols && y < self.rows, "({x},{y}) out of range");
        NodeId(y * self.cols + x)
    }

    /// The neighbour of `node` in mesh direction `dir`, or `None` at the
    /// mesh boundary (or for [`Direction::Local`]).
    pub fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        let (x, y) = self.coords(node);
        match dir {
            Direction::North => (y > 0).then(|| self.node_at(x, y - 1)),
            Direction::South => (y + 1 < self.rows).then(|| self.node_at(x, y + 1)),
            Direction::East => (x + 1 < self.cols).then(|| self.node_at(x + 1, y)),
            Direction::West => (x > 0).then(|| self.node_at(x - 1, y)),
            Direction::Local => None,
        }
    }

    /// Iterates over all nodes in index order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes()).map(NodeId)
    }

    /// Minimal hop distance between two nodes (Manhattan distance).
    pub fn hop_distance(&self, a: NodeId, b: NodeId) -> usize {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    /// The nodes on the main diagonal (used by the paper's Table IV, which
    /// reports the diagonal routers of the 16-core mesh).
    pub fn main_diagonal(&self) -> Vec<NodeId> {
        (0..self.cols.min(self.rows))
            .map(|i| self.node_at(i, i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_round_trip() {
        let mesh = Mesh2D::new(4, 3);
        for node in mesh.nodes() {
            let (x, y) = mesh.coords(node);
            assert_eq!(mesh.node_at(x, y), node);
        }
    }

    #[test]
    fn corner_neighbors() {
        let mesh = Mesh2D::square(2);
        let n0 = NodeId(0);
        assert_eq!(mesh.neighbor(n0, Direction::East), Some(NodeId(1)));
        assert_eq!(mesh.neighbor(n0, Direction::South), Some(NodeId(2)));
        assert_eq!(mesh.neighbor(n0, Direction::North), None);
        assert_eq!(mesh.neighbor(n0, Direction::West), None);
        assert_eq!(mesh.neighbor(n0, Direction::Local), None);
    }

    #[test]
    fn neighbors_are_symmetric() {
        let mesh = Mesh2D::new(4, 4);
        for node in mesh.nodes() {
            for dir in Direction::MESH {
                if let Some(n) = mesh.neighbor(node, dir) {
                    assert_eq!(mesh.neighbor(n, dir.opposite()), Some(node));
                }
            }
        }
    }

    #[test]
    fn hop_distance_is_manhattan() {
        let mesh = Mesh2D::square(4);
        assert_eq!(mesh.hop_distance(NodeId(0), NodeId(15)), 6);
        assert_eq!(mesh.hop_distance(NodeId(5), NodeId(5)), 0);
        assert_eq!(mesh.hop_distance(NodeId(0), NodeId(1)), 1);
    }

    #[test]
    fn main_diagonal_of_4x4() {
        let mesh = Mesh2D::square(4);
        assert_eq!(
            mesh.main_diagonal(),
            vec![NodeId(0), NodeId(5), NodeId(10), NodeId(15)]
        );
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_panics() {
        let _ = Mesh2D::new(0, 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_coords_panics() {
        let mesh = Mesh2D::square(2);
        let _ = mesh.coords(NodeId(4));
    }
}

//! Fabric topologies and the routing contract between them and the engine.
//!
//! The cycle-accurate engine ([`crate::network::Network`]) is
//! topology-generic: everything it needs from the fabric graph is behind
//! the [`Topology`] trait — node enumeration, duplex-link adjacency
//! ([`Topology::link_peer`]) and a deterministic, deadlock-free routing
//! function ([`Topology::route_dirs`]). Four fabrics implement it:
//!
//! * [`MeshTopology`] — the paper's `cols × rows` 2D mesh, routed by the
//!   configured [`RoutingAlgorithm`]. This is *bit-identical* to the
//!   pre-trait network (the regression goldens in
//!   `crates/core/tests/topology_regression.rs` pin it down).
//! * [`TorusTopology`] — the mesh plus per-dimension wrap links. Routing
//!   is dimension-ordered and never crosses a wrap edge (dateline
//!   avoidance), so the channel-dependence graph stays acyclic without
//!   extra VC classes. Wrap links exist physically — their input buffers
//!   are enumerated, gated and aged — but carry no traffic, which makes a
//!   torus the maximal-stress case for NBTI recovery of idle buffers.
//! * [`RingTopology`] — a 1-D cycle routed as a linear array cut at the
//!   wrap edge (`n-1 → 0`). Ports are named `cw`/`ccw`.
//! * [`IrregularTopology`] — an arbitrary adjacency list (degree ≤ 4),
//!   routed up-down along the BFS spanning tree rooted at node 0. Tree
//!   routing is deadlock-free (up-channels form a DAG toward the root,
//!   down-channels away from it, and a path turns from up to down exactly
//!   once, at the lowest common ancestor). Non-tree links are enumerated
//!   and aged but idle.
//!
//! Deterministic by construction: every method is a pure function of the
//! topology value, so record/replay and `--jobs` invariance hold for any
//! fabric.

use crate::routing::{DirSet, RoutingAlgorithm};
use crate::types::{Direction, NodeId};
use crate::view::{PortId, PortKind};

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

// ---------------------------------------------------------------------------
// The topology contract
// ---------------------------------------------------------------------------

/// What the cycle-accurate engine needs from a fabric graph.
///
/// # Contract
///
/// * **Duplex symmetry** — if `link_peer(a, d) == Some((b, e))` then
///   `link_peer(b, e) == Some((a, d))`: every link is one bidirectional
///   channel pair, and the engine wires `a`'s `d`-input to `b`'s
///   `e`-output (credits flow the other way on the same link).
/// * **Deterministic, deadlock-free routing** — `route_dirs` is a pure
///   function of `(current, dest)`; every returned direction has a link
///   (`link_peer` is `Some`); following any returned choice strictly
///   reduces the remaining route length (livelock-freedom); and the
///   channel-dependence graph over all `(current, dest)` pairs is acyclic
///   (deadlock-freedom). An empty set means `current == dest`.
/// * **Stable enumeration** — node indices are dense (`0..num_nodes`) and
///   port slots reuse the five canonical [`Direction`] indices, so router
///   state, snapshots and telemetry port codes stay topology-agnostic.
pub trait Topology {
    /// Total node count; node indices are `0..num_nodes()`.
    fn num_nodes(&self) -> usize;

    /// The duplex link on `node`'s port `dir`: the peer node and the
    /// peer-side port the link lands on, or `None` when the port has no
    /// link (fabric boundary, unused slot, or [`Direction::Local`]).
    fn link_peer(&self, node: NodeId, dir: Direction) -> Option<(NodeId, Direction)>;

    /// The productive output ports toward `dest`, in deterministic
    /// preference order (empty at the destination). Multi-element sets
    /// allow the engine's credit-based adaptive tie-break (West-First on
    /// the mesh).
    fn route_dirs(&self, current: NodeId, dest: NodeId) -> DirSet;

    /// Hop count of the route this topology actually takes from `a` to
    /// `b` (not necessarily the graph-theoretic shortest path: the torus
    /// never crosses a dateline, the irregular fabric stays on its
    /// spanning tree).
    fn hop_distance(&self, a: NodeId, b: NodeId) -> usize;

    /// A short kind name for reports ("mesh", "torus", "ring",
    /// "irregular").
    fn kind_name(&self) -> &'static str;

    /// The human-readable label of a router port slot, e.g. `"W"` on a
    /// mesh, `"ccw"` on a ring, `"l3"` on an irregular fabric.
    fn port_name(&self, dir: Direction) -> &'static str;

    /// The neighbour on `node`'s port `dir`, if any.
    fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        self.link_peer(node, dir).map(|(n, _)| n)
    }

    /// All nodes in index order.
    fn node_ids(&self) -> std::ops::Range<usize> {
        0..self.num_nodes()
    }

    /// The topology-aware label of a buffer port (satisfies reporting:
    /// ring/irregular ports are not mislabelled with mesh letters).
    fn port_label(&self, port: PortId) -> String {
        match port.kind {
            PortKind::RouterInput(Direction::Local) => format!("{}-L", port.node),
            PortKind::RouterInput(d) => format!("{}-{}", port.node, self.port_name(d)),
            PortKind::NicEject => format!("{}-eject", port.node),
        }
    }
}

const MESH_PORT_NAMES: [&str; 5] = ["N", "S", "E", "W", "L"];
const RING_PORT_NAMES: [&str; 5] = ["N", "S", "cw", "ccw", "L"];
const IRREGULAR_PORT_NAMES: [&str; 5] = ["l0", "l1", "l2", "l3", "L"];

// ---------------------------------------------------------------------------
// Mesh (the paper's fabric, bit-identical through the trait)
// ---------------------------------------------------------------------------

/// The 2D mesh of the paper, routed by a [`RoutingAlgorithm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshTopology {
    mesh: Mesh2D,
    routing: RoutingAlgorithm,
}

impl MeshTopology {
    /// A mesh fabric with the given routing algorithm.
    pub fn new(cols: usize, rows: usize, routing: RoutingAlgorithm) -> Self {
        MeshTopology {
            mesh: Mesh2D::new(cols, rows),
            routing,
        }
    }

    /// The underlying coordinate grid.
    pub fn mesh(&self) -> &Mesh2D {
        &self.mesh
    }
}

impl Topology for MeshTopology {
    fn num_nodes(&self) -> usize {
        self.mesh.num_nodes()
    }

    fn link_peer(&self, node: NodeId, dir: Direction) -> Option<(NodeId, Direction)> {
        self.mesh.neighbor(node, dir).map(|n| (n, dir.opposite()))
    }

    fn route_dirs(&self, current: NodeId, dest: NodeId) -> DirSet {
        self.routing.allowed(&self.mesh, current, dest)
    }

    fn hop_distance(&self, a: NodeId, b: NodeId) -> usize {
        self.mesh.hop_distance(a, b)
    }

    fn kind_name(&self) -> &'static str {
        "mesh"
    }

    fn port_name(&self, dir: Direction) -> &'static str {
        MESH_PORT_NAMES[dir.index()]
    }
}

// ---------------------------------------------------------------------------
// Torus
// ---------------------------------------------------------------------------

/// A `cols × rows` 2D torus: the mesh plus per-dimension wrap links.
///
/// Routing is dimension-ordered (X then Y) and *never* crosses a wrap
/// edge — the dateline of each ring is its wrap link, so the
/// channel-dependence graph of the routed sub-fabric is exactly the
/// mesh's, which is acyclic. The wrap links still exist physically: their
/// input buffers are enumerated in `Network::port_ids`, power-gated by
/// policies and aged by the NBTI trackers, but they see no traffic —
/// permanently idle buffers are the maximal NBTI stress case, which is
/// precisely why a torus is an interesting aging fabric.
///
/// A dimension of extent 1 has no links in that dimension (a 1×n or n×1
/// torus degenerates to a ring drawn with mesh port names); a dimension
/// of extent 2 keeps both parallel links between each node pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TorusTopology {
    mesh: Mesh2D,
}

impl TorusTopology {
    /// A torus over the given grid.
    pub fn new(cols: usize, rows: usize) -> Self {
        TorusTopology {
            mesh: Mesh2D::new(cols, rows),
        }
    }

    /// The underlying coordinate grid.
    pub fn mesh(&self) -> &Mesh2D {
        &self.mesh
    }

    /// Whether the link on `node`'s `dir` port is a wrap (dateline) link.
    pub fn is_wrap_link(&self, node: NodeId, dir: Direction) -> bool {
        let (x, y) = self.mesh.coords(node);
        let (cols, rows) = (self.mesh.cols(), self.mesh.rows());
        match dir {
            Direction::North => rows > 1 && y == 0,
            Direction::South => rows > 1 && y + 1 == rows,
            Direction::East => cols > 1 && x + 1 == cols,
            Direction::West => cols > 1 && x == 0,
            Direction::Local => false,
        }
    }
}

impl Topology for TorusTopology {
    fn num_nodes(&self) -> usize {
        self.mesh.num_nodes()
    }

    fn link_peer(&self, node: NodeId, dir: Direction) -> Option<(NodeId, Direction)> {
        let (x, y) = self.mesh.coords(node);
        let (cols, rows) = (self.mesh.cols(), self.mesh.rows());
        let peer = match dir {
            Direction::North => (rows > 1).then(|| self.mesh.node_at(x, (y + rows - 1) % rows)),
            Direction::South => (rows > 1).then(|| self.mesh.node_at(x, (y + 1) % rows)),
            Direction::East => (cols > 1).then(|| self.mesh.node_at((x + 1) % cols, y)),
            Direction::West => (cols > 1).then(|| self.mesh.node_at((x + cols - 1) % cols, y)),
            Direction::Local => None,
        };
        peer.map(|n| (n, dir.opposite()))
    }

    fn route_dirs(&self, current: NodeId, dest: NodeId) -> DirSet {
        if current == dest {
            return DirSet::empty();
        }
        // Dateline-avoidance: plain dimension-ordered routing on the
        // coordinate grid, identical to mesh XY. Wrap links carry nothing.
        DirSet::single(RoutingAlgorithm::XY.route(&self.mesh, current, dest))
    }

    fn hop_distance(&self, a: NodeId, b: NodeId) -> usize {
        self.mesh.hop_distance(a, b)
    }

    fn kind_name(&self) -> &'static str {
        "torus"
    }

    fn port_name(&self, dir: Direction) -> &'static str {
        MESH_PORT_NAMES[dir.index()]
    }
}

// ---------------------------------------------------------------------------
// Ring
// ---------------------------------------------------------------------------

/// An `n`-node unidirectionally-indexed cycle with duplex links.
///
/// The clockwise port (canonical slot [`Direction::East`], labelled
/// `cw`) reaches node `i + 1 mod n`; the counter-clockwise port (slot
/// [`Direction::West`], labelled `ccw`) reaches `i - 1 mod n`. Routing
/// treats the ring as a linear array cut between `n-1` and `0`: clockwise
/// while `dest > current`, counter-clockwise while `dest < current`, so
/// the wrap edge is never crossed and the channel-dependence graph is a
/// pair of disjoint chains (acyclic). The wrap link's buffers idle and
/// age, exactly like the torus datelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingTopology {
    n: usize,
}

impl RingTopology {
    /// A ring of `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "ring size must be positive");
        RingTopology { n }
    }
}

impl Topology for RingTopology {
    fn num_nodes(&self) -> usize {
        self.n
    }

    fn link_peer(&self, node: NodeId, dir: Direction) -> Option<(NodeId, Direction)> {
        assert!(node.index() < self.n, "node {node} out of range");
        if self.n == 1 {
            return None;
        }
        match dir {
            Direction::East => Some((
                NodeId((node.index() + 1) % self.n),
                Direction::West,
            )),
            Direction::West => Some((
                NodeId((node.index() + self.n - 1) % self.n),
                Direction::East,
            )),
            _ => None,
        }
    }

    fn route_dirs(&self, current: NodeId, dest: NodeId) -> DirSet {
        assert!(dest.index() < self.n, "node {dest} out of range");
        match dest.index().cmp(&current.index()) {
            std::cmp::Ordering::Equal => DirSet::empty(),
            std::cmp::Ordering::Greater => DirSet::single(Direction::East),
            std::cmp::Ordering::Less => DirSet::single(Direction::West),
        }
    }

    fn hop_distance(&self, a: NodeId, b: NodeId) -> usize {
        a.index().abs_diff(b.index())
    }

    fn kind_name(&self) -> &'static str {
        "ring"
    }

    fn port_name(&self, dir: Direction) -> &'static str {
        RING_PORT_NAMES[dir.index()]
    }
}

// ---------------------------------------------------------------------------
// Irregular adjacency-list fabric
// ---------------------------------------------------------------------------

/// Why an irregular adjacency list does not describe a valid fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// An edge references a node `>= num_nodes`.
    NodeOutOfRange(usize),
    /// An edge connects a node to itself.
    SelfLoop(usize),
    /// The same undirected edge appears twice.
    DuplicateEdge(usize, usize),
    /// A node has more than four links (routers have four mesh slots).
    DegreeTooHigh(usize),
    /// The graph is not connected.
    Disconnected,
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::NodeOutOfRange(n) => write!(f, "edge references node {n} out of range"),
            TopologyError::SelfLoop(n) => write!(f, "self-loop on node {n}"),
            TopologyError::DuplicateEdge(a, b) => write!(f, "duplicate edge {a}-{b}"),
            TopologyError::DegreeTooHigh(n) => {
                write!(f, "node {n} has more than 4 links (routers have 4 port slots)")
            }
            TopologyError::Disconnected => write!(f, "graph is not connected"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// An arbitrary connected graph of degree ≤ 4, routed along its BFS
/// spanning tree.
///
/// Each node's links are assigned to the four canonical port slots in
/// ascending neighbour order (slot `l0` holds the lowest-indexed
/// neighbour). Routing follows the unique tree path — up toward the root
/// (node 0) to the lowest common ancestor, then down — which is
/// deadlock-free on any tree. Links outside the spanning tree are real
/// (buffered, gated, aged) but never routed over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrregularTopology {
    n: usize,
    /// Per node, per slot: the peer and the peer-side slot.
    adj: Vec<[Option<(NodeId, Direction)>; 4]>,
    /// `next_hop[src][dst]`: the slot index toward the next tree hop, or
    /// `4` (the Local index) at the destination.
    next_hop: Vec<Vec<u8>>,
    /// Tree edges as `(node, slot)` pairs, for diagnostics.
    tree_parent: Vec<Option<NodeId>>,
}

impl IrregularTopology {
    /// Builds and validates an irregular fabric over `n` nodes from an
    /// undirected edge list.
    ///
    /// # Errors
    ///
    /// Returns a [`TopologyError`] for out-of-range nodes, self-loops,
    /// duplicate edges, degree > 4, or a disconnected graph.
    pub fn new(n: usize, edges: &[(usize, usize)]) -> Result<Self, TopologyError> {
        if n == 0 {
            return Err(TopologyError::Disconnected);
        }
        let mut neighbors: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in edges {
            if a >= n {
                return Err(TopologyError::NodeOutOfRange(a));
            }
            if b >= n {
                return Err(TopologyError::NodeOutOfRange(b));
            }
            if a == b {
                return Err(TopologyError::SelfLoop(a));
            }
            if neighbors[a].contains(&b) {
                return Err(TopologyError::DuplicateEdge(a.min(b), a.max(b)));
            }
            neighbors[a].push(b);
            neighbors[b].push(a);
        }
        for (node, adj) in neighbors.iter_mut().enumerate() {
            if adj.len() > 4 {
                return Err(TopologyError::DegreeTooHigh(node));
            }
            adj.sort_unstable();
        }
        // Slot assignment: ascending neighbour order fills slots l0..l3.
        let slot_of = |node: usize, peer: usize| -> Direction {
            let idx = neighbors[node]
                .iter()
                .position(|&p| p == peer)
                .unwrap_or(usize::MAX);
            Direction::from_index(idx)
        };
        let mut adj: Vec<[Option<(NodeId, Direction)>; 4]> = vec![[None; 4]; n];
        for (node, peers) in neighbors.iter().enumerate() {
            for (slot, &peer) in peers.iter().enumerate() {
                adj[node][slot] = Some((NodeId(peer), slot_of(peer, node)));
            }
        }
        // BFS spanning tree from node 0, neighbours visited in ascending
        // order: deterministic parents, deterministic routes.
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        seen[0] = true;
        queue.push_back(0usize);
        let mut order = Vec::with_capacity(n);
        while let Some(node) = queue.pop_front() {
            order.push(node);
            for &peer in &neighbors[node] {
                if !seen[peer] {
                    seen[peer] = true;
                    parent[peer] = Some(NodeId(node));
                    queue.push_back(peer);
                }
            }
        }
        if order.len() != n {
            return Err(TopologyError::Disconnected);
        }
        // Tree children lists, then per-destination next-hop tables by a
        // BFS *on the tree* from each destination: next_hop[src][dst] is
        // src's first hop on the unique tree path to dst.
        let mut tree_kids: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (node, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                tree_kids[p.index()].push(node);
            }
        }
        let tree_neighbors = |node: usize| {
            parent[node]
                .iter()
                .map(|p| p.index())
                .chain(tree_kids[node].iter().copied())
                .collect::<Vec<usize>>()
        };
        let mut next_hop = vec![vec![Direction::Local.index() as u8; n]; n];
        for dst in 0..n {
            // BFS outward from dst over tree edges; the predecessor of
            // each reached node is its next hop toward dst.
            let mut pred: Vec<Option<usize>> = vec![None; n];
            let mut visited = vec![false; n];
            visited[dst] = true;
            let mut q = std::collections::VecDeque::from([dst]);
            while let Some(node) = q.pop_front() {
                for peer in tree_neighbors(node) {
                    if !visited[peer] {
                        visited[peer] = true;
                        pred[peer] = Some(node);
                        q.push_back(peer);
                    }
                }
            }
            for src in 0..n {
                if src == dst {
                    continue;
                }
                let toward = pred[src].unwrap_or(dst);
                next_hop[src][dst] = slot_of(src, toward).index() as u8;
            }
        }
        Ok(IrregularTopology {
            n,
            adj,
            next_hop,
            tree_parent: parent,
        })
    }

    /// The BFS-tree parent of a node (`None` for the root, node 0).
    pub fn tree_parent(&self, node: NodeId) -> Option<NodeId> {
        self.tree_parent[node.index()]
    }
}

impl Topology for IrregularTopology {
    fn num_nodes(&self) -> usize {
        self.n
    }

    fn link_peer(&self, node: NodeId, dir: Direction) -> Option<(NodeId, Direction)> {
        assert!(node.index() < self.n, "node {node} out of range");
        match dir {
            Direction::Local => None,
            d => self.adj[node.index()][d.index()],
        }
    }

    fn route_dirs(&self, current: NodeId, dest: NodeId) -> DirSet {
        assert!(dest.index() < self.n, "node {dest} out of range");
        let slot = self.next_hop[current.index()][dest.index()] as usize;
        if slot == Direction::Local.index() {
            DirSet::empty()
        } else {
            DirSet::single(Direction::from_index(slot))
        }
    }

    fn hop_distance(&self, a: NodeId, b: NodeId) -> usize {
        let mut cur = a;
        let mut hops = 0;
        while cur != b {
            let slot = self.next_hop[cur.index()][b.index()] as usize;
            debug_assert_ne!(slot, Direction::Local.index(), "route stalled");
            let (peer, _) = self.adj[cur.index()][slot]
                // lint:allow(no-unwrap) next_hop only names populated slots
                .expect("next-hop slot always holds a link");
            cur = peer;
            hops += 1;
        }
        hops
    }

    fn kind_name(&self) -> &'static str {
        "irregular"
    }

    fn port_name(&self, dir: Direction) -> &'static str {
        IRREGULAR_PORT_NAMES[dir.index()]
    }
}

// ---------------------------------------------------------------------------
// Enum dispatch
// ---------------------------------------------------------------------------

/// A concrete topology chosen at configuration time.
///
/// The engine stores this (not a trait object) so the per-flit routing
/// stage stays a branch, not a virtual call, and [`crate::network::Network`]
/// keeps its non-generic type.
#[derive(Debug, Clone, PartialEq)]
pub enum AnyTopology {
    /// The paper's 2D mesh.
    Mesh(MeshTopology),
    /// A 2D torus (wrap links idle under dateline-avoidance routing).
    Torus(TorusTopology),
    /// A 1-D ring (`cw`/`ccw` ports).
    Ring(RingTopology),
    /// An arbitrary degree-≤4 connected graph, tree-routed.
    Irregular(IrregularTopology),
}

macro_rules! dispatch {
    ($self:expr, $t:ident => $body:expr) => {
        match $self {
            AnyTopology::Mesh($t) => $body,
            AnyTopology::Torus($t) => $body,
            AnyTopology::Ring($t) => $body,
            AnyTopology::Irregular($t) => $body,
        }
    };
}

impl Topology for AnyTopology {
    fn num_nodes(&self) -> usize {
        dispatch!(self, t => t.num_nodes())
    }

    fn link_peer(&self, node: NodeId, dir: Direction) -> Option<(NodeId, Direction)> {
        dispatch!(self, t => t.link_peer(node, dir))
    }

    fn route_dirs(&self, current: NodeId, dest: NodeId) -> DirSet {
        dispatch!(self, t => t.route_dirs(current, dest))
    }

    fn hop_distance(&self, a: NodeId, b: NodeId) -> usize {
        dispatch!(self, t => t.hop_distance(a, b))
    }

    fn kind_name(&self) -> &'static str {
        dispatch!(self, t => t.kind_name())
    }

    fn port_name(&self, dir: Direction) -> &'static str {
        dispatch!(self, t => t.port_name(dir))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_topologies() -> Vec<AnyTopology> {
        vec![
            AnyTopology::Mesh(MeshTopology::new(3, 3, RoutingAlgorithm::XY)),
            AnyTopology::Mesh(MeshTopology::new(4, 2, RoutingAlgorithm::WestFirst)),
            AnyTopology::Torus(TorusTopology::new(4, 4)),
            AnyTopology::Torus(TorusTopology::new(2, 3)),
            AnyTopology::Ring(RingTopology::new(6)),
            AnyTopology::Irregular(
                IrregularTopology::new(6, &[(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5)])
                    .unwrap(),
            ),
        ]
    }

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

    /// The duplex-symmetry half of the trait contract, for every fabric.
    #[test]
    fn link_peers_are_duplex_symmetric() {
        for topo in all_topologies() {
            for node in topo.node_ids().map(NodeId) {
                for dir in Direction::ALL {
                    if let Some((peer, pd)) = topo.link_peer(node, dir) {
                        assert_eq!(
                            topo.link_peer(peer, pd),
                            Some((node, dir)),
                            "{}: {node}-{dir} not duplex",
                            topo.kind_name()
                        );
                    }
                }
            }
        }
    }

    /// The routing half: every choice has a link, strictly approaches the
    /// destination, and arrives in `hop_distance` steps.
    #[test]
    fn routes_progress_and_terminate() {
        for topo in all_topologies() {
            let n = topo.num_nodes();
            for a in 0..n {
                for b in 0..n {
                    let (a, b) = (NodeId(a), NodeId(b));
                    let mut cur = a;
                    let mut left = topo.hop_distance(a, b);
                    while cur != b {
                        let dirs = topo.route_dirs(cur, b);
                        assert!(!dirs.is_empty(), "{}: stalled {cur}->{b}", topo.kind_name());
                        for &d in dirs.as_slice() {
                            assert!(
                                topo.link_peer(cur, d).is_some(),
                                "{}: route over missing link {cur}-{d}",
                                topo.kind_name()
                            );
                        }
                        // Worst case for adaptive sets: take the last choice.
                        // lint:allow(no-unwrap) non-empty asserted above
                        let d = *dirs.as_slice().last().unwrap();
                        let (next, _) = topo.link_peer(cur, d).unwrap();
                        let next_left = topo.hop_distance(next, b);
                        assert!(
                            next_left < left,
                            "{}: {cur}->{b} via {d} does not progress",
                            topo.kind_name()
                        );
                        cur = next;
                        left = next_left;
                    }
                    assert_eq!(left, 0);
                    assert!(topo.route_dirs(b, b).is_empty());
                }
            }
        }
    }

    /// Mesh-through-the-trait must agree with the raw algorithm call —
    /// the digest goldens depend on it.
    #[test]
    fn mesh_topology_delegates_to_routing_algorithm() {
        for alg in [
            RoutingAlgorithm::XY,
            RoutingAlgorithm::YX,
            RoutingAlgorithm::WestFirst,
        ] {
            let topo = MeshTopology::new(4, 4, alg);
            let mesh = Mesh2D::square(4);
            for a in mesh.nodes() {
                for b in mesh.nodes() {
                    assert_eq!(topo.route_dirs(a, b), alg.allowed(&mesh, a, b));
                    for d in Direction::ALL {
                        assert_eq!(
                            topo.link_peer(a, d),
                            mesh.neighbor(a, d).map(|n| (n, d.opposite()))
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn torus_wrap_links_exist_but_are_never_routed() {
        let topo = TorusTopology::new(4, 4);
        // Node 0's West and North ports wrap.
        assert_eq!(
            topo.link_peer(NodeId(0), Direction::West),
            Some((NodeId(3), Direction::East))
        );
        assert_eq!(
            topo.link_peer(NodeId(0), Direction::North),
            Some((NodeId(12), Direction::South))
        );
        assert!(topo.is_wrap_link(NodeId(0), Direction::West));
        assert!(!topo.is_wrap_link(NodeId(0), Direction::East));
        // No route ever takes a wrap link.
        for a in 0..16 {
            for b in 0..16 {
                let (a, b) = (NodeId(a), NodeId(b));
                let mut cur = a;
                while cur != b {
                    let d = topo.route_dirs(cur, b).first().unwrap();
                    assert!(
                        !topo.is_wrap_link(cur, d),
                        "route {a}->{b} crossed the dateline at {cur}-{d}"
                    );
                    cur = topo.neighbor(cur, d).unwrap();
                }
            }
        }
    }

    #[test]
    fn degenerate_torus_dimensions_have_no_self_links() {
        let topo = TorusTopology::new(1, 4);
        for node in topo.node_ids().map(NodeId) {
            assert_eq!(topo.link_peer(node, Direction::East), None);
            assert_eq!(topo.link_peer(node, Direction::West), None);
            assert!(topo.link_peer(node, Direction::South).is_some());
        }
        let two = TorusTopology::new(2, 1);
        // Extent 2: both parallel links exist and are duplex-consistent.
        assert_eq!(
            two.link_peer(NodeId(0), Direction::East),
            Some((NodeId(1), Direction::West))
        );
        assert_eq!(
            two.link_peer(NodeId(0), Direction::West),
            Some((NodeId(1), Direction::East))
        );
    }

    #[test]
    fn ring_routes_as_a_cut_linear_array() {
        let topo = RingTopology::new(5);
        assert_eq!(
            topo.route_dirs(NodeId(0), NodeId(4)).as_slice(),
            [Direction::East]
        );
        assert_eq!(
            topo.route_dirs(NodeId(4), NodeId(0)).as_slice(),
            [Direction::West]
        );
        assert_eq!(topo.hop_distance(NodeId(0), NodeId(4)), 4);
        // The wrap link 4->0 exists but is never the routed next hop.
        assert_eq!(
            topo.link_peer(NodeId(4), Direction::East),
            Some((NodeId(0), Direction::West))
        );
        assert_eq!(topo.port_name(Direction::East), "cw");
        assert_eq!(topo.port_name(Direction::West), "ccw");
        assert_eq!(
            topo.port_label(PortId::router_input(NodeId(2), Direction::West)),
            "r2-ccw"
        );
    }

    #[test]
    fn singleton_ring_has_no_links() {
        let topo = RingTopology::new(1);
        for d in Direction::ALL {
            assert_eq!(topo.link_peer(NodeId(0), d), None);
        }
        assert!(topo.route_dirs(NodeId(0), NodeId(0)).is_empty());
    }

    #[test]
    fn irregular_validation_rejects_bad_graphs() {
        assert_eq!(
            IrregularTopology::new(3, &[(0, 3)]).unwrap_err(),
            TopologyError::NodeOutOfRange(3)
        );
        assert_eq!(
            IrregularTopology::new(3, &[(1, 1)]).unwrap_err(),
            TopologyError::SelfLoop(1)
        );
        assert_eq!(
            IrregularTopology::new(3, &[(0, 1), (1, 0)]).unwrap_err(),
            TopologyError::DuplicateEdge(0, 1)
        );
        assert_eq!(
            IrregularTopology::new(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]).unwrap_err(),
            TopologyError::DegreeTooHigh(0)
        );
        assert_eq!(
            IrregularTopology::new(4, &[(0, 1), (2, 3)]).unwrap_err(),
            TopologyError::Disconnected
        );
    }

    #[test]
    fn irregular_routes_follow_the_spanning_tree() {
        // 0-1-2-3 chain plus a 3-0 chord: BFS tree from 0 keeps 0-1, 1-2,
        // 0-3 (3 is reached from 0 directly via the chord), so 2->3 must
        // go 2-1-0-3, not over the 2-3 edge... there is no 2-3 edge here.
        let topo = IrregularTopology::new(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert_eq!(topo.tree_parent(NodeId(0)), None);
        assert_eq!(topo.tree_parent(NodeId(1)), Some(NodeId(0)));
        assert_eq!(topo.tree_parent(NodeId(3)), Some(NodeId(0)));
        assert_eq!(topo.tree_parent(NodeId(2)), Some(NodeId(1)));
        // 2 -> 3 walks up through 1 and 0 (3 hops), not the 2-3 link.
        assert_eq!(topo.hop_distance(NodeId(2), NodeId(3)), 3);
        let first = topo.route_dirs(NodeId(2), NodeId(3)).first().unwrap();
        assert_eq!(topo.neighbor(NodeId(2), first), Some(NodeId(1)));
        // Port labels use slot names.
        assert_eq!(topo.port_name(Direction::North), "l0");
        assert_eq!(
            topo.port_label(PortId::router_input(NodeId(2), Direction::North)),
            "r2-l0"
        );
    }

    #[test]
    fn port_labels_keep_mesh_spelling() {
        let topo = MeshTopology::new(2, 2, RoutingAlgorithm::XY);
        assert_eq!(
            topo.port_label(PortId::router_input(NodeId(2), Direction::West)),
            "r2-W"
        );
        assert_eq!(topo.port_label(PortId::nic_eject(NodeId(1))), "r1-eject");
        assert_eq!(
            topo.port_label(PortId::router_input(NodeId(0), Direction::Local)),
            "r0-L"
        );
    }
}

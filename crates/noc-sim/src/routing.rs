//! Deterministic routing algorithms.
//!
//! The paper's Garnet baseline uses deterministic dimension-ordered routing
//! on the 2D mesh. Both orders are provided; `XY` is the default. Both are
//! deadlock-free on a mesh because their channel-dependence graphs are
//! acyclic.

use crate::topology::Mesh2D;
use crate::types::{Direction, NodeId};

/// A routing function for 2D meshes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingAlgorithm {
    /// Dimension-ordered: route fully in X, then in Y.
    #[default]
    XY,
    /// Dimension-ordered: route fully in Y, then in X.
    YX,
    /// West-first turn model (Glass & Ni): all westward hops are taken
    /// first; afterwards the packet may choose adaptively among the
    /// remaining productive directions (the simulator picks the candidate
    /// with the most downstream credits). Deadlock-free because the
    /// forbidden turns break every cycle in the channel-dependence graph.
    WestFirst,
}

/// A fixed-capacity set of productive directions (at most two on a 2D
/// mesh under the west-first turn model). `allowed` returns this by value
/// so the per-flit RC stage never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirSet {
    dirs: [Direction; 2],
    len: u8,
}

impl Default for DirSet {
    fn default() -> Self {
        DirSet::empty()
    }
}

impl DirSet {
    /// The empty set.
    pub fn empty() -> DirSet {
        DirSet {
            dirs: [Direction::Local; 2],
            len: 0,
        }
    }

    /// A one-element set.
    pub fn single(d: Direction) -> DirSet {
        DirSet {
            dirs: [d, Direction::Local],
            len: 1,
        }
    }

    /// Appends a direction (capacity 2; a third is a logic error).
    fn add(&mut self, d: Direction) {
        debug_assert!(self.len < 2, "a 2D turn model never offers 3 choices");
        self.dirs[self.len as usize] = d;
        self.len += 1;
    }

    /// The directions as a slice, in preference order.
    pub fn as_slice(&self) -> &[Direction] {
        &self.dirs[..self.len as usize]
    }

    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The first (most-preferred) direction, if any.
    pub fn first(&self) -> Option<Direction> {
        self.as_slice().first().copied()
    }
}

impl RoutingAlgorithm {
    /// The output port a packet at `current` must take to reach `dest`,
    /// with the algorithm's *deterministic* tie-break (for `WestFirst`,
    /// the first allowed productive direction; the simulator overrides the
    /// tie-break with credit-based selection via
    /// [`allowed`](Self::allowed)).
    ///
    /// Returns [`Direction::Local`] when `current == dest`.
    pub fn route(self, mesh: &Mesh2D, current: NodeId, dest: NodeId) -> Direction {
        let (cx, cy) = mesh.coords(current);
        let (dx, dy) = mesh.coords(dest);
        match self {
            RoutingAlgorithm::XY => {
                if dx > cx {
                    Direction::East
                } else if dx < cx {
                    Direction::West
                } else if dy > cy {
                    Direction::South
                } else if dy < cy {
                    Direction::North
                } else {
                    Direction::Local
                }
            }
            RoutingAlgorithm::YX => {
                if dy > cy {
                    Direction::South
                } else if dy < cy {
                    Direction::North
                } else if dx > cx {
                    Direction::East
                } else if dx < cx {
                    Direction::West
                } else {
                    Direction::Local
                }
            }
            RoutingAlgorithm::WestFirst => self
                .allowed(mesh, current, dest)
                .first()
                .unwrap_or(Direction::Local),
        }
    }

    /// The set of productive directions the algorithm permits at this hop,
    /// in deterministic preference order (empty at the destination).
    ///
    /// For the dimension-ordered algorithms the set is the single
    /// [`route`](Self::route) direction. For `WestFirst`, a packet with
    /// westward distance remaining *must* go west; otherwise every
    /// remaining productive direction (east/north/south) is allowed and an
    /// adaptive selector may choose among them.
    pub fn allowed(self, mesh: &Mesh2D, current: NodeId, dest: NodeId) -> DirSet {
        if current == dest {
            return DirSet::empty();
        }
        match self {
            RoutingAlgorithm::XY | RoutingAlgorithm::YX => {
                DirSet::single(self.route(mesh, current, dest))
            }
            RoutingAlgorithm::WestFirst => {
                let (cx, cy) = mesh.coords(current);
                let (dx, dy) = mesh.coords(dest);
                if dx < cx {
                    // All west hops first (minimal routing keeps dx ≥ cx
                    // afterwards, so the forbidden *-to-west turns never
                    // arise).
                    return DirSet::single(Direction::West);
                }
                let mut dirs = DirSet::empty();
                if dx > cx {
                    dirs.add(Direction::East);
                }
                if dy > cy {
                    dirs.add(Direction::South);
                } else if dy < cy {
                    dirs.add(Direction::North);
                }
                dirs
            }
        }
    }

    /// The full hop-by-hop path from `src` to `dest`, excluding `src` and
    /// including `dest`.
    pub fn path(self, mesh: &Mesh2D, src: NodeId, dest: NodeId) -> Vec<NodeId> {
        let mut path = Vec::with_capacity(mesh.hop_distance(src, dest));
        let mut cur = src;
        while cur != dest {
            let dir = self.route(mesh, cur, dest);
            cur = mesh
                .neighbor(cur, dir)
                // lint:allow(no-unwrap) route() only returns in-mesh directions
                .expect("dimension-ordered routing never leaves the mesh");
            path.push(cur);
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xy_routes_x_first() {
        let mesh = Mesh2D::square(4);
        // From (0,0) to (2,2): go East first.
        assert_eq!(
            RoutingAlgorithm::XY.route(&mesh, NodeId(0), NodeId(10)),
            Direction::East
        );
        // Same column: go South.
        assert_eq!(
            RoutingAlgorithm::XY.route(&mesh, NodeId(2), NodeId(10)),
            Direction::South
        );
    }

    #[test]
    fn yx_routes_y_first() {
        let mesh = Mesh2D::square(4);
        assert_eq!(
            RoutingAlgorithm::YX.route(&mesh, NodeId(0), NodeId(10)),
            Direction::South
        );
    }

    #[test]
    fn at_destination_routes_local() {
        let mesh = Mesh2D::square(3);
        for alg in [RoutingAlgorithm::XY, RoutingAlgorithm::YX] {
            assert_eq!(alg.route(&mesh, NodeId(4), NodeId(4)), Direction::Local);
        }
    }

    #[test]
    fn west_first_forces_west_then_opens_choices() {
        let mesh = Mesh2D::square(4);
        let wf = RoutingAlgorithm::WestFirst;
        // From (3,0) to (0,3): west is mandatory while dx < 0.
        assert_eq!(
            wf.allowed(&mesh, NodeId(3), NodeId(12)).as_slice(),
            [Direction::West]
        );
        // From (0,0) to (2,2): east and south both allowed.
        assert_eq!(
            wf.allowed(&mesh, NodeId(0), NodeId(10)).as_slice(),
            [Direction::East, Direction::South]
        );
        // Same column: only the Y direction.
        assert_eq!(
            wf.allowed(&mesh, NodeId(2), NodeId(10)).as_slice(),
            [Direction::South]
        );
        // At destination: nothing.
        assert!(wf.allowed(&mesh, NodeId(5), NodeId(5)).is_empty());
        assert_eq!(wf.route(&mesh, NodeId(5), NodeId(5)), Direction::Local);
    }

    #[test]
    fn west_first_never_turns_back_west() {
        // Follow every allowed choice greedily (worst case for the turn
        // model): after the first non-west move, west must never reappear.
        let mesh = Mesh2D::square(4);
        let wf = RoutingAlgorithm::WestFirst;
        for a in mesh.nodes() {
            for b in mesh.nodes() {
                let mut cur = a;
                let mut moved_non_west = false;
                let mut steps = 0;
                while cur != b {
                    let dirs = wf.allowed(&mesh, cur, b);
                    assert!(!dirs.is_empty());
                    for &d in dirs.as_slice() {
                        if moved_non_west {
                            assert_ne!(d, Direction::West, "{a}->{b} re-offered west");
                        }
                    }
                    // Take the last choice (maximally adversarial order).
                    let d = *dirs.as_slice().last().unwrap();
                    if d != Direction::West {
                        moved_non_west = true;
                    }
                    cur = mesh.neighbor(cur, d).unwrap();
                    steps += 1;
                    assert!(steps <= 8, "non-minimal west-first path");
                }
                assert_eq!(steps, mesh.hop_distance(a, b));
            }
        }
    }

    #[test]
    fn paths_have_minimal_length() {
        let mesh = Mesh2D::new(4, 4);
        for alg in [
            RoutingAlgorithm::XY,
            RoutingAlgorithm::YX,
            RoutingAlgorithm::WestFirst,
        ] {
            for a in mesh.nodes() {
                for b in mesh.nodes() {
                    let path = alg.path(&mesh, a, b);
                    assert_eq!(path.len(), mesh.hop_distance(a, b));
                    if a != b {
                        assert_eq!(*path.last().unwrap(), b);
                    }
                }
            }
        }
    }

    #[test]
    fn xy_path_turns_at_most_once() {
        let mesh = Mesh2D::square(4);
        let path = RoutingAlgorithm::XY.path(&mesh, NodeId(0), NodeId(15));
        // XY from corner to corner: all East moves then all South moves.
        assert_eq!(
            path,
            vec![
                NodeId(1),
                NodeId(2),
                NodeId(3),
                NodeId(7),
                NodeId(11),
                NodeId(15)
            ]
        );
    }
}

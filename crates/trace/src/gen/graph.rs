//! CSR graph-processing workloads (Ligra class: BFS, PageRank, Components,
//! Radii, Triangle).
//!
//! A synthetic power-law graph in CSR form is built host-side on first
//! touch: vertices are synthesised in id order, each one only when a
//! kernel first reads it, so a window that visits a few hundred vertices
//! pays for a few hundred, not the whole graph. The graph is the same
//! either way (see [`CsrGraph`]). Kernels walk it the way Ligra's
//! push-style operators do:
//!
//! * the *offsets* array is read with unit stride (prefetchable),
//! * the *edge* array is streamed per-vertex (short bursts, prefetchable),
//! * the *per-vertex data* array (`rank`, `visited`, `comp`) is gathered at
//!   random neighbour indices — the irregular, off-chip-heavy load that
//!   prefetchers miss and POPET learns to flag by PC.
//!
//! PageRank and Components sweep vertices in order, so they build only
//! the prefix they have reached. BFS (and Radii) pops neighbours and
//! Triangle intersects with higher-id neighbours; one rare high-id vertex
//! makes them build everything below it, so in practice they reach almost
//! the whole graph early in a run.
//!
//! Target skew is quadratic (hubs get most edges), so low-id vertices stay
//! cache-resident while the long tail misses — reuse behaviour that gives
//! the off-chip predictor a learnable, non-trivial decision boundary.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use hermes_types::VirtAddr;

use super::{pc, Layout};
use crate::instr::Instr;
use crate::source::TraceSource;

/// Which Ligra-style kernel to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphKernel {
    /// Frontier-based breadth-first search (also used for Radii with
    /// periodic multi-source restarts).
    Bfs,
    /// Dense per-vertex sweep accumulating neighbour ranks.
    PageRank,
    /// Label propagation with data-dependent branches.
    Components,
    /// Adjacency-list intersection (two simultaneous edge streams).
    Triangle,
}

impl GraphKernel {
    fn as_str(self) -> &'static str {
        match self {
            GraphKernel::Bfs => "bfs",
            GraphKernel::PageRank => "pagerank",
            GraphKernel::Components => "components",
            GraphKernel::Triangle => "triangle",
        }
    }
}

/// Compressed-sparse-row graph, built host-side in vertex-id order on
/// first touch.
///
/// Vertex `u`'s adjacency is drawn from one synthesis RNG after those of
/// vertices `0..u`, so the graph does not depend on the order in which
/// [`ensure`](Self::ensure) is called: any prefix it builds equals that
/// prefix of the fully built graph.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    vertices: u32,
    avg_degree: u32,
    rng: SmallRng,
    /// `offsets[u]..offsets[u + 1]` spans `u`'s edges, for every built `u`.
    offsets: Vec<u32>,
    edges: Vec<u32>,
}

impl CsrGraph {
    /// An unbuilt graph of `vertices` vertices and roughly `avg_degree`
    /// edges per vertex, with quadratically-skewed targets. No vertex is
    /// built until [`ensure`](Self::ensure) reaches it.
    ///
    /// # Panics
    ///
    /// Panics if `vertices < 2` or `avg_degree == 0`.
    pub fn lazy(vertices: u32, avg_degree: u32, seed: u64) -> Self {
        assert!(vertices >= 2 && avg_degree >= 1);
        Self {
            vertices,
            avg_degree,
            rng: SmallRng::seed_from_u64(seed ^ 0x6741_5048),
            offsets: vec![0],
            edges: Vec::new(),
        }
    }

    /// [`lazy`](Self::lazy) with every vertex built.
    ///
    /// # Panics
    ///
    /// Panics if `vertices < 2` or `avg_degree == 0`.
    pub fn synth(vertices: u32, avg_degree: u32, seed: u64) -> Self {
        let mut g = Self::lazy(vertices, avg_degree, seed);
        g.ensure(vertices - 1);
        g
    }

    /// Builds every vertex up to and including `u` that is not built yet.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a vertex.
    pub fn ensure(&mut self, u: u32) {
        assert!(u < self.vertices, "vertex {u} out of range");
        while self.built() <= u {
            self.build_next();
        }
    }

    /// Appends the next vertex's sorted, deduplicated targets to `edges`.
    fn build_next(&mut self) {
        let n = self.vertices;
        let r: f64 = self.rng.gen();
        let deg = 1 + (r * r * (2 * self.avg_degree) as f64) as u32;
        let start = self.edges.len();
        for _ in 0..deg {
            let t: f64 = self.rng.gen();
            self.edges.push(((t * t * t * n as f64) as u32).min(n - 1));
        }
        let tail = &mut self.edges[start..];
        tail.sort_unstable();
        let mut kept = 1;
        for i in 1..tail.len() {
            if tail[i] != tail[kept - 1] {
                tail[kept] = tail[i];
                kept += 1;
            }
        }
        self.edges.truncate(start + kept);
        self.offsets.push(self.edges.len() as u32);
    }

    /// Number of vertices built so far.
    fn built(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        self.vertices
    }

    /// Number of (directed) edges of the vertices built so far: the whole
    /// graph's count after [`synth`](Self::synth) or once
    /// [`ensure`](Self::ensure) has reached the last vertex.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// `u`'s targets; `u` must be built.
    fn adj(&self, u: u32) -> &[u32] {
        &self.edges[self.offsets[u as usize] as usize..self.offsets[u as usize + 1] as usize]
    }
}

/// A graph kernel as a [`TraceSource`]. See [module docs](self).
#[derive(Debug)]
pub struct GraphWorkload {
    name: String,
    graph: CsrGraph,
    kernel: GraphKernel,
    queue: VecDeque<Instr>,
    // Address bases.
    off_base: u64,
    edge_base: u64,
    data_base: u64,
    data2_base: u64,
    // Kernel cursors.
    u: u32,
    frontier: VecDeque<u32>,
    visited: Vec<bool>,
    rng: SmallRng,
    restart_every: u32,
    pops_since_restart: u32,
}

impl GraphWorkload {
    /// Runs `kernel` over a synthetic graph that builds on first touch.
    pub fn new(kernel: GraphKernel, vertices: u32, avg_degree: u32, seed: u64) -> Self {
        let graph = CsrGraph::lazy(vertices, avg_degree, seed);
        let l = Layout::new();
        let visited = vec![false; vertices as usize];
        Self {
            name: format!("ligra_{}_{}v", kernel.as_str(), vertices),
            graph,
            kernel,
            queue: VecDeque::with_capacity(64),
            off_base: l.region(12),
            edge_base: l.region(13),
            data_base: l.region(14),
            data2_base: l.region(15),
            u: 0,
            frontier: VecDeque::new(),
            visited,
            rng: SmallRng::seed_from_u64(seed ^ 0x4C49_4752),
            restart_every: u32::MAX,
            pops_since_restart: 0,
        }
    }

    /// BFS variant with periodic multi-source restarts, emulating Ligra's
    /// Radii computation (which runs BFS from many sources).
    pub fn new_radii(vertices: u32, avg_degree: u32, seed: u64) -> Self {
        let mut w = Self::new(GraphKernel::Bfs, vertices, avg_degree, seed);
        w.name = format!("ligra_radii_{}v", vertices);
        w.restart_every = (vertices / 8).max(64);
        w
    }

    fn off_addr(&self, u: u32) -> u64 {
        self.off_base + u as u64 * 8
    }

    fn edge_addr(&self, idx: usize) -> u64 {
        self.edge_base + idx as u64 * 4
    }

    fn data_addr(&self, v: u32) -> u64 {
        self.data_base + v as u64 * 8
    }

    fn refill_pagerank(&mut self) {
        let u = self.u;
        self.u = (self.u + 1) % self.graph.num_vertices();
        self.graph.ensure(u);
        let start = self.graph.offsets[u as usize] as usize;
        self.queue.push_back(Instr::load(
            pc(40),
            VirtAddr::new(self.off_addr(u)),
            Some(2),
            [Some(1), None],
        ));
        // Cap per-vertex work so a hub vertex cannot starve the queue.
        let adj = self.graph.adj(u);
        for (k, &t) in adj.iter().take(32).enumerate() {
            self.queue.push_back(Instr::load(
                pc(41),
                VirtAddr::new(self.edge_addr(start + k)),
                Some(3),
                [Some(2), None],
            ));
            self.queue.push_back(Instr::load(
                pc(42),
                VirtAddr::new(self.data_addr(t)),
                Some(4),
                [Some(3), None],
            ));
            self.queue
                .push_back(Instr::fp(pc(43), Some(24), [Some(4), Some(24)], 4));
        }
        self.queue.push_back(Instr::store(
            pc(44),
            VirtAddr::new(self.data2_base + u as u64 * 8),
            [Some(24), Some(1)],
        ));
        self.queue.push_back(Instr::branch(pc(45), true, None));
    }

    fn refill_components(&mut self) {
        let u = self.u;
        self.u = (self.u + 1) % self.graph.num_vertices();
        self.graph.ensure(u);
        let start = self.graph.offsets[u as usize] as usize;
        self.queue.push_back(Instr::load(
            pc(60),
            VirtAddr::new(self.off_addr(u)),
            Some(2),
            [Some(1), None],
        ));
        self.queue.push_back(Instr::load(
            pc(61),
            VirtAddr::new(self.data_addr(u)),
            Some(5),
            [Some(2), None],
        ));
        let adj = self.graph.adj(u);
        for (k, &t) in adj.iter().take(32).enumerate() {
            self.queue.push_back(Instr::load(
                pc(62),
                VirtAddr::new(self.edge_addr(start + k)),
                Some(3),
                [Some(2), None],
            ));
            self.queue.push_back(Instr::load(
                pc(63),
                VirtAddr::new(self.data_addr(t)),
                Some(4),
                [Some(3), None],
            ));
            // Label comparison: direction depends on loaded data -> modelled
            // as a hard-to-predict branch (labels keep shrinking early on).
            let taken = t < u; // stable but irregular pattern per (u,t)
            self.queue.push_back(Instr::branch(pc(64), taken, Some(4)));
            if taken {
                self.queue.push_back(Instr::store(
                    pc(65),
                    VirtAddr::new(self.data_addr(u)),
                    [Some(4), Some(1)],
                ));
            }
        }
        self.queue.push_back(Instr::branch(pc(66), true, None));
    }

    fn refill_bfs(&mut self) {
        self.pops_since_restart += 1;
        if self.frontier.is_empty() || self.pops_since_restart >= self.restart_every {
            // New (re)start: clear visited lazily by generation trick would
            // complicate; visited is host-side only, reset is cheap.
            self.pops_since_restart = 0;
            for v in self.visited.iter_mut() {
                *v = false;
            }
            let s = self.rng.gen_range(0..self.graph.num_vertices());
            self.frontier.push_back(s);
            self.visited[s as usize] = true;
        }
        let u = self.frontier.pop_front().expect("frontier refilled above");
        self.graph.ensure(u);
        let start = self.graph.offsets[u as usize] as usize;
        let adj = self.graph.adj(u);
        self.queue.push_back(Instr::load(
            pc(50),
            VirtAddr::new(self.off_addr(u)),
            Some(2),
            [Some(1), None],
        ));
        for (k, &t) in adj.iter().take(32).enumerate() {
            self.queue.push_back(Instr::load(
                pc(51),
                VirtAddr::new(self.edge_addr(start + k)),
                Some(3),
                [Some(2), None],
            ));
            self.queue.push_back(Instr::load(
                pc(52),
                VirtAddr::new(self.data_addr(t)),
                Some(4),
                [Some(3), None],
            ));
            let unvisited = !self.visited[t as usize];
            self.queue
                .push_back(Instr::branch(pc(53), unvisited, Some(4)));
            if unvisited {
                self.visited[t as usize] = true;
                self.frontier.push_back(t);
                self.queue.push_back(Instr::store(
                    pc(54),
                    VirtAddr::new(self.data_addr(t)),
                    [Some(4), Some(1)],
                ));
            }
        }
        self.queue.push_back(Instr::branch(pc(55), true, None));
    }

    fn refill_triangle(&mut self) {
        let u = self.u;
        self.u = (self.u + 1) % self.graph.num_vertices();
        self.graph.ensure(u);
        // Targets are sorted (and never empty), so building up to the last
        // of the first 8 builds every higher-id neighbour the walk below
        // intersects with.
        let k = self.graph.adj(u).len().min(8);
        self.graph.ensure(self.graph.adj(u)[k - 1].max(u));
        let start_u = self.graph.offsets[u as usize] as usize;
        let adj_u = &self.graph.adj(u)[..k];
        self.queue.push_back(Instr::load(
            pc(70),
            VirtAddr::new(self.off_addr(u)),
            Some(2),
            [Some(1), None],
        ));
        // Emit the intersection walk's loads as it runs host-side.
        for &v in adj_u {
            if v <= u {
                continue;
            }
            let start_v = self.graph.offsets[v as usize] as usize;
            let adj_v = self.graph.adj(v);
            let (mut i, mut j) = (0usize, 0usize);
            let mut guard = 0;
            while i < adj_u.len() && j < adj_v.len().min(16) && guard < 24 {
                let (ei, ej) = (start_u + i, start_v + j);
                self.queue.push_back(Instr::load(
                    pc(71),
                    VirtAddr::new(self.edge_addr(ei)),
                    Some(3),
                    [Some(2), None],
                ));
                self.queue.push_back(Instr::load(
                    pc(72),
                    VirtAddr::new(self.edge_addr(ej)),
                    Some(4),
                    [Some(2), None],
                ));
                self.queue
                    .push_back(Instr::branch(pc(73), (ei ^ ej) & 1 == 0, Some(4)));
                if adj_u[i] < adj_v[j] {
                    i += 1;
                } else {
                    j += 1;
                }
                guard += 1;
            }
        }
        self.queue.push_back(Instr::branch(pc(74), true, None));
    }
}

impl TraceSource for GraphWorkload {
    fn next_instr(&mut self) -> Instr {
        while self.queue.is_empty() {
            match self.kernel {
                GraphKernel::PageRank => self.refill_pagerank(),
                GraphKernel::Components => self.refill_components(),
                GraphKernel::Bfs => self.refill_bfs(),
                GraphKernel::Triangle => self.refill_triangle(),
            }
        }
        self.queue.pop_front().expect("non-empty after refill")
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_well_formed() {
        let g = CsrGraph::synth(1000, 8, 1);
        assert_eq!(g.num_vertices(), 1000);
        assert!(g.num_edges() > 1000);
        for u in 0..1000 {
            for &t in g.adj(u) {
                assert!(t < 1000);
            }
        }
    }

    #[test]
    fn targets_skewed_to_hubs() {
        let g = CsrGraph::synth(10_000, 8, 2);
        let low = g.edges.iter().filter(|&&t| t < 2500).count();
        // Quadratic skew puts ~half the mass in the first quarter.
        assert!(
            low * 2 > g.num_edges(),
            "skew too weak: {}/{}",
            low,
            g.num_edges()
        );
    }

    #[test]
    fn first_touch_matches_eager_graph() {
        for (n, d, seed) in [(2, 1, 0), (97, 3, 7), (1000, 8, 1), (5000, 12, 44)] {
            let eager = CsrGraph::synth(n, d, seed);
            assert_eq!(eager.built(), n);
            let orders: [Vec<u32>; 3] = [
                (0..n).step_by(7).collect(),
                (0..n).rev().step_by(5).collect(),
                vec![n / 3, n / 3, 0, n / 3, n - 1, n / 2, n - 1],
            ];
            for order in orders {
                let mut g = CsrGraph::lazy(n, d, seed);
                let mut reached = 0;
                for u in order {
                    g.ensure(u);
                    reached = reached.max(u + 1);
                    assert_eq!(g.built(), reached, "({n}, {d}, {seed}) ensure({u})");
                    let k = reached as usize;
                    assert_eq!(g.offsets[..=k], eager.offsets[..=k]);
                    assert_eq!(g.edges[..], eager.edges[..eager.offsets[k] as usize]);
                }
            }
        }
    }

    #[test]
    fn workloads_start_unbuilt() {
        let kernels = [
            GraphKernel::Bfs,
            GraphKernel::PageRank,
            GraphKernel::Components,
            GraphKernel::Triangle,
        ];
        for k in kernels {
            assert_eq!(GraphWorkload::new(k, 100_000, 8, 1).graph.built(), 0);
        }
        assert_eq!(GraphWorkload::new_radii(100_000, 8, 1).graph.built(), 0);
        // An in-order sweep builds only the prefix it has reached.
        let mut w = GraphWorkload::new(GraphKernel::PageRank, 100_000, 8, 1);
        for _ in 0..1000 {
            let _ = w.next_instr();
        }
        assert_eq!(w.graph.built(), w.u);
    }

    #[test]
    fn pagerank_emits_gather_loads() {
        let mut w = GraphWorkload::new(GraphKernel::PageRank, 500, 6, 3);
        let mut gather = 0;
        for _ in 0..2000 {
            let i = w.next_instr();
            if i.pc == pc(42) {
                gather += 1;
            }
        }
        assert!(gather > 100);
    }

    #[test]
    fn bfs_restarts_when_frontier_empties() {
        let mut w = GraphWorkload::new(GraphKernel::Bfs, 200, 4, 4);
        // Run long enough to exhaust several BFS trees.
        for _ in 0..50_000 {
            let _ = w.next_instr();
        }
        // Must not hang or panic; frontier logic self-restarts.
    }

    #[test]
    fn triangle_reads_two_edge_streams() {
        let mut w = GraphWorkload::new(GraphKernel::Triangle, 500, 8, 5);
        let (mut a, mut b) = (0, 0);
        for _ in 0..5000 {
            let i = w.next_instr();
            if i.pc == pc(71) {
                a += 1;
            }
            if i.pc == pc(72) {
                b += 1;
            }
        }
        assert!(a > 50 && b > 50);
    }

    #[test]
    fn radii_named_and_restarting() {
        let w = GraphWorkload::new_radii(300, 4, 6);
        assert!(w.name().contains("radii"));
        assert!(w.restart_every < u32::MAX);
    }

    #[test]
    fn deterministic() {
        let mut a = GraphWorkload::new(GraphKernel::Components, 400, 5, 9);
        let mut b = GraphWorkload::new(GraphKernel::Components, 400, 5, 9);
        for _ in 0..500 {
            assert_eq!(a.next_instr(), b.next_instr());
        }
    }
}

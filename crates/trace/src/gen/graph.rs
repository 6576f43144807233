//! CSR graph-processing workloads (Ligra class: BFS, PageRank, Components,
//! Radii, Triangle).
//!
//! A synthetic power-law graph in CSR form is synthesised host-side, and
//! only as far as the kernel reads it (see [`CsrGraph`]). The *offsets*
//! array is counted in vertex-id order up to the highest vertex touched,
//! which costs a few random draws per vertex and stores nothing else. A
//! vertex's *adjacency list* is built only when the kernel reads it, by
//! replaying its own draws from a nearby checkpoint of the synthesis
//! stream. A BFS that has touched a vertex near the top of a 400k-vertex
//! graph has therefore counted offsets up there, but built only the few
//! hundred lists it popped. The graph is the one an eager build in
//! vertex-id order would give. Kernels walk it the way Ligra's
//! push-style operators do:
//!
//! * the *offsets* array is read with unit stride (prefetchable),
//! * the *edge* array is streamed per-vertex (short bursts, prefetchable),
//! * the *per-vertex data* array (`rank`, `visited`, `comp`) is gathered at
//!   random neighbour indices — the irregular, off-chip-heavy load that
//!   prefetchers miss and POPET learns to flag by PC.
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

/// Vertices per checkpoint of the synthesis stream: building a list
/// re-draws at most `BLOCK - 1` earlier vertices.
const BLOCK: u32 = 16;

/// Largest supported average degree. A vertex draws at most twice this
/// many targets, which bounds the offsets pass's stack buffer.
const MAX_AVG_DEGREE: u32 = 64;

/// Draws one vertex from the synthesis stream: its degree, then that many
/// quadratically-skewed targets, each passed to `target` in draw order
/// (unsorted, duplicates included).
fn draw_vertex(rng: &mut SmallRng, vertices: u32, avg_degree: u32, mut target: impl FnMut(u32)) {
    let r: f64 = rng.gen();
    let deg = 1 + (r * r * (2 * avg_degree) as f64) as u32;
    for _ in 0..deg {
        let t: f64 = rng.gen();
        target(((t * t * t * vertices as f64) as u32).min(vertices - 1));
    }
}

/// Compressed-sparse-row graph, synthesised host-side as far as it is
/// read.
///
/// Vertex `u`'s targets are drawn from one synthesis stream after those
/// of vertices `0..u`; its adjacency list is those targets sorted and
/// deduplicated. The graph is synthesised in two parts:
///
/// * The *offsets* are counted in vertex-id order, up to the highest
///   vertex read so far. Counting draws each vertex's targets and counts
///   the distinct ones, but keeps none. Every `BLOCK` (16) vertices it
///   saves a copy of the stream.
/// * An *adjacency list* is built when [`ensure`](Self::ensure) first
///   asks for it: the stream is restored from its block's copy, the
///   block's earlier vertices are re-drawn and dropped, and the vertex's
///   own targets are drawn, sorted, deduplicated and kept.
///
/// Neither part depends on the order in which vertices are read, so
/// every offset and every built list equals the eager build's.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    vertices: u32,
    avg_degree: u32,
    /// The synthesis stream, positioned at the first vertex not counted.
    rng: SmallRng,
    /// `offsets[u]..offsets[u + 1]` spans `u`'s targets in the edge
    /// array, for every counted `u`.
    offsets: Vec<u32>,
    /// `checkpoints[b]` is the synthesis stream at vertex `b * BLOCK`.
    checkpoints: Vec<SmallRng>,
    /// Where `u`'s built list ends in `arena`, for every counted `u`; 0
    /// while it is unbuilt (every vertex has at least one target).
    arena_end: Vec<u32>,
    /// The built adjacency lists, in build order.
    arena: Vec<u32>,
}

impl CsrGraph {
    /// An unbuilt graph of `vertices` vertices and roughly `avg_degree`
    /// edges per vertex, with quadratically-skewed targets. Nothing is
    /// synthesised until [`ensure`](Self::ensure) asks for a vertex.
    ///
    /// # Panics
    ///
    /// Panics if `vertices < 2` or `avg_degree` is 0 or above 64.
    pub fn lazy(vertices: u32, avg_degree: u32, seed: u64) -> Self {
        assert!(vertices >= 2 && (1..=MAX_AVG_DEGREE).contains(&avg_degree));
        Self {
            vertices,
            avg_degree,
            rng: SmallRng::seed_from_u64(seed ^ 0x6741_5048),
            offsets: vec![0],
            checkpoints: Vec::new(),
            arena_end: Vec::new(),
            arena: Vec::new(),
        }
    }

    /// Counts the offsets up to `u` and builds `u`'s adjacency list, if
    /// either is not done yet.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a vertex.
    pub fn ensure(&mut self, u: u32) {
        assert!(u < self.vertices, "vertex {u} out of range");
        if u >= self.counted() {
            self.count_to(u);
        }
        if self.arena_end[u as usize] != 0 {
            return;
        }
        let (n, d) = (self.vertices, self.avg_degree);
        let block = u / BLOCK;
        let mut rng = self.checkpoints[block as usize].clone();
        for _ in block * BLOCK..u {
            draw_vertex(&mut rng, n, d, |_| {});
        }
        let mut list = Vec::new();
        draw_vertex(&mut rng, n, d, |t| list.push(t));
        list.sort_unstable();
        list.dedup();
        debug_assert_eq!(
            list.len(),
            self.degree(u),
            "built list of {u} disagrees with its offsets"
        );
        self.arena.extend_from_slice(&list);
        self.arena_end[u as usize] = self.arena.len() as u32;
    }

    /// Extends the offsets through vertex `u`.
    fn count_to(&mut self, u: u32) {
        let (n, d) = (self.vertices, self.avg_degree);
        let mut seen = [0u32; 2 * MAX_AVG_DEGREE as usize];
        while self.counted() <= u {
            if self.counted().is_multiple_of(BLOCK) {
                self.checkpoints.push(self.rng.clone());
            }
            let mut distinct = 0;
            // `t` is written past the distinct targets either way and kept
            // only if it is new, so no branch hangs on the comparison.
            draw_vertex(&mut self.rng, n, d, |t| {
                let fresh = !seen[..distinct].contains(&t);
                seen[distinct] = t;
                distinct += fresh as usize;
            });
            let end = self.offsets[self.offsets.len() - 1] + distinct as u32;
            self.offsets.push(end);
            self.arena_end.push(0);
        }
    }

    /// Number of vertices whose offsets are counted.
    fn counted(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        self.vertices
    }

    /// Where `u`'s targets start in the edge array; `u` must be counted.
    fn start(&self, u: u32) -> usize {
        self.offsets[u as usize] as usize
    }

    /// Number of `u`'s distinct targets; `u` must be counted.
    fn degree(&self, u: u32) -> usize {
        (self.offsets[u as usize + 1] - self.offsets[u as usize]) as usize
    }

    /// `u`'s sorted, deduplicated targets; `u` must be built.
    fn adj(&self, u: u32) -> &[u32] {
        let end = self.arena_end[u as usize] as usize;
        debug_assert!(end != 0, "vertex {u} read before it was built");
        &self.arena[end - self.degree(u)..end]
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
    /// BFS's visited flags, allocated at the first (re)start; empty for
    /// the kernels that never read them.
    visited: Vec<bool>,
    rng: SmallRng,
    restart_every: u32,
    pops_since_restart: u32,
}

impl GraphWorkload {
    /// Runs `kernel` over a synthetic graph that is synthesised only as
    /// far as the kernel reads it.
    pub fn new(kernel: GraphKernel, vertices: u32, avg_degree: u32, seed: u64) -> Self {
        let graph = CsrGraph::lazy(vertices, avg_degree, seed);
        let l = Layout::new();
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
            visited: Vec::new(),
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
        let start = self.graph.start(u);
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
        let start = self.graph.start(u);
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
            // New (re)start: visited is host-side only, reset is cheap.
            self.pops_since_restart = 0;
            self.visited.clear();
            self.visited
                .resize(self.graph.num_vertices() as usize, false);
            let s = self.rng.gen_range(0..self.graph.num_vertices());
            self.frontier.push_back(s);
            self.visited[s as usize] = true;
        }
        let u = self.frontier.pop_front().expect("frontier refilled above");
        self.graph.ensure(u);
        let start = self.graph.start(u);
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
        // The walk below intersects with the higher-id neighbours among
        // the first 8.
        let k = self.graph.adj(u).len().min(8);
        for i in 0..k {
            let v = self.graph.adj(u)[i];
            if v > u {
                self.graph.ensure(v);
            }
        }
        let start_u = self.graph.start(u);
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
            let start_v = self.graph.start(v);
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
    use crate::suite::{self, GenConfig};

    /// The eager build the lazy graph must reproduce: every vertex's
    /// targets drawn in vertex-id order, then sorted and deduplicated into
    /// one edge array. Returns `(offsets, edges)`.
    fn eager_reference(n: u32, d: u32, seed: u64) -> (Vec<u32>, Vec<u32>) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x6741_5048);
        let (mut offsets, mut edges) = (vec![0u32], Vec::new());
        for _ in 0..n {
            let r: f64 = rng.gen();
            let deg = 1 + (r * r * (2 * d) as f64) as u32;
            let mut targets: Vec<u32> = (0..deg)
                .map(|_| {
                    let t: f64 = rng.gen();
                    ((t * t * t * n as f64) as u32).min(n - 1)
                })
                .collect();
            targets.sort_unstable();
            targets.dedup();
            edges.extend(targets);
            offsets.push(edges.len() as u32);
        }
        (offsets, edges)
    }

    /// A graph with every adjacency list built.
    fn fully_built(n: u32, d: u32, seed: u64) -> CsrGraph {
        let mut g = CsrGraph::lazy(n, d, seed);
        for u in 0..n {
            g.ensure(u);
        }
        g
    }

    /// Number of adjacency lists built so far.
    fn lists_built(g: &CsrGraph) -> usize {
        g.arena_end.iter().filter(|&&end| end != 0).count()
    }

    #[test]
    fn csr_well_formed() {
        let g = fully_built(1000, 8, 1);
        assert_eq!(g.num_vertices(), 1000);
        assert!(g.offsets[1000] > 1000);
        for u in 0..1000 {
            let adj = g.adj(u);
            assert!(!adj.is_empty());
            assert!(adj.windows(2).all(|w| w[0] < w[1]), "{u}: {adj:?}");
            assert!(adj.iter().all(|&t| t < 1000));
        }
    }

    #[test]
    fn targets_skewed_to_hubs() {
        let g = fully_built(10_000, 8, 2);
        let low: usize = (0..10_000)
            .map(|u| g.adj(u).iter().filter(|&&t| t < 2500).count())
            .sum();
        let edges = g.offsets[10_000] as usize;
        // Quadratic skew puts ~half the mass in the first quarter.
        assert!(low * 2 > edges, "skew too weak: {low}/{edges}");
    }

    #[test]
    fn first_touch_matches_eager_graph() {
        for (n, d, seed) in [(2, 1, 0), (97, 3, 7), (1000, 8, 1), (5000, 12, 44)] {
            let (offsets, edges) = eager_reference(n, d, seed);
            let orders: [Vec<u32>; 3] = [
                (0..n).step_by(7).collect(),
                (0..n).rev().step_by(5).collect(),
                vec![n / 3, n / 3, 0, n / 3, n - 1, n / 2, n - 1],
            ];
            for order in orders {
                let mut g = CsrGraph::lazy(n, d, seed);
                let mut reached = 0;
                for &u in &order {
                    g.ensure(u);
                    reached = reached.max(u + 1);
                    assert_eq!(g.counted(), reached, "({n}, {d}, {seed}) ensure({u})");
                    assert_eq!(g.offsets[..], offsets[..=reached as usize]);
                }
                for &u in &order {
                    let want =
                        &edges[offsets[u as usize] as usize..offsets[u as usize + 1] as usize];
                    assert_eq!(g.adj(u), want, "({n}, {d}, {seed}) adj({u})");
                }
                let mut touched = order.clone();
                touched.sort_unstable();
                touched.dedup();
                assert_eq!(lists_built(&g), touched.len());
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
        let workloads = kernels
            .map(|k| GraphWorkload::new(k, 100_000, 8, 1))
            .into_iter()
            .chain([GraphWorkload::new_radii(100_000, 8, 1)]);
        for w in workloads {
            let g = &w.graph;
            assert!(w.visited.is_empty(), "{}", w.name);
            assert_eq!(g.counted(), 0, "{}", w.name);
            assert!(g.checkpoints.is_empty() && g.arena.is_empty(), "{}", w.name);
            assert_eq!(lists_built(g), 0, "{}", w.name);
        }
        // An in-order sweep counts and builds only the prefix it has
        // reached.
        let mut w = GraphWorkload::new(GraphKernel::PageRank, 100_000, 8, 1);
        for _ in 0..1000 {
            let _ = w.next_instr();
        }
        assert_eq!(w.graph.counted(), w.u);
        assert_eq!(lists_built(&w.graph), w.u as usize);
    }

    /// BFS and Triangle read vertices far above their cursor, so their
    /// offsets reach deep into the graph; yet a window builds only the
    /// few hundred lists the kernel actually reads.
    #[test]
    fn unread_vertices_are_never_built() {
        for name in ["ligra-bfs", "ligra-triangle"] {
            let spec = suite::default_suite()
                .into_iter()
                .find(|s| s.name == name)
                .expect("spec in the default suite");
            let GenConfig::Diluted { inner, work } = &spec.config else {
                panic!("{name} is not diluted");
            };
            let GenConfig::Graph {
                kernel,
                vertices,
                avg_degree,
            } = **inner
            else {
                panic!("{name} is not a graph kernel");
            };
            let mut w = GraphWorkload::new(kernel, vertices, avg_degree, spec.seed);
            // Count instructions as the diluted spec emits them: `work`
            // filler instructions follow every memory instruction.
            let mut emitted = 0;
            while emitted < 60_000 {
                emitted += if w.next_instr().mem.is_some() {
                    1 + work
                } else {
                    1
                };
            }
            let (built, counted) = (lists_built(&w.graph), w.graph.counted());
            assert!(built < 2000, "{name}: {built} lists built");
            assert!(
                counted > vertices / 2,
                "{name}: offsets reach {counted} of {vertices}"
            );
        }
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

//! The multilevel partitioning driver and the public entry point.
//!
//! V-cycle: coarsen by heavy-edge matching until the graph is small,
//! partition the coarsest graph by greedy growing, then project back up,
//! refining at every level. Which refinement runs is the difference
//! between the paper's two partitioned schemes:
//!
//! * [`Method::EdgeCut`] — FM edgecut refinement only (METIS-like).
//! * [`Method::VolumeBalanced`] — edgecut refinement at every level plus
//!   volume refinement (max-send, then total) at the finest levels
//!   (GVB-like).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use spmat::Csr;

use crate::bisect::recursive_bisection;
use crate::coarsen::{contract, Coarsening};
use crate::initial::{greedy_growing, rebalance};
use crate::matching::heavy_edge_matching;
use crate::refine_edgecut::{refine_edgecut, EdgecutRefineConfig};
use crate::refine_volume::{refine_volume, VolumeRefineConfig};
use crate::types::Partition;
use crate::wgraph::WGraph;

/// Distribution strategies, named for the schemes in the paper's figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// Contiguous equal-row blocks in the input order ("SA" without a
    /// partitioner).
    Block,
    /// Random vertex permutation, then equal-row blocks (the load-balance
    /// baseline §5 warns about).
    Random,
    /// Multilevel minimizing total edgecut ("SA+METIS").
    EdgeCut,
    /// Multilevel minimizing max send volume then total volume
    /// ("SA+GVB").
    VolumeBalanced,
}

impl Method {
    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            Method::Block => "block",
            Method::Random => "random",
            Method::EdgeCut => "metis-like",
            Method::VolumeBalanced => "gvb-like",
        }
    }
}

/// Tunables for [`partition_graph`].
#[derive(Clone, Copy, Debug)]
pub struct PartitionConfig {
    /// Strategy.
    pub method: Method,
    /// Seed for all randomized stages.
    pub seed: u64,
    /// Stop coarsening when the graph has at most `coarsen_factor · k`
    /// vertices.
    pub coarsen_factor: usize,
    /// Edgecut refinement settings (all levels).
    pub edgecut: EdgecutRefineConfig,
    /// Volume refinement settings (finest levels, `VolumeBalanced` only).
    pub volume: VolumeRefineConfig,
    /// How many of the finest levels run volume refinement.
    pub volume_levels: usize,
}

impl PartitionConfig {
    /// Defaults for a method.
    pub fn new(method: Method) -> Self {
        Self {
            method,
            seed: 0xC0FFEE,
            coarsen_factor: 16,
            edgecut: EdgecutRefineConfig::default(),
            volume: VolumeRefineConfig::default(),
            volume_levels: 2,
        }
    }

    /// Sets the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Partitions the vertex set of `adj` into `k` parts.
///
/// # Panics
/// Panics if `adj` is not square or `k` is 0 or exceeds the vertex count.
pub fn partition_graph(adj: &Csr, k: usize, cfg: &PartitionConfig) -> Partition {
    assert_eq!(adj.rows(), adj.cols(), "adjacency must be square");
    let n = adj.rows();
    assert!(k >= 1 && k <= n, "k={k} out of range for n={n}");

    match cfg.method {
        Method::Block => Partition::block(n, k),
        Method::Random => random_partition(n, k, cfg.seed),
        Method::EdgeCut | Method::VolumeBalanced => multilevel(adj, k, cfg),
    }
}

/// Random permutation + equal-size blocks: every part gets `~n/k`
/// vertices chosen uniformly.
fn random_partition(n: usize, k: usize, seed: u64) -> Partition {
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    order.shuffle(&mut rng);
    let bounds = spmat::gen::sbm::block_bounds(n, k);
    let mut parts = vec![0u32; n];
    for (b, w) in bounds.windows(2).enumerate() {
        for i in w[0]..w[1] {
            parts[order[i] as usize] = b as u32;
        }
    }
    Partition::new(parts, k)
}

fn multilevel(adj: &Csr, k: usize, cfg: &PartitionConfig) -> Partition {
    let finest = WGraph::from_csr(adj);
    let target = (cfg.coarsen_factor * k).max(256);

    // Coarsening phase; the last level's graph (or the finest) is read in
    // place.
    let mut levels: Vec<Coarsening> = Vec::new();
    let mut level_seed = cfg.seed;
    loop {
        let current = levels.last().map_or(&finest, |c| &c.graph);
        if current.n() <= target {
            break;
        }
        let mate = heavy_edge_matching(current, level_seed);
        let c = contract(current, &mate);
        // A stalled matching (near-star graphs) stops making progress.
        if c.graph.n() as f64 > 0.95 * current.n() as f64 {
            break;
        }
        levels.push(c);
        level_seed = level_seed.wrapping_add(1);
    }
    let current = levels.last().map_or(&finest, |c| &c.graph);

    // Initial partition at the coarsest level: coarse vertices are heavy
    // (many fine vertices each), so a tight balance cap would freeze
    // refinement — use a loose cap here and try several restarts, keeping
    // the best cut. The finest-level refinement and the final rebalance
    // restore the target balance.
    let coarse_refine = EdgecutRefineConfig {
        max_ratio: 1.2,
        ..cfg.edgecut
    };
    let mut part = {
        let mut best: Option<(u64, Partition)> = None;
        for attempt in 0..2u64 {
            // Recursive bisection is the reliable workhorse; greedy
            // growing adds a differently-biased candidate.
            let mut cand = recursive_bisection(current, k, cfg.seed ^ (0xB15EC7 + attempt));
            refine_edgecut(current, &mut cand, coarse_refine);
            let cut = crate::metrics::edgecut(current, &cand);
            if best.as_ref().is_none_or(|&(bc, _)| cut < bc) {
                best = Some((cut, cand));
            }
            let mut grown = greedy_growing(current, k, cfg.seed ^ (0x9E37_79B9 + attempt));
            refine_edgecut(current, &mut grown, coarse_refine);
            let gcut = crate::metrics::edgecut(current, &grown);
            if best.as_ref().is_none_or(|&(bc, _)| gcut < bc) {
                best = Some((gcut, grown));
            }
        }
        best.expect("at least one attempt").1
    };

    // Uncoarsening: project and refine.
    let mut graphs: Vec<&WGraph> = Vec::with_capacity(levels.len() + 1);
    graphs.push(&finest);
    for c in &levels[..levels.len().saturating_sub(1)] {
        graphs.push(&c.graph);
    }
    // graphs[i] is the fine graph that levels[i] coarsened.
    for (i, c) in levels.iter().enumerate().rev() {
        let fine = graphs[i];
        let fine_parts: Vec<u32> = c
            .coarse_of
            .iter()
            .map(|&cv| part.parts()[cv as usize])
            .collect();
        part = Partition::new(fine_parts, k);
        // Coarser levels keep the loose cap (vertices are still heavy);
        // the finest level enforces the configured balance.
        let refine_cfg = if i == 0 { cfg.edgecut } else { coarse_refine };
        refine_edgecut(fine, &mut part, refine_cfg);
        if cfg.method == Method::VolumeBalanced && i < cfg.volume_levels {
            refine_volume(fine, &mut part, cfg.volume);
        }
    }
    // No coarsening happened at all (tiny input): refine the finest graph
    // directly.
    if levels.is_empty() {
        refine_edgecut(&finest, &mut part, cfg.edgecut);
        if cfg.method == Method::VolumeBalanced {
            refine_volume(&finest, &mut part, cfg.volume);
        }
    }
    let max_ratio = if cfg.method == Method::VolumeBalanced {
        cfg.volume.max_ratio
    } else {
        cfg.edgecut.max_ratio
    };
    rebalance(&finest, &mut part, max_ratio);
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{edgecut, volume_metrics};
    use spmat::gen::{grid2d, rmat, sbm, RmatConfig, SbmConfig};

    #[test]
    fn block_and_random_are_balanced() {
        let adj = grid2d(8);
        for method in [Method::Block, Method::Random] {
            let p = partition_graph(&adj, 4, &PartitionConfig::new(method));
            assert_eq!(p.sizes(), vec![16, 16, 16, 16]);
        }
    }

    #[test]
    fn random_differs_from_block() {
        let adj = grid2d(8);
        let b = partition_graph(&adj, 4, &PartitionConfig::new(Method::Block));
        let r = partition_graph(&adj, 4, &PartitionConfig::new(Method::Random));
        assert_ne!(b, r);
    }

    #[test]
    fn edgecut_beats_random_on_grid() {
        let adj = grid2d(16); // 256 vertices
        let g = WGraph::from_csr(&adj);
        let ec = partition_graph(&adj, 4, &PartitionConfig::new(Method::EdgeCut));
        let rnd = partition_graph(&adj, 4, &PartitionConfig::new(Method::Random));
        assert!(
            edgecut(&g, &ec) < edgecut(&g, &rnd) / 3,
            "edgecut {} vs random {}",
            edgecut(&g, &ec),
            edgecut(&g, &rnd)
        );
    }

    #[test]
    fn recovers_planted_blocks_near_perfectly() {
        let (adj, _) = sbm(SbmConfig {
            n: 2048,
            blocks: 8,
            avg_degree_in: 16.0,
            avg_degree_out: 0.25,
            seed: 3,
        });
        let g = WGraph::from_csr(&adj);
        let p = partition_graph(&adj, 8, &PartitionConfig::new(Method::EdgeCut));
        let cut = edgecut(&g, &p);
        let total = g.total_edge_weight();
        assert!(
            (cut as f64) < 0.05 * total as f64,
            "cut {cut} of {total} edges"
        );
    }

    #[test]
    fn gvb_lowers_max_send_vs_edgecut_on_irregular_graph() {
        let adj = rmat(RmatConfig::graph500(11, 8, 5)); // n = 2048
        let g = WGraph::from_csr(&adj);
        let seeds = [1u64, 2, 3];
        let mut wins = 0;
        for &s in &seeds {
            let ec = partition_graph(
                &adj,
                16,
                &PartitionConfig::new(Method::EdgeCut).with_seed(s),
            );
            let vb = partition_graph(
                &adj,
                16,
                &PartitionConfig::new(Method::VolumeBalanced).with_seed(s),
            );
            let m_ec = volume_metrics(&g, &ec);
            let m_vb = volume_metrics(&g, &vb);
            if m_vb.max_send <= m_ec.max_send {
                wins += 1;
            }
        }
        assert!(wins >= 2, "GVB won only {wins}/3 seeds");
    }

    #[test]
    fn all_methods_respect_part_count() {
        let adj = rmat(RmatConfig::graph500(9, 6, 9));
        for method in [
            Method::Block,
            Method::Random,
            Method::EdgeCut,
            Method::VolumeBalanced,
        ] {
            let p = partition_graph(&adj, 7, &PartitionConfig::new(method));
            assert_eq!(p.k(), 7);
            assert_eq!(p.n(), adj.rows());
            assert!(p.parts().iter().all(|&x| x < 7));
        }
    }

    #[test]
    fn partition_is_deterministic() {
        let adj = rmat(RmatConfig::graph500(9, 6, 10));
        let cfg = PartitionConfig::new(Method::VolumeBalanced).with_seed(42);
        assert_eq!(
            partition_graph(&adj, 8, &cfg),
            partition_graph(&adj, 8, &cfg)
        );
    }

    #[test]
    fn tiny_graph_without_coarsening() {
        let adj = grid2d(3); // 9 vertices — below any coarsening target
        let p = partition_graph(&adj, 3, &PartitionConfig::new(Method::EdgeCut));
        assert_eq!(p.sizes().iter().sum::<usize>(), 9);
    }

    #[test]
    fn multilevel_balance_is_bounded() {
        let adj = rmat(RmatConfig::graph500(10, 8, 11));
        let g = WGraph::from_csr(&adj);
        for method in [Method::EdgeCut, Method::VolumeBalanced] {
            let p = partition_graph(&adj, 8, &PartitionConfig::new(method));
            assert!(
                p.weight_imbalance(&g) <= 1.35,
                "{method:?} imbalance {}",
                p.weight_imbalance(&g)
            );
        }
    }
}

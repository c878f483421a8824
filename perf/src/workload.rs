//! The four workloads and the inputs they are made of. Inputs are
//! generated here from the seed and handed to the program; the program
//! never sees a workload's name.

use gnn_core::{Algo, GcnConfig};
use partition::{partition_graph, Method, Partition, PartitionConfig};
use spmat::dataset::{amazon_scaled, protein_scaled, Dataset};
use std::time::Instant;

/// Which transport carries the ranks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Rank threads in this process (`ThreadWorld`).
    Thread,
    /// One OS process per rank over Unix sockets (`ProcWorld`).
    Proc,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DatasetSpec {
    /// `amazon_scaled(scale, seed)`.
    Amazon(u32),
    /// `protein_scaled(n, blocks, seed)`.
    Protein(usize, usize),
}

/// One benchmark workload. Names are fixed: later issues cite them.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub dataset: DatasetSpec,
    pub method: Method,
    /// Block rows the partitioner cuts (`bounds.len() − 1`).
    pub parts: usize,
    pub algo: Algo,
    pub backend: Backend,
    /// Epochs of the long call of a sample pair, sized so a pair takes
    /// 1–1.3 s on a 2-core host: call-to-call noise (±5% here, from where
    /// the allocator happens to put the buffers) is averaged out by the
    /// number of pairs, not by their length.
    pub e_long: usize,
}

/// Epochs of the short call of every sample pair. One, not more: the
/// fixed per-call cost is what is left of the short call after taking
/// the epochs out, and on the thread workloads it is a tenth of a
/// two-epoch call, within that call's own noise.
pub const E_SHORT: usize = 1;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "amazon13_1d_sa_thread",
        why: "Irregular graph, random 1D distribution, thread ranks: most rows ship, so pack, checksum, channel and unpack outweigh the kernels; wire-path work must show here.",
        dataset: DatasetSpec::Amazon(13),
        method: Method::Random,
        parts: 2,
        algo: Algo::OneD { aware: true },
        backend: Backend::Thread,
        e_long: 12,
    },
    Workload {
        name: "protein14_1d_gvb_thread",
        why: "Dense community graph under GVB: 11x amazon13's edges for a similar exchange, so SpMM/GEMM and the serial partitioner dominate; kernel and partitioner work shows here, wire-path work far less.",
        dataset: DatasetSpec::Protein(16384, 32),
        method: Method::VolumeBalanced,
        parts: 2,
        algo: Algo::OneD { aware: true },
        backend: Backend::Thread,
        e_long: 8,
    },
    Workload {
        name: "amazon13_1d_sa_proc",
        why: "The amazon13 inputs byte for byte through two rank processes over Unix sockets: encode, frame, socket, replay queue, ACK; its epoch_s over the thread workload's prices real processes.",
        dataset: DatasetSpec::Amazon(13),
        method: Method::Random,
        parts: 2,
        algo: Algo::OneD { aware: true },
        backend: Backend::Proc,
        e_long: 8,
    },
    Workload {
        name: "amazon12_15d_sa_thread",
        why: "1.5D with c=2 on four thread ranks: point-to-point row sets plus a large replica all-reduce instead of all-to-allv, through the grid executor; a gain bought at their cost shows here.",
        dataset: DatasetSpec::Amazon(12),
        method: Method::Random,
        parts: 2,
        algo: Algo::OneFiveD { aware: true, c: 2 },
        backend: Backend::Thread,
        e_long: 12,
    },
];

impl Workload {
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// World size: block rows × replication.
    pub fn ranks(&self) -> usize {
        self.parts * self.algo.replication()
    }

    /// The seeded dataset, before partitioning.
    pub fn generate(&self, seed: u64) -> Dataset {
        match self.dataset {
            DatasetSpec::Amazon(scale) => amazon_scaled(scale, seed),
            DatasetSpec::Protein(n, blocks) => protein_scaled(n, blocks, seed),
        }
    }

    /// The paper's model on this dataset's shapes.
    pub fn gcn(&self, ds: &Dataset) -> GcnConfig {
        GcnConfig::paper_default(ds.f(), ds.num_classes)
    }
}

/// What a training call takes: the dataset permuted so parts are
/// contiguous, and the block-row boundaries.
pub struct Prepared {
    pub ds: Dataset,
    pub bounds: Vec<usize>,
    /// The partition `ds` was permuted by (vertex ids of the raw dataset).
    pub part: Partition,
    /// Seconds `partition_graph` and `Dataset::permute` took.
    pub partition_s: f64,
    pub permute_s: f64,
}

/// `partition_graph` + `Dataset::permute`: what a user pays once before
/// the first training call (and every rank process pays at start-up).
pub fn prepare(wl: &Workload, raw: &Dataset, seed: u64) -> Prepared {
    let t = Instant::now();
    let part = partition_graph(
        &raw.adj,
        wl.parts,
        &PartitionConfig::new(wl.method).with_seed(seed),
    );
    let partition_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let ds = raw.permute(&part.to_permutation());
    let permute_s = t.elapsed().as_secs_f64();
    Prepared {
        ds,
        bounds: part.block_bounds(),
        part,
        partition_s,
        permute_s,
    }
}

/// FNV-1a over the CSR structure, values and features: equal seeds give
/// equal inputs, and the thread and proc amazon13 workloads can be shown
/// to train on the same bytes.
pub fn fingerprint(ds: &Dataset) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for csr in [&ds.adj, &ds.norm_adj] {
        csr.indptr().iter().for_each(|x| eat(&x.to_le_bytes()));
        csr.indices().iter().for_each(|x| eat(&x.to_le_bytes()));
        csr.values()
            .iter()
            .for_each(|x| eat(&x.to_bits().to_le_bytes()));
    }
    ds.features
        .data()
        .iter()
        .for_each(|x| eat(&x.to_bits().to_le_bytes()));
    ds.labels.iter().for_each(|x| eat(&x.to_le_bytes()));
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_follows_the_seed() {
        let a = amazon_scaled(8, 1);
        assert_eq!(fingerprint(&a), fingerprint(&amazon_scaled(8, 1)));
        assert_ne!(fingerprint(&a), fingerprint(&amazon_scaled(8, 2)));
    }

    #[test]
    fn thread_and_proc_amazon13_share_inputs() {
        let t = Workload::find("amazon13_1d_sa_thread").unwrap();
        let p = Workload::find("amazon13_1d_sa_proc").unwrap();
        assert_eq!(
            (t.dataset, t.method, t.parts, t.algo),
            (p.dataset, p.method, p.parts, p.algo)
        );
        assert_eq!((t.ranks(), p.ranks()), (2, 2));
        assert_eq!(Workload::find("amazon12_15d_sa_thread").unwrap().ranks(), 4);
    }
}

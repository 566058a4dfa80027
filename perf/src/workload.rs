//! The named workloads: what each generates, which host it builds, and the
//! traffic and training schedule it runs. README.md records why each one
//! exists.

use enhancenet::dfgn::{gru_filter_dim, tcn_filter_dim};
use enhancenet::prelude::*;
use enhancenet_data::{generate_grid_series, GridConfig, WindowDataset};
use enhancenet_graph::{
    build_supports_csr, gaussian_kernel_adjacency, AdjacencyConfig, SupportKind,
};
use enhancenet_models::{GraphMode, GruSeq2Seq, ModelDims, TemporalMode, WaveNet, WaveNetConfig};
use enhancenet_tensor::{CsrMatrix, Tensor};
use std::time::Duration;

/// Open-loop arrivals: `burst` requests every `period`, on an absolute
/// schedule.
#[derive(Debug, Clone, Copy)]
pub struct Arrivals {
    pub burst: usize,
    pub period: Duration,
}

impl Arrivals {
    pub fn per_second(&self) -> f64 {
        self.burst as f64 / self.period.as_secs_f64()
    }
}

/// The fixed training recipe, run once per round: epochs of `batches`
/// batches, so throughput is a median over many epochs and the validation
/// MAE never depends on host speed.
#[derive(Debug, Clone, Copy)]
pub struct TrainPlan {
    pub batch: usize,
    pub epochs: usize,
    pub batches: usize,
    pub eval_batches: usize,
}

#[derive(Debug, Clone, Copy)]
enum Host {
    /// Shared-filter GRU encoder–decoder, N = 8: the forward is so cheap
    /// that the serving runtime dominates.
    TinyGru,
    /// D-DA-GTCN over LA-shaped traffic (N = 207, C = 2), dense DAMGN.
    LaDynamic,
    /// D-DA-GTCN over a 4000-entity grid with top-k sparse DAMGN.
    GridSparse,
}

pub struct Workload {
    pub name: &'static str,
    host: Host,
    pub idle: Arrivals,
    pub load: Arrivals,
    /// Hot-swap to the other weight set at the midpoint of every load
    /// segment. Only the shared-filter host swaps: DFGN/DAMGN hosts serve
    /// stale derived values after a swap to different weights.
    pub hot_swap: bool,
    /// Load-phase p95 must stay under this.
    pub latency_limit_ms: f64,
    pub train: TrainPlan,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "tiny-tick",
        host: Host::TinyGru,
        idle: Arrivals { burst: 32, period: Duration::from_millis(160) },
        load: Arrivals { burst: 32, period: Duration::from_millis(5) },
        hot_swap: true,
        latency_limit_ms: 10.0,
        train: TrainPlan { batch: 8, epochs: 3, batches: 120, eval_batches: 4 },
    },
    Workload {
        name: "la-dynamic",
        host: Host::LaDynamic,
        idle: Arrivals { burst: 1, period: Duration::from_millis(100) },
        load: Arrivals { burst: 2, period: Duration::from_nanos(133_333_333) },
        hot_swap: false,
        latency_limit_ms: 150.0,
        train: TrainPlan { batch: 8, epochs: 2, batches: 1, eval_batches: 1 },
    },
    Workload {
        name: "grid4k-sparse",
        host: Host::GridSparse,
        idle: Arrivals { burst: 1, period: Duration::from_millis(100) },
        load: Arrivals { burst: 2, period: Duration::from_millis(120) },
        hot_swap: false,
        latency_limit_ms: 250.0,
        train: TrainPlan { batch: 4, epochs: 2, batches: 1, eval_batches: 1 },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seed of the training recipe (series, initial weights, shuffles). It is
/// fixed, so `val_mae` is one reproducible number per workload and the
/// training phase does identical work on every run; `--seed` varies
/// everything the serving phases replay.
pub const TRAIN_SEED: u64 = 0x7EA1;

/// SplitMix64: derives independent streams (data, model init, window
/// choice) from the one `--seed`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generated inputs: windowed data plus the graph the host convolves over.
pub struct Inputs {
    pub data: WindowDataset,
    graph: Graph,
}

enum Graph {
    None,
    Dense(Tensor),
    Sparse(Vec<CsrMatrix>),
}

impl Workload {
    /// Generates the seeded series, windows it and derives the graph.
    pub fn generate(&self, seed: u64) -> Inputs {
        let seed = derive(seed, 1);
        match self.host {
            Host::TinyGru => {
                let series = generate_traffic(&TrafficConfig { seed, ..TrafficConfig::tiny(8, 7) });
                let data = WindowDataset::from_series(&series, 12, 12).expect("7 days cover H+F");
                Inputs { data, graph: Graph::None }
            }
            Host::LaDynamic => {
                let cfg = TrafficConfig { num_days: 7, seed, ..TrafficConfig::la() };
                let series = generate_traffic(&cfg);
                let adjacency =
                    gaussian_kernel_adjacency(&series.distances, AdjacencyConfig::default());
                let data = WindowDataset::from_series(&series, 12, 12).expect("7 days cover H+F");
                Inputs { data, graph: Graph::Dense(adjacency) }
            }
            Host::GridSparse => {
                let series =
                    generate_grid_series(&GridConfig { seed, ..GridConfig::new(4000, 200) });
                let bases = build_supports_csr(&series.adjacency, SupportKind::DoubleTransition);
                let data = WindowDataset::from_values(&series.values, 4, 2).expect("200 steps");
                Inputs { data, graph: Graph::Sparse(bases) }
            }
        }
    }

    fn dims(&self, inputs: &Inputs) -> ModelDims {
        let data = &inputs.data;
        let hidden = match self.host {
            Host::TinyGru | Host::GridSparse => 8,
            Host::LaDynamic => 10,
        };
        ModelDims {
            num_entities: data.num_entities(),
            in_features: data.num_features(),
            hidden,
            input_len: data.h,
            output_len: data.f,
        }
    }

    /// Builds the host model; the same `seed` always gives the same weights.
    pub fn build(&self, inputs: &Inputs, seed: u64) -> Box<dyn Forecaster + Send> {
        let dims = self.dims(inputs);
        let dfgn = TemporalMode::Distinct(DfgnConfig::default());
        match (&self.host, &inputs.graph) {
            (Host::TinyGru, Graph::None) => {
                Box::new(GruSeq2Seq::rnn(dims, 1, TemporalMode::Shared, seed))
            }
            (Host::LaDynamic, Graph::Dense(adjacency)) => Box::new(WaveNet::gtcn(
                dims,
                WaveNetConfig::default(),
                dfgn,
                GraphMode::paper_dynamic(),
                adjacency,
                seed,
            )),
            (Host::GridSparse, Graph::Sparse(bases)) => Box::new(WaveNet::gtcn_sparse(
                dims,
                WaveNetConfig { dilations: vec![1, 2], kernel: 2, end_hidden: 16, dropout: 0.0 },
                dfgn,
                GraphMode::paper_dynamic_topk(TOP_K),
                bases.clone(),
                seed,
            )),
            _ => unreachable!("inputs come from the same workload's generate"),
        }
    }

    /// Per-entity filter scalars a DFGN would generate for this host's
    /// first layer; sizes the standalone DFGN of the layer measurements.
    pub fn dfgn_out_dim(&self, inputs: &Inputs) -> usize {
        let dims = self.dims(inputs);
        match self.host {
            Host::TinyGru => gru_filter_dim(dims.in_features, dims.hidden),
            Host::LaDynamic | Host::GridSparse => 2 * tcn_filter_dim(dims.hidden, dims.hidden, 2),
        }
    }
}

/// Top-k budget of the sparse DAMGN, also used for the standalone
/// pattern-build measurement on every workload.
pub const TOP_K: usize = 32;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_unique_and_findable() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(find("bogus").is_none());
    }

    #[test]
    fn derived_streams_differ_and_repeat() {
        assert_eq!(derive(7, 1), derive(7, 1));
        assert_ne!(derive(7, 1), derive(7, 2));
        assert_ne!(derive(7, 1), derive(8, 1));
    }
}

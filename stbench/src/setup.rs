//! Paper-shape data and model construction shared by every workload.

use crate::trace::span;
use rihgcn_core::{prepare_split, RihgcnConfig, RihgcnModel};
use st_data::{generate_pems, DatasetSplit, DayProfiles, PemsConfig, TrafficDataset, ZScore};
use st_graph::{gaussian_adjacency, partition_day, IntervalConfig};
use st_tensor::Matrix;

/// Sensors of the paper's PeMS corridor.
pub const NODES: usize = 207;
/// Simulated days; a 7:2:1 split leaves 1.4 test days (403 slots), more
/// held-out slots than a run can observe. Graph construction cost does
/// not depend on it: DTW runs over per-slot daily profiles.
pub const DAYS: usize = 14;
/// Extra MCAR missingness on top of the generator's complete mask.
pub const EXTRA_MISSING: f64 = 0.4;

/// The generated dataset, split 7:2:1 and normalised on the training part.
pub struct Data {
    /// Normalised train/val/test splits.
    pub norm: DatasetSplit,
    /// The training split's Z-score transform.
    pub z: ZScore,
    /// The test split in original units (what a sensor feed would send).
    pub raw_test: TrafficDataset,
}

impl Data {
    /// Held-out test timestamp `t` as a sensor feed sends it: values in
    /// original units where observed (zero elsewhere), the mask, and the
    /// time-of-day slot.
    pub fn observation(&self, t: usize) -> (Matrix, Matrix, usize) {
        let test = &self.raw_test;
        let d = test.num_features();
        let mask = Matrix::from_fn(NODES, d, |n, f| test.mask[(n, f, t)]);
        let values = Matrix::from_fn(NODES, d, |n, f| {
            test.values[(n, f, t)] * test.mask[(n, f, t)]
        });
        (values, mask, test.slot_of(t))
    }
}

/// Generates the workload's data from its seed.
pub fn data(seed: u64) -> Data {
    let ds = span("data.generate", || {
        let cfg = PemsConfig {
            num_nodes: NODES,
            num_days: DAYS,
            seed,
            ..Default::default()
        };
        let mut rng = st_tensor::rng(seed ^ 0x5eed_0f4d);
        generate_pems(&cfg).with_extra_missing(EXTRA_MISSING, &mut rng)
    });
    span("data.prepare", || {
        let split = ds.split_chronological();
        let (norm, z) = prepare_split(&split);
        Data {
            norm,
            z,
            raw_test: split.test,
        }
    })
}

/// Builds the paper's configuration (F=64, q=128, K=3, M=4, T=12,
/// horizon 12) with the public `RihgcnModel::from_dataset`, or, when
/// `layered`, with the same steps called one by one so each layer gets its
/// own span (`layered_build` is pinned bit-identical by a unit test).
pub fn model(train: &TrafficDataset, layered: bool) -> RihgcnModel {
    if layered {
        span("core.build", || {
            layered_build(train, RihgcnConfig::paper_scale())
        })
    } else {
        span("core.build", || {
            RihgcnModel::from_dataset(train, RihgcnConfig::paper_scale())
        })
    }
}

/// `RihgcnModel::from_dataset` spelled out through public calls: road
/// graph, daily profiles, interval partition, one DTW adjacency per
/// interval, then parameter init.
fn layered_build(train: &TrafficDataset, cfg: RihgcnConfig) -> RihgcnModel {
    let geo = span("graph.geo_adjacency", || {
        gaussian_adjacency(&train.network.road_distance_matrix(), None, cfg.epsilon)
    });
    let slots = train.slots_per_day();
    let profiles = span("graph.profiles", || DayProfiles::from_dataset(train));
    let partition = span("graph.partition", || {
        partition_day(
            profiles.profiles(),
            &interval_config(cfg.num_temporal_graphs, slots),
        )
    });
    let temporal = span("graph.temporal_adjacency", || {
        partition
            .intervals
            .iter()
            .map(|&interval| {
                let adj = span("graph.interval_adjacency", || {
                    profiles.interval_adjacency_with(interval, cfg.epsilon, cfg.distance)
                });
                (interval, adj)
            })
            .collect()
    });
    let features = train.num_features();
    span("core.from_parts", || {
        RihgcnModel::from_parts(cfg, features, geo, temporal, slots)
    })
}

/// The interval search `from_dataset` runs: hourly candidates when the day
/// divides into 24, intervals between one and `⌈2·grid/M⌉` cells long.
fn interval_config(m: usize, slots: usize) -> IntervalConfig {
    let step = if slots.is_multiple_of(24) {
        slots / 24
    } else {
        1
    };
    let grid = slots / step;
    let max_cells = ((2.0 * grid as f64 / m.max(1) as f64).ceil() as usize).clamp(1, grid / 2);
    IntervalConfig {
        num_intervals: m,
        slots_per_day: slots,
        candidate_step: step,
        min_len: step,
        max_len: max_cells * step,
        eta: 0.1,
        gamma: 0.5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(m: &st_tensor::Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn layered_build_matches_from_dataset() {
        let ds = generate_pems(&PemsConfig {
            num_nodes: 6,
            num_days: 3,
            seed: 5,
            ..Default::default()
        });
        let (norm, _) = prepare_split(&ds.split_chronological());
        let cfg = RihgcnConfig {
            gcn_dim: 3,
            lstm_dim: 4,
            ..RihgcnConfig::default()
        };
        let a = RihgcnModel::from_dataset(&norm.train, cfg.clone());
        let b = layered_build(&norm.train, cfg);
        assert_eq!(bits(a.geo_adjacency()), bits(b.geo_adjacency()));
        assert_eq!(a.temporal_graphs().len(), b.temporal_graphs().len());
        for ((ia, ma), (ib, mb)) in a.temporal_graphs().iter().zip(b.temporal_graphs()) {
            assert_eq!(ia, ib);
            assert_eq!(bits(ma), bits(mb));
        }
        let ids: Vec<_> = a.params().ids().collect();
        assert_eq!(ids.len(), b.params().ids().count());
        for id in ids {
            assert_eq!(bits(a.params().value(id)), bits(b.params().value(id)));
        }
    }
}

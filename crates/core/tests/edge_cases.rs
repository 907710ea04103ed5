//! Edge-case robustness: degenerate graph sizes, extreme missingness and
//! minimal window shapes must not panic or produce non-finite values.

use rihgcn_core::{
    fit, load_checkpoint, prepare_split, save_checkpoint, Forecaster, PersistError, RihgcnConfig,
    RihgcnModel, TrainConfig,
};
use st_data::{generate_pems, PemsConfig, TrafficDataset, WindowSampler};
use st_graph::RoadNetwork;
use st_tensor::{rng, Matrix, Tensor3};

fn cfg(history: usize, horizon: usize) -> RihgcnConfig {
    RihgcnConfig {
        gcn_dim: 3,
        lstm_dim: 4,
        cheb_k: 2,
        num_temporal_graphs: 2,
        history,
        horizon,
        ..Default::default()
    }
}

#[test]
fn single_node_network() {
    let values = Tensor3::from_fn(1, 2, 600, |_, d, t| (t as f64 * 0.01).sin() + d as f64);
    let mask = Tensor3::ones(1, 2, 600);
    let ds = TrafficDataset::new("one", values, mask, RoadNetwork::corridor(1, 1.0), 5);
    let model = RihgcnModel::from_dataset(&ds, cfg(4, 2));
    let sample = WindowSampler::new(4, 2, 1).window_at(&ds, 0);
    let preds = model.predict(&sample);
    assert_eq!(preds[0].shape(), (1, 2));
    assert!(preds.iter().all(Matrix::is_finite));
}

#[test]
fn two_node_network_trains() {
    let ds = generate_pems(&PemsConfig {
        num_nodes: 2,
        num_days: 2,
        ..Default::default()
    });
    let ds = ds.with_extra_missing(0.5, &mut rng(1));
    let (norm, _) = prepare_split(&ds.split_chronological());
    let mut model = RihgcnModel::from_dataset(&norm.train, cfg(4, 2));
    let sampler = WindowSampler::new(4, 2, 48);
    let train = sampler.sample(&norm.train);
    let tc = TrainConfig {
        max_epochs: 2,
        batch_size: 4,
        ..Default::default()
    };
    let report = fit(&mut model, &train, &[], &tc);
    assert!(report.train_losses.iter().all(|l| l.is_finite()));
}

#[test]
fn minimal_history_and_horizon() {
    let ds = generate_pems(&PemsConfig {
        num_nodes: 3,
        num_days: 1,
        ..Default::default()
    });
    let model = RihgcnModel::from_dataset(&ds, cfg(1, 1));
    let sample = WindowSampler::new(1, 1, 1).window_at(&ds, 10);
    let preds = model.predict(&sample);
    assert_eq!(preds.len(), 1);
    assert!(preds[0].is_finite());
}

#[test]
fn fully_missing_window_is_finite() {
    let ds = generate_pems(&PemsConfig {
        num_nodes: 3,
        num_days: 1,
        ..Default::default()
    });
    let mut ds = ds;
    for t in 0..ds.num_times() {
        for n in 0..3 {
            for f in 0..4 {
                ds.mask[(n, f, t)] = 0.0;
            }
        }
    }
    let model = RihgcnModel::from_dataset(&ds, cfg(4, 2));
    let sample = WindowSampler::new(4, 2, 1).window_at(&ds, 0);
    let preds = model.predict(&sample);
    assert!(preds.iter().all(Matrix::is_finite));
    // Loss must also be finite (imputation terms have nothing observed).
    assert!(model.loss(&sample).is_finite());
}

#[test]
fn chebyshev_order_one_model() {
    let ds = generate_pems(&PemsConfig {
        num_nodes: 3,
        num_days: 1,
        ..Default::default()
    });
    let mut c = cfg(3, 2);
    c.cheb_k = 1;
    let model = RihgcnModel::from_dataset(&ds, c);
    let sample = WindowSampler::new(3, 2, 1).window_at(&ds, 0);
    assert!(model.loss(&sample).is_finite());
}

#[test]
fn many_temporal_graphs_cap_at_constraints() {
    // Asking for more graphs than the constrained partition supports must
    // still produce a valid model (partition falls back gracefully).
    let ds = generate_pems(&PemsConfig {
        num_nodes: 3,
        num_days: 2,
        ..Default::default()
    });
    let mut c = cfg(3, 2);
    c.num_temporal_graphs = 12;
    let model = RihgcnModel::from_dataset(&ds, c);
    assert_eq!(model.intervals().len(), 12);
    let sample = WindowSampler::new(3, 2, 1).window_at(&ds, 0);
    assert!(model.loss(&sample).is_finite());
}

#[test]
#[should_panic(expected = "history length mismatch")]
fn wrong_window_shape_is_rejected() {
    let ds = generate_pems(&PemsConfig {
        num_nodes: 3,
        num_days: 1,
        ..Default::default()
    });
    let model = RihgcnModel::from_dataset(&ds, cfg(4, 2));
    let sample = WindowSampler::new(6, 2, 1).window_at(&ds, 0);
    let _ = model.predict(&sample);
}

/// A valid checkpoint of a small model with `cfg`'s two temporal graphs.
fn small_checkpoint() -> String {
    let ds = generate_pems(&PemsConfig {
        num_nodes: 3,
        num_days: 2,
        ..Default::default()
    });
    let (norm, z) = prepare_split(&ds.split_chronological());
    let model = RihgcnModel::from_dataset(&norm.train, cfg(4, 2));
    let mut bytes = Vec::new();
    save_checkpoint(&model, &z, &mut bytes).expect("checkpoint saves");
    String::from_utf8(bytes).expect("checkpoints are text")
}

/// `text` with the line `from` replaced by `to`.
fn with_line(text: &str, from: &str, to: &str) -> String {
    assert!(
        text.lines().any(|l| l == from),
        "checkpoint has no line {from:?}"
    );
    text.lines()
        .map(|l| if l == from { to } else { l })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn huge_temporal_count_is_a_typed_error() {
    let text = with_line(&small_checkpoint(), "temporal 2", "temporal 100000000000");
    let err = load_checkpoint(text.as_bytes()).expect_err("count is far beyond the config");
    assert!(matches!(err, PersistError::Mismatch(_)), "{err}");
}

#[test]
fn temporal_count_near_usize_max_is_a_typed_error() {
    let text = with_line(
        &small_checkpoint(),
        "temporal 2",
        "temporal 4000000000000000000",
    );
    let err = load_checkpoint(text.as_bytes()).expect_err("count is far beyond the config");
    assert!(matches!(err, PersistError::Mismatch(_)), "{err}");
}

#[test]
fn overflowing_matrix_size_is_a_typed_error() {
    // 2^32 nodes: the `N × N` geographic section overflows `usize`.
    let text = small_checkpoint();
    let meta = text
        .lines()
        .find(|l| l.starts_with("meta nodes 3 "))
        .expect("meta line");
    let huge = 1u64 << 32;
    let text = with_line(
        &text,
        meta,
        &meta.replace("nodes 3 ", &format!("nodes {huge} ")),
    );
    let text = with_line(&text, "geo 3 3", &format!("geo {huge} {huge}"));
    let err = load_checkpoint(text.as_bytes()).expect_err("section size overflows");
    assert!(matches!(err, PersistError::Format(_)), "{err}");
}

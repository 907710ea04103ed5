//! Bitwise contract of batched inference: forecasting `B` windows in one
//! tape run must equal `B` sequential single-window forwards bit for bit,
//! at every worker count and for both prediction heads.
//!
//! Why this can hold exactly (DESIGN §13): the batch lives row-stacked as
//! `(B·N) × F`, where every row-local op (elementwise arithmetic, the
//! LSTM/head right-multiplies against shared weights, per-row softmax) is
//! per-block bit-equal by construction; the only column-local ops — the
//! Chebyshev propagations `T_k(L̃) · X` — run in the wide `N × (B·F)`
//! permutation, and the blocked matmul accumulates each output element in
//! ascending `k` independent of operand width (pinned blocked ≡ naive in
//! `crates/tensor/tests/kernel_properties.rs`). The layout permutations
//! themselves are exact f64 moves.
//!
//! A single window is the batch of one through the same builder, so the
//! sequential oracle is `B` runs at `B = 1`. What pins the `B = 1` bits
//! themselves is `training_step_matches_recorded_fingerprint`: hashes of
//! one training step and one forward pass, recorded from the separate
//! single-window builder the model used to have.
//!
//! The parallel threshold is forced to 1 so the banded parallel kernels
//! actually run at this tiny model size; 1, 2 and 4 workers all must agree
//! (2 puts band boundaries elsewhere than 4 — see `thread_determinism.rs`).

use rihgcn::core::{
    prepare_split, BatchedWindow, Forecaster, PredictionHead, RihgcnConfig, RihgcnModel,
    SampleOutput,
};
use rihgcn::data::{generate_pems, PemsConfig, WindowSample, WindowSampler};
use rihgcn::tensor::{rng, set_parallel_threshold, Matrix};

fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{what}: element {i} diverged ({x} vs {y})"
        );
    }
}

fn assert_outputs_eq(batched: &SampleOutput, single: &SampleOutput, what: &str) {
    assert_eq!(batched.predictions.len(), single.predictions.len());
    assert_eq!(batched.estimates.len(), single.estimates.len());
    for (h, (b, s)) in batched
        .predictions
        .iter()
        .zip(&single.predictions)
        .enumerate()
    {
        assert_bits_eq(b, s, &format!("{what} prediction step {h}"));
    }
    for (t, (b, s)) in batched.estimates.iter().zip(&single.estimates).enumerate() {
        assert_bits_eq(b, s, &format!("{what} estimate step {t}"));
    }
}

fn model_and_windows(head: PredictionHead) -> (RihgcnModel, Vec<WindowSample>) {
    model_with(head, 2, 2)
}

/// The shared tiny model with `m` temporal graphs and Chebyshev order `k`.
fn model_with(head: PredictionHead, m: usize, k: usize) -> (RihgcnModel, Vec<WindowSample>) {
    let ds = generate_pems(&PemsConfig {
        num_nodes: 4,
        num_days: 2,
        ..Default::default()
    });
    let ds = ds.with_extra_missing(0.3, &mut rng(3));
    let (norm, _) = prepare_split(&ds.split_chronological());
    let cfg = RihgcnConfig {
        gcn_dim: 3,
        lstm_dim: 4,
        cheb_k: k,
        num_temporal_graphs: m,
        history: 4,
        horizon: 2,
        head,
        ..Default::default()
    };
    let model = RihgcnModel::from_dataset(&norm.train, cfg);
    // Stride 7 spreads the windows across time-of-day slots, so batch
    // members hit different interval weights in the HGCN.
    let windows = WindowSampler::new(4, 2, 7).sample(&norm.train);
    assert!(windows.len() >= 16, "need 16 distinct windows");
    (model, windows)
}

#[test]
fn batched_forward_bit_identical_to_sequential() {
    let saved = rihgcn::tensor::parallel_threshold();
    set_parallel_threshold(1);
    for head in [PredictionHead::Concat, PredictionHead::Attention] {
        let (mut model, windows) = model_and_windows(head);
        let singles: Vec<SampleOutput> = windows[..16].iter().map(|w| model.forward(w)).collect();
        for threads in [1usize, 2, 4] {
            rihgcn::par::set_num_threads(threads);
            for b in [1usize, 2, 3, 8, 16] {
                let refs: Vec<&WindowSample> = windows[..b].iter().collect();
                let batch = BatchedWindow::from_samples(&refs);
                let what = format!("{head:?} head, B={b}, {threads} threads");
                // Fresh-session batched forward…
                let fresh = model.forward_batched(&batch);
                assert_eq!(fresh.len(), b);
                for (i, out) in fresh.iter().enumerate() {
                    assert_outputs_eq(out, &singles[i], &format!("{what}, fresh, window {i}"));
                }
                // …and the recycled path, twice, to prove pooled buffers
                // are fully overwritten between batched runs too.
                for round in 0..2 {
                    let recycled = model.forward_batched_recycled(&batch);
                    for (i, out) in recycled.iter().enumerate() {
                        assert_outputs_eq(
                            out,
                            &singles[i],
                            &format!("{what}, recycled round {round}, window {i}"),
                        );
                    }
                }
            }
        }
    }
    rihgcn::par::set_num_threads(0);
    set_parallel_threshold(saved);
}

#[test]
fn batch_members_see_their_own_slots() {
    // Two copies of the same window data at different slots must produce
    // different outputs within one batch (the per-window interval weights
    // actually apply per block, not batch-wide).
    let (model, windows) = model_and_windows(PredictionHead::Concat);
    let mut shifted = windows[0].clone();
    let slots_per_day = model.slots_per_day();
    for s in shifted.slots.iter_mut() {
        *s = (*s + slots_per_day / 2) % slots_per_day;
    }
    let batch = BatchedWindow::from_samples(&[&windows[0], &shifted]);
    let outs = model.forward_batched(&batch);
    let diff: f64 = outs[0].predictions[0].max_abs_diff(&outs[1].predictions[0]);
    assert!(
        diff > 1e-12,
        "slot shift must change a batch member's output"
    );
}

/// 64-bit FNV-1a over the little-endian bytes of each word.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn training_step_matches_recorded_fingerprint() {
    // Per configuration: one `accumulate_gradients`, hashed over the loss
    // bits and every parameter gradient in store order, and one `forward`,
    // hashed over its predictions and estimates. The constants were
    // recorded from the separate single-window tape builder the model had
    // before its B=1 path became a batch of one, so they pin the B=1 bits
    // to that builder, and they must hold at every worker count.
    const CASES: [(PredictionHead, usize, usize, u64, u64); 8] = [
        (
            PredictionHead::Concat,
            0,
            2,
            0xa166f9108eb2ad1a,
            0xf9021d5f0c5b6b3f,
        ),
        (
            PredictionHead::Concat,
            0,
            3,
            0x064e53b084a2242b,
            0x0419b68ec658d716,
        ),
        (
            PredictionHead::Concat,
            2,
            2,
            0x4f861ec9207f393b,
            0xeb19e84d251df3ce,
        ),
        (
            PredictionHead::Concat,
            2,
            3,
            0x36f846b19299f4c7,
            0xe2355de8b74d49f0,
        ),
        (
            PredictionHead::Attention,
            0,
            2,
            0x55f8e890fd2c0809,
            0xb317f674506f7eec,
        ),
        (
            PredictionHead::Attention,
            0,
            3,
            0x5607ad4997a2d8f5,
            0xd0b671717087f68a,
        ),
        (
            PredictionHead::Attention,
            2,
            2,
            0x6f89aca2203158c2,
            0x8d72aad8d687af40,
        ),
        (
            PredictionHead::Attention,
            2,
            3,
            0x4b94d6197bf8ca77,
            0xb6a17dc0d2d1a906,
        ),
    ];
    let saved = rihgcn::tensor::parallel_threshold();
    set_parallel_threshold(1);
    let mut mismatches = Vec::new();
    for threads in [1usize, 2, 4] {
        rihgcn::par::set_num_threads(threads);
        for (head, m, k, expected, expected_fwd) in CASES {
            let (mut model, windows) = model_with(head, m, k);
            let out = model.forward(&windows[3]);
            let got_fwd = fnv1a(
                out.predictions
                    .iter()
                    .chain(&out.estimates)
                    .flat_map(|m| m.as_slice().iter().map(|x| x.to_bits()))
                    .collect::<Vec<_>>(),
            );
            if got_fwd != expected_fwd {
                mismatches.push(format!(
                    "{head:?} head, M={m}, K={k}, {threads} threads: forward {got_fwd:#018x}"
                ));
            }
            let loss = model.accumulate_gradients(&windows[3]);
            let store = Forecaster::params(&model);
            let words = std::iter::once(loss.to_bits()).chain(
                store
                    .ids()
                    .flat_map(|id| store.grad(id).as_slice().iter().map(|g| g.to_bits()))
                    .collect::<Vec<_>>(),
            );
            let got = fnv1a(words);
            if got != expected {
                mismatches.push(format!(
                    "{head:?} head, M={m}, K={k}, {threads} threads: {got:#018x}"
                ));
            }
        }
    }
    rihgcn::par::set_num_threads(0);
    set_parallel_threshold(saved);
    assert!(
        mismatches.is_empty(),
        "gradient fingerprints changed:\n{}",
        mismatches.join("\n")
    );
}

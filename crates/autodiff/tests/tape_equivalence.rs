//! Pooled-tape equivalence suite: for every `Op`, a graph built on a
//! recycled tape (`Tape::reset()` after a different, buffer-dirtying graph)
//! must produce bit-identical values and gradients to the same graph on a
//! fresh `Tape::new()` — including across two consecutive recycled passes,
//! which would expose any stale-buffer reuse (a pooled buffer whose old
//! contents leak into a new node).

use st_autodiff::{Tape, Var};
use st_tensor::{rng, uniform_matrix, Matrix};

/// A graph builder: records parameters and returns (params, scalar loss).
type Builder = fn(&mut Tape) -> (Vec<Var>, Var);

fn mat(seed: u64, r: usize, c: usize) -> Matrix {
    uniform_matrix(&mut rng(seed), r, c, -1.5, 1.5)
}

/// Strictly positive inputs for `ln` / `sqrt` / `div` denominators.
fn pos(seed: u64, r: usize, c: usize) -> Matrix {
    uniform_matrix(&mut rng(seed), r, c, 0.5, 2.0)
}

fn binary_mask(seed: u64, r: usize, c: usize) -> Matrix {
    let noise = uniform_matrix(&mut rng(seed), r, c, 0.0, 1.0);
    noise.map(|v| if v < 0.6 { 1.0 } else { 0.0 })
}

/// Bitwise snapshot of a completed backward pass.
#[derive(Debug, PartialEq, Eq)]
struct Snapshot {
    loss: u64,
    grads: Vec<Vec<u64>>,
}

fn run(tape: &mut Tape, builder: Builder) -> Snapshot {
    let (params, loss) = builder(tape);
    tape.backward(loss);
    Snapshot {
        loss: tape.value(loss)[(0, 0)].to_bits(),
        grads: params
            .iter()
            .map(|&p| {
                tape.grad_ref(p)
                    .expect("parameters always receive a gradient")
                    .as_slice()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect()
            })
            .collect(),
    }
}

/// Fills the tape's pool with buffers of shapes *different* from what the
/// cases use, then runs a backward pass, so a recycled tape starts from a
/// dirty pool rather than an empty one.
fn dirty(tape: &mut Tape) {
    let w = tape.parameter(mat(901, 7, 5));
    let x = tape.constant(mat(902, 2, 7));
    let h = tape.matmul(x, w);
    let t = tape.tanh(h);
    let neg = tape.scale(t, -3.0);
    let e = tape.exp(neg);
    let loss = tape.mean(e);
    tape.backward(loss);
}

fn cases() -> Vec<(&'static str, Builder)> {
    vec![
        ("leaf", |t| {
            let a = t.parameter(mat(1, 3, 4));
            let loss = t.sum(a);
            (vec![a], loss)
        }),
        ("add", |t| {
            let a = t.parameter(mat(2, 3, 4));
            let b = t.parameter(mat(3, 3, 4));
            let y = t.add(a, b);
            let loss = t.sum(y);
            (vec![a, b], loss)
        }),
        ("sub", |t| {
            let a = t.parameter(mat(4, 3, 4));
            let b = t.parameter(mat(5, 3, 4));
            let y = t.sub(a, b);
            let loss = t.sum(y);
            (vec![a, b], loss)
        }),
        ("mul", |t| {
            let a = t.parameter(mat(6, 3, 4));
            let b = t.parameter(mat(7, 3, 4));
            let y = t.mul(a, b);
            let loss = t.sum(y);
            (vec![a, b], loss)
        }),
        ("mul_same_operand", |t| {
            let a = t.parameter(mat(8, 3, 4));
            let y = t.mul(a, a);
            let loss = t.sum(y);
            (vec![a], loss)
        }),
        ("matmul", |t| {
            let a = t.parameter(mat(9, 3, 5));
            let b = t.parameter(mat(10, 5, 2));
            let y = t.matmul(a, b);
            let loss = t.sum(y);
            (vec![a, b], loss)
        }),
        ("scale", |t| {
            let a = t.parameter(mat(11, 3, 4));
            let y = t.scale(a, -2.5);
            let loss = t.sum(y);
            (vec![a], loss)
        }),
        ("add_scalar", |t| {
            let a = t.parameter(mat(12, 3, 4));
            let y = t.add_scalar(a, 0.75);
            let loss = t.sum(y);
            (vec![a], loss)
        }),
        ("add_bias", |t| {
            let x = t.parameter(mat(13, 3, 4));
            let b = t.parameter(mat(14, 1, 4));
            let y = t.add_bias(x, b);
            let loss = t.sum(y);
            (vec![x, b], loss)
        }),
        ("sigmoid", |t| {
            let a = t.parameter(mat(15, 3, 4));
            let y = t.sigmoid(a);
            let loss = t.sum(y);
            (vec![a], loss)
        }),
        ("tanh", |t| {
            let a = t.parameter(mat(16, 3, 4));
            let y = t.tanh(a);
            let loss = t.sum(y);
            (vec![a], loss)
        }),
        ("relu", |t| {
            let a = t.parameter(mat(17, 3, 4));
            let y = t.relu(a);
            let loss = t.sum(y);
            (vec![a], loss)
        }),
        ("abs", |t| {
            let a = t.parameter(mat(18, 3, 4));
            let y = t.abs(a);
            let loss = t.sum(y);
            (vec![a], loss)
        }),
        ("concat_cols", |t| {
            let a = t.parameter(mat(19, 3, 2));
            let b = t.parameter(mat(20, 3, 5));
            let y = t.concat_cols(a, b);
            let loss = t.sum(y);
            (vec![a, b], loss)
        }),
        ("slice_cols_partial", |t| {
            let a = t.parameter(mat(21, 3, 5));
            let y = t.slice_cols(a, 1, 4);
            let loss = t.sum(y);
            (vec![a], loss)
        }),
        ("slice_cols_full_width", |t| {
            // start == 0 covering every column: exercises the fused
            // backward path that skips the zero-scatter entirely.
            let a = t.parameter(mat(22, 3, 5));
            let y = t.slice_cols(a, 0, 5);
            let loss = t.sum(y);
            (vec![a], loss)
        }),
        ("sum", |t| {
            let a = t.parameter(mat(23, 3, 4));
            let loss = t.sum(a);
            (vec![a], loss)
        }),
        ("mean", |t| {
            let a = t.parameter(mat(24, 3, 4));
            let loss = t.mean(a);
            (vec![a], loss)
        }),
        ("softmax_rows", |t| {
            let a = t.parameter(mat(25, 3, 4));
            let y = t.softmax_rows(a);
            let w = t.constant(mat(26, 3, 4));
            let m = t.mul(y, w);
            let loss = t.sum(m);
            (vec![a], loss)
        }),
        ("scale_var", |t| {
            let x = t.parameter(mat(27, 3, 4));
            let s = t.parameter(mat(28, 1, 1));
            let y = t.scale_var(x, s);
            let loss = t.sum(y);
            (vec![x, s], loss)
        }),
        ("transpose", |t| {
            let a = t.parameter(mat(29, 3, 5));
            let y = t.transpose(a);
            let w = t.constant(mat(30, 5, 3));
            let m = t.mul(y, w);
            let loss = t.sum(m);
            (vec![a], loss)
        }),
        ("exp", |t| {
            let a = t.parameter(mat(31, 3, 4));
            let y = t.exp(a);
            let loss = t.sum(y);
            (vec![a], loss)
        }),
        ("ln", |t| {
            let a = t.parameter(pos(32, 3, 4));
            let y = t.ln(a);
            let loss = t.sum(y);
            (vec![a], loss)
        }),
        ("sqrt", |t| {
            let a = t.parameter(pos(33, 3, 4));
            let y = t.sqrt(a);
            let loss = t.sum(y);
            (vec![a], loss)
        }),
        ("div", |t| {
            let a = t.parameter(mat(34, 3, 4));
            let b = t.parameter(pos(35, 3, 4));
            let y = t.div(a, b);
            let loss = t.sum(y);
            (vec![a, b], loss)
        }),
        ("masked_mae", |t| {
            let a = t.parameter(mat(36, 3, 4));
            let b = t.parameter(mat(37, 3, 4));
            let loss = t.masked_mae(a, b, &binary_mask(38, 3, 4));
            (vec![a, b], loss)
        }),
        ("masked_mae_var", |t| {
            let a = t.parameter(mat(39, 3, 4));
            let b = t.parameter(mat(40, 3, 4));
            let m = t.constant_ref(&binary_mask(41, 3, 4));
            let loss = t.masked_mae_var(a, b, m);
            (vec![a, b], loss)
        }),
        ("deep_composite", |t| {
            // A mixed graph chaining most ops, closer to a model step.
            let w1 = t.parameter(mat(42, 4, 6));
            let w2 = t.parameter(mat(43, 6, 3));
            let b = t.parameter(mat(44, 1, 6));
            let x = t.constant(mat(45, 5, 4));
            let h = t.matmul(x, w1);
            let h = t.add_bias(h, b);
            let h = t.tanh(h);
            let left = t.slice_cols(h, 0, 3);
            let right = t.slice_cols(h, 3, 6);
            let g = t.sigmoid(right);
            let gated = t.mul(left, g);
            let out = t.matmul(h, w2);
            let cat = t.concat_cols(gated, out);
            let sm = t.softmax_rows(cat);
            let loss = t.mean(sm);
            (vec![w1, w2, b], loss)
        }),
    ]
}

#[test]
fn every_op_is_bit_identical_on_a_recycled_tape() {
    for (name, builder) in cases() {
        let mut fresh = Tape::new();
        let reference = run(&mut fresh, builder);

        // Recycled pass 1: the tape has run (and backward-swept) a graph of
        // unrelated shapes, so the pool hands back dirty buffers.
        let mut tape = Tape::new();
        dirty(&mut tape);
        tape.reset();
        let first = run(&mut tape, builder);
        assert_eq!(
            first, reference,
            "{name}: recycled tape diverged from fresh tape"
        );

        // Recycled pass 2: now the pool holds buffers from the case itself —
        // any stale-content reuse shows up here.
        tape.reset();
        let second = run(&mut tape, builder);
        assert_eq!(
            second, reference,
            "{name}: second consecutive recycled pass diverged"
        );
    }
}

#[test]
fn recycled_tape_reuses_buffers() {
    let mut tape = Tape::new();
    let builder: Builder = |t| {
        let a = t.parameter(mat(50, 6, 6));
        let b = t.parameter(mat(51, 6, 6));
        let y = t.matmul(a, b);
        let s = t.sigmoid(y);
        let loss = t.mean(s);
        (vec![a, b], loss)
    };
    let _ = run(&mut tape, builder);
    let misses_after_first = tape.pool_stats().misses;
    tape.reset();
    let _ = run(&mut tape, builder);
    let stats = tape.pool_stats();
    assert_eq!(
        stats.misses, misses_after_first,
        "steady-state pass must not miss the pool"
    );
    assert!(stats.hits > 0, "steady-state pass must hit the pool");
}

#[test]
fn layout_ops_are_the_identity_for_one_block() {
    let mut tape = Tape::new();
    let x = tape.parameter(mat(60, 4, 3));
    let len = tape.len();
    assert_eq!(tape.to_wide(x, 1), x);
    assert_eq!(tape.to_stacked(x, 1), x);
    assert_eq!(tape.len(), len, "a one-block layout op must push no node");
    // Two blocks still permute through a real node.
    let wide = tape.to_wide(x, 2);
    assert_ne!(wide, x);
    assert_eq!(tape.value(wide).shape(), (2, 6));
    assert_eq!(tape.len(), len + 1);
}

//! Bitwise plan-vs-tape parity for every paper host.
//!
//! `Forecaster::predict` executes a compiled inference [`Plan`] against a
//! preallocated arena; `Forecaster::predict_tape` is the original
//! define-by-run path. Both funnel every op through the same `_into`
//! kernels, so their outputs must be **exactly** equal — not approximately.
//! These tests pin that contract for the four paper hosts (RNN, GRU
//! seq2seq, WaveNet/TCN, D-DA-GTCN) plus their DFGN/DAMGN-wrapped
//! variants, across cold and warm executions, rank-3 and rank-4 windows,
//! and across a parameter hot-swap (which must invalidate cached plans).

use enhancenet::{EnhanceNetError, Forecaster, ForwardCtx};
use enhancenet_autodiff::{Graph, ParamStore, PlanCache, Var};
use enhancenet_models::{GruSeq2Seq, LstmSeq2Seq, ModelDims, Stgcn, WaveNet};
use enhancenet_tensor::{Tensor, TensorRng};

fn ring_adjacency(n: usize) -> Tensor {
    let mut a = Tensor::zeros(&[n, n]);
    for i in 0..n {
        a.set(&[i, (i + 1) % n], 1.0);
        a.set(&[(i + 1) % n, i], 0.5);
    }
    a
}

/// Exercises the full plan lifecycle on one model:
///
/// 1. two distinct rank-3 windows (the second hits the **warm** executor,
///    catching any input-derived value baked into the plan as a constant),
/// 2. a rank-4 batched window (a second cache entry),
/// 3. a parameter hot-swap, after which the stale plans must be evicted
///    and the recompiled plan must still match the tape bitwise.
fn check_parity(m: &mut dyn Forecaster, seed: u64) {
    let [h, n, c] = m.input_shape().expect("paper hosts declare an input shape");
    let name = m.name().to_string();
    assert!(m.plan_cache().is_some(), "{name}: host should expose a plan cache");

    let w1 = TensorRng::seed(seed).normal(&[h, n, c], 0.0, 1.0);
    let w2 = TensorRng::seed(seed + 1).normal(&[h, n, c], 0.0, 1.0);
    for (i, w) in [&w1, &w2].into_iter().enumerate() {
        let plan = m.predict(w).expect("plan predict");
        let tape = m.predict_tape(w).expect("tape predict");
        assert_eq!(plan.shape(), tape.shape(), "{name}: rank-3 shape, window {i}");
        assert_eq!(plan.data(), tape.data(), "{name}: rank-3 parity, window {i}");
    }
    let cache = m.plan_cache().expect("checked above");
    assert!(!cache.is_unplannable(), "{name}: eval trace should compile");
    assert_eq!(cache.entry_count(), 1, "{name}: both rank-3 windows share one plan");

    let wb = TensorRng::seed(seed + 2).normal(&[2, h, n, c], 0.0, 1.0);
    let plan = m.predict(&wb).expect("plan predict (batched)");
    let tape = m.predict_tape(&wb).expect("tape predict (batched)");
    assert_eq!(plan.shape(), tape.shape(), "{name}: rank-4 shape");
    assert_eq!(plan.data(), tape.data(), "{name}: rank-4 parity");
    assert_eq!(m.plan_cache().expect("cache").entry_count(), 2);

    // Hot swap: nudge one weight through the version-bumping accessor. The
    // next predict must recompile (stale entries evicted) and the fresh
    // plan must read the *new* value — i.e. still match the tape exactly.
    let id = m.store().ids().next().expect("hosts have parameters");
    m.store_mut().value_mut(id).data_mut()[0] += 0.25;
    let plan = m.predict(&w1).expect("plan predict (post-swap)");
    let tape = m.predict_tape(&w1).expect("tape predict (post-swap)");
    assert_eq!(plan.data(), tape.data(), "{name}: parity after hot swap");
    assert_eq!(
        m.plan_cache().expect("cache").entry_count(),
        1,
        "{name}: stale-version plans must be evicted on recompile"
    );
}

fn gru_dims(n: usize, c: usize) -> ModelDims {
    ModelDims { num_entities: n, in_features: c, hidden: 8, input_len: 4, output_len: 3 }
}

fn conv_dims(n: usize, c: usize) -> ModelDims {
    ModelDims { num_entities: n, in_features: c, hidden: 6, input_len: 8, output_len: 4 }
}

#[test]
fn rnn_plan_matches_tape() {
    check_parity(&mut GruSeq2Seq::paper_rnn(gru_dims(5, 2), 2, 1), 10);
}

#[test]
fn d_rnn_plan_matches_tape() {
    check_parity(&mut GruSeq2Seq::paper_d_rnn(gru_dims(5, 2), 2, 2), 11);
}

#[test]
fn d_da_grnn_plan_matches_tape() {
    let a = ring_adjacency(5);
    check_parity(&mut GruSeq2Seq::paper_d_da_grnn(gru_dims(5, 2), 2, &a, 3), 12);
}

#[test]
fn tcn_plan_matches_tape() {
    check_parity(&mut WaveNet::paper_tcn(conv_dims(4, 1), 4), 13);
}

#[test]
fn d_da_gtcn_plan_matches_tape() {
    let a = ring_adjacency(4);
    check_parity(&mut WaveNet::paper_d_da_gtcn(conv_dims(4, 1), &a, 5), 14);
}

#[test]
fn adaptive_wavenet_plan_matches_tape() {
    let a = ring_adjacency(4);
    check_parity(&mut WaveNet::paper_adaptive_baseline(conv_dims(4, 1), &a, 6), 15);
}

#[test]
fn lstm_plan_matches_tape() {
    let dims =
        ModelDims { num_entities: 4, in_features: 2, hidden: 6, input_len: 5, output_len: 3 };
    check_parity(&mut LstmSeq2Seq::new(dims, 2, 7), 16);
}

#[test]
fn stgcn_plan_matches_tape() {
    let dims =
        ModelDims { num_entities: 4, in_features: 2, hidden: 6, input_len: 8, output_len: 3 };
    check_parity(&mut Stgcn::new(dims, 2, &ring_adjacency(4), 8), 17);
}

/// Every host family of this file, built fresh.
fn hosts() -> Vec<Box<dyn Forecaster>> {
    let (a5, a4) = (ring_adjacency(5), ring_adjacency(4));
    let seq_dims =
        |h| ModelDims { num_entities: 4, in_features: 2, hidden: 6, input_len: h, output_len: 3 };
    vec![
        Box::new(GruSeq2Seq::paper_rnn(gru_dims(5, 2), 2, 1)),
        Box::new(GruSeq2Seq::paper_d_rnn(gru_dims(5, 2), 2, 2)),
        Box::new(GruSeq2Seq::paper_d_da_grnn(gru_dims(5, 2), 2, &a5, 3)),
        Box::new(WaveNet::paper_tcn(conv_dims(4, 1), 4)),
        Box::new(WaveNet::paper_d_da_gtcn(conv_dims(4, 1), &a4, 5)),
        Box::new(WaveNet::paper_adaptive_baseline(conv_dims(4, 1), &a4, 6)),
        Box::new(LstmSeq2Seq::new(seq_dims(5), 2, 7)),
        Box::new(Stgcn::new(seq_dims(8), 2, &a4, 8)),
    ]
}

/// A plan is a pure function of the store it was traced from: compiling a
/// host fresh, after a predict, and after a weight nudge yields the same
/// instruction list, the same shapes and the same constant footprint.
#[test]
fn every_compile_of_a_host_yields_one_instruction_list() {
    for mut m in hosts() {
        let name = m.name().to_string();
        let [h, n, c] = m.input_shape().expect("paper hosts declare an input shape");
        let window = TensorRng::seed(30).normal(&[h, n, c], 0.0, 1.0);
        let batched = window.unsqueeze(0);
        let compile = |m: &dyn Forecaster| m.compile_eval_plan(&batched).0.expect("plannable");
        let fresh = compile(&*m);
        m.predict(&window).expect("predict");
        let after_predict = compile(&*m);
        let id = m.store().ids().next().expect("hosts have parameters");
        m.store_mut().value_mut(id).data_mut()[0] += 0.25;
        let after_nudge = compile(&*m);
        for (when, plan) in [("after a predict", &after_predict), ("after a nudge", &after_nudge)] {
            assert_eq!(plan.op_shapes(), fresh.op_shapes(), "{name}: ops {when}");
            assert_eq!(plan.input_shape(), fresh.input_shape(), "{name}: input {when}");
            assert_eq!(plan.output_shape(), fresh.output_shape(), "{name}: output {when}");
            assert_eq!(plan.const_bytes(), fresh.const_bytes(), "{name}: constants {when}");
            assert_eq!(plan.arena_bytes(), fresh.arena_bytes(), "{name}: arena {when}");
        }
    }
}

/// A panic inside a cached plan run must not disable that shape: the next
/// predict recovers the executor and answers with the tape's bits.
#[test]
fn a_panicked_plan_run_recovers_on_the_next_predict() {
    for m in hosts() {
        let name = m.name().to_string();
        let [h, n, c] = m.input_shape().expect("paper hosts declare an input shape");
        let window = TensorRng::seed(31).normal(&[h, n, c], 0.0, 1.0);
        m.predict(&window).expect("compiles the batch-1 plan");
        let cache = m.plan_cache().expect("paper hosts keep a plan cache");
        let exec = cache.lookup(&[1, h, n, c], m.store().version()).expect("cached executor");
        let wrong = Tensor::zeros(&[h, n + 1, c]);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut exec = exec.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            exec.run(&wrong, &mut Tensor::default());
        }));
        assert!(panicked.is_err(), "{name}: a wrong-shaped run should panic");
        assert!(exec.is_poisoned(), "{name}: the panic should poison the executor");
        let plan = m.predict(&window).expect("predict after a panicked run");
        let tape = m.predict_tape(&window).expect("tape predict");
        assert_eq!(plan.data(), tape.data(), "{name}: parity after a panicked run");
    }
}

/// A model whose eval forward never marks an input leaf: the compiler must
/// reject it once (`plan.fallback`), cache the failure, and route every
/// predict through the tape — with identical results.
struct NoInputModel {
    store: ParamStore,
    plan_cache: PlanCache,
}

impl Forecaster for NoInputModel {
    fn name(&self) -> &str {
        "no-input"
    }
    fn store(&self) -> &ParamStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
    fn horizon(&self) -> usize {
        2
    }
    fn plan_cache(&self) -> Option<&PlanCache> {
        Some(&self.plan_cache)
    }
    fn forward_on(
        &self,
        g: &mut Graph,
        _store: &ParamStore,
        x: &Tensor,
        _ctx: &mut ForwardCtx,
    ) -> Var {
        // Window data enters only through constants — unplannable.
        let last = g.constant(x.index_axis(1, x.shape()[1] - 1));
        let last = g.reshape(last, &[x.shape()[0], 1, x.shape()[2]]);
        g.concat(&[last, last], 1)
    }
}

#[test]
fn unplannable_model_falls_back_to_tape() {
    let m = NoInputModel { store: ParamStore::new(), plan_cache: PlanCache::new() };
    let w = TensorRng::seed(20).normal(&[1, 6, 3, 1], 0.0, 1.0);
    for _ in 0..2 {
        let plan: Result<Tensor, EnhanceNetError> = m.predict(&w);
        let tape = m.predict_tape(&w).expect("tape predict");
        assert_eq!(plan.expect("fallback predict").data(), tape.data());
    }
    let cache = m.plan_cache().expect("cache");
    assert!(cache.is_unplannable(), "compile failure should be cached");
    assert_eq!(cache.entry_count(), 0, "no executable plan should be stored");
}

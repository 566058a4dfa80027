//! Layer measurements for the traced run: each public layer entry point
//! the hosts are built from, timed in isolation on a second instance of
//! the workload's host (same seed, untrained weights) so that nothing
//! else competes for the cores.

use crate::trace::{self, Spans};
use crate::workload::{Inputs, Workload, TOP_K};
use enhancenet::prelude::*;
use enhancenet::ForwardCtx;
use enhancenet_autodiff::{Graph, ParamStore};
use enhancenet_nn::optim::{clip_grad_norm, Adam, Optimizer};
use enhancenet_tensor::{Tensor, TensorRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Each measurement repeats until it has this many samples and has run
/// for [`BUDGET`], or has [`MAX_SAMPLES`].
const MIN_SAMPLES: usize = 3;
const BUDGET: Duration = Duration::from_millis(300);
const MAX_SAMPLES: usize = 500;

fn repeat(spans: &mut Spans, name: &'static str, mut f: impl FnMut()) {
    let started = Instant::now();
    for n in 1..=MAX_SAMPLES {
        spans.time(name, None, trace::group(), &mut f);
        if n >= MIN_SAMPLES && started.elapsed() >= BUDGET {
            break;
        }
    }
}

pub fn measure(w: &Workload, inputs: &Inputs, model_seed: u64, spans: &mut Spans) {
    let data = &inputs.data;
    let (h, n) = (data.h, data.num_entities());
    let mut model = w.build(inputs, model_seed);
    let test = data.split.test.start;
    let x1 = data.input_window(test);
    let batched = x1.unsqueeze(0);
    let x8 = Tensor::stack(
        &(0..8).map(|i| data.input_window(test + i)).collect::<Vec<_>>().iter().collect::<Vec<_>>(),
    );

    // plan: compile, warm execute at batch 1 and 8, and the tape it replaces.
    repeat(spans, "plan.compile", || {
        black_box(model.compile_eval_plan(&batched).0.expect("every host is plannable"));
    });
    let mut out = Tensor::default();
    for x in [&x1, &x8] {
        model.predict_into(x, &mut out).expect("window fits the host");
    }
    repeat(spans, "plan.execute", || model.predict_into(&x1, &mut out).expect("warm plan"));
    repeat(spans, "plan.execute_b8", || model.predict_into(&x8, &mut out).expect("warm plan"));
    repeat(spans, "plan.tape", || {
        black_box(model.predict_tape(&x1).expect("window fits the host"));
    });

    // dfgn: a standalone generator at the host's entity count and
    // first-layer filter size.
    let mut store = ParamStore::new();
    let mut rng = TensorRng::seed(model_seed);
    let dfgn = Dfgn::new(
        &mut store,
        &mut rng,
        "probe.dfgn",
        n,
        w.dfgn_out_dim(inputs),
        DfgnConfig::default(),
    );
    repeat(spans, "dfgn.generate", || {
        let mut g = Graph::new();
        black_box(dfgn.generate(&mut g, &store));
    });

    // damgn: the host's own instance where it has one, else a standalone
    // one at the host's shape.
    let standalone = Damgn::new(&mut store, &mut rng, "probe.damgn", n, 1, DamgnConfig::default());
    let (damgn, weights) = match model.damgn() {
        Some(d) => (d, model.store()),
        None => (&standalone, &store),
    };
    // The hosts feed DAMGN the target feature of one timestep: [1, N, 1].
    let x_t = x1.slice_axis(0, h - 1, h).slice_axis(2, 0, 1);
    match damgn.top_k() {
        Some(k) => {
            let pattern = damgn.topk_pattern(weights, k);
            repeat(spans, "damgn.static_b", || {
                black_box(damgn.static_b_topk(&mut Graph::new(), weights, &pattern));
            });
            repeat(spans, "damgn.dynamic_c", || {
                let mut g = Graph::new();
                let x = g.constant(x_t.clone());
                black_box(damgn.dynamic_c_topk(&mut g, weights, x, &pattern));
            });
        }
        None => {
            repeat(spans, "damgn.static_b", || {
                black_box(damgn.static_b(&mut Graph::new(), weights));
            });
            repeat(spans, "damgn.dynamic_c", || {
                let mut g = Graph::new();
                let x = g.constant(x_t.clone());
                black_box(damgn.dynamic_c(&mut g, weights, x));
            });
        }
    }
    repeat(spans, "damgn.topk_pattern", || {
        black_box(damgn.topk_pattern(weights, TOP_K));
    });

    // data: one training batch assembled, one window scaled.
    let plan = w.train;
    let train = data.split.train.clone();
    let mut iter = BatchIterator::shuffled(data, train.clone(), plan.batch, &mut rng);
    repeat(spans, "data.batch", || {
        let batch = iter.next().unwrap_or_else(|| {
            iter = BatchIterator::shuffled(data, train.clone(), plan.batch, &mut rng);
            iter.next().expect("the train split holds a batch")
        });
        black_box(batch);
    });
    let raw = data.raw.slice_axis(0, test, test + h);
    repeat(spans, "data.scaler", || {
        black_box(data.scaler.transform(&raw).expect("raw window has C features"));
    });

    // autodiff + optim: the step each trainer shard runs for one window,
    // followed by the update the trainer applies per batch.
    let batch = BatchIterator::sequential(data, train.start..train.start + 1, 1)
        .next()
        .expect("the train split holds a window");
    let mask = batch.y_raw.map(|v| if v.is_finite() && v != 0.0 { 1.0 } else { 0.0 });
    let mut adam = Adam::new();
    let started = Instant::now();
    for step in 1..=MAX_SAMPLES {
        let group = trace::group();
        let mut g = Graph::new();
        let pred = spans.time("autodiff.forward", None, group, || {
            let mut ctx = ForwardCtx::train(&mut rng, &batch.y_scaled, 0.5);
            model.forward(&mut g, &batch.x, &mut ctx)
        });
        spans.time("autodiff.backward", None, group, || {
            let loss = g.masked_mae(pred, &batch.y_scaled, &mask);
            g.backward(loss);
        });
        spans.time("optim.step", None, group, || {
            let store = model.store_mut();
            store.zero_grad();
            g.write_grads(store);
            clip_grad_norm(store, 5.0);
            adam.step(store, 0.01);
        });
        if step >= MIN_SAMPLES && started.elapsed() >= BUDGET {
            break;
        }
    }
}

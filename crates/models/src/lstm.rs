//! The LSTM baseline: an encoder–decoder with LSTM units and shared
//! filters ("LSTM \[13\]: … Like GRU, an encoder-decoder architecture is used
//! to make predictions", §VI-A).

use crate::config::ModelDims;
use enhancenet::{Forecaster, ForwardCtx};
use enhancenet_autodiff::{Graph, ParamId, ParamStore, PlanCache, Var};
use enhancenet_nn::cell::{lstm_step, Gate};
use enhancenet_nn::{apply_entity_filter, Linear};
use enhancenet_tensor::{Tensor, TensorRng};

fn gate_index(gate: Gate) -> usize {
    match gate {
        Gate::Reset => 0,     // forget
        Gate::Update => 1,    // input
        Gate::Candidate => 2, // cell candidate
        Gate::Output => 3,
    }
}

struct LstmLayer {
    w: [ParamId; 4],
    u: [ParamId; 4],
    b: [ParamId; 4],
}

impl LstmLayer {
    fn new(
        store: &mut ParamStore,
        rng: &mut TensorRng,
        name: &str,
        c_in: usize,
        c_h: usize,
    ) -> Self {
        let gates = ["f", "i", "c", "o"];
        let w = std::array::from_fn(|i| {
            store.add(format!("{name}.w_{}", gates[i]), rng.xavier(&[c_in, c_h], c_in, c_h))
        });
        let u = std::array::from_fn(|i| {
            store.add(format!("{name}.u_{}", gates[i]), rng.xavier(&[c_h, c_h], c_h, c_h))
        });
        let b = std::array::from_fn(|i| {
            // Forget-gate bias starts at 1 (the standard LSTM trick).
            let init = if i == 0 { Tensor::ones(&[c_h]) } else { Tensor::zeros(&[c_h]) };
            store.add(format!("{name}.b_{}", gates[i]), init)
        });
        Self { w, u, b }
    }

    fn bind(&self, g: &mut Graph, store: &ParamStore) -> ([Var; 4], [Var; 4], [Var; 4]) {
        (
            std::array::from_fn(|i| g.param(store, self.w[i])),
            std::array::from_fn(|i| g.param(store, self.u[i])),
            std::array::from_fn(|i| g.param(store, self.b[i])),
        )
    }
}

/// LSTM encoder–decoder forecaster.
pub struct LstmSeq2Seq {
    store: ParamStore,
    dims: ModelDims,
    enc: Vec<LstmLayer>,
    dec: Vec<LstmLayer>,
    head: Linear,
    plan_cache: PlanCache,
}

impl LstmSeq2Seq {
    /// Builds the baseline with `num_layers` stacked LSTM layers on both
    /// sides.
    pub fn new(dims: ModelDims, num_layers: usize, seed: u64) -> Self {
        assert!(num_layers >= 1);
        let mut store = ParamStore::new();
        let mut rng = TensorRng::seed(seed);
        let hidden = dims.hidden;
        let stack = |store: &mut ParamStore, rng: &mut TensorRng, tag: &str, c0: usize| {
            (0..num_layers)
                .map(|l| {
                    let c_in = if l == 0 { c0 } else { hidden };
                    LstmLayer::new(store, rng, &format!("{tag}{l}"), c_in, hidden)
                })
                .collect::<Vec<_>>()
        };
        let enc = stack(&mut store, &mut rng, "enc", dims.in_features);
        let dec = stack(&mut store, &mut rng, "dec", 1);
        let head = Linear::new(&mut store, &mut rng, "head", hidden, 1, true);
        Self { store, dims, enc, dec, head, plan_cache: PlanCache::new() }
    }
}

impl Forecaster for LstmSeq2Seq {
    fn name(&self) -> &str {
        "LSTM"
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn horizon(&self) -> usize {
        self.dims.output_len
    }

    fn input_shape(&self) -> Option<[usize; 3]> {
        Some([self.dims.input_len, self.dims.num_entities, self.dims.in_features])
    }

    fn plan_cache(&self) -> Option<&PlanCache> {
        Some(&self.plan_cache)
    }

    fn forward_on(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: &Tensor,
        ctx: &mut ForwardCtx,
    ) -> Var {
        let (b, h_len, n, c) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        assert_eq!(n, self.dims.num_entities);
        assert_eq!(c, self.dims.in_features);
        let f_len = self.dims.output_len;
        let hidden = self.dims.hidden;

        let enc_bound: Vec<_> = self.enc.iter().map(|l| l.bind(g, store)).collect();
        let dec_bound: Vec<_> = self.dec.iter().map(|l| l.bind(g, store)).collect();

        let zeros = Tensor::zeros(&[b, n, hidden]);
        let mut hs: Vec<Var> = (0..self.enc.len()).map(|_| g.constant(zeros.clone())).collect();
        let mut cs: Vec<Var> = (0..self.enc.len()).map(|_| g.constant(zeros.clone())).collect();

        let run_step = |g: &mut Graph,
                        bound: &[([Var; 4], [Var; 4], [Var; 4])],
                        hs: &mut Vec<Var>,
                        cs: &mut Vec<Var>,
                        mut input: Var| {
            for (l, (w, u, bias)) in bound.iter().enumerate() {
                let (h_new, c_new) = lstm_step(
                    g,
                    input,
                    hs[l],
                    cs[l],
                    |g, v, gate| apply_entity_filter(g, v, w[gate_index(gate)]),
                    |g, v, gate| apply_entity_filter(g, v, u[gate_index(gate)]),
                    |_, gate| Some(bias[gate_index(gate)]),
                );
                hs[l] = h_new;
                cs[l] = c_new;
                input = h_new;
            }
            input
        };

        // Eval traces read the window through one input leaf (compilable
        // to a plan); training keeps per-timestep constants.
        let xin = (!ctx.training).then(|| g.input(x.clone()));
        for t in 0..h_len {
            let xt = match xin {
                Some(xv) => g.index_axis(xv, 1, t),
                None => g.constant(x.index_axis(1, t)),
            };
            run_step(g, &enc_bound, &mut hs, &mut cs, xt);
        }

        let mut dec_in = g.constant(Tensor::zeros(&[b, n, 1]));
        let mut outputs = Vec::with_capacity(f_len);
        for t in 0..f_len {
            let top = run_step(g, &dec_bound, &mut hs, &mut cs, dec_in);
            let pred = self.head.forward(g, store, top);
            outputs.push(g.reshape(pred, &[b, 1, n]));
            dec_in = if ctx.use_teacher() {
                let teacher = ctx.teacher.expect("use_teacher implies teacher");
                g.constant(teacher.index_axis(1, t).reshape(&[b, n, 1]))
            } else {
                pred
            };
        }
        g.concat(&outputs, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims() -> ModelDims {
        ModelDims { num_entities: 4, in_features: 2, hidden: 6, input_len: 5, output_len: 3 }
    }

    #[test]
    fn forward_shape() {
        let m = LstmSeq2Seq::new(dims(), 2, 1);
        let x = TensorRng::seed(2).normal(&[3, 5, 4, 2], 0.0, 1.0);
        let mut g = Graph::new();
        let mut rng = TensorRng::seed(3);
        let mut ctx = ForwardCtx::eval(&mut rng);
        let y = m.forward(&mut g, &x, &mut ctx);
        assert_eq!(g.value(y).shape(), &[3, 3, 4]);
        assert!(!g.value(y).has_non_finite());
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let m = LstmSeq2Seq::new(dims(), 1, 1);
        let forget_bias = m
            .store()
            .ids()
            .find(|&id| m.store().name(id) == "enc0.b_f")
            .expect("forget bias exists");
        assert_eq!(m.store().value(forget_bias).data()[0], 1.0);
    }

    #[test]
    fn gradients_flow_everywhere() {
        let mut m = LstmSeq2Seq::new(dims(), 2, 4);
        let x = TensorRng::seed(5).normal(&[2, 5, 4, 2], 0.0, 1.0);
        let mut g = Graph::new();
        let mut rng = TensorRng::seed(6);
        let pred = {
            let mut ctx = ForwardCtx::eval(&mut rng);
            m.forward(&mut g, &x, &mut ctx)
        };
        let target = Tensor::ones(&[2, 3, 4]);
        let mask = Tensor::ones(&[2, 3, 4]);
        let loss = g.masked_mae(pred, &target, &mask);
        g.backward(loss);
        m.store_mut().zero_grad();
        g.write_grads(m.store_mut());
        for id in m.store().ids() {
            assert!(m.store().grad(id).norm() > 0.0, "no grad for {}", m.store().name(id));
        }
    }

    #[test]
    fn name_and_params() {
        let m = LstmSeq2Seq::new(dims(), 2, 1);
        assert_eq!(m.name(), "LSTM");
        // 4 gates × (W + U + b) per layer per side + head.
        assert!(m.num_parameters() > 0);
        assert_eq!(m.horizon(), 3);
    }
}

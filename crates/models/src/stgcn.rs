//! The STGCN baseline (Yu, Yin & Zhu, IJCAI 2018 \[34\]): "spatial-temporal
//! graph convolution network that combines 1D convolution with GC in a
//! non-hierarchical way" (§VI-A).
//!
//! Two ST-Conv blocks, each a *sandwich* of a gated (GLU) temporal
//! convolution, a spatial graph convolution over the symmetric-normalized
//! adjacency, a second gated temporal convolution and a closing layer
//! normalization. A final head maps
//! the last timestamp's features to all `F` horizons. We keep the temporal
//! length constant with causal padding (the original shrinks it with valid
//! convolutions; with `H = 12` the receptive field is equivalent).

use crate::config::ModelDims;
use enhancenet::gconv::gc_input_dim;
use enhancenet::{graph_conv, Forecaster, ForwardCtx, GcSupport};
use enhancenet_autodiff::{Graph, ParamId, ParamStore, PlanCache, Var};
use enhancenet_graph::{build_supports, SupportKind};
use enhancenet_nn::conv::causal_conv_taps;
use enhancenet_nn::{LayerNorm, Linear};
use enhancenet_tensor::{Tensor, TensorRng};

/// A gated temporal convolution: `GLU(conv(x)) = P ⊙ σ(Q)` where the
/// convolution produces `2·C'` channels split into `P` and `Q`.
struct GatedTemporalConv {
    taps: Vec<ParamId>,
    bias: ParamId,
    kernel: usize,
    c_out: usize,
}

impl GatedTemporalConv {
    fn new(
        store: &mut ParamStore,
        rng: &mut TensorRng,
        name: &str,
        c_in: usize,
        c_out: usize,
        kernel: usize,
    ) -> Self {
        let taps = (0..kernel)
            .map(|t| {
                store.add(format!("{name}.tap{t}"), rng.xavier(&[c_in, 2 * c_out], c_in, 2 * c_out))
            })
            .collect();
        let bias = store.add(format!("{name}.b"), Tensor::zeros(&[2 * c_out]));
        Self { taps, bias, kernel, c_out }
    }

    /// `x` is `[B, N, T, C]`; output `[B, N, T, C']`.
    fn forward(&self, g: &mut Graph, store: &ParamStore, x: Var) -> Var {
        let s = g.value(x).shape().to_vec();
        let (b, n, t, c) = (s[0], s[1], s[2], s[3]);
        let taps = causal_conv_taps(g, x, 2, self.kernel, 1);
        let mut acc: Option<Var> = None;
        for (j, &tap) in taps.iter().enumerate() {
            let w = g.param(store, self.taps[j]);
            let flat = g.reshape(tap, &[b * n * t, c]);
            let y = g.matmul(flat, w);
            acc = Some(match acc {
                Some(a) => g.add(a, y),
                None => y,
            });
        }
        let bias = g.param(store, self.bias);
        let pre = g.add(acc.expect("kernel >= 1"), bias);
        let p = g.slice_axis(pre, 1, 0, self.c_out);
        let q = g.slice_axis(pre, 1, self.c_out, 2 * self.c_out);
        let gate = g.sigmoid(q);
        let glu = g.mul(p, gate);
        g.reshape(glu, &[b, n, t, self.c_out])
    }
}

struct StBlock {
    temporal1: GatedTemporalConv,
    gc: ParamId,
    gc_bias: ParamId,
    temporal2: GatedTemporalConv,
    /// Layer norm closing each ST-Conv block, as in the original STGCN.
    norm: LayerNorm,
}

/// The STGCN forecaster.
pub struct Stgcn {
    store: ParamStore,
    dims: ModelDims,
    support: Tensor,
    blocks: Vec<StBlock>,
    head: Linear,
    plan_cache: PlanCache,
}

impl Stgcn {
    /// Builds STGCN with `num_blocks` ST-Conv blocks (original: 2) over the
    /// raw distance adjacency.
    pub fn new(dims: ModelDims, num_blocks: usize, adjacency: &Tensor, seed: u64) -> Self {
        let mut store = ParamStore::new();
        let mut rng = TensorRng::seed(seed);
        let ch = dims.hidden;
        let support = build_supports(adjacency, SupportKind::SymmetricWithSelfLoops)
            .pop()
            .expect("one symmetric support");
        let blocks = (0..num_blocks)
            .map(|i| {
                let c_in = if i == 0 { dims.in_features } else { ch };
                let gin = gc_input_dim(ch, 1, 1);
                StBlock {
                    temporal1: GatedTemporalConv::new(
                        &mut store,
                        &mut rng,
                        &format!("block{i}.t1"),
                        c_in,
                        ch,
                        3,
                    ),
                    gc: store.add(format!("block{i}.gc"), rng.xavier(&[gin, ch], gin, ch)),
                    gc_bias: store.add(format!("block{i}.gcb"), Tensor::zeros(&[ch])),
                    temporal2: GatedTemporalConv::new(
                        &mut store,
                        &mut rng,
                        &format!("block{i}.t2"),
                        ch,
                        ch,
                        3,
                    ),
                    norm: LayerNorm::new(&mut store, &format!("block{i}.ln"), ch),
                }
            })
            .collect();
        let head = Linear::new(&mut store, &mut rng, "head", ch, dims.output_len, true);
        Self { store, dims, support, blocks, head, plan_cache: PlanCache::new() }
    }
}

impl Forecaster for Stgcn {
    fn name(&self) -> &str {
        "STGCN"
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
        let (b, t, n, c) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        assert_eq!(n, self.dims.num_entities);
        assert_eq!(c, self.dims.in_features);
        let ch = self.dims.hidden;

        let support = g.constant(self.support.clone());
        // Eval traces read the window through one input leaf (compilable to
        // a plan); training binds it as a constant.
        let xin = if ctx.training { g.constant(x.clone()) } else { g.input(x.clone()) };
        let mut h = g.permute(xin, &[0, 2, 1, 3]); // [B, N, T, C]

        for block in &self.blocks {
            h = block.temporal1.forward(g, store, h);
            // Spatial GC per timestep: [B, N, T, C'] -> [B·T, N, C'].
            let hp = g.permute(h, &[0, 2, 1, 3]);
            let flat = g.reshape(hp, &[b * t, n, ch]);
            let w = g.param(store, block.gc);
            let bias = g.param(store, block.gc_bias);
            let conv = graph_conv(g, &[GcSupport::Static(support)], flat, w, Some(bias), 1);
            let act = g.relu(conv);
            let back = g.reshape(act, &[b, t, n, ch]);
            h = g.permute(back, &[0, 2, 1, 3]);
            h = block.temporal2.forward(g, store, h);
            h = block.norm.forward(g, store, h);
        }

        // Head from the final timestamp.
        let last = g.slice_axis(h, 2, t - 1, t);
        let last = g.reshape(last, &[b, n, ch]);
        let out = self.head.forward(g, store, last); // [B, N, F]
        g.permute(out, &[0, 2, 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims() -> ModelDims {
        ModelDims { num_entities: 4, in_features: 2, hidden: 6, input_len: 8, output_len: 3 }
    }

    fn ring(n: usize) -> Tensor {
        let mut a = Tensor::zeros(&[n, n]);
        for i in 0..n {
            a.set(&[i, (i + 1) % n], 1.0);
            a.set(&[(i + 1) % n, i], 1.0);
        }
        a
    }

    #[test]
    fn forward_shape() {
        let m = Stgcn::new(dims(), 2, &ring(4), 1);
        assert_eq!(m.name(), "STGCN");
        let x = TensorRng::seed(2).normal(&[3, 8, 4, 2], 0.0, 1.0);
        let mut g = Graph::new();
        let mut rng = TensorRng::seed(3);
        let mut ctx = ForwardCtx::eval(&mut rng);
        let y = m.forward(&mut g, &x, &mut ctx);
        assert_eq!(g.value(y).shape(), &[3, 3, 4]);
        assert!(!g.value(y).has_non_finite());
    }

    #[test]
    fn gradients_flow_everywhere() {
        let mut m = Stgcn::new(dims(), 2, &ring(4), 2);
        let x = TensorRng::seed(4).normal(&[2, 8, 4, 2], 0.0, 1.0);
        let mut g = Graph::new();
        let mut rng = TensorRng::seed(5);
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
    fn spatial_conv_mixes_neighbors() {
        // Zero input except one entity: graph conv must spread non-zero
        // activations to its ring neighbours by the head.
        let m = Stgcn::new(dims(), 1, &ring(4), 3);
        let x0 = Tensor::zeros(&[1, 8, 4, 2]);
        let mut x1 = x0.clone();
        for t in 0..8 {
            x1.set(&[0, t, 0, 0], 3.0);
        }
        let run = |xx: &Tensor| {
            let mut g = Graph::new();
            let mut rng = TensorRng::seed(1);
            let mut ctx = ForwardCtx::eval(&mut rng);
            let y = m.forward(&mut g, xx, &mut ctx);
            g.value(y).clone()
        };
        let base = run(&x0);
        let spiked = run(&x1);
        // Neighbour entity 1's forecast changes even though its own input
        // did not.
        let d: f32 = (0..3).map(|h| (spiked.at(&[0, h, 1]) - base.at(&[0, h, 1])).abs()).sum();
        assert!(d > 1e-6, "no spatial mixing detected");
    }
}

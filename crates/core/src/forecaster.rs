//! The [`Forecaster`] trait every host model and baseline implements, and
//! the per-forward context (training flag, teacher signals for scheduled
//! sampling).

use crate::damgn::Damgn;
use crate::error::EnhanceNetError;
use enhancenet_autodiff::{
    Graph, ParamId, ParamStore, Plan, PlanCache, PlanError, PlanExecutor, Var,
};
use enhancenet_tensor::{Tensor, TensorRng};

/// Context threaded through one forward pass.
pub struct ForwardCtx<'a> {
    /// True during training (enables dropout and teacher forcing).
    pub training: bool,
    /// Scaled ground-truth decoder targets `[B, F, N]`, available during
    /// training for scheduled sampling.
    pub teacher: Option<&'a Tensor>,
    /// Probability of feeding ground truth at each decode step (scheduled
    /// sampling, §VI-A). Ignored when `teacher` is `None`.
    pub teacher_forcing_prob: f32,
    /// RNG for dropout masks and sampling decisions.
    pub rng: &'a mut TensorRng,
}

impl<'a> ForwardCtx<'a> {
    /// An inference-mode context (no teacher, no dropout).
    pub fn eval(rng: &'a mut TensorRng) -> Self {
        Self { training: false, teacher: None, teacher_forcing_prob: 0.0, rng }
    }

    /// A training-mode context with teacher signals.
    pub fn train(rng: &'a mut TensorRng, teacher: &'a Tensor, tf_prob: f32) -> Self {
        Self { training: true, teacher: Some(teacher), teacher_forcing_prob: tf_prob, rng }
    }

    /// Decides whether this decode step feeds ground truth.
    pub fn use_teacher(&mut self) -> bool {
        self.training && self.teacher.is_some() && self.rng.bernoulli(self.teacher_forcing_prob)
    }
}

/// A correlated-time-series forecaster: maps a scaled input window
/// `[B, H, N, C]` to scaled predictions `[B, F, N]` of the target feature.
///
/// `Send + Sync` is a supertrait: the serving runtime moves models into a
/// worker thread, and the sharded trainer shares `&dyn Forecaster` across
/// scoped workers. `forward_on` takes `&self`, so implementations are
/// naturally `Sync` as long as any interior memo uses a lock (see
/// [`Damgn::shared_topk_pattern`]).
///
/// Hosts implement [`Forecaster::forward_on`], which reads parameters from
/// any store with this model's layout. That is how a serving fleet traces
/// a published snapshot without touching the model's own store; everything
/// else goes through the provided [`Forecaster::forward`], which reads
/// [`Forecaster::store`].
pub trait Forecaster: Send + Sync {
    /// Human-readable model tag as it appears in the paper's tables
    /// (e.g. `"D-RNN"`, `"DA-GTCN"`).
    fn name(&self) -> &str;

    /// The model's parameters.
    fn store(&self) -> &ParamStore;

    /// Mutable access for the optimizer.
    fn store_mut(&mut self) -> &mut ParamStore;

    /// Forecast horizon `F`.
    fn horizon(&self) -> usize;

    /// Builds the forward computation on `g` with parameters read from
    /// `store` and returns the prediction node (`[B, F, N]`, scaled
    /// space). `store` must have this model's parameter layout: the
    /// model's own store, or a copy of it with other values.
    fn forward_on(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: &Tensor,
        ctx: &mut ForwardCtx,
    ) -> Var;

    /// [`Forecaster::forward_on`] over the model's own store.
    fn forward(&self, g: &mut Graph, x: &Tensor, ctx: &mut ForwardCtx) -> Var {
        self.forward_on(g, self.store(), x, ctx)
    }

    /// The per-window input shape `[H, N, C]` this model expects, when it
    /// knows it. Hosts built from [`ModelDims`]-style configs report it;
    /// shape-agnostic baselines may keep the default `None`, which disables
    /// up-front validation in [`Forecaster::predict`] and bars them from
    /// [`crate::serve::FleetService`] (which needs the shape to size its
    /// sliding windows).
    ///
    /// [`ModelDims`]: https://docs.rs/enhancenet-models
    fn input_shape(&self) -> Option<[usize; 3]> {
        None
    }

    /// The model's compiled-plan cache, when it keeps one. Hosts that trace
    /// their eval forward through [`Graph::input`] return it to enable the
    /// compiled execution path in [`Forecaster::predict`]; baselines keep
    /// the default `None` and predictions run on the tape.
    fn plan_cache(&self) -> Option<&PlanCache> {
        None
    }

    /// Forecasts a scaled input window without exposing the tape machinery.
    ///
    /// This is the public inference entry point: callers hand in a scaled
    /// window — `[H, N, C]` for one forecast or `[B, H, N, C]` for a batch —
    /// and get back scaled predictions (`[F, N]` or `[B, F, N]`
    /// respectively). The forward pass runs in evaluation mode (no dropout,
    /// no teacher forcing), so the result is deterministic for a given
    /// window and weight state.
    ///
    /// When the model exposes a [`Forecaster::plan_cache`], repeat
    /// predictions execute a compiled plan against preallocated buffers
    /// (see [`Forecaster::predict_into`]); the result is bitwise identical
    /// to the tape path ([`Forecaster::predict_tape`]).
    ///
    /// Returns [`EnhanceNetError::InputShape`] when the window's rank is
    /// wrong or its trailing dimensions disagree with
    /// [`Forecaster::input_shape`].
    fn predict(&self, window: &Tensor) -> Result<Tensor, EnhanceNetError> {
        let mut out = Tensor::default();
        self.predict_into(window, &mut out)?;
        Ok(out)
    }

    /// [`Forecaster::predict`] into a caller-provided buffer.
    ///
    /// The first prediction for a given `(input shape, parameter version)`
    /// traces the eval forward once and compiles it into a static plan
    /// ([`Plan::compile`]); subsequent predictions execute the plan against
    /// its preallocated arena — allocation-free when `out` retains capacity
    /// across calls. A weight change bumps the store version and
    /// transparently recompiles. Models whose trace cannot be compiled
    /// (no plan cache, or no input-marked leaf) fall back to the tape with
    /// identical results, counted as `plan.fallback`; the serving fleet's
    /// tape arm does the same over its snapshot store. A plan run that
    /// panicked does not disable its executor: the next call recovers it
    /// (counted as `plan.executor.recovered`) and runs it again.
    fn predict_into(&self, window: &Tensor, out: &mut Tensor) -> Result<(), EnhanceNetError> {
        let shape_err = |expected: Vec<usize>| EnhanceNetError::InputShape {
            expected,
            got: window.shape().to_vec(),
        };
        if !matches!(window.rank(), 3 | 4) {
            let expected = self.input_shape().map(|s| s.to_vec()).unwrap_or_default();
            return Err(shape_err(expected));
        }
        if let Some(expected) = self.input_shape() {
            let trailing = if window.rank() == 3 { window.shape() } else { &window.shape()[1..] };
            if trailing != expected {
                return Err(shape_err(expected.to_vec()));
            }
        }
        let Some(cache) = self.plan_cache() else {
            return self.predict_tape_into(window, out);
        };
        if cache.is_unplannable() {
            if enhancenet_telemetry::enabled() {
                enhancenet_telemetry::count("plan.fallback", 1);
            }
            return self.predict_tape_into(window, out);
        }
        let version = self.store().version();
        // Cache key: the traced (batched) input shape, stack-built so warm
        // lookups stay allocation-free.
        let mut key = [1usize; 4];
        if window.rank() == 3 {
            key[1..].copy_from_slice(window.shape());
        } else {
            key.copy_from_slice(window.shape());
        }
        if let Some(exec) = cache.lookup(&key, version) {
            let mut exec = exec.lock().unwrap_or_else(|poisoned| {
                enhancenet_telemetry::count("plan.executor.recovered", 1);
                poisoned.into_inner()
            });
            exec.run(window, out);
            return Ok(());
        }
        // Miss: trace once, compile, and answer from the traced value (the
        // compile request itself never computes the forward twice).
        let holder;
        let x: &Tensor = if window.rank() == 3 {
            holder = window.unsqueeze(0);
            &holder
        } else {
            window
        };
        let (compiled, val) = self.compile_eval_plan(x);
        match compiled {
            Ok(plan) => {
                if enhancenet_telemetry::enabled() {
                    enhancenet_telemetry::gauge("plan.arena.bytes", plan.arena_bytes() as f64);
                }
                cache.insert(PlanExecutor::new(plan));
            }
            Err(_) => {
                cache.mark_unplannable();
                if enhancenet_telemetry::enabled() {
                    enhancenet_telemetry::count("plan.fallback", 1);
                }
            }
        }
        if window.rank() == 3 {
            out.copy_from_with_shape(&val.shape()[1..], val.data());
        } else {
            out.copy_from(&val);
        }
        Ok(())
    }

    /// Traces one eval forward over a **batched** `[B, H, N, C]` window and
    /// compiles the trace into a static [`Plan`], returning the traced
    /// prediction alongside so the caller can answer the triggering request
    /// without a second forward.
    ///
    /// This is the compile step [`Forecaster::predict_into`] runs on a plan
    /// cache miss. The plan holds the weights of [`Forecaster::store`] as
    /// they are now; see [`Forecaster::compile_eval_plan_on`] to compile
    /// against another store.
    ///
    /// `Err` means this model's trace cannot be compiled (no
    /// [`Graph::input`]-marked leaf, unsupported op); callers answer on the
    /// tape instead, with identical results ([`Forecaster::predict_into`]
    /// and the serving fleet's tape arm both do). The returned tensor is the
    /// real traced prediction on `Err` too: both callers answer the
    /// triggering request from it, so an override must never return a
    /// placeholder.
    fn compile_eval_plan(&self, batched: &Tensor) -> (Result<Plan, PlanError>, Tensor) {
        self.compile_eval_plan_on(self.store(), batched)
    }

    /// [`Forecaster::compile_eval_plan`] against `store`, a store with this
    /// model's parameter layout. Executors that keep their *own* plan
    /// tables use it: each serving-fleet worker compiles against the
    /// published snapshot it executes, in a private executor map, so
    /// concurrent workers never serialize on the model's shared
    /// [`PlanCache`] mutex.
    fn compile_eval_plan_on(
        &self,
        store: &ParamStore,
        batched: &Tensor,
    ) -> (Result<Plan, PlanError>, Tensor) {
        // The eval context draws nothing from the RNG (dropout off, no
        // teacher forcing), so a fixed seed keeps the trace deterministic.
        let mut rng = TensorRng::seed(0);
        let mut ctx = ForwardCtx::eval(&mut rng);
        let mut g = Graph::new();
        let pred = self.forward_on(&mut g, store, batched, &mut ctx);
        let compiled = Plan::compile(&g, pred, store);
        (compiled, g.value(pred).clone())
    }

    /// Pure-tape prediction: traces a fresh eval forward for every call.
    ///
    /// This is the reference path the compiled plan is pinned against
    /// (bitwise, see `crates/models/tests/plan_parity.rs`) and the fallback
    /// for models without a plan cache. Same validation and output contract
    /// as [`Forecaster::predict`].
    fn predict_tape(&self, window: &Tensor) -> Result<Tensor, EnhanceNetError> {
        let shape_err = |expected: Vec<usize>| EnhanceNetError::InputShape {
            expected,
            got: window.shape().to_vec(),
        };
        let holder;
        let (batched, x): (bool, &Tensor) = match window.rank() {
            3 => {
                holder = window.unsqueeze(0);
                (false, &holder)
            }
            4 => (true, window),
            _ => {
                let expected = self.input_shape().map(|s| s.to_vec()).unwrap_or_default();
                return Err(shape_err(expected));
            }
        };
        if let Some(expected) = self.input_shape() {
            if x.shape()[1..] != expected {
                return Err(shape_err(expected.to_vec()));
            }
        }
        // The eval context draws nothing from the RNG (dropout off, no
        // teacher forcing), so a fixed seed keeps the entry point pure.
        let mut rng = TensorRng::seed(0);
        let mut ctx = ForwardCtx::eval(&mut rng);
        let mut g = Graph::new();
        let pred = self.forward(&mut g, x, &mut ctx);
        let out = g.value(pred).clone();
        if batched {
            Ok(out)
        } else {
            let (f, n) = (out.shape()[1], out.shape()[2]);
            Ok(out.reshape(&[f, n]))
        }
    }

    /// [`Forecaster::predict_tape`] into a caller-provided buffer.
    fn predict_tape_into(&self, window: &Tensor, out: &mut Tensor) -> Result<(), EnhanceNetError> {
        let res = self.predict_tape(window)?;
        out.copy_from(&res);
        Ok(())
    }

    /// Total trainable scalars — the "# Para" column of Tables I/II.
    fn num_parameters(&self) -> usize {
        self.store().num_scalars()
    }

    /// The model's DAMGN instance, when it carries one. Drives the
    /// per-epoch graph-health probe (`crate::probes`); plain hosts and
    /// baselines keep the default `None` and the probe skips them.
    fn damgn(&self) -> Option<&Damgn> {
        None
    }

    /// Parameter id of the shared DFGN entity-memory table, when the
    /// model has one. Drives the memory-drift probe and the t-SNE
    /// figures; models without distinct filters keep the default `None`.
    fn memory_id(&self) -> Option<ParamId> {
        None
    }
}

#[cfg(test)]
pub(crate) mod test_model {
    //! A deliberately simple forecaster used by the trainer tests: predicts
    //! every future step as a learnable affine function of the last input.

    use super::*;
    use enhancenet_autodiff::ParamId;

    pub struct AffinePersistence {
        store: ParamStore,
        scale: ParamId,
        bias: ParamId,
        f: usize,
        input_shape: Option<[usize; 3]>,
        plan_cache: PlanCache,
    }

    impl AffinePersistence {
        pub fn new(f: usize) -> Self {
            let mut store = ParamStore::new();
            let scale = store.add("scale", Tensor::scalar(0.5));
            let bias = store.add("bias", Tensor::scalar(0.0));
            Self { store, scale, bias, f, input_shape: None, plan_cache: PlanCache::new() }
        }

        /// Declares the `[H, N, C]` shape this instance expects, enabling
        /// `predict` validation and serving.
        pub fn with_input_shape(mut self, h: usize, n: usize, c: usize) -> Self {
            self.input_shape = Some([h, n, c]);
            self
        }
    }

    impl Forecaster for AffinePersistence {
        fn name(&self) -> &str {
            "affine-persistence"
        }
        fn store(&self) -> &ParamStore {
            &self.store
        }
        fn store_mut(&mut self) -> &mut ParamStore {
            &mut self.store
        }
        fn horizon(&self) -> usize {
            self.f
        }
        fn input_shape(&self) -> Option<[usize; 3]> {
            self.input_shape
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
            let (b, h, n, _c) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
            // Last timestamp, target feature -> [B, N]. Eval traces slice
            // graph-side from an input leaf so the trace compiles to a plan;
            // training keeps the cheaper pre-sliced constant.
            let lv = if ctx.training {
                g.constant(x.slice_axis(1, h - 1, h).slice_axis(3, 0, 1).reshape(&[b, n]))
            } else {
                let xv = g.input(x.clone());
                let t = g.slice_axis(xv, 1, h - 1, h);
                let t = g.slice_axis(t, 3, 0, 1);
                g.reshape(t, &[b, n])
            };
            let s = g.param(store, self.scale);
            let bias = g.param(store, self.bias);
            let scaled = g.mul(lv, s);
            let affine = g.add(scaled, bias);
            // Repeat across the horizon: [B, F, N].
            let un = g.reshape(affine, &[b, 1, n]);
            let copies: Vec<Var> = (0..self.f).map(|_| un).collect();
            g.concat(&copies, 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_ctx_never_uses_teacher() {
        let mut rng = TensorRng::seed(1);
        let mut ctx = ForwardCtx::eval(&mut rng);
        assert!(!ctx.use_teacher());
        assert!(!ctx.training);
    }

    #[test]
    fn train_ctx_respects_probability() {
        let mut rng = TensorRng::seed(2);
        let teacher = Tensor::zeros(&[1, 2, 3]);
        let mut always = ForwardCtx::train(&mut rng, &teacher, 1.0);
        assert!((0..20).all(|_| always.use_teacher()));
        let mut rng2 = TensorRng::seed(2);
        let mut never = ForwardCtx::train(&mut rng2, &teacher, 0.0);
        assert!((0..20).all(|_| !never.use_teacher()));
    }

    #[test]
    fn test_model_shapes() {
        use super::test_model::AffinePersistence;
        let m = AffinePersistence::new(4);
        let mut g = Graph::new();
        let x = Tensor::ones(&[2, 5, 3, 1]);
        let mut rng = TensorRng::seed(3);
        let mut ctx = ForwardCtx::eval(&mut rng);
        let y = m.forward(&mut g, &x, &mut ctx);
        assert_eq!(g.value(y).shape(), &[2, 4, 3]);
        assert_eq!(m.num_parameters(), 2);
    }

    #[test]
    fn predict_matches_forward_eval() {
        use super::test_model::AffinePersistence;
        let m = AffinePersistence::new(4);
        let x = Tensor::ones(&[2, 5, 3, 1]);
        let mut g = Graph::new();
        let mut rng = TensorRng::seed(3);
        let mut ctx = ForwardCtx::eval(&mut rng);
        let y = m.forward(&mut g, &x, &mut ctx);
        let p = m.predict(&x).unwrap();
        assert_eq!(p.data(), g.value(y).data());
    }

    #[test]
    fn predict_unbatches_rank_3_windows() {
        use super::test_model::AffinePersistence;
        let m = AffinePersistence::new(4);
        let single = Tensor::ones(&[5, 3, 1]);
        let p = m.predict(&single).unwrap();
        assert_eq!(p.shape(), &[4, 3]);
        let batched = m.predict(&single.unsqueeze(0)).unwrap();
        assert_eq!(batched.shape(), &[1, 4, 3]);
        assert_eq!(batched.data(), p.data());
    }

    #[test]
    fn predict_rejects_bad_ranks_and_shapes() {
        use super::test_model::AffinePersistence;
        let m = AffinePersistence::new(4).with_input_shape(5, 3, 1);
        match m.predict(&Tensor::ones(&[5, 3])) {
            Err(EnhanceNetError::InputShape { got, .. }) => assert_eq!(got, vec![5, 3]),
            other => panic!("expected InputShape, got {other:?}"),
        }
        // With a declared input shape, mismatched trailing dims are typed
        // errors rather than downstream panics.
        match m.predict(&Tensor::ones(&[1, 5, 9, 1])) {
            Err(EnhanceNetError::InputShape { expected, got }) => {
                assert_eq!(expected, vec![5, 3, 1]);
                assert_eq!(got, vec![1, 5, 9, 1]);
            }
            other => panic!("expected InputShape, got {other:?}"),
        }
    }
}

//! The parameter store: named trainable tensors with accumulated gradients.
//!
//! Parameters outlive the per-step tapes. Optimizers (in `enhancenet-nn`)
//! mutate values in place; `Graph::write_grads` accumulates into the grads.

use enhancenet_tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of every store version in the process, so a version names one
/// state of one store: two stores never share a version, not even a fresh
/// store and a copy of it.
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

/// `Relaxed` suffices: the counter publishes no other data, and every
/// `fetch_add` returns a value no other call returns.
fn fresh_version() -> u64 {
    NEXT_VERSION.fetch_add(1, Ordering::Relaxed)
}

/// Handle to a parameter in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) u32);

struct Param {
    name: String,
    value: Tensor,
    grad: Tensor,
    frozen: bool,
}

/// Collection of trainable parameters for one model.
pub struct ParamStore {
    params: Vec<Param>,
    /// Redrawn from a process-wide counter whenever the parameter set or a
    /// value changes; keys compiled plans and the top-k pattern memo.
    version: u64,
}

impl Default for ParamStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self { params: Vec::new(), version: fresh_version() }
    }

    /// The store's current state, drawn from one process-wide counter:
    /// it grows with every mutation, and equal versions imply the same
    /// store with unchanged parameter values, across all stores.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Registers a parameter with an initial value; the gradient starts at
    /// zero. Names are for debugging/reporting and need not be unique,
    /// though scoped names (`"encoder.gru0.w_r"`) make reports readable.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let id = ParamId(self.params.len() as u32);
        self.version = fresh_version();
        let grad = Tensor::zeros(value.shape());
        self.params.push(Param { name: name.into(), value, grad, frozen: false });
        id
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.params[id.0 as usize].value
    }

    /// Mutable value (used by optimizers and by tests that perturb weights).
    /// Bumps the store version.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        self.version = fresh_version();
        &mut self.params[id.0 as usize].value
    }

    /// Accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.params[id.0 as usize].grad
    }

    /// Name given at registration.
    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.0 as usize].name
    }

    /// Adds `g` into the stored gradient (called by `Graph::write_grads`).
    pub fn accumulate_grad(&mut self, id: ParamId, g: &Tensor) {
        self.params[id.0 as usize].grad.add_assign_t(g);
    }

    /// Resets every gradient to zero. Call once per optimizer step.
    pub fn zero_grad(&mut self) {
        for p in &mut self.params {
            p.grad.data_mut().fill(0.0);
        }
    }

    /// Number of registered parameter tensors.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameter is registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of trainable scalars — the "# Para" column of the
    /// paper's Tables I and II.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.numel()).sum()
    }

    /// Iterates over all parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len() as u32).map(ParamId)
    }

    /// Global L2 norm of all gradients (for clipping and divergence checks).
    pub fn grad_norm(&self) -> f32 {
        self.params
            .iter()
            .map(|p| p.grad.data().iter().map(|v| v * v).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Scales every gradient by `factor` (gradient clipping support).
    pub fn scale_grads(&mut self, factor: f32) {
        for p in &mut self.params {
            p.grad.map_inplace(|v| v * factor);
        }
    }

    /// Applies `f(value, grad)` to every **trainable** parameter (generic
    /// optimizer hook; frozen parameters are skipped). Bumps the store
    /// version.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(usize, &mut Tensor, &Tensor)) {
        self.version = fresh_version();
        for (i, p) in self.params.iter_mut().enumerate() {
            if !p.frozen {
                f(i, &mut p.value, &p.grad);
            }
        }
    }

    /// Freezes a parameter: optimizers skip it (its value stays at whatever
    /// it was set to). Used by ablations that pin, e.g., DAMGN's λ_C at 0.
    pub fn freeze(&mut self, id: ParamId) {
        self.params[id.0 as usize].frozen = true;
    }

    /// Re-enables training of a frozen parameter.
    pub fn unfreeze(&mut self, id: ParamId) {
        self.params[id.0 as usize].frozen = false;
    }

    /// Whether a parameter is frozen.
    pub fn is_frozen(&self, id: ParamId) -> bool {
        self.params[id.0 as usize].frozen
    }

    /// Snapshot of all values (for best-model checkpointing).
    pub fn snapshot(&self) -> Vec<Tensor> {
        self.params.iter().map(|p| p.value.clone()).collect()
    }

    /// Restores a snapshot taken by [`ParamStore::snapshot`].
    ///
    /// # Panics
    ///
    /// Panics when the snapshot does not match the store layout.
    pub fn restore(&mut self, snapshot: &[Tensor]) {
        assert_eq!(snapshot.len(), self.params.len(), "snapshot layout mismatch");
        self.version = fresh_version();
        for (p, s) in self.params.iter_mut().zip(snapshot) {
            assert_eq!(p.value.shape(), s.shape(), "snapshot shape mismatch for {}", p.name);
            p.value = s.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_read() {
        let mut s = ParamStore::new();
        let id = s.add("w", Tensor::ones(&[2, 3]));
        assert_eq!(s.value(id).shape(), &[2, 3]);
        assert_eq!(s.name(id), "w");
        assert_eq!(s.grad(id).sum_all(), 0.0);
    }

    #[test]
    fn num_scalars_counts_elements() {
        let mut s = ParamStore::new();
        s.add("a", Tensor::ones(&[2, 3]));
        s.add("b", Tensor::ones(&[4]));
        assert_eq!(s.num_scalars(), 10);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn zero_grad_resets() {
        let mut s = ParamStore::new();
        let id = s.add("w", Tensor::ones(&[2]));
        s.accumulate_grad(id, &Tensor::ones(&[2]));
        assert_eq!(s.grad(id).sum_all(), 2.0);
        s.zero_grad();
        assert_eq!(s.grad(id).sum_all(), 0.0);
    }

    #[test]
    fn grad_norm_and_scaling() {
        let mut s = ParamStore::new();
        let a = s.add("a", Tensor::zeros(&[2]));
        s.accumulate_grad(a, &Tensor::from_vec(vec![3.0, 4.0], &[2]));
        assert!((s.grad_norm() - 5.0).abs() < 1e-6);
        s.scale_grads(0.5);
        assert_eq!(s.grad(a).data(), &[1.5, 2.0]);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut s = ParamStore::new();
        let id = s.add("w", Tensor::ones(&[2]));
        let snap = s.snapshot();
        s.value_mut(id).data_mut()[0] = 99.0;
        s.restore(&snap);
        assert_eq!(s.value(id).data(), &[1.0, 1.0]);
    }

    #[test]
    fn frozen_params_are_skipped_by_for_each_mut() {
        let mut s = ParamStore::new();
        let a = s.add("a", Tensor::ones(&[1]));
        let b = s.add("b", Tensor::ones(&[1]));
        s.accumulate_grad(a, &Tensor::ones(&[1]));
        s.accumulate_grad(b, &Tensor::ones(&[1]));
        s.freeze(a);
        assert!(s.is_frozen(a) && !s.is_frozen(b));
        s.for_each_mut(|_, v, g| v.axpy(-1.0, g));
        assert_eq!(s.value(a).data(), &[1.0], "frozen param moved");
        assert_eq!(s.value(b).data(), &[0.0]);
        s.unfreeze(a);
        s.for_each_mut(|_, v, g| v.axpy(-1.0, g));
        assert_eq!(s.value(a).data(), &[0.0]);
    }

    #[test]
    fn versions_are_unique_across_stores_and_grow_on_mutation() {
        let mut a = ParamStore::new();
        let b = ParamStore::new();
        assert_ne!(a.version(), b.version());
        let v0 = a.version();
        let id = a.add("w", Tensor::ones(&[1]));
        let v1 = a.version();
        a.value_mut(id);
        assert!(v0 < v1 && v1 < a.version());
    }

    #[test]
    fn ids_iterates_in_order() {
        let mut s = ParamStore::new();
        s.add("a", Tensor::ones(&[1]));
        s.add("b", Tensor::ones(&[1]));
        let names: Vec<&str> = s.ids().map(|id| s.name(id)).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}

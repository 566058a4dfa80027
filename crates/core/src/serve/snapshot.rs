//! Copy-on-write model snapshots and the epoch cell that publishes them.
//!
//! The fleet never mutates the model it serves. Instead, each worker loads
//! the *current snapshot* — an immutable [`ParamStore`] copy behind an
//! `Arc` — once per batch, and executes plans compiled against that store
//! (see `enhancenet_autodiff::Plan`: a plan holds the values of the store
//! it was traced from). A background trainer hot-swaps weights by handing
//! [`SnapshotPublisher::publish`] a new store: the cell swaps the `Arc`
//! under a short lock and bumps the epoch counter. In-flight batches finish
//! on the `Arc` they already cloned — zero downtime, no reader ever blocks
//! on a writer for longer than the pointer swap — and workers adopt the
//! new epoch at their next batch boundary, dropping the plans of the old
//! snapshot and compiling against the new one.
//!
//! This is the `ArcSwap` idiom built from `std` primitives (the repo
//! vendors no atomics crate): load = lock, clone `Arc`, unlock — a few
//! nanoseconds, amortized to nothing against a batched forward.

use crate::error::EnhanceNetError;
use enhancenet_autodiff::{ParamId, ParamStore};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One immutable published model state.
pub(crate) struct Snapshot {
    /// Epoch 0 is the weights the fleet was spawned with; each publish
    /// increments.
    pub(crate) epoch: u64,
    /// The parameter values the workers' plans are compiled from.
    pub(crate) store: ParamStore,
}

/// The shared cell workers load from and the publisher swaps into.
pub(crate) struct SnapshotCell {
    current: Mutex<Arc<Snapshot>>,
    epoch: AtomicU64,
}

impl SnapshotCell {
    /// Seeds the cell at epoch 0 with the fleet model's own weights.
    pub(crate) fn new(base: &ParamStore) -> Self {
        let store = clone_store(base);
        Self {
            current: Mutex::new(Arc::new(Snapshot { epoch: 0, store })),
            epoch: AtomicU64::new(0),
        }
    }

    /// The currently published snapshot; a short-lock `Arc` clone.
    pub(crate) fn load(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.lock().unwrap_or_else(|poisoned| poisoned.into_inner()))
    }

    /// The epoch of the currently published snapshot, lock-free.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Swaps in `store` as the new current snapshot; returns its epoch.
    pub(crate) fn publish(&self, store: ParamStore) -> u64 {
        let mut current = self.current.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let epoch = current.epoch + 1;
        *current = Arc::new(Snapshot { epoch, store });
        // Epoch is advertised only after the snapshot is visible, so a
        // worker that observes the new epoch always loads the new store.
        self.epoch.store(epoch, Ordering::SeqCst);
        epoch
    }
}

/// A deep value copy of `base`: same [`ParamId`] assignment (ids are
/// allocated sequentially by insertion order), same names, same shapes —
/// exactly what the model's forward needs to trace the copy. The copy has
/// a version of its own.
pub(crate) fn clone_store(base: &ParamStore) -> ParamStore {
    let mut store = ParamStore::new();
    for id in base.ids() {
        store.add(base.name(id), base.value(id).clone());
    }
    store
}

/// Handle a background trainer uses to hot-swap the fleet's weights; see
/// [`super::FleetService::publisher`]. Cloneable and `Send`, so it can
/// move to the training thread while the fleet keeps serving.
#[derive(Clone)]
pub struct SnapshotPublisher {
    pub(crate) cell: Arc<SnapshotCell>,
    /// `(id, shape)` contract the model's forward assumes; publishes are
    /// validated against it so a mismatched store fails typed instead of
    /// corrupting a forward pass.
    pub(crate) contract: Arc<Vec<(ParamId, Vec<usize>)>>,
}

impl std::fmt::Debug for SnapshotPublisher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotPublisher")
            .field("epoch", &self.cell.epoch())
            .field("params", &self.contract.len())
            .finish()
    }
}

impl SnapshotPublisher {
    /// Builds a publisher over `cell` whose contract is `base`'s layout.
    pub(crate) fn new(cell: Arc<SnapshotCell>, base: &ParamStore) -> Self {
        let contract = base.ids().map(|id| (id, base.value(id).shape().to_vec())).collect();
        Self { cell, contract: Arc::new(contract) }
    }

    /// The epoch of the currently published snapshot (0 = spawn weights).
    pub fn epoch(&self) -> u64 {
        self.cell.epoch()
    }

    /// Publishes `store`'s current values as the fleet's new weights and
    /// returns the new epoch.
    ///
    /// The store must match the serving model's parameter layout — same
    /// parameter count, same per-id shapes — because the model's forward
    /// reads parameters by id, and every value must be finite. A trainer
    /// that trained a *fresh instance of the same architecture* satisfies
    /// the layout by construction; anything else fails with
    /// [`EnhanceNetError::InvalidConfig`], counts `serve.swap.rejected`,
    /// and leaves the current snapshot serving.
    ///
    /// In-flight batches finish on the old snapshot; workers pick the new
    /// one up at their next batch boundary (counted as
    /// `serve.swap.adopted`). Counters: `serve.swap.published`; gauge
    /// `serve.swap.epoch`.
    pub fn publish(&self, store: &ParamStore) -> Result<u64, EnhanceNetError> {
        let got: Vec<(ParamId, Vec<usize>)> =
            store.ids().map(|id| (id, store.value(id).shape().to_vec())).collect();
        let reason = if got != *self.contract {
            Some(format!(
                "published store layout ({} params) does not match the serving model ({} params with identical ids/shapes required)",
                got.len(),
                self.contract.len()
            ))
        } else {
            store
                .ids()
                .find(|&id| store.value(id).has_non_finite())
                .map(|id| format!("parameter `{}` holds a NaN or infinite value", store.name(id)))
        };
        if let Some(reason) = reason {
            enhancenet_telemetry::count("serve.swap.rejected", 1);
            return Err(EnhanceNetError::InvalidConfig { field: "snapshot", reason });
        }
        let epoch = self.cell.publish(clone_store(store));
        enhancenet_telemetry::count("serve.swap.published", 1);
        enhancenet_telemetry::gauge("serve.swap.epoch", epoch as f64);
        Ok(epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enhancenet_tensor::Tensor;

    #[test]
    fn fresh_stores_and_snapshot_copies_have_distinct_versions() {
        let mut a = ParamStore::new();
        a.add("w", Tensor::ones(&[2]));
        let mut b = ParamStore::new();
        b.add("w", Tensor::ones(&[2]));
        let copy = clone_store(&a);
        let versions = [a.version(), b.version(), copy.version()];
        assert_ne!(versions[0], versions[1]);
        assert_ne!(versions[0], versions[2]);
        assert_ne!(versions[1], versions[2]);
    }
}

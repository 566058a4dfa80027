//! The batch machinery behind each [`super::FleetService`] worker:
//! request / reply payloads, batch assembly, the batched serve step, and
//! the shutdown accounting behind [`ShutdownReport`].

use super::reply::ReplyHandle;
use super::{ShutdownMode, ShutdownReport};
use crate::error::EnhanceNetError;
use crossbeam::channel::Receiver;
use enhancenet_tensor::Tensor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// What the batch worker sends back: the scaled `[F, N]` prediction plus
/// the worker-side timing attribution.
pub(crate) struct BatchReply {
    pub(crate) values: Tensor,
    pub(crate) queue_wait_ns: u64,
    pub(crate) forward_ns: u64,
}

impl std::fmt::Debug for BatchReply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchReply")
            .field("queue_wait_ns", &self.queue_wait_ns)
            .field("forward_ns", &self.forward_ns)
            .finish_non_exhaustive()
    }
}

/// A request travelling to a batch worker: one scaled `[H, N, C]` window
/// plus the reply slot its answer lands in.
pub(crate) struct BatchRequest {
    pub(crate) id: u64,
    pub(crate) window: Tensor,
    /// When the request entered the queue; the worker turns this into the
    /// per-request `serve.queue.wait_ns` observation at batch assembly.
    pub(crate) submitted: Instant,
    pub(crate) reply: ReplyHandle,
}

/// Shutdown coordination shared between a service handle and its workers.
///
/// The service flips `mode` *before* dropping its senders; each worker
/// keeps receiving until disconnect and consults the mode per batch —
/// [`ShutdownMode::Drain`] answers the backlog on the model (counted in
/// `drained`), [`ShutdownMode::Now`] drops each request's reply handle so
/// the waiter sees `ServiceStopped` without another forward pass (counted
/// in `shed`).
pub(crate) struct ShutdownState {
    /// 0 = running, 1 = drain, 2 = shed now.
    mode: AtomicU8,
    drained: AtomicU64,
    shed: AtomicU64,
}

impl ShutdownState {
    pub(crate) fn new() -> Self {
        Self { mode: AtomicU8::new(0), drained: AtomicU64::new(0), shed: AtomicU64::new(0) }
    }

    /// Signals workers which shutdown semantics apply from now on.
    pub(crate) fn begin(&self, mode: ShutdownMode) {
        let code = match mode {
            ShutdownMode::Drain => 1,
            ShutdownMode::Now => 2,
        };
        self.mode.store(code, Ordering::SeqCst);
    }

    /// `None` while running; the requested mode once a shutdown began.
    pub(crate) fn mode(&self) -> Option<ShutdownMode> {
        match self.mode.load(Ordering::SeqCst) {
            1 => Some(ShutdownMode::Drain),
            2 => Some(ShutdownMode::Now),
            _ => None,
        }
    }

    pub(crate) fn note_drained(&self, n: u64) {
        self.drained.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn note_shed(&self, n: u64) {
        self.shed.fetch_add(n, Ordering::Relaxed);
    }

    /// The final accounting, read after every worker has been joined.
    pub(crate) fn report(&self) -> ShutdownReport {
        ShutdownReport {
            drained: self.drained.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }
}

/// Blocks for one request, then drains stragglers up to `max_batch`,
/// waiting at most `max_wait` for more. Returns `None` once every sender
/// is dropped and the queue is empty.
pub(crate) fn next_batch(
    rx: &Receiver<BatchRequest>,
    max_batch: usize,
    max_wait: Duration,
) -> Option<Vec<BatchRequest>> {
    let first = rx.recv().ok()?;
    let mut batch = vec![first];
    let wait_until = Instant::now() + max_wait;
    while batch.len() < max_batch {
        // Queued requests join for free; otherwise wait out max_wait.
        if let Ok(request) = rx.try_recv() {
            batch.push(request);
            continue;
        }
        let now = Instant::now();
        if now >= wait_until {
            break;
        }
        match rx.recv_timeout(wait_until - now) {
            Ok(request) => batch.push(request),
            Err(_) => break,
        }
    }
    Some(batch)
}

/// Drops every reply handle in `batch` unanswered, so each waiter observes
/// `ServiceStopped` (the [`ShutdownMode::Now`] shed path).
pub(crate) fn shed_batch(batch: Vec<BatchRequest>, shutdown: &ShutdownState) {
    shutdown.note_shed(batch.len() as u64);
    enhancenet_telemetry::count("serve.shutdown.shed", batch.len() as u64);
    drop(batch);
}

/// Runs one batched forward and distributes per-request replies. A panic in
/// `forward` is contained here: every waiter gets an error (and so falls
/// back to persistence) and the worker stays alive for later requests.
/// `batch_x` and `pred` are worker-owned reusable buffers: once a compiled
/// plan serves a given batch size, stacking and executing touch no heap
/// (the per-request reply tensors are still sliced out fresh, since they
/// are sent away).
pub(crate) fn serve_batch<F>(
    forward: F,
    batch: Vec<BatchRequest>,
    batch_x: &mut Tensor,
    pred: &mut Tensor,
) where
    F: FnOnce(&Tensor, &mut Tensor),
{
    let _span = enhancenet_telemetry::span("serve.batch");
    enhancenet_telemetry::observe("serve.batch.size", batch.len() as f64);
    let assembled = Instant::now();
    // Queue wait ends at batch assembly; attribute it per request id.
    let queue_waits: Vec<u64> = batch
        .iter()
        .map(|request| {
            let wait_ns = assembled.duration_since(request.submitted).as_nanos() as u64;
            enhancenet_telemetry::observe("serve.queue.wait_ns", wait_ns as f64);
            wait_ns
        })
        .collect();
    // Progress watermark: the newest request id this worker has picked up.
    if let Some(max_id) = batch.iter().map(|r| r.id).max() {
        enhancenet_telemetry::gauge("serve.batch.last_request_id", max_id as f64);
    }
    Tensor::stack_into(batch.iter().map(|r| &r.window), batch_x);
    let started = Instant::now();
    match catch_unwind(AssertUnwindSafe(|| forward(batch_x, pred))) {
        Ok(()) => {
            let forward_ns = started.elapsed().as_nanos() as u64;
            enhancenet_telemetry::observe("serve.forward_ns", forward_ns as f64);
            for (i, request) in batch.into_iter().enumerate() {
                request.reply.send(Ok(BatchReply {
                    values: pred.index_axis(0, i),
                    queue_wait_ns: queue_waits[i],
                    forward_ns,
                }));
            }
        }
        Err(_) => {
            enhancenet_telemetry::count("serve.worker.panics", 1);
            for request in batch {
                request.reply.send(Err(EnhanceNetError::ServiceStopped));
            }
        }
    }
}

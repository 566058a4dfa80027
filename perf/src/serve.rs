//! Serving phases against a [`FleetService`]: fleet set-up, the open-loop
//! phases (one sender on an absolute schedule, one collector per worker
//! shard) and the closed-loop capacity phase (callers that each ingest a
//! row, then forecast).
//!
//! Replies are FIFO within a shard only, so a single collector waiting in
//! submission order would charge a request for its predecessors on the
//! other shard; one collector per shard times every reply when it lands.

use crate::trace::{self, Spans};
use crate::workload::{derive, Arrivals, Inputs, Workload};
use enhancenet::prelude::*;
use enhancenet_tensor::{Tensor, TensorRng};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Fleet shape, fixed whatever the host: two workers, batches of up to
/// eight, 256-deep queues.
pub const WORKERS: usize = 2;
const MAX_BATCH: usize = 8;
const QUEUE_CAPACITY: usize = 256;
/// Generous, so latency is measured rather than cut off; a reply later
/// than this counts as a failed request.
const DEADLINE: Duration = Duration::from_secs(2);
/// Closed-loop callers in the capacity phase: two per worker, so a worker
/// finishing a batch always finds the next request queued and the fleet,
/// not thread wake-up latency, sets the rate.
pub const CALLERS: usize = 2 * WORKERS;
/// One served forecast in this many is compared with offline `predict`.
const SAMPLE_EVERY: u64 = 50;
/// Distinct test-split windows the open-loop sender replays.
const POOL: usize = 64;

/// Absolute-cadence schedule: the k-th send is due at `start + k·period`
/// whatever happened before it, so a stall delays later sends (and is
/// charged to their latency) instead of shifting the schedule.
#[derive(Debug, Clone, Copy)]
pub struct Cadence {
    pub start: Instant,
    pub period: Duration,
}

impl Cadence {
    pub fn due(&self, k: u64) -> Instant {
        self.start + Duration::from_nanos((self.period.as_nanos() as u64).saturating_mul(k))
    }

    /// Calls `send(k, due)` at every due time before `end`, sleeping until
    /// each is due (a late call runs at once). Returns each call's
    /// lateness in ms.
    pub fn run(&self, end: Instant, mut send: impl FnMut(u64, Instant)) -> Vec<f64> {
        let mut lateness = Vec::new();
        let mut k = 0;
        loop {
            let due = self.due(k);
            if due >= end {
                return lateness;
            }
            sleep_until(due);
            lateness.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
            send(k, due);
            k += 1;
        }
    }
}

fn sleep_until(at: Instant) {
    if let Some(wait) = at.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What a served forecast is compared against after the run.
#[derive(Debug)]
pub enum ProbeInput {
    /// A pooled, already scaled test window starting at this index.
    Pooled(usize),
    /// A caller's raw window ending at data row `(offset + ts) mod T`.
    Rows { offset: usize, ts: i64 },
}

/// One sampled forecast: its input, the publish epochs it may have been
/// served under (submitted during `lo`, answered by `hi`), and the values.
#[derive(Debug)]
pub struct Probe {
    pub input: ProbeInput,
    pub epochs: (u64, u64),
    pub got: Tensor,
}

/// Everything one phase produced.
#[derive(Debug, Default)]
pub struct PhaseOut {
    /// Latency (ms) of each healthy forecast: from its due time in the
    /// open loop, of the whole ingest-and-forecast call in the closed loop.
    pub latency_ms: Vec<f64>,
    /// Sender lateness (ms) per burst, open loop only.
    pub lateness_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub healthy: u64,
    pub secs: f64,
    pub probes: Vec<Probe>,
    pub spans: Spans,
}

impl PhaseOut {
    /// Pools `other`'s samples and counts into this phase.
    pub fn absorb(&mut self, other: PhaseOut) {
        self.latency_ms.extend(other.latency_ms);
        self.lateness_ms.extend(other.lateness_ms);
        self.secs += other.secs;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.healthy += other.healthy;
        self.probes.extend(other.probes);
        self.spans.absorb(other.spans);
    }
}

/// A closed-loop caller: a fleet tenant replaying the series from its own
/// seeded offset.
struct Caller {
    name: String,
    offset: usize,
    ts: i64,
}

/// A spawned fleet plus the inputs the generator replays.
pub struct Served {
    pub fleet: FleetService,
    pool: Vec<(usize, Tensor)>,
    callers: Vec<Caller>,
}

/// Raw observation row `(offset + ts) mod T` as `N·C` values.
fn row(inputs: &Inputs, offset: usize, ts: i64) -> &[f32] {
    let raw = &inputs.data.raw;
    let (t, width) = (raw.shape()[0], raw.shape()[1] * raw.shape()[2]);
    let i = (offset + ts as usize) % t;
    &raw.data()[i * width..(i + 1) * width]
}

/// Spawns the fleet around `model`, builds the replay pool, and warms
/// every caller's window up to its first healthy forecast.
pub fn spawn(
    w: &Workload,
    inputs: &Inputs,
    model: Box<dyn Forecaster + Send>,
    seed: u64,
    spans: &mut Spans,
    group: u64,
) -> Served {
    let fleet = spans.time("serve.spawn", Some("setup"), group, || {
        ServeConfig::builder()
            .workers(WORKERS)
            .max_batch(MAX_BATCH)
            .queue_capacity(QUEUE_CAPACITY)
            .deadline(DEADLINE)
            .tenant_quota(TenantQuota::per_second(1e6))
            .spawn_fleet(model, inputs.data.scaler.clone())
            .expect("fleet config is valid and every host is plannable")
    });
    let data = &inputs.data;
    let mut rng = TensorRng::seed(derive(seed, 3));
    let test = data.split.test.clone();
    let pool = (0..POOL)
        .map(|_| {
            let start = test.start + rng.index(test.len());
            (start, data.input_window(start))
        })
        .collect();
    let h = data.h as i64;
    let callers = (0..CALLERS)
        .map(|i| {
            let caller = Caller {
                name: format!("caller-{i}"),
                offset: rng.index(data.raw.shape()[0]),
                ts: h,
            };
            spans.time("serve.warm", Some("setup"), group, || {
                let tenant = fleet.tenant(&caller.name);
                for ts in 0..h {
                    tenant.ingest_row(ts, row(inputs, caller.offset, ts)).expect("row is N*C");
                }
                let first = tenant.forecast().expect("a warm window forecasts");
                assert!(!first.is_degraded(), "{}: first forecast degraded", w.name);
            });
            caller
        })
        .collect();
    Served { fleet, pool, callers }
}

/// Submits two requests per worker at once, twice, and waits for every
/// reply, so each worker compiles its batch-of-two plan before any timed
/// phase: a plan compiled mid-phase stalls its worker for 0.1–0.7 s on the
/// large hosts.
pub fn warm_batches(served: &Served) -> PhaseOut {
    let fleet = &served.fleet;
    let mut out = PhaseOut::default();
    for _ in 0..2 {
        let windows = served.pool.iter().take(2 * fleet.workers());
        let pending: Vec<_> = windows.map(|(_, window)| fleet.submit(window)).collect();
        for p in pending {
            out.attempted += 1;
            match p.map(|p| p.wait(DEADLINE)) {
                Ok(Ok(_)) => out.healthy += 1,
                _ => out.failed += 1,
            }
        }
    }
    out
}

/// Hot-swap state of one pass: the weight sets that may be published and,
/// per epoch, which of them was live.
pub struct Swaps<'a> {
    pub sets: &'a [Box<dyn Forecaster + Send>],
    pub live: Vec<usize>,
}

impl Swaps<'_> {
    /// Publishes weight set `set` as the fleet's next epoch.
    pub fn publish(&mut self, fleet: &FleetService, set: usize) {
        fleet.publisher().publish(self.sets[set].store()).expect("same host, same layout");
        self.live.push(set);
    }
}

struct Sent {
    pending: PendingForecast,
    due: Instant,
    seq: u64,
    start: usize,
    epoch_lo: u64,
}

/// Open loop: `arrivals` for `secs`, latency timed from each request's due
/// time; with `swap_after`, the sender hot-swaps to the next weight set
/// once, that long into the phase.
pub fn open_loop(
    served: &Served,
    arrivals: Arrivals,
    secs: f64,
    seed: u64,
    swap_after: Option<Duration>,
    swaps: &mut Swaps<'_>,
    traced: bool,
) -> PhaseOut {
    let fleet = &served.fleet;
    let pool = &served.pool;
    let mut rng = TensorRng::seed(seed);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    let cadence = Cadence { start, period: arrivals.period };
    let mut swap_at = swap_after.map(|after| start + after);
    let mut out = PhaseOut { spans: Spans::new(traced), ..PhaseOut::default() };
    std::thread::scope(|scope| {
        let (senders, collectors): (Vec<_>, Vec<_>) = (0..fleet.workers())
            .map(|_| {
                let (tx, rx) = mpsc::channel::<Sent>();
                let epoch = fleet.publisher();
                (tx, scope.spawn(move || collect(rx, traced, move || epoch.epoch())))
            })
            .collect();
        let mut seq = 0u64;
        let publisher = fleet.publisher();
        let sender = &mut out;
        sender.lateness_ms = cadence.run(end, |_, due| {
            if let Some(at) = swap_at.filter(|at| due >= *at) {
                sleep_until(at);
                let set = swaps.live.len() % swaps.sets.len();
                sender
                    .spans
                    .time("serve.publish", None, trace::group(), || swaps.publish(fleet, set));
                swap_at = None;
            }
            for _ in 0..arrivals.burst {
                let (window_start, window) = &pool[rng.index(pool.len())];
                let epoch_lo = publisher.epoch();
                let t0 = Instant::now();
                sender.attempted += 1;
                match fleet.submit(window) {
                    Ok(pending) => {
                        let id = pending.request_id();
                        let submitted = Instant::now();
                        sender.spans.record(
                            "serve.submit",
                            Some("serve.request"),
                            id,
                            t0,
                            submitted,
                        );
                        let sent = Sent { pending, due, seq, start: *window_start, epoch_lo };
                        senders[id as usize % senders.len()]
                            .send(sent)
                            .expect("collector outlives the sender");
                    }
                    Err(_) => sender.failed += 1,
                }
                seq += 1;
            }
        });
        drop(senders);
        for collector in collectors {
            out.absorb(collector.join().expect("collector thread ran"));
        }
    });
    out.secs = start.elapsed().as_secs_f64();
    out
}

/// Waits for one shard's replies in order, timing each from its due time.
fn collect(rx: mpsc::Receiver<Sent>, traced: bool, epoch: impl Fn() -> u64) -> PhaseOut {
    let mut out = PhaseOut { spans: Spans::new(traced), ..PhaseOut::default() };
    let mut last = None;
    for sent in rx {
        let id = sent.pending.request_id();
        let waited = Instant::now();
        let reply = sent.pending.wait(DEADLINE);
        let done = Instant::now();
        out.spans.record("serve.wait", Some("serve.request"), id, waited, done);
        out.spans.record("serve.request", None, id, sent.due, done);
        let Ok(got) = reply else {
            out.failed += 1;
            continue;
        };
        out.healthy += 1;
        out.latency_ms.push(ms(done.duration_since(sent.due)));
        let probe =
            Probe { input: ProbeInput::Pooled(sent.start), epochs: (sent.epoch_lo, epoch()), got };
        if sent.seq % SAMPLE_EVERY == 0 {
            out.probes.push(probe);
        } else {
            last = Some(probe);
        }
    }
    out.probes.extend(last);
    out
}

/// Closed loop: each caller ingests its next row, then forecasts, until
/// `secs` have passed.
pub fn closed_loop(
    served: &mut Served,
    inputs: &Inputs,
    secs: f64,
    epoch: u64,
    traced: bool,
) -> PhaseOut {
    let fleet = &served.fleet;
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    let mut out = PhaseOut { spans: Spans::new(traced), ..PhaseOut::default() };
    std::thread::scope(|scope| {
        let callers: Vec<_> = served
            .callers
            .iter_mut()
            .map(|caller| {
                scope.spawn(move || call_until(fleet, inputs, caller, end, epoch, traced))
            })
            .collect();
        for caller in callers {
            out.absorb(caller.join().expect("caller thread ran"));
        }
    });
    out.secs = start.elapsed().as_secs_f64();
    out
}

fn call_until(
    fleet: &FleetService,
    inputs: &Inputs,
    caller: &mut Caller,
    end: Instant,
    epoch: u64,
    traced: bool,
) -> PhaseOut {
    let tenant = fleet.tenant(&caller.name);
    let mut out = PhaseOut { spans: Spans::new(traced), ..PhaseOut::default() };
    let mut last = None;
    // At least one call, so a zero-length phase still probes every caller.
    let mut first = true;
    while first || Instant::now() < end {
        first = false;
        let ts = caller.ts;
        caller.ts += 1;
        let t0 = Instant::now();
        tenant.ingest_row(ts, row(inputs, caller.offset, ts)).expect("row is N*C");
        let t1 = Instant::now();
        let forecast = tenant.forecast();
        let t2 = Instant::now();
        out.attempted += 1;
        let f = match forecast {
            Ok(f) if !f.is_degraded() => f,
            _ => {
                out.failed += 1;
                continue;
            }
        };
        out.healthy += 1;
        out.latency_ms.push(ms(t2.duration_since(t0)));
        if out.spans.on() {
            let id = f.request_id;
            let spans = &mut out.spans;
            spans.record("serve.call", None, id, t0, t2);
            spans.record("serve.ingest", Some("serve.call"), id, t0, t1);
            spans.record("serve.forecast", Some("serve.call"), id, t1, t2);
            let timing = f.timing;
            let forward = Duration::from_nanos(timing.forward_ns);
            spans.record_len("serve.forward", "serve.forecast", id, t2, forward);
            let queued = Duration::from_nanos(timing.queue_wait_ns);
            let dequeued = t2.checked_sub(forward).unwrap_or(t2);
            spans.record_len("serve.queue_wait", "serve.forecast", id, dequeued, queued);
        }
        let probe = Probe {
            input: ProbeInput::Rows { offset: caller.offset, ts },
            epochs: (epoch, epoch),
            got: f.values,
        };
        if out.healthy % SAMPLE_EVERY == 1 {
            out.probes.push(probe);
        } else {
            last = Some(probe);
        }
    }
    out.probes.extend(last);
    out
}

/// Compares every probe bitwise with offline `predict` on the weight set
/// that was live in one of its allowed epochs; returns the mismatches.
pub fn verify(
    probes: &[Probe],
    inputs: &Inputs,
    sets: &[Box<dyn Forecaster + Send>],
    live: &[usize],
) -> Vec<String> {
    let data = &inputs.data;
    let (h, n, c) = (data.h, data.num_entities(), data.num_features());
    let mut failures = Vec::new();
    for probe in probes {
        let expected_under = |set: usize| -> Tensor {
            let model = &sets[set];
            match probe.input {
                ProbeInput::Pooled(start) => {
                    model.predict(&data.input_window(start)).expect("pooled window fits the host")
                }
                ProbeInput::Rows { offset, ts } => {
                    let rows: Vec<f32> = (ts + 1 - h as i64..=ts)
                        .flat_map(|t| row(inputs, offset, t).iter().copied())
                        .collect();
                    let raw = Tensor::from_vec(rows, &[h, n, c]);
                    let scaled = data.scaler.transform(&raw).expect("raw window has C features");
                    let pred = model.predict(&scaled).expect("caller window fits the host");
                    data.scaler.inverse_feature(&pred, data.target_feature)
                }
            }
        };
        let (lo, hi) = probe.epochs;
        let matched = (lo..=hi).any(|e| {
            let expected = expected_under(live[e as usize]);
            expected.shape() == probe.got.shape()
                && expected
                    .data()
                    .iter()
                    .zip(probe.got.data())
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        });
        if !matched {
            failures.push(format!(
                "served forecast for {:?} matches no weight set live in epochs {lo}..={hi}",
                probe.input
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence_is_absolute_with_no_drift() {
        let start = Instant::now();
        let cadence = Cadence { start, period: Duration::from_nanos(333_333) };
        for k in [0u64, 1, 2, 3, 1_000, 999_999] {
            assert_eq!(cadence.due(k) - start, Duration::from_nanos(333_333 * k));
        }
        for k in 0..1_000u64 {
            assert_eq!(cadence.due(k + 1) - cadence.due(k), cadence.period);
        }
    }

    #[test]
    fn a_stall_delays_later_sends_without_shifting_the_schedule() {
        let period = Duration::from_millis(10);
        let cadence = Cadence { start: Instant::now(), period };
        let mut sent = Vec::new();
        let end = cadence.due(8);
        let lateness = cadence.run(end, |k, due| {
            sent.push((k, due, Instant::now()));
            if k == 2 {
                std::thread::sleep(Duration::from_millis(35));
            }
        });
        assert_eq!(sent.len(), 8);
        assert_eq!(lateness.len(), 8);
        for &(k, due, _) in &sent {
            assert_eq!(due, cadence.due(k), "send {k} kept its absolute due time");
        }
        // Sends 3-5 were due during the stall and go out late, at once.
        assert!(lateness[3] >= 20.0, "send 3 charged the stall: {:?}", lateness);
        // Later sends are back on the original grid, not shifted by it.
        let (_, due7, at7) = sent[7];
        assert!(at7 >= due7 && at7 < due7 + Duration::from_millis(8));
    }
}

//! Compiled inference plans: trace once, execute many.
//!
//! [`Plan::compile`] lowers one traced eval-mode forward (a [`Graph`] tape)
//! into a flat, topologically-ordered instruction list with static shapes
//! and a liveness-analyzed arena layout. The compiled plan is executed by
//! [`PlanExecutor`](crate::PlanExecutor) against preallocated buffers — no
//! tape, no per-node `Vec` growth, no output clone — while running each op's
//! one forward definition ([`Op`]'s `forward_into`, the call the tape made
//! when it recorded the node), so plan and tape outputs are bitwise
//! identical.
//!
//! # Folding
//!
//! A plan is a pure function of the store it was traced from. Exactly one
//! reachable leaf must be marked with [`Graph::input`]; a trace with none
//! (the model baked the window into constants) or several cannot be
//! replayed against fresh data and fails compilation. Every reachable node
//! with no path from that input — parameter leaves, trace constants, and
//! everything computed from them alone (DFGN filters, the DAMGN folds, and
//! their slices and reshapes) — is folded into a plan constant holding its
//! trace-time value. Only the nodes an input-dependent node reads are kept,
//! so the parameter-only interior never reaches the instruction list. This
//! is §VI-B4's "in the prediction phase, we do not need to use DFGN
//! anymore", made generic: whatever training has fixed is computed once,
//! at trace time.
//!
//! # Caching
//!
//! [`PlanCache`] keys compiled executors by `(input shape, store version)`.
//! Store versions are unique across the process, so a weight change makes
//! every cached plan for the old weights unreachable, and it is evicted on
//! the next insert. Models whose forward cannot be compiled (no marked
//! input) are remembered via the `unplannable` flag so the serving path
//! does not re-trace on every request just to fail again.

use crate::exec::PlanExecutor;
use crate::graph::{Graph, Var};
use crate::op::Op;
use crate::params::ParamStore;
use enhancenet_tensor::Tensor;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Where an instruction operand comes from at execution time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Src {
    /// An arena slot written by an earlier instruction.
    Slot(usize),
    /// A trace-time value folded into the plan.
    Const(usize),
    /// The per-request input tensor.
    Input,
}

/// One compiled operation: the tape [`Op`] tag, operand sources, the arena
/// slot receiving the result, and the statically-known output shape (used
/// to size the slot; the op itself carries everything its kernel reads).
#[derive(Debug, Clone)]
pub(crate) struct Instr {
    pub(crate) op: Op,
    pub(crate) srcs: Vec<Src>,
    pub(crate) dst: usize,
    pub(crate) out_shape: Vec<usize>,
}

/// A compiled inference plan; see the `plan` module docs for the lifecycle.
pub struct Plan {
    pub(crate) instrs: Vec<Instr>,
    pub(crate) consts: Vec<Tensor>,
    pub(crate) out: Src,
    /// Peak element count per arena slot, for preallocation.
    pub(crate) slot_numel: Vec<usize>,
    pub(crate) input_shape: Vec<usize>,
    pub(crate) output_shape: Vec<usize>,
    /// Store version the trace (and its folded constants) was taken at.
    pub(crate) version: u64,
}

/// Why a trace could not be lowered to a [`Plan`]. Structural — retracing
/// the same model will fail the same way, so callers cache the failure
/// ([`PlanCache::mark_unplannable`]) and keep using the tape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// No reachable leaf was marked with [`Graph::input`]; the request data
    /// is baked into trace-time constants and cannot be rebound.
    NoInput,
    /// More than one reachable input leaf; the single-input execute contract
    /// cannot rebind them unambiguously.
    MultipleInputs(usize),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::NoInput => {
                write!(f, "trace has no input-marked leaf; request data cannot be rebound")
            }
            PlanError::MultipleInputs(n) => {
                write!(f, "trace has {n} input-marked leaves; expected exactly one")
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl Plan {
    /// Lowers the traced forward ending at `output` into a plan.
    ///
    /// Walks the reachable subgraph in tape order (the tape is already
    /// topological), folds every node the input does not reach into a
    /// constant (see the module docs), assigns arena slots by liveness
    /// (last-use analysis with LIFO slot reuse), and records the version
    /// of `store`, the store the trace read its parameters from.
    pub fn compile(graph: &Graph, output: Var, store: &ParamStore) -> Result<Plan, PlanError> {
        let _timer = enhancenet_telemetry::span("plan.compile");
        let out_idx = output.0 as usize;
        let nodes = &graph.nodes[..=out_idx];

        // Reachability: which nodes feed the output.
        let mut reachable = vec![false; nodes.len()];
        reachable[out_idx] = true;
        for i in (0..nodes.len()).rev() {
            if reachable[i] {
                for &inp in &nodes[i].inputs {
                    reachable[inp.0 as usize] = true;
                }
            }
        }

        // Input dependence: a node is computed per request iff a path leads
        // to it from an input leaf. Everything else is folded.
        let mut live = vec![false; nodes.len()];
        let mut inputs_seen = 0usize;
        let mut input_shape: Vec<usize> = Vec::new();
        for &v in &graph.inputs {
            let i = v.0 as usize;
            if i < nodes.len() && reachable[i] {
                live[i] = true;
                inputs_seen += 1;
                input_shape = nodes[i].value.shape().to_vec();
            }
        }
        match inputs_seen {
            0 => return Err(PlanError::NoInput),
            1 => {}
            n => return Err(PlanError::MultipleInputs(n)),
        }
        for (i, node) in nodes.iter().enumerate() {
            if reachable[i] && !live[i] {
                live[i] = node.inputs.iter().any(|v| live[v.0 as usize]);
            }
        }

        // Lower the live nodes to instructions (sources still named by
        // instruction index; slots are assigned in the liveness pass
        // below). A folded node becomes one constant, however many
        // instructions read it.
        let mut instr_of: Vec<Option<usize>> = vec![None; nodes.len()];
        let mut const_of: Vec<Option<usize>> = vec![None; nodes.len()];
        let mut instrs: Vec<Instr> = Vec::new();
        let mut consts: Vec<Tensor> = Vec::new();
        let mut fold = |i: usize| {
            *const_of[i].get_or_insert_with(|| {
                consts.push(nodes[i].value.clone());
                consts.len() - 1
            })
        };
        for (i, node) in nodes.iter().enumerate() {
            if !live[i] || matches!(node.op, Op::Leaf) {
                continue;
            }
            let srcs = node
                .inputs
                .iter()
                .map(|v| {
                    let j = v.0 as usize;
                    match instr_of[j] {
                        Some(producer) => Src::Slot(producer), // rewritten below
                        None if live[j] => Src::Input,
                        None => Src::Const(fold(j)),
                    }
                })
                .collect();
            instrs.push(Instr {
                op: node.op.clone(),
                srcs,
                dst: usize::MAX,
                out_shape: node.value.shape().to_vec(),
            });
            instr_of[i] = Some(instrs.len() - 1);
        }

        // Liveness: the last instruction consuming each instruction's
        // result. The output lives past the end of the plan.
        let mut last_use = vec![0usize; instrs.len()];
        for (i, instr) in instrs.iter().enumerate() {
            for src in &instr.srcs {
                if let Src::Slot(producer) = src {
                    last_use[*producer] = i;
                }
            }
        }
        if let Some(out_instr) = instr_of[out_idx] {
            last_use[out_instr] = usize::MAX;
        }

        // Slot assignment: LIFO reuse of dead slots. The destination is
        // allocated *before* dying sources are released, so an `_into`
        // kernel can never see its output buffer aliased to an input.
        let mut slot_of_instr = vec![usize::MAX; instrs.len()];
        let mut slot_numel: Vec<usize> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        for i in 0..instrs.len() {
            let slot = free.pop().unwrap_or_else(|| {
                slot_numel.push(0);
                slot_numel.len() - 1
            });
            slot_of_instr[i] = slot;
            let numel: usize = instrs[i].out_shape.iter().product();
            slot_numel[slot] = slot_numel[slot].max(numel);
            // Rewrite instruction-index sources to slots, then release the
            // slots of sources dying here (each at most once).
            let mut dying: Vec<usize> = Vec::new();
            for src in &mut instrs[i].srcs {
                if let Src::Slot(producer) = src {
                    let s = slot_of_instr[*producer];
                    if last_use[*producer] == i && !dying.contains(&s) {
                        dying.push(s);
                    }
                    *src = Src::Slot(s);
                }
            }
            free.extend(dying);
        }
        for (i, instr) in instrs.iter_mut().enumerate() {
            instr.dst = slot_of_instr[i];
        }

        // The output is input-dependent (an input was found), so it is
        // either the input leaf itself or an instruction.
        let out = match instr_of[out_idx] {
            Some(out_instr) => Src::Slot(slot_of_instr[out_instr]),
            None => Src::Input,
        };
        let output_shape = nodes[out_idx].value.shape().to_vec();

        Ok(Plan {
            instrs,
            consts,
            out,
            slot_numel,
            input_shape,
            output_shape,
            version: store.version(),
        })
    }

    /// Shape the plan's input leaf was traced with.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Shape of the plan's output.
    pub fn output_shape(&self) -> &[usize] {
        &self.output_shape
    }

    /// Store version the plan was compiled against.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of compiled instructions.
    pub fn num_instrs(&self) -> usize {
        self.instrs.len()
    }

    /// Arena footprint in bytes: the sum of peak slot sizes.
    pub fn arena_bytes(&self) -> usize {
        self.slot_numel.iter().sum::<usize>() * std::mem::size_of::<f32>()
    }

    /// Bytes of folded trace-time constants the plan holds.
    pub fn const_bytes(&self) -> usize {
        self.consts.iter().map(Tensor::numel).sum::<usize>() * std::mem::size_of::<f32>()
    }

    /// The op of every instruction, in execution order, with its output
    /// shape: what a compile produced, independent of slot numbering.
    pub fn op_shapes(&self) -> Vec<(&'static str, &[usize])> {
        self.instrs.iter().map(|i| (i.op.label(), i.out_shape.as_slice())).collect()
    }
}

struct CacheEntry {
    input_shape: Vec<usize>,
    version: u64,
    exec: Arc<Mutex<PlanExecutor>>,
}

struct CacheInner {
    entries: Vec<CacheEntry>,
    unplannable: bool,
}

/// Per-model cache of compiled executors, keyed by `(input shape, store
/// version)`. Stored inside each model, behind a `Mutex` so `&self`
/// prediction paths can populate it.
pub struct PlanCache {
    inner: Mutex<CacheInner>,
}

/// Locks the cache, recovering the guard if a holder panicked: every update
/// of the entry list is one `retain` or `push`, so it is never left
/// half-done.
fn recover<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self { inner: Mutex::new(CacheInner { entries: Vec::new(), unplannable: false }) }
    }

    /// The cached executor for `(shape, version)`, if compiled. Counts
    /// `plan.cache.hits` / `plan.cache.misses`; the miss count excludes
    /// models already marked unplannable (those short-circuit in the
    /// caller via [`PlanCache::is_unplannable`]).
    pub fn lookup(&self, shape: &[usize], version: u64) -> Option<Arc<Mutex<PlanExecutor>>> {
        let inner = recover(&self.inner);
        let hit = inner
            .entries
            .iter()
            .find(|e| e.version == version && e.input_shape == shape)
            .map(|e| Arc::clone(&e.exec));
        if enhancenet_telemetry::enabled() {
            if hit.is_some() {
                enhancenet_telemetry::count("plan.cache.hits", 1);
            } else {
                enhancenet_telemetry::count("plan.cache.misses", 1);
            }
        }
        hit
    }

    /// Caches a freshly compiled executor, evicting every entry compiled
    /// against an older store version (a weight change makes them
    /// unreachable).
    pub fn insert(&self, exec: PlanExecutor) -> Arc<Mutex<PlanExecutor>> {
        let mut inner = recover(&self.inner);
        let version = exec.plan().version;
        let input_shape = exec.plan().input_shape.clone();
        inner.entries.retain(|e| e.version >= version);
        let exec = Arc::new(Mutex::new(exec));
        inner.entries.push(CacheEntry { input_shape, version, exec: Arc::clone(&exec) });
        exec
    }

    /// Records that this model's trace cannot be compiled; future requests
    /// skip tracing and go straight to the tape.
    pub fn mark_unplannable(&self) {
        recover(&self.inner).unplannable = true;
    }

    /// True when a previous compile failed structurally.
    pub fn is_unplannable(&self) -> bool {
        recover(&self.inner).unplannable
    }

    /// Number of live cached plans (test hook).
    pub fn entry_count(&self) -> usize {
        recover(&self.inner).entries.len()
    }
}

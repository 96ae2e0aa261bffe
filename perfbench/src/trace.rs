//! A minimal span tracer for the traced replay: every call into a layer
//! is one span, and a layer's self time is the span's duration minus the
//! time its child spans cover. Probes — the benchmark's own bookkeeping
//! between calls — are timed apart and belong to no layer.

use std::time::Instant;

/// The layers of the serving path, named by the module that owns the
/// timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `h2p_serve::loadgen::generate_arrivals` and the run's trace id.
    Loadgen,
    /// The admission decision of one arrival (`serve::admission` token
    /// buckets plus the depth and deadline checks against the queue).
    Admission,
    /// `AdmitQueue::shed_expired` and `AdmitQueue::pop_batch`.
    Queue,
    /// `hetero2pipe::batching::coalesce`.
    Coalesce,
    /// `hetero2pipe::batching::graphs_for_groups`.
    Graphs,
    /// `OnlinePlanner::plan_incremental` (window cache plus planner).
    Online,
    /// `hetero2pipe::executor::lower`.
    Lower,
    /// `LoweredPlan::execute`: the contention simulator.
    Engine,
    /// Chaos execution through `hetero2pipe::recovery`.
    Recovery,
    /// `LifecycleLog::record` on the serve loop's lifecycle stream.
    Lifecycle,
    /// Record assembly, tally, `LatencyProfile`, `SloSummary` and
    /// `ServeReport::verify_invariants`.
    Report,
}

impl Layer {
    pub const COUNT: usize = 11;
}

/// Accumulated self time and call count per layer.
#[derive(Debug, Clone)]
pub struct Tracer {
    self_ns: [u64; Layer::COUNT],
    calls: [u64; Layer::COUNT],
    probe_ns: u64,
    /// Open spans: layer, start instant, time covered by children.
    stack: Vec<(Layer, Instant, u64)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            self_ns: [0; Layer::COUNT],
            calls: [0; Layer::COUNT],
            probe_ns: 0,
            stack: Vec::with_capacity(4),
        }
    }
}

impl Tracer {
    /// Opens a span of `layer`; spans opened before the matching
    /// [`Tracer::exit`] are its children.
    pub fn enter(&mut self, layer: Layer) {
        self.stack.push((layer, Instant::now(), 0));
    }

    /// Closes the innermost span and returns its self time in ns.
    pub fn exit(&mut self) -> u64 {
        let Some((layer, start, children)) = self.stack.pop() else {
            unreachable!("span stack underflow")
        };
        let total = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let own = total.saturating_sub(children);
        self.self_ns[layer as usize] += own;
        self.calls[layer as usize] += 1;
        if let Some(parent) = self.stack.last_mut() {
            parent.2 += total;
        }
        own
    }

    /// Runs the leaf call `f` inside a span of `layer`; returns its result
    /// and self time in ns.
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> (R, u64) {
        self.enter(layer);
        let out = f();
        (out, self.exit())
    }

    /// [`Tracer::span`] without the self time.
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.span(layer, f).0
    }

    /// Runs the benchmark's own bookkeeping `f`; its time is charged to
    /// no layer and is excluded from the enclosing span.
    pub fn probe<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let total = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.probe_ns += total;
        if let Some(parent) = self.stack.last_mut() {
            parent.2 += total;
        }
        out
    }

    /// Time spent in probes, ms.
    pub fn probe_ms(&self) -> f64 {
        self.probe_ns as f64 / 1e6
    }

    pub fn self_ms(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 / 1e6
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Self time summed over every layer, ms.
    pub fn attributed_ms(&self) -> f64 {
        self.self_ns.iter().sum::<u64>() as f64 / 1e6
    }
}

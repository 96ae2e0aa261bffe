//! The traced replay of `Server::run`.
//!
//! `Server::run`'s loop is private, so this module rebuilds it from the
//! same public pieces in the same order — `generate_arrivals`,
//! `AdmissionControl`, `AdmitQueue`, `coalesce`, `graphs_for_groups`,
//! `OnlinePlanner::plan_incremental`, `lower`, `LoweredPlan::execute`,
//! `run_with_recovery` — and wraps each call in a [`Tracer`] span. The
//! planner and calibration are built exactly as `Server::new` builds
//! them. Every traced run is compared against `Server::run` at the same
//! configuration (outcome tally, dispatch count, horizon, records and
//! lifecycle JSONL), so a replay that drifts from the real loop fails
//! the benchmark instead of timing the wrong code.

use h2p_models::graph::ModelGraph;
use h2p_models::zoo::ModelId;
use h2p_serve::{
    class_index, generate_arrivals, AdmissionControl, AdmitQueue, Arrival, Calibration,
    OutcomeCounts, QueuedRequest, RejectReason, RequestRecord, ServeConfig, ServeOutcome,
    ServeReport,
};
use h2p_simulator::processor::ProcessorId;
use h2p_simulator::soc::SocSpec;
use h2p_telemetry::analytics::{LatencyProfile, SloEntry, SloSummary};
use h2p_telemetry::lifecycle::{LifecycleLog, LifecycleStage, RequestId, TraceId};
use hetero2pipe::batching::{coalesce, graphs_for_groups};
use hetero2pipe::error::PlanError;
use hetero2pipe::executor::lower;
use hetero2pipe::online::OnlinePlanner;
use hetero2pipe::planner::Planner;
use hetero2pipe::recovery::{chaos_faults, run_with_recovery, RecoveryOutcome};

use crate::trace::{Layer, Tracer};

/// Same tolerance `Server::run` compares latencies against deadlines with.
const DEADLINE_EPS: f64 = 1e-9;
/// The planner's counter of windows planned afresh by `plan_incremental`.
pub const WINDOW_MISSES: &str = "online.window_cache.misses";

/// Counters and virtual-time samples the replay gathers beside the
/// tracer's self times.
#[derive(Debug, Default)]
pub struct LayerStats {
    pub admitted: usize,
    /// Predicted latency (`busy_wait + backlog_solo + solo`) per request
    /// id, for admitted requests.
    pub predicted_ms: Vec<Option<f64>>,
    /// |predicted − actual latency| per completed admitted request.
    pub pred_err_ms: Vec<f64>,
    pub shed_calls: usize,
    pub shed_count: usize,
    /// Virtual wait from arrival to first dispatch, per dispatched request.
    pub wait_ms: Vec<f64>,
    pub graphs_ns: u64,
    pub groups: usize,
    pub batched_requests: usize,
    pub coalesced_requests: usize,
    pub online_hit_ns: u64,
    pub online_miss_ns: u64,
    /// Self time of each `plan_incremental` call, in call order.
    pub online_call_ns: Vec<u64>,
    pub tasks: usize,
    pub engine_spans: usize,
    pub slowdown_sum: f64,
    pub busy_ms: f64,
    pub capacity_ms: f64,
    pub recovery_rounds: usize,
    pub dispatch_retries: usize,
    pub degraded: usize,
}

/// Outcome of executing one dispatched batch group.
enum GroupResult {
    Done { latency_ms: f64 },
    Failed { reason: String },
}

fn set_outcome(
    outcomes: &mut [Option<ServeOutcome>],
    anomalies: &mut Vec<String>,
    id: usize,
    outcome: ServeOutcome,
) {
    match outcomes.get_mut(id) {
        Some(slot @ None) => *slot = Some(outcome),
        Some(Some(prev)) => anomalies.push(format!(
            "request {id} received a second terminal outcome {} after {}",
            outcome.kind(),
            prev.kind()
        )),
        None => anomalies.push(format!("terminal outcome for unknown request {id}")),
    }
}

/// `OutcomeCounts::tally`, which is private to `h2p-serve`.
fn tally(records: &[RequestRecord]) -> OutcomeCounts {
    let mut c = OutcomeCounts::default();
    for r in records {
        match &r.outcome {
            ServeOutcome::Complete { .. } => c.complete += 1,
            ServeOutcome::TimedOut { .. } => c.timed_out += 1,
            ServeOutcome::Degraded { .. } => c.degraded += 1,
            ServeOutcome::Rejected { reason } => match reason {
                RejectReason::QueueFull => c.rejected_queue_full += 1,
                RejectReason::DeadlineInfeasible => c.rejected_deadline_infeasible += 1,
                RejectReason::Shedding => c.rejected_shedding += 1,
            },
            ServeOutcome::Shed { .. } => c.shed += 1,
        }
    }
    c
}

/// Mutable state of one replayed run, threaded through the helpers.
struct RunState<'a> {
    tr: &'a mut Tracer,
    stats: &'a mut LayerStats,
    lifecycle: LifecycleLog,
    trace: TraceId,
    outcomes: Vec<Option<ServeOutcome>>,
    anomalies: Vec<String>,
    max_dispatch_retries: usize,
}

impl RunState<'_> {
    fn record(&mut self, id: usize, at_ms: f64, stage: LifecycleStage) {
        let (lifecycle, trace) = (&self.lifecycle, self.trace);
        self.tr.time(Layer::Lifecycle, || {
            lifecycle.record(trace, RequestId(id), at_ms, stage)
        });
    }
}

/// A traced copy of `h2p_serve::Server`.
pub struct Replay {
    online: OnlinePlanner,
    calibration: Calibration,
    window: usize,
}

impl Replay {
    /// Builds the planner and calibration exactly as `Server::new` does.
    pub fn new(soc: &SocSpec, window: usize) -> Result<Self, PlanError> {
        let window = window.max(1);
        let online = OnlinePlanner::new(Planner::new(soc)?, window);
        let mut calibration = Calibration::new(soc);
        for id in ModelId::ALL {
            let planned = online.plan_incremental(&[id.graph()])?;
            let exec = planned.execute(soc)?;
            calibration.refine_solo(id, exec.makespan_ms);
        }
        Ok(Replay {
            online,
            calibration,
            window,
        })
    }

    pub fn online(&self) -> &OnlinePlanner {
        &self.online
    }

    /// `Server::run`, with every layer call inside a tracer span. Also
    /// returns `verify_invariants()`, which the report span times.
    pub fn run(
        &self,
        cfg: &ServeConfig,
        tr: &mut Tracer,
        stats: &mut LayerStats,
    ) -> Result<(ServeReport, Vec<String>), PlanError> {
        let (arrivals, trace) = tr.time(Layer::Loadgen, || {
            let arrivals = generate_arrivals(cfg.seed, cfg.qps, cfg.requests);
            let trace = TraceId::of_names(arrivals.iter().map(|a| a.model.name()));
            (arrivals, trace)
        });
        let mut admission = AdmissionControl::new(&self.calibration, self.window, cfg.slo_budget);
        let queue = AdmitQueue::new(admission.limits());
        stats.predicted_ms = vec![None; arrivals.len()];
        let mut st = RunState {
            tr,
            stats,
            lifecycle: LifecycleLog::new(),
            trace,
            outcomes: vec![None; arrivals.len()],
            anomalies: Vec::new(),
            max_dispatch_retries: 0,
        };

        let mut idle_at = 0.0f64;
        let mut next = 0usize;
        let mut dispatches = 0usize;

        while next < arrivals.len() || !queue.is_empty() {
            while next < arrivals.len() && arrivals[next].arrival_ms <= idle_at {
                st.tr.enter(Layer::Admission);
                self.admit(&arrivals[next], idle_at, &mut admission, &queue, &mut st);
                st.tr.exit();
                next += 1;
            }
            if queue.is_empty() {
                let Some(a) = arrivals.get(next) else { break };
                idle_at = a.arrival_ms;
                continue;
            }
            let now = idle_at;
            let shed = st.tr.time(Layer::Queue, || queue.shed_expired(now));
            st.stats.shed_calls += 1;
            st.stats.shed_count += shed.len();
            for q in shed {
                st.record(
                    q.id,
                    now,
                    LifecycleStage::Shed {
                        reason: "slack_below_solo".to_owned(),
                    },
                );
                set_outcome(
                    &mut st.outcomes,
                    &mut st.anomalies,
                    q.id,
                    ServeOutcome::Shed {
                        waited_ms: now - q.arrival_ms,
                    },
                );
            }
            let batch = st.tr.time(Layer::Queue, || queue.pop_batch(self.window));
            if batch.is_empty() {
                continue;
            }
            dispatches += 1;
            idle_at = self.dispatch(&batch, now, cfg, dispatches, &mut st)?;
        }

        let RunState {
            tr,
            lifecycle,
            trace,
            outcomes,
            mut anomalies,
            max_dispatch_retries,
            ..
        } = st;
        let report = tr.time(Layer::Report, || {
            let (max_queue_depth, max_class_depth) = queue.high_water();
            let records: Vec<RequestRecord> = arrivals
                .iter()
                .zip(outcomes)
                .map(|(a, o)| {
                    let outcome = match o {
                        Some(o) => o,
                        None => {
                            anomalies.push(format!("request {} has no terminal outcome", a.id));
                            ServeOutcome::Degraded {
                                reason: "unaccounted".to_owned(),
                            }
                        }
                    };
                    RequestRecord {
                        id: a.id,
                        model: a.model,
                        class: self.calibration.class(a.model),
                        arrival_ms: a.arrival_ms,
                        solo_ms: self.calibration.solo_ms(a.model),
                        deadline_ms: self.calibration.deadline_ms(a.model),
                        outcome,
                    }
                })
                .collect();
            let counts = tally(&records);
            let served: Vec<f64> = records
                .iter()
                .filter_map(|r| match &r.outcome {
                    ServeOutcome::Complete { latency_ms }
                    | ServeOutcome::TimedOut { latency_ms, .. } => Some(*latency_ms),
                    _ => None,
                })
                .collect();
            let slo_entries: Vec<SloEntry> = records
                .iter()
                .filter_map(|r| match &r.outcome {
                    ServeOutcome::Rejected { .. } => None,
                    ServeOutcome::Complete { latency_ms }
                    | ServeOutcome::TimedOut { latency_ms, .. } => Some(SloEntry {
                        class: r.class,
                        latency_ms: Some(*latency_ms),
                        deadline_ms: Some(r.deadline_ms),
                    }),
                    ServeOutcome::Degraded { .. } | ServeOutcome::Shed { .. } => Some(SloEntry {
                        class: r.class,
                        latency_ms: None,
                        deadline_ms: Some(r.deadline_ms),
                    }),
                })
                .collect();
            let events = lifecycle.records();
            let horizon_ms = events
                .iter()
                .map(|e| e.at_ms)
                .fold(0.0f64, f64::max)
                .max(arrivals.last().map_or(0.0, |a| a.arrival_ms));
            let served_per_sec = if horizon_ms > 0.0 {
                served.len() as f64 / (horizon_ms / 1000.0)
            } else {
                0.0
            };
            let report = ServeReport {
                qps: cfg.qps,
                seed: cfg.seed,
                chaos: cfg.chaos,
                window: self.window,
                trace,
                counts,
                latency: LatencyProfile::compute(&served),
                slo: SloSummary::compute(&slo_entries, cfg.slo_budget),
                queue_limits: queue.limits(),
                max_queue_depth,
                max_class_depth,
                max_dispatch_retries,
                retry_limit: cfg.policy.max_retries,
                dispatches,
                horizon_ms,
                served_per_sec,
                lifecycle: events,
                anomalies,
                records,
            };
            let violations = report.verify_invariants();
            (report, violations)
        });
        Ok(report)
    }

    /// `Server::admit`. Runs inside the caller's admission span.
    fn admit(
        &self,
        a: &Arrival,
        idle_at: f64,
        admission: &mut AdmissionControl,
        queue: &AdmitQueue,
        st: &mut RunState<'_>,
    ) {
        let now = a.arrival_ms;
        let class = self.calibration.class(a.model);
        let solo = self.calibration.solo_ms(a.model);
        let deadline = self.calibration.deadline_ms(a.model);
        let reject = |reason: RejectReason, st: &mut RunState<'_>| {
            st.record(
                a.id,
                now,
                LifecycleStage::Reject {
                    reason: reason.name().to_owned(),
                },
            );
            set_outcome(
                &mut st.outcomes,
                &mut st.anomalies,
                a.id,
                ServeOutcome::Rejected { reason },
            );
        };
        if queue.class_depth(class) >= queue.limits()[class_index(class)] {
            reject(RejectReason::QueueFull, st);
            return;
        }
        let busy_wait = (idle_at - now).max(0.0);
        let predicted = busy_wait + queue.backlog_solo_ms() + solo;
        if predicted > deadline {
            reject(RejectReason::DeadlineInfeasible, st);
            return;
        }
        if !admission.try_take_token(class, now) {
            reject(RejectReason::Shedding, st);
            return;
        }
        match queue.try_admit(QueuedRequest {
            id: a.id,
            model: a.model,
            class,
            arrival_ms: now,
            solo_ms: solo,
            deadline_ms: deadline,
        }) {
            Ok(()) => {
                st.stats.admitted += 1;
                st.stats.predicted_ms[a.id] = Some(predicted);
                st.record(a.id, now, LifecycleStage::Admit);
            }
            Err(_) => reject(RejectReason::QueueFull, st),
        }
    }

    /// `Server::dispatch`.
    fn dispatch(
        &self,
        batch: &[QueuedRequest],
        start0: f64,
        cfg: &ServeConfig,
        dispatch_idx: usize,
        st: &mut RunState<'_>,
    ) -> Result<f64, PlanError> {
        let ids: Vec<ModelId> = batch.iter().map(|q| q.model).collect();
        let groups = st
            .tr
            .time(Layer::Coalesce, || coalesce(&ids, cfg.max_batch));
        let (graphs, graphs_ns) = st.tr.span(Layer::Graphs, || graphs_for_groups(&groups));
        st.stats.graphs_ns += graphs_ns;
        st.stats.groups += groups.len();
        st.stats.batched_requests += batch.len();
        st.stats.coalesced_requests += groups
            .iter()
            .filter(|g| g.batch > 1)
            .map(|g| g.batch as usize)
            .sum::<usize>();
        for q in batch {
            st.stats.wait_ms.push(start0 - q.arrival_ms);
            st.record(q.id, start0, LifecycleStage::Plan);
            st.record(
                q.id,
                start0,
                LifecycleStage::Window {
                    window: dispatch_idx,
                },
            );
        }
        let mut attempt = 0usize;
        let mut start = start0;
        loop {
            let executed = if cfg.chaos {
                self.execute_chaos(&graphs, cfg, dispatch_idx, st)
            } else {
                self.execute_planned(&graphs, st)
            };
            match executed {
                Ok((results, busy_ms)) => {
                    let mut member = 0usize;
                    for (group, result) in groups.iter().zip(&results) {
                        for _ in 0..group.batch {
                            let q = &batch[member];
                            member += 1;
                            st.record(q.id, start, LifecycleStage::Execute);
                            match result {
                                GroupResult::Done { latency_ms } => {
                                    let finish = start + latency_ms;
                                    let e2e = finish - q.arrival_ms;
                                    st.record(
                                        q.id,
                                        finish,
                                        LifecycleStage::Complete { latency_ms: e2e },
                                    );
                                    if let Some(Some(p)) = st.stats.predicted_ms.get(q.id) {
                                        let err = (p - e2e).abs();
                                        st.stats.pred_err_ms.push(err);
                                    }
                                    let outcome = if e2e > q.deadline_ms + DEADLINE_EPS {
                                        ServeOutcome::TimedOut {
                                            latency_ms: e2e,
                                            deadline_ms: q.deadline_ms,
                                        }
                                    } else {
                                        ServeOutcome::Complete { latency_ms: e2e }
                                    };
                                    set_outcome(&mut st.outcomes, &mut st.anomalies, q.id, outcome);
                                }
                                GroupResult::Failed { reason } => {
                                    st.stats.degraded += 1;
                                    st.record(
                                        q.id,
                                        start + busy_ms,
                                        LifecycleStage::Degrade {
                                            reason: reason.clone(),
                                        },
                                    );
                                    set_outcome(
                                        &mut st.outcomes,
                                        &mut st.anomalies,
                                        q.id,
                                        ServeOutcome::Degraded {
                                            reason: reason.clone(),
                                        },
                                    );
                                }
                            }
                        }
                    }
                    return Ok(start + busy_ms);
                }
                Err(_) if attempt < cfg.policy.max_retries => {
                    attempt += 1;
                    st.stats.dispatch_retries += 1;
                    st.max_dispatch_retries = st.max_dispatch_retries.max(attempt);
                    let delay = cfg.policy.backoff_ms(attempt);
                    for q in batch {
                        st.record(q.id, start, LifecycleStage::Recover { round: attempt });
                    }
                    start += delay;
                }
                Err(e) => {
                    let reason = format!("dispatch_failed: {e}");
                    for q in batch {
                        st.stats.degraded += 1;
                        st.record(
                            q.id,
                            start,
                            LifecycleStage::Degrade {
                                reason: reason.clone(),
                            },
                        );
                        set_outcome(
                            &mut st.outcomes,
                            &mut st.anomalies,
                            q.id,
                            ServeOutcome::Degraded {
                                reason: reason.clone(),
                            },
                        );
                    }
                    return Ok(start);
                }
            }
        }
    }

    /// `Server::execute_planned`, split into plan, lower and simulate.
    fn execute_planned(
        &self,
        graphs: &[ModelGraph],
        st: &mut RunState<'_>,
    ) -> Result<(Vec<GroupResult>, f64), PlanError> {
        // A call is a hit when it planned no window afresh, as the
        // planner's own miss counter tells.
        let metrics = &self.online.planner().telemetry().metrics;
        let misses =
            |tr: &mut Tracer| tr.probe(|| metrics.snapshot().counter(WINDOW_MISSES).unwrap_or(0));
        let misses_before = misses(st.tr);
        let (planned, ns) = st
            .tr
            .span(Layer::Online, || self.online.plan_incremental(graphs));
        st.stats.online_call_ns.push(ns);
        if misses(st.tr) == misses_before {
            st.stats.online_hit_ns += ns;
        } else {
            st.stats.online_miss_ns += ns;
        }
        let planned = planned?;
        let soc = self.online.planner().soc();
        let lowered = st.tr.time(Layer::Lower, || lower(&planned.plan, soc))?;
        st.stats.tasks += lowered.simulation().tasks().len();
        let exec = st.tr.time(Layer::Engine, || lowered.execute())?;
        let trace = &exec.trace;
        st.stats.engine_spans += trace.spans.len();
        st.stats.slowdown_sum += trace.spans.iter().map(|s| s.slowdown()).sum::<f64>();
        st.stats.busy_ms += (0..trace.processor_count)
            .map(|p| trace.busy_ms(ProcessorId(p)))
            .sum::<f64>();
        st.stats.capacity_ms += exec.makespan_ms * trace.processor_count as f64;
        let results = exec
            .request_latency_ms
            .iter()
            .map(|&l| GroupResult::Done { latency_ms: l })
            .collect();
        Ok((results, exec.makespan_ms))
    }

    /// `Server::execute_chaos`, timed as one recovery span.
    fn execute_chaos(
        &self,
        graphs: &[ModelGraph],
        cfg: &ServeConfig,
        dispatch_idx: usize,
        st: &mut RunState<'_>,
    ) -> Result<(Vec<GroupResult>, f64), PlanError> {
        let planner = self.online.planner();
        let out = st.tr.time(Layer::Recovery, || {
            let fault_seed = cfg
                .seed
                .wrapping_add((dispatch_idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let faults = chaos_faults(planner.soc(), graphs.len(), fault_seed);
            let telemetry = planner.telemetry();
            telemetry.lifecycle.clear();
            let report = run_with_recovery(planner, graphs, &faults, &cfg.policy)?;
            let mut group_latency: Vec<Option<f64>> = vec![None; graphs.len()];
            for e in telemetry.lifecycle.records() {
                if let LifecycleStage::Complete { latency_ms } = e.stage {
                    if let Some(slot) = group_latency.get_mut(e.request.0) {
                        *slot = Some(latency_ms);
                    }
                }
            }
            let reason = match &report.outcome {
                RecoveryOutcome::Recovered => "recovery_incomplete".to_owned(),
                RecoveryOutcome::Degraded(e) => format!("{e}"),
            };
            let results: Vec<GroupResult> = report
                .completed
                .iter()
                .zip(&group_latency)
                .map(|(&done, latency)| {
                    if done {
                        GroupResult::Done {
                            latency_ms: latency.unwrap_or(report.elapsed_ms),
                        }
                    } else {
                        GroupResult::Failed {
                            reason: reason.clone(),
                        }
                    }
                })
                .collect();
            Ok::<_, PlanError>((results, report.elapsed_ms.max(0.0), report.rounds.len()))
        });
        let (results, busy, rounds) = out?;
        st.stats.recovery_rounds += rounds;
        Ok((results, busy))
    }
}

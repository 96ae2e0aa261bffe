//! Serve-path benchmark: plays one seeded open-loop workload
//! through `h2p_serve::Server` (untraced, `--trace 0`) or through the
//! traced replay of its loop (`--trace 1`) for a fixed wall-clock
//! budget, checks correctness and determinism, and prints one JSON
//! line of raw samples for `perfbench/run.py` to summarise.
//!
//! ```text
//! h2p-perfbench --workload steady --seed 1 --seconds 10 --trace 0
//! ```

mod replay;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use h2p_serve::{ServeConfig, ServeReport, Server};
use h2p_simulator::soc::SocSpec;
use h2p_telemetry::analytics::LatencyProfile;
use hetero2pipe::planner::PlannerConfig;

use replay::{LayerStats, Replay, WINDOW_MISSES};
use trace::{Layer, Tracer};

/// Dispatch window and batching cap of every workload.
const WINDOW: usize = 4;
const MAX_BATCH: u32 = 8;
/// Fewest measured repetitions per run, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// `Server::new` calls timed per untraced repetition for `setup_s`. Each
/// server is dropped before the next is made.
const SETUPS_PER_REP: usize = 8;
/// The traced run fails when layer self times cover less than this
/// share of its wall time.
const ATTRIBUTED_SHARE_MIN: f64 = 0.80;

/// One open-loop workload on Kirin 990. `prefix` is the short stream
/// `per_req_cost_ratio` compares the full stream against; each untraced
/// repetition runs it `prefix_runs` times (odd, so the median is a run).
/// `fans_out` says whether the loop's time depends on the planner's
/// worker threads: on `saturation` a third of it is fresh plans, and
/// `chaos` re-plans every dispatch; `steady` and `overload` serve 98% or
/// more of their windows from the cache on the serving thread alone.
struct Workload {
    name: &'static str,
    qps: f64,
    requests: usize,
    prefix: usize,
    prefix_runs: usize,
    fans_out: bool,
    chaos: bool,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "steady",
        qps: 1.1,
        requests: 16_000,
        prefix: 2_000,
        prefix_runs: 3,
        fans_out: false,
        chaos: false,
    },
    Workload {
        name: "saturation",
        qps: 4.0,
        requests: 16_000,
        prefix: 2_000,
        prefix_runs: 3,
        fans_out: true,
        chaos: false,
    },
    Workload {
        name: "overload",
        qps: 20.0,
        requests: 160_000,
        prefix: 20_000,
        prefix_runs: 3,
        fans_out: false,
        chaos: false,
    },
    Workload {
        name: "chaos",
        qps: 2.0,
        // Fault severity varies from dispatch to dispatch, so a short
        // prefix's cost per request says more about its faults than about
        // retention; half the stream averages enough dispatches.
        requests: 16_000,
        prefix: 8_000,
        prefix_runs: 1,
        fans_out: true,
        chaos: true,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds {value}"))?,
                );
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over the run's lifecycle JSONL.
fn lifecycle_digest(report: &ServeReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for line in report.json_event_lines() {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Everything virtual-time about a run that must repeat bit for bit.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    counts: h2p_serve::OutcomeCounts,
    dispatches: usize,
    horizon_bits: u64,
    lifecycle: u64,
}

impl Fingerprint {
    fn of(report: &ServeReport) -> Self {
        Fingerprint {
            counts: report.counts,
            dispatches: report.dispatches,
            horizon_bits: report.horizon_ms.to_bits(),
            lifecycle: lifecycle_digest(report),
        }
    }
}

/// The virtual-time end-to-end metrics of one run, plus the
/// informational rates they are derived beside.
fn virtual_metrics(r: &ServeReport) -> Vec<(&'static str, f64)> {
    let c = &r.counts;
    let generated = r.records.len() as f64;
    let admitted = (c.complete + c.timed_out + c.degraded + c.shed) as f64;
    let served = (c.complete + c.timed_out) as f64;
    let horizon_s = r.horizon_ms / 1000.0;
    let (mean, p50, p99) = r
        .latency
        .as_ref()
        .map_or((0.0, 0.0, 0.0), |l| (l.mean_ms, l.p50_ms, l.p99_ms));
    vec![
        ("goodput_rps", c.complete as f64 / horizon_s),
        ("served_rps", served / horizon_s),
        ("latency_mean_ms", mean),
        ("latency_p99_ms", p99),
        ("on_time_share", c.complete as f64 / generated),
        ("admitted_on_time_share", c.complete as f64 / admitted),
        ("admit_share", admitted / generated),
        ("latency_samples", served),
        ("latency_p50_ms", p50),
        ("horizon_s", horizon_s),
        ("reject_rate", c.rejected() as f64 / generated),
        ("admitted_miss_rate", c.deadline_miss_rate()),
    ]
}

/// The fields `h2p serve --json` prints, formatted the way it prints
/// them, so `run.py` can compare the two byte for byte.
fn cli_view(r: &ServeReport) -> String {
    let c = &r.counts;
    let (p50, p99) = r
        .latency
        .as_ref()
        .map_or(("null".to_owned(), "null".to_owned()), |l| {
            (format!("{:.3}", l.p50_ms), format!("{:.3}", l.p99_ms))
        });
    format!(
        "{{\"complete\":{},\"timed_out\":{},\"degraded\":{},\
         \"rejected\":{{\"queue_full\":{},\"deadline_infeasible\":{},\"shedding\":{}}},\
         \"shed\":{},\"p50_ms\":{p50},\"p99_ms\":{p99},\"served_per_sec\":{:.3},\
         \"dispatches\":{},\"violations\":0}}",
        c.complete,
        c.timed_out,
        c.degraded,
        c.rejected_queue_full,
        c.rejected_deadline_infeasible,
        c.rejected_shedding,
        c.shed,
        r.served_per_sec,
        r.dispatches,
    )
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Per-metric sample lists in first-seen order.
#[derive(Default)]
struct Samples {
    order: Vec<&'static str>,
    values: BTreeMap<&'static str, Vec<f64>>,
}

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.values
            .entry(name)
            .or_insert_with(|| {
                self.order.push(name);
                Vec::new()
            })
            .push(value);
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .order
            .iter()
            .map(|name| {
                let xs: Vec<String> = self.values[name].iter().map(|&x| json_num(x)).collect();
                format!("{}:[{}]", json_str(name), xs.join(","))
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

struct Outcome {
    samples: Samples,
    values: Vec<(&'static str, f64)>,
    cli_view: String,
    attempted: usize,
    reps: usize,
}

fn config(w: &Workload, seed: u64, requests: usize) -> ServeConfig {
    ServeConfig {
        qps: w.qps,
        requests,
        seed,
        max_batch: MAX_BATCH,
        chaos: w.chaos,
        ..ServeConfig::default()
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The first repetition's results, which every later one must repeat.
/// Only these are kept, so no report outlives its repetition.
struct First {
    print: Fingerprint,
    values: Vec<(&'static str, f64)>,
    cli_view: String,
}

/// Keeps the first repetition's results, or checks a later one against
/// them.
fn check_repeat(
    first: &mut Option<First>,
    report: &ServeReport,
    what: &str,
    errors: &mut Vec<String>,
) {
    let print = Fingerprint::of(report);
    match first {
        None => {
            *first = Some(First {
                values: virtual_metrics(report),
                cli_view: cli_view(report),
                print,
            });
        }
        Some(f) if f.print != print => errors.push(format!(
            "{what} diverged from the first repetition: {print:?} vs {:?}",
            f.print
        )),
        Some(_) => {}
    }
}

fn new_server(soc: &SocSpec) -> Result<Server, String> {
    Server::new(soc, WINDOW).map_err(|e| format!("Server::new: {e}"))
}

/// `Server::new`, timed and dropped; returns its wall seconds.
fn timed_server(soc: &SocSpec) -> Result<f64, String> {
    let t = Instant::now();
    new_server(soc)?;
    Ok(secs(t.elapsed()))
}

/// Untraced run: repeated fresh `Server::new` + `Server::run` on the full
/// stream and on its prefix until the budget is spent. Each server and
/// report is dropped before the next is made.
fn untraced(args: &Args, soc: &SocSpec, errors: &mut Vec<String>) -> Result<Outcome, String> {
    let w = args.workload;
    let full = config(w, args.seed, w.requests);
    let prefix = config(w, args.seed, w.prefix);
    // The reference runs on as many threads as the loop keeps busy.
    let threads = if w.fans_out {
        PlannerConfig::default().effective_threads()
    } else {
        1
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let began = Instant::now();
    let mut samples = Samples::default();
    let mut first = None;
    let mut prefix_first = None;
    // `Server::new` plans every zoo model on the planner's threads.
    let setup_threads = PlannerConfig::default().effective_threads();
    let mut setup_walls = Vec::new();
    let mut setup_refs = Vec::new();
    let mut peak_rss = 0.0;
    let mut last_wall = None;
    let mut attempted = 0usize;
    let mut reps = 0usize;
    while reps < MIN_REPS || began.elapsed() < budget {
        // Set-up is cheap beside a run, so each repetition times several
        // `Server::new` calls; spreading them over the whole run keeps
        // the median from resting on one short stretch of host time. They
        // run back to back: one made right after a run takes longer, and a
        // mix of both kinds would put the median between two modes.
        // The first repetition runs no reference before its full run, so
        // that the memory high-water mark is the program's own.
        if reps > 0 {
            setup_refs.push(reference_s(setup_threads));
        }
        for _ in 0..SETUPS_PER_REP {
            setup_walls.push(timed_server(soc)?);
        }
        let mut short_walls = Vec::with_capacity(w.prefix_runs);
        for _ in 0..w.prefix_runs {
            let srv = new_server(soc)?;
            let t = Instant::now();
            let short = srv.run(&prefix).map_err(|e| format!("Server::run: {e}"))?;
            short_walls.push(secs(t.elapsed()));
            for v in short.verify_invariants() {
                errors.push(format!("invariant (prefix): {v}"));
            }
            check_repeat(&mut prefix_first, &short, "prefix run", errors);
        }
        let short_wall = median(&mut short_walls);
        let srv = new_server(soc)?;
        // The first repetition runs the reference only after its full
        // run; the others also run it before, for as long as the last
        // full run suggests.
        let mut refs = Vec::new();
        if let Some(last) = last_wall {
            reference_runs(threads, REF_SHARE * last, &mut refs);
        }
        let t = Instant::now();
        let report = srv.run(&full).map_err(|e| format!("Server::run: {e}"))?;
        let wall = secs(t.elapsed());
        drop(srv);
        last_wall = Some(wall);
        if reps == 0 {
            // Read before any reference loop has run, so the mark is the
            // program's own; later repetitions only add the allocator's
            // fragmentation across runs.
            peak_rss = peak_rss_mb();
        }
        reference_runs(threads, REF_SHARE * wall, &mut refs);
        let ref_wall = median(&mut refs);
        samples.push("reference_ms", ref_wall * 1e3);
        samples.push("req_per_ref", w.requests as f64 / (wall / ref_wall));

        attempted += w.requests + w.prefix_runs * w.prefix;
        samples.push("req_per_wall_s", w.requests as f64 / wall);
        samples.push(
            "per_req_cost_ratio",
            (wall / w.requests as f64) / (short_wall / w.prefix as f64),
        );
        for v in report.verify_invariants() {
            errors.push(format!("invariant: {v}"));
        }
        check_repeat(&mut first, &report, &format!("repeat {reps}"), errors);
        reps += 1;
    }
    let Some(First {
        mut values,
        cli_view,
        ..
    }) = first
    else {
        unreachable!("at least MIN_REPS repetitions ran")
    };
    values.push(("peak_rss_mb", peak_rss));
    // Set-up time at the nominal host speed: the host's speed drifts by
    // half over minutes, and a set-up lasts too short to be paired with a
    // reference of its own, so the run's medians are paired instead.
    let scale = REF_NOMINAL_S / median(&mut setup_refs);
    for &wall in &setup_walls {
        samples.push("setup_s", wall * scale);
        samples.push("setup_wall_s", wall);
    }
    Ok(Outcome {
        samples,
        values,
        cli_view,
        attempted,
        reps,
    })
}

/// Items in the reference workload (about 20 ms of work per thread).
const REF_ITEMS: usize = 100_000;

/// The reference loop's wall time on the nominal host `setup_s` is scaled
/// to, about its time on two threads of the 2-vCPU host the benchmark was
/// built on.
const REF_NOMINAL_S: f64 = 0.02;

/// Share of a full run's wall time the reference loop takes on each side
/// of it. One 20 ms sample is noisier than a run of seconds it would
/// scale, so long runs get more samples.
const REF_SHARE: f64 = 0.05;

/// Runs the reference loop until it has taken `budget_s` (at least once),
/// pushing each sample's seconds.
fn reference_runs(threads: usize, budget_s: f64, out: &mut Vec<f64>) {
    let mut spent = 0.0;
    while spent == 0.0 || spent < budget_s {
        let s = reference_s(threads);
        out.push(s);
        spent += s;
    }
}

/// Fixed synthetic work, independent of the repository's code: short
/// strings allocated, compared and summed, on `threads` threads at once.
/// Timed right before and right after each full run on as many threads
/// as the run keeps busy, its median measures how fast the host
/// runs at that moment, so `req_per_ref` cancels the host's speed drift.
fn reference_s(threads: usize) -> f64 {
    let t = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(reference_work);
        }
    });
    secs(t.elapsed())
}

fn reference_work() {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let names: Vec<String> = (0..REF_ITEMS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            format!("w{}", x % 4096)
        })
        .collect();
    let mut hits = 0usize;
    let mut acc = 0.0f64;
    for (i, n) in names.iter().enumerate() {
        if names[(i * 7919) % REF_ITEMS] == *n {
            hits += 1;
        }
        acc += (i as f64).sqrt();
    }
    std::hint::black_box((hits, acc));
}

/// Median of `xs`, the mean of the middle two when their count is even.
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    (xs[(n - 1) / 2] + xs[n / 2]) / 2.0
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn quantiles_ms(xs: &[f64]) -> (f64, f64) {
    LatencyProfile::compute(xs).map_or((0.0, 0.0), |p| (p.p50_ms, p.p99_ms))
}

/// Mean of the first and of the last tenth of `xs`, in µs from ns.
fn decile_means_us(xs: &[u64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let k = (xs.len() / 10).max(1);
    let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64 / 1e3;
    (mean(&xs[..k]), mean(&xs[xs.len() - k..]))
}

/// The per-layer metrics of one traced repetition.
fn layer_metrics(
    tr: &Tracer,
    st: &LayerStats,
    replay: &Replay,
    before: &h2p_telemetry::MetricsSnapshot,
    traced_wall_ms: f64,
    untraced_wall_ms: f64,
    lifecycle_events: usize,
) -> Vec<(&'static str, f64)> {
    let after = replay.online().planner().telemetry().metrics.snapshot();
    let delta = |name: &str| {
        let count = |snap: &h2p_telemetry::MetricsSnapshot| snap.counter(name).unwrap_or(0);
        count(&after).saturating_sub(count(before)) as f64
    };
    let telemetry = replay.online().planner().telemetry();
    let (pred50, pred99) = quantiles_ms(&st.pred_err_ms);
    let (wait50, wait99) = quantiles_ms(&st.wait_ms);
    let (first, last) = decile_means_us(&st.online_call_ns);
    let dispatches = tr.calls(Layer::Coalesce) as f64;
    let tables_hits = delta("planner.tables.cache_hits");
    let window_hits = delta("online.window_cache.hits");
    let attributed = tr.attributed_ms();
    // Probes are the benchmark's bookkeeping, not the program's: they
    // count as tracing overhead but not in the wall time layers share.
    let program_wall_ms = traced_wall_ms - tr.probe_ms();
    vec![
        ("serve.loadgen.self_ms", tr.self_ms(Layer::Loadgen)),
        ("serve.admission.calls", tr.calls(Layer::Admission) as f64),
        ("serve.admission.self_ms", tr.self_ms(Layer::Admission)),
        (
            "serve.admission.admit_share",
            ratio(st.admitted as f64, tr.calls(Layer::Admission) as f64),
        ),
        ("serve.admission.pred_err_p50_ms", pred50),
        ("serve.admission.pred_err_p99_ms", pred99),
        ("serve.queue.shed_calls", st.shed_calls as f64),
        ("serve.queue.shed_count", st.shed_count as f64),
        ("serve.queue.self_ms", tr.self_ms(Layer::Queue)),
        ("serve.queue.wait_p50_ms", wait50),
        ("serve.queue.wait_p99_ms", wait99),
        ("core.batching.calls", dispatches),
        (
            "core.batching.self_ms",
            tr.self_ms(Layer::Coalesce) + tr.self_ms(Layer::Graphs),
        ),
        ("core.batching.graphs_self_ms", st.graphs_ns as f64 / 1e6),
        (
            "core.batching.groups_per_dispatch",
            ratio(st.groups as f64, dispatches),
        ),
        (
            "core.batching.coalesced_share",
            ratio(st.coalesced_requests as f64, st.batched_requests as f64),
        ),
        ("core.online.calls", tr.calls(Layer::Online) as f64),
        ("core.online.self_ms", tr.self_ms(Layer::Online)),
        ("core.online.hit_self_ms", st.online_hit_ns as f64 / 1e6),
        ("core.online.miss_self_ms", st.online_miss_ns as f64 / 1e6),
        (
            "core.online.window_cache.hit_ratio",
            ratio(window_hits, window_hits + delta(WINDOW_MISSES)),
        ),
        (
            "core.online.window_cache.len",
            replay.online().window_cache_len() as f64,
        ),
        ("core.online.call_us_first_decile", first),
        ("core.online.call_us_last_decile", last),
        ("core.planner.plans", delta("planner.plans")),
        ("core.planner.dp_cells", delta("planner.dp.cells")),
        (
            "core.planner.tables_hit_ratio",
            ratio(
                tables_hits,
                tables_hits + delta("planner.tables.cache_misses"),
            ),
        ),
        ("core.planner.mitigation_moves", delta("mitigation.moves")),
        (
            "core.planner.steal_adjustments",
            delta("planner.steal.adjustments"),
        ),
        ("core.executor.lower.calls", tr.calls(Layer::Lower) as f64),
        ("core.executor.lower.self_ms", tr.self_ms(Layer::Lower)),
        ("core.executor.lower.tasks", st.tasks as f64),
        ("simulator.engine.calls", tr.calls(Layer::Engine) as f64),
        ("simulator.engine.self_ms", tr.self_ms(Layer::Engine)),
        (
            "simulator.engine.ns_per_task",
            ratio(tr.self_ms(Layer::Engine) * 1e6, st.tasks as f64),
        ),
        (
            "simulator.engine.mean_slowdown",
            ratio(st.slowdown_sum, st.engine_spans as f64),
        ),
        (
            "simulator.engine.proc_busy_share",
            ratio(st.busy_ms, st.capacity_ms),
        ),
        ("core.recovery.calls", tr.calls(Layer::Recovery) as f64),
        ("core.recovery.self_ms", tr.self_ms(Layer::Recovery)),
        ("core.recovery.rounds", st.recovery_rounds as f64),
        ("core.recovery.dispatch_retries", st.dispatch_retries as f64),
        ("core.recovery.degraded", st.degraded as f64),
        ("telemetry.lifecycle.events", lifecycle_events as f64),
        ("telemetry.lifecycle.self_ms", tr.self_ms(Layer::Lifecycle)),
        (
            "telemetry.span.retained",
            telemetry.spans.records().len() as f64,
        ),
        (
            "telemetry.lifecycle.planner_retained",
            telemetry.lifecycle.len() as f64,
        ),
        ("serve.report.self_ms", tr.self_ms(Layer::Report)),
        ("trace.unattributed_ms", program_wall_ms - attributed),
        ("trace.attributed_share", ratio(attributed, program_wall_ms)),
        (
            "trace.overhead_share",
            ratio(traced_wall_ms - untraced_wall_ms, untraced_wall_ms),
        ),
    ]
}

/// Traced run: the replay, span-timed, against an untraced
/// `Server::run` of the same stream, repeated until the budget is spent.
fn traced(args: &Args, soc: &SocSpec, errors: &mut Vec<String>) -> Result<Outcome, String> {
    let w = args.workload;
    let cfg = config(w, args.seed, w.requests);
    let budget = Duration::from_secs_f64(args.seconds);
    let began = Instant::now();
    let mut samples = Samples::default();
    let mut first = None;
    let mut attempted = 0usize;
    let mut reps = 0usize;
    while reps < MIN_REPS || began.elapsed() < budget {
        let replay = Replay::new(soc, WINDOW).map_err(|e| format!("replay setup: {e}"))?;
        let before = replay.online().planner().telemetry().metrics.snapshot();
        let mut tr = Tracer::default();
        let mut stats = LayerStats::default();
        let t = Instant::now();
        let (traced_report, violations) = replay
            .run(&cfg, &mut tr, &mut stats)
            .map_err(|e| format!("replay: {e}"))?;
        let traced_wall_ms = secs(t.elapsed()) * 1e3;

        let srv = new_server(soc)?;
        let t = Instant::now();
        let report = srv.run(&cfg).map_err(|e| format!("Server::run: {e}"))?;
        let untraced_wall_ms = secs(t.elapsed()) * 1e3;
        drop(srv);
        attempted += 2 * w.requests;

        for v in violations.iter().chain(&report.verify_invariants()) {
            errors.push(format!("invariant: {v}"));
        }
        errors.extend(fidelity(&traced_report, &report));
        check_repeat(&mut first, &report, &format!("repeat {reps}"), errors);
        let metrics = layer_metrics(
            &tr,
            &stats,
            &replay,
            &before,
            traced_wall_ms,
            untraced_wall_ms,
            traced_report.lifecycle.len(),
        );
        for (name, value) in metrics {
            if name == "trace.attributed_share" && value < ATTRIBUTED_SHARE_MIN {
                errors.push(format!(
                    "layer self times cover {value:.3} of traced wall time, below {ATTRIBUTED_SHARE_MIN}"
                ));
            }
            samples.push(name, value);
        }
        samples.push("traced_wall_ms", traced_wall_ms);
        samples.push("untraced_wall_ms", untraced_wall_ms);
        reps += 1;
    }
    let Some(First {
        values, cli_view, ..
    }) = first
    else {
        unreachable!("at least MIN_REPS repetitions ran")
    };
    Ok(Outcome {
        samples,
        values,
        cli_view,
        attempted,
        reps,
    })
}

/// The replay must reproduce `Server::run` exactly.
fn fidelity(replayed: &ServeReport, real: &ServeReport) -> Vec<String> {
    let mut out = Vec::new();
    if replayed.counts != real.counts {
        out.push(format!(
            "fidelity: outcome counts {:?} vs Server::run {:?}",
            replayed.counts, real.counts
        ));
    }
    if replayed.dispatches != real.dispatches {
        out.push(format!(
            "fidelity: {} dispatches vs Server::run {}",
            replayed.dispatches, real.dispatches
        ));
    }
    if replayed.horizon_ms.to_bits() != real.horizon_ms.to_bits() {
        out.push(format!(
            "fidelity: horizon {} ms vs Server::run {} ms",
            replayed.horizon_ms, real.horizon_ms
        ));
    }
    if replayed.records != real.records {
        out.push("fidelity: request records differ from Server::run".to_owned());
    }
    if replayed.json_event_lines() != real.json_event_lines() {
        out.push("fidelity: lifecycle JSONL differs from Server::run".to_owned());
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("h2p-perfbench: {e}");
            eprintln!(
                "usage: h2p-perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
                 workloads: steady, saturation, overload, chaos"
            );
            return ExitCode::from(2);
        }
    };
    let soc = SocSpec::kirin_990();
    let mut errors = Vec::new();
    let outcome = if args.trace {
        traced(&args, &soc, &mut errors)
    } else {
        untraced(&args, &soc, &mut errors)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("h2p-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let w = args.workload;
    let values: Vec<String> = outcome
        .values
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_num(*v)))
        .collect();
    let errs: Vec<String> = errors.iter().map(|e| json_str(e)).collect();
    println!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"qps\":{},\"requests\":{},\"prefix\":{},\
         \"chaos\":{},\"window\":{WINDOW},\"max_batch\":{MAX_BATCH},\"soc\":{},\
         \"host\":{{\"available_parallelism\":{},\"planner_threads\":{},\"profile\":{}}},\
         \"reps\":{},\"attempted\":{},\"errors\":[{}],\"samples\":{},\"values\":{{{}}},\
         \"cli_view\":{}}}",
        json_str(w.name),
        args.seed,
        u8::from(args.trace),
        json_num(w.qps),
        w.requests,
        w.prefix,
        w.chaos,
        json_str(&soc.name),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        PlannerConfig::default().effective_threads(),
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        outcome.reps,
        outcome.attempted,
        errs.join(","),
        outcome.samples.to_json(),
        values.join(","),
        outcome.cli_view,
    );
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

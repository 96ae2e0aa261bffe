//! The serving front-end at its public surfaces: byte-identity of the
//! `h2p serve` outputs against committed goldens, typed refusals of
//! invalid configurations, and a no-panic property over arbitrary
//! `ServeConfig` values.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::Command;

use h2p_serve::{ServeConfig, ServeError, Server};
use h2p_simulator::soc::SocSpec;
use hetero2pipe::recovery::RecoveryPolicy;
use proptest::prelude::*;

fn h2p(args: &[&str]) -> (Vec<u8>, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_h2p"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.stdout,
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

fn golden(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Compares byte for byte, reporting the first differing line.
fn assert_bytes_eq(actual: &[u8], expected: &[u8], what: &str) {
    if actual == expected {
        return;
    }
    let (a, e) = (
        String::from_utf8_lossy(actual),
        String::from_utf8_lossy(expected),
    );
    let line = a
        .lines()
        .zip(e.lines())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.lines().count().min(e.lines().count()));
    panic!(
        "{what} differs from its golden at line {}:\n  got:    {:?}\n  golden: {:?}",
        line + 1,
        a.lines().nth(line),
        e.lines().nth(line)
    );
}

#[test]
fn serve_outputs_match_goldens_byte_for_byte() {
    let events =
        std::env::temp_dir().join(format!("h2p-serve-golden-{}.jsonl", std::process::id()));
    let events_arg = events.to_str().expect("utf-8 path");
    let (sweep, stderr, code) = h2p(&[
        "serve",
        "--qps-sweep",
        "1..10",
        "--steps",
        "3",
        "--seed",
        "7",
        "--requests",
        "32",
        "--json",
        "--events",
        events_arg,
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    let log = std::fs::read(&events).expect("event log written");
    let _ = std::fs::remove_file(&events);
    assert_bytes_eq(&sweep, &golden("serve_sweep.json"), "serve sweep JSON");
    assert_bytes_eq(
        &log,
        &golden("serve_sweep_events.jsonl"),
        "serve sweep event log",
    );

    let (chaos, stderr, code) = h2p(&[
        "serve",
        "--qps",
        "3",
        "--seed",
        "11",
        "--requests",
        "24",
        "--chaos",
        "--json",
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    assert_bytes_eq(&chaos, &golden("serve_chaos.json"), "chaos serve JSON");
}

#[test]
fn chaos_outputs_match_goldens_byte_for_byte() {
    let events = std::env::temp_dir().join(format!(
        "h2p-serve-chaos-golden-{}.jsonl",
        std::process::id()
    ));
    let events_arg = events.to_str().expect("utf-8 path");
    let (chaos, stderr, code) = h2p(&[
        "serve",
        "--qps",
        "2",
        "--seed",
        "11",
        "--requests",
        "400",
        "--chaos",
        "--json",
        "--events",
        events_arg,
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    let log = std::fs::read(&events).expect("event log written");
    let _ = std::fs::remove_file(&events);
    assert_bytes_eq(&chaos, &golden("serve_chaos_qps2.json"), "chaos serve JSON");
    assert_bytes_eq(
        &log,
        &golden("serve_chaos_qps2_events.jsonl"),
        "chaos serve event log",
    );
}

/// The recovery path keeps caches on the server (window plans) and on
/// its planner's cost tables (survivor-subset picks). Neither may leak
/// into a report: a fresh server, the same server run again warm, and a
/// server built after the first one is dropped must agree exactly. The
/// rebuilt server plays the seeds in reverse, so its tables are
/// allocated in another order: that catches a cache that outlives its
/// server, e.g. one keyed on an address the next server's tables reuse.
#[test]
fn chaos_reports_ignore_cache_temperature_and_server_identity() {
    let soc = SocSpec::kirin_990();
    let seeds = [4u64, 9];
    let cfg = |seed: u64| ServeConfig {
        qps: 2.0,
        requests: 96,
        seed,
        chaos: true,
        ..ServeConfig::default()
    };
    let first = Server::new(&soc, 4).expect("server builds");
    let fresh: Vec<_> = seeds.iter().map(|&s| first.run(&cfg(s))).collect();
    let warm: Vec<_> = seeds.iter().map(|&s| first.run(&cfg(s))).collect();
    drop(first);
    let second = Server::new(&soc, 4).expect("server builds");
    let mut rebuilt: Vec<_> = seeds.iter().rev().map(|&s| second.run(&cfg(s))).collect();
    rebuilt.reverse();
    for (i, seed) in seeds.iter().enumerate() {
        let fresh = fresh[i].as_ref().expect("runs");
        assert!(fresh.counts.complete + fresh.counts.degraded > 0);
        for (name, other) in [("warm", &warm[i]), ("rebuilt", &rebuilt[i])] {
            let other = other.as_ref().expect("runs");
            assert_eq!(
                fresh.json_event_lines(),
                other.json_event_lines(),
                "seed {seed}: {name} lifecycle differs"
            );
            assert!(fresh == other, "seed {seed}: {name} report differs");
        }
    }
}

#[test]
fn zero_window_and_zero_max_batch_exit_with_a_message() {
    for (flag, message) in [
        ("--window", "dispatch window must be at least 1"),
        ("--max-batch", "max batch must be at least 1"),
    ] {
        let (_, stderr, code) = h2p(&["serve", flag, "0", "--qps", "3", "--requests", "4"]);
        assert_eq!(code, Some(2), "{flag} 0: {stderr}");
        assert!(stderr.contains(message), "{flag} 0: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} 0: {stderr}");
    }
}

/// Values a float field is drawn from: the invalid and edge values
/// first, then ordinary ones, so most cases still run the loop.
const FLOATS: [f64; 12] = [
    0.0,
    -1.0,
    f64::NAN,
    f64::INFINITY,
    0.5,
    1.0,
    2.0,
    3.0,
    8.0,
    20.0,
    40.0,
    5000.0,
];

fn float(pick: u8) -> f64 {
    FLOATS[usize::from(pick) % FLOATS.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn server_never_panics_on_any_config(
        shape in (0usize..4, 0u32..4, 0usize..20, any::<u64>(), any::<bool>()),
        floats in (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
        budgets in (0usize..3, 0usize..3, any::<u8>()),
    ) {
        let (window, max_batch, requests, seed, chaos) = shape;
        let (qps, budget, base, cap, deadline) = floats;
        let (max_retries, max_rounds, has_deadline) = budgets;
        let cfg = ServeConfig {
            qps: float(qps),
            requests,
            seed,
            max_batch,
            chaos,
            policy: RecoveryPolicy {
                max_retries,
                backoff_base_ms: float(base),
                backoff_cap_ms: float(cap),
                deadline_ms: (has_deadline % 2 == 1).then(|| float(deadline)),
                max_rounds,
            },
            slo_budget: float(budget),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Server::new(&SocSpec::kirin_990(), window).and_then(|srv| srv.run(&cfg))
        }));
        prop_assert!(outcome.is_ok(), "panicked: window {window}, {cfg:?}");
        match outcome.expect("checked above") {
            Ok(report) => {
                prop_assert!(window > 0 && cfg.validate().is_ok());
                prop_assert_eq!(report.counts.total(), requests);
            }
            Err(ServeError::Plan(e)) => prop_assert!(false, "plan error {e} for {cfg:?}"),
            // Compared as text: a NaN field makes the error unequal to
            // itself.
            Err(e) => prop_assert!(
                window == 0 || cfg.validate().err().map(|v| v.to_string()) == Some(e.to_string()),
                "{e} for window {window}, {cfg:?}"
            ),
        }
    }
}

//! QPS sweeps: drive one server through a ladder of offered loads to
//! trace the saturation behaviour — p50/p99 latency, deadline-miss and
//! rejection rates as functions of offered QPS.
//!
//! The sweep reuses a single [`Server`], so the online planner's
//! window-plan cache warms on the first point and every later point
//! replans only windows it has not seen — the same amortisation the
//! serving loop itself relies on.

use crate::server::{ServeConfig, ServeError, ServeReport, Server};

/// One sweep point: the offered load and the full run report at it.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    pub qps: f64,
    pub report: ServeReport,
}

/// Runs `base` at `steps` offered loads linearly spaced over
/// `[lo, hi]` (inclusive; a single step runs at `lo`). Every point
/// uses the same seed, so the whole sweep is deterministic.
///
/// # Errors
///
/// Returns [`ServeError::InvalidSweep`] if `steps == 0`, `lo` is not
/// positive finite, or `hi` is not a finite bound at or above `lo`;
/// otherwise the first error any point's [`Server::run`] returns.
pub fn sweep(
    server: &Server,
    base: &ServeConfig,
    lo: f64,
    hi: f64,
    steps: usize,
) -> Result<Vec<SweepPoint>, ServeError> {
    if steps == 0 || !(lo > 0.0 && lo.is_finite() && hi >= lo && hi.is_finite()) {
        return Err(ServeError::InvalidSweep { lo, hi, steps });
    }
    let mut points = Vec::with_capacity(steps);
    for i in 0..steps {
        let qps = if steps == 1 {
            lo
        } else {
            lo + (hi - lo) * i as f64 / (steps - 1) as f64
        };
        let cfg = ServeConfig {
            qps,
            ..base.clone()
        };
        points.push(SweepPoint {
            qps,
            report: server.run(&cfg)?,
        });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2p_simulator::soc::SocSpec;

    #[test]
    fn sweep_spaces_points_and_saturates_at_the_top() {
        let server = Server::new(&SocSpec::kirin_990(), 4).expect("planner builds");
        let base = ServeConfig {
            requests: 24,
            ..ServeConfig::default()
        };
        let points = sweep(&server, &base, 10.0, 4000.0, 4).expect("sweep runs");
        assert_eq!(points.len(), 4);
        assert!((points[0].qps - 10.0).abs() < 1e-9);
        assert!((points[3].qps - 4000.0).abs() < 1e-9);
        for w in points.windows(2) {
            assert!(w[1].qps > w[0].qps);
        }
        // Every point upholds the invariants; the top of the ladder
        // engages backpressure.
        for p in &points {
            let v = p.report.verify_invariants();
            assert!(v.is_empty(), "qps {}: {v:?}", p.qps);
        }
        let top = &points[3].report.counts;
        assert!(top.rejected() + top.shed > 0, "{top:?}");
    }

    #[test]
    fn bad_ranges_are_typed_errors() {
        let server = Server::new(&SocSpec::kirin_990(), 4).expect("planner builds");
        let base = ServeConfig::default();
        for (lo, hi, steps) in [
            (1.0, 2.0, 0),
            (0.0, 2.0, 2),
            (2.0, 1.0, 2),
            (1.0, f64::NAN, 2),
        ] {
            assert!(
                matches!(
                    sweep(&server, &base, lo, hi, steps),
                    Err(ServeError::InvalidSweep { .. })
                ),
                "{lo}..{hi} x{steps}"
            );
        }
    }
}

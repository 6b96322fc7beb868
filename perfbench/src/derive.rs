//! Metric derivations from the clients' completion lists and from host
//! timings. Pure functions, so they are tested on synthetic inputs.

use paxraft_core::client::Completion;
use paxraft_workload::generator::OpKind;
use paxraft_workload::metrics::LatencyRecorder;

/// The workload client's retry timeout. A reply that took longer was
/// re-sent (or would have been), so it counts as missing the latency
/// limit; an op unanswered for longer at the end of the run likewise.
pub const RETRY_AFTER_NS: u64 = 1_000_000_000;

/// Median and 99th percentile of one latency population, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Nearest-rank median (ms).
    pub p50_ms: f64,
    /// Nearest-rank 99th percentile (ms).
    pub p99_ms: f64,
    /// Samples the percentiles were taken over.
    pub samples: usize,
}

impl Percentiles {
    /// Percentiles of `latencies_ns`, or `None` for an empty population.
    pub fn of(latencies_ns: impl IntoIterator<Item = u64>) -> Option<Percentiles> {
        let mut rec = LatencyRecorder::new();
        for ns in latencies_ns {
            rec.record_ns(ns);
        }
        Some(Percentiles {
            p50_ms: rec.percentile_ms(50.0)?,
            p99_ms: rec.percentile_ms(99.0)?,
            samples: rec.len(),
        })
    }
}

/// Where a run's measurement window and end lie on the virtual clock.
#[derive(Debug, Clone, Copy)]
pub struct RunWindow {
    /// Measurement window start (ns, inclusive).
    pub start_ns: u64,
    /// Measurement window end (ns, exclusive).
    pub end_ns: u64,
    /// End of the run (after the cool-down, ns).
    pub run_end_ns: u64,
    /// When the fault (if any) crashed the leader (ns).
    pub crash_ns: Option<u64>,
}

/// The virtual-time figures of one run: exact for a fixed seed, so two
/// runs of the same cluster compare with `==`.
#[derive(Debug, Clone, PartialEq)]
pub struct VirtualMetrics {
    /// Ops completed inside the window per virtual second.
    pub throughput_ops: f64,
    /// Write latency inside the window, pooled over regions.
    pub writes: Option<Percentiles>,
    /// Read latency inside the window, pooled over regions.
    pub reads: Option<Percentiles>,
    /// Ops issued over the whole run: every completion plus each
    /// client's one op in flight at the end (the loop is closed).
    pub issued: u64,
    /// Ops answered after more than [`RETRY_AFTER_NS`].
    pub late: u64,
    /// Ops still unanswered more than [`RETRY_AFTER_NS`] at the run end.
    pub stuck: u64,
    /// Virtual ms from the crash to the first reply to a request issued
    /// after it (`None` without a fault, or if no such reply came).
    pub failover_ms: Option<f64>,
    /// Clients that completed no op inside the window.
    pub idle_clients: usize,
}

impl VirtualMetrics {
    /// Derives the figures from each client's completion list.
    pub fn derive(clients: &[&[Completion]], w: RunWindow) -> VirtualMetrics {
        let in_window = |c: &&Completion| (w.start_ns..w.end_ns).contains(&c.at_ns);
        let all = || clients.iter().flat_map(|c| c.iter());
        let of_kind = |k: OpKind| {
            Percentiles::of(
                all()
                    .filter(in_window)
                    .filter(|c| c.kind == k)
                    .map(|c| c.latency_ns),
            )
        };
        let completed = all().filter(in_window).count();
        let stuck = clients
            .iter()
            // The next op goes out in the handler that records a
            // completion, so a client's open op was issued at its last
            // completion.
            .filter(|c| c.last().map_or(0, |l| l.at_ns) + RETRY_AFTER_NS < w.run_end_ns)
            .count() as u64;
        let failover_ms = w.crash_ns.and_then(|crash| {
            all()
                .filter(|c| c.at_ns - c.latency_ns >= crash)
                .map(|c| c.at_ns)
                .min()
                .map(|first| (first - crash) as f64 / 1e6)
        });
        VirtualMetrics {
            throughput_ops: completed as f64 / ((w.end_ns - w.start_ns) as f64 / 1e9),
            writes: of_kind(OpKind::Write),
            reads: of_kind(OpKind::Read),
            issued: all().count() as u64 + clients.len() as u64,
            late: all().filter(|c| c.latency_ns > RETRY_AFTER_NS).count() as u64,
            stuck,
            failover_ms,
            idle_clients: clients
                .iter()
                .filter(|c| !c.iter().any(|x| in_window(&x)))
                .count(),
        }
    }

    /// Share of issued ops that were late or are stuck.
    pub fn failed_frac(&self) -> f64 {
        (self.late + self.stuck) as f64 / self.issued.max(1) as f64
    }
}

/// Host microseconds per op completed: normalised so that a change that
/// completes more ops in the same virtual time is not read as a slowdown.
pub fn host_us_per_op(host_ns: u128, ops: u64) -> f64 {
    host_ns as f64 / 1e3 / ops.max(1) as f64
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn done(at_ms: u64, latency_ms: u64, kind: OpKind) -> Completion {
        Completion {
            at_ns: at_ms * MS,
            latency_ns: latency_ms * MS,
            kind,
        }
    }

    fn window(crash_ms: Option<u64>) -> RunWindow {
        RunWindow {
            start_ns: 1_000 * MS,
            end_ns: 3_000 * MS,
            run_end_ns: 4_000 * MS,
            crash_ns: crash_ms.map(|c| c * MS),
        }
    }

    #[test]
    fn percentiles_are_nearest_rank_with_counts() {
        let p = Percentiles::of((1..=200).map(|ms| ms * MS)).unwrap();
        assert_eq!(p.samples, 200);
        assert_eq!(p.p50_ms, 100.0);
        assert_eq!(p.p99_ms, 198.0);
        assert_eq!(Percentiles::of(std::iter::empty()), None);
        let one = Percentiles::of([7 * MS]).unwrap();
        assert_eq!((one.p50_ms, one.p99_ms, one.samples), (7.0, 7.0, 1));
    }

    #[test]
    fn window_filters_and_splits_reads_from_writes() {
        let a = [
            done(500, 10, OpKind::Write), // warm-up: excluded
            done(1_000, 20, OpKind::Write),
            done(2_000, 40, OpKind::Read),
            done(3_000, 30, OpKind::Write), // window end is exclusive
            done(3_900, 5, OpKind::Read),
        ];
        let b = [done(1_500, 60, OpKind::Write)];
        let v = VirtualMetrics::derive(&[&a, &b], window(None));
        assert_eq!(v.throughput_ops, 1.5, "3 ops in 2 virtual seconds");
        let w = v.writes.unwrap();
        assert_eq!((w.samples, w.p50_ms, w.p99_ms), (2, 20.0, 60.0));
        let r = v.reads.unwrap();
        assert_eq!((r.samples, r.p50_ms), (1, 40.0));
        assert_eq!(v.issued, 8, "6 completions + one open op per client");
        assert_eq!(v.idle_clients, 0);
        assert_eq!(v.failover_ms, None);
    }

    #[test]
    fn failed_frac_counts_late_replies_and_stuck_ops() {
        // Client a: one reply slower than the retry timeout; its open op
        // was issued at 3.9 s, so it is not stuck at the 4 s run end.
        let a = [
            done(1_200, 1_100, OpKind::Write),
            done(3_900, 10, OpKind::Read),
        ];
        // Client b: last reply at 2.5 s, so its open op has waited 1.5 s.
        let b = [done(2_500, 10, OpKind::Write)];
        // Client c: never answered at all.
        let c: [Completion; 0] = [];
        let v = VirtualMetrics::derive(&[&a, &b, &c], window(None));
        assert_eq!((v.late, v.stuck, v.issued), (1, 2, 6));
        assert!((v.failed_frac() - 0.5).abs() < 1e-12);
        assert_eq!(v.idle_clients, 1, "client c completed nothing");
    }

    #[test]
    fn failover_is_crash_to_first_reply_issued_after_it() {
        let a = [
            // Issued before the 2 s crash, answered after: not counted.
            done(2_100, 300, OpKind::Write),
            // Issued at 2.2 s, answered at 2.9 s: the first post-crash
            // request served.
            done(2_900, 700, OpKind::Write),
            done(3_100, 50, OpKind::Write),
        ];
        let b = [done(3_000, 100, OpKind::Read)];
        let v = VirtualMetrics::derive(&[&a, &b], window(Some(2_000)));
        assert_eq!(v.failover_ms, Some(900.0));
        let none = VirtualMetrics::derive(&[&a], window(Some(3_500)));
        assert_eq!(none.failover_ms, None, "no reply after a late crash");
    }

    #[test]
    fn host_time_is_per_completed_op() {
        assert_eq!(host_us_per_op(3_000_000, 1_500), 2.0);
        assert_eq!(host_us_per_op(5_000, 0), 5.0, "no ops: per whole call");
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}

//! # paxraft-bench
//!
//! The benchmark harness that regenerates every evaluation artifact of
//! the paper:
//!
//! - `fig9` — Raft*-PQL vs LL vs Raft vs Raft* (Figures 9a–9d),
//! - `fig10` — Raft*-Mencius vs Raft (Figures 10a–10d),
//! - `fig3_mapping` — the machine-checked Raft*↔MultiPaxos mapping,
//! - `fig4_port_example` — the worked porting example of Section 4,
//! - `fig6_landscape` — the protocol landscape classification,
//! - `ablation_*` — design-choice ablations (batching, lease duration).
//!
//! Runs are scaled down from the paper's 50-second trials (the simulator
//! is deterministic, so long trials only narrow confidence intervals we
//! do not need); each binary prints the same rows/series the paper's
//! figures plot, plus JSON for regeneration diffs.

use paxraft_core::harness::{Cluster, ProtocolKind, RunReport};
use paxraft_core::types::NodeId;
use paxraft_sim::net::Region;
use paxraft_sim::time::SimDuration;
use paxraft_workload::generator::WorkloadConfig;

/// One measured point in a figure's series.
#[derive(Debug, Clone)]
pub struct Point {
    /// Series label (e.g. protocol / configuration name).
    pub series: String,
    /// X-coordinate (clients, read %, conflict % …).
    pub x: f64,
    /// Y-coordinate (ops/s or ms).
    pub y: f64,
}

/// A complete figure: id, axis labels, and measured points.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Paper figure id (e.g. "9c").
    pub id: String,
    /// What x means.
    pub x_label: String,
    /// What y means.
    pub y_label: String,
    /// The measured series.
    pub points: Vec<Point>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(id: &str, x_label: &str, y_label: &str) -> Self {
        Figure {
            id: id.to_string(),
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            points: Vec::new(),
        }
    }

    /// Adds a point.
    pub fn push(&mut self, series: &str, x: f64, y: f64) {
        self.points.push(Point {
            series: series.to_string(),
            x,
            y,
        });
    }

    /// Renders an aligned text table, one row per point.
    pub fn table(&self) -> String {
        let mut out = format!(
            "── Figure {} ── ({} vs {})\n{:<22} {:>12} {:>14}\n",
            self.id, self.y_label, self.x_label, "series", self.x_label, self.y_label
        );
        for p in &self.points {
            out.push_str(&format!("{:<22} {:>12.2} {:>14.2}\n", p.series, p.x, p.y));
        }
        out
    }

    /// Serializes to JSON (for diffing regenerated results).
    /// Non-finite measurements (a degenerate run dividing by zero ops)
    /// serialize as `null`, and control characters are escaped, so the
    /// output always parses.
    pub fn json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            }
        }
        let mut out = format!(
            "{{\n  \"id\": \"{}\",\n  \"x_label\": \"{}\",\n  \"y_label\": \"{}\",\n  \"points\": [",
            esc(&self.id),
            esc(&self.x_label),
            esc(&self.y_label)
        );
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\n      \"series\": \"{}\",\n      \"x\": {},\n      \"y\": {}\n    }}",
                esc(&p.series),
                num(p.x),
                num(p.y)
            ));
        }
        out.push_str("\n  ]\n}");
        out
    }
}

/// Measurement windows used by the harness binaries. The paper runs 50 s
/// trials with 10 s warm-up/cool-down; simulated runs use shorter windows
/// (deterministic simulation needs no long averaging) scaled to keep
/// hundreds of completions per client group.
#[derive(Debug, Clone, Copy)]
pub struct Windows {
    /// Warm-up (excluded).
    pub warmup: SimDuration,
    /// Measured interval.
    pub measure: SimDuration,
    /// Cool-down (excluded).
    pub cooldown: SimDuration,
}

impl Windows {
    /// Standard windows for figure runs.
    pub fn standard() -> Self {
        Windows {
            warmup: SimDuration::from_secs(3),
            measure: SimDuration::from_secs(8),
            cooldown: SimDuration::from_secs(1),
        }
    }

    /// Abbreviated windows for smoke tests.
    pub fn quick() -> Self {
        Windows {
            warmup: SimDuration::from_secs(1),
            measure: SimDuration::from_secs(3),
            cooldown: SimDuration::from_millis(500),
        }
    }
}

/// Configuration of one measured cluster run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Leader placement (`0` = Oregon … `4` = Seoul).
    pub leader: NodeId,
    /// Closed-loop clients per region.
    pub clients_per_region: usize,
    /// Workload parameters.
    pub workload: WorkloadConfig,
    /// Seed for the deterministic run.
    pub seed: u64,
}

impl RunSpec {
    /// A 5-region spec with the given protocol and defaults.
    pub fn new(protocol: ProtocolKind) -> Self {
        RunSpec {
            protocol,
            leader: NodeId(0),
            clients_per_region: 50,
            workload: WorkloadConfig::default(),
            seed: 42,
        }
    }

    /// Builds and runs the spec, returning the report.
    pub fn run(&self, windows: Windows) -> RunReport {
        let mut cluster = Cluster::builder(self.protocol)
            .replicas(5)
            .regions(Region::ALL.to_vec())
            .leader(self.leader)
            .clients_per_region(self.clients_per_region)
            .workload(self.workload.clone())
            .seed(self.seed)
            .build();
        cluster.elect_leader();
        cluster.run_measurement(windows.warmup, windows.measure, windows.cooldown)
    }
}

/// Sweeps client counts and returns the peak observed throughput
/// (the paper's "peak throughput" methodology: saturate, take the max).
pub fn peak_throughput(spec: &RunSpec, client_counts: &[usize], windows: Windows) -> f64 {
    let mut best: f64 = 0.0;
    for &c in client_counts {
        let mut s = spec.clone();
        s.clients_per_region = c;
        let report = s.run(windows);
        if report.throughput_ops > best {
            best = report.throughput_ops;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_table_renders_points() {
        let mut f = Figure::new("9c", "read %", "ops/s");
        f.push("Raft", 90.0, 41_000.0);
        f.push("Raft*-PQL", 90.0, 66_000.0);
        let t = f.table();
        assert!(t.contains("Figure 9c"));
        assert!(t.contains("Raft*-PQL"));
        let j = f.json();
        assert!(j.contains("\"series\": \"Raft*-PQL\""));
    }

    #[test]
    fn json_handles_non_finite_and_control_chars() {
        let mut f = Figure::new("x", "a\tb", "c\"d");
        f.push("nan\nseries", f64::NAN, f64::INFINITY);
        f.push("ok", 1.0, 2.5);
        let j = f.json();
        assert!(j.contains("\"x\": null"), "NaN serializes as null: {j}");
        assert!(j.contains("\"y\": null"), "inf serializes as null: {j}");
        assert!(j.contains("a\\tb") && j.contains("c\\\"d") && j.contains("nan\\nseries"));
        assert!(!j.contains("NaN") && !j.contains("inf"));
    }

    #[test]
    fn quick_raft_run_produces_throughput() {
        let mut spec = RunSpec::new(ProtocolKind::Raft);
        spec.clients_per_region = 10;
        let report = spec.run(Windows::quick());
        assert!(
            report.throughput_ops > 10.0,
            "got {}",
            report.throughput_ops
        );
    }

    #[test]
    fn quick_mencius_run_produces_throughput() {
        let mut spec = RunSpec::new(ProtocolKind::RaftStarMencius);
        spec.clients_per_region = 10;
        spec.workload.read_fraction = 0.0;
        let report = spec.run(Windows::quick());
        assert!(
            report.throughput_ops > 10.0,
            "got {}",
            report.throughput_ops
        );
    }
}

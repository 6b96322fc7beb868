//! A seconds-long smoke run of every workload, scaled down, through the
//! same code path the benchmark command takes: both the end-to-end and
//! the traced mode must pass every output check and report finite values.

use perfbench::catalogue::{workloads, Kind, DEFAULT_SEED, END_TO_END, HELD_OUT_SEED, PER_LAYER};

fn shrink(kind: &Kind) -> Kind {
    match kind {
        Kind::Sim(s) => {
            let mut s = s.clone();
            s.clients_per_region = 8;
            Kind::Sim(s)
        }
        Kind::Spec { .. } => Kind::Spec { budget: 300 },
    }
}

#[test]
fn every_workload_runs_clean_in_both_modes() {
    for mut w in workloads() {
        w.kind = shrink(&w.kind);
        for (trace, seed) in [(false, DEFAULT_SEED), (true, HELD_OUT_SEED)] {
            let o = perfbench::run(&w, seed, 0.01, trace);
            let failed: Vec<&String> = o.checks.iter().filter(|c| !c.1).map(|c| &c.0).collect();
            assert!(o.correct(), "{} trace={trace}: failed {failed:?}", w.name);
            assert!(o.attempted > 0 && o.failed == 0, "{} trace={trace}", w.name);
            let defs = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            let json = o.json(defs);
            for m in defs {
                assert!(
                    json.contains(&format!("\"{}\": {{\"value\": ", m.name)),
                    "{}",
                    m.name
                );
                if !trace {
                    assert!(
                        o.metrics.get(m.name) > 0.0,
                        "{} {} is never 0",
                        w.name,
                        m.name
                    );
                }
            }
        }
    }
}

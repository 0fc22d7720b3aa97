//! What a workload run hands back to `main`: named measurements, the
//! op counts, and the human-readable lines printed above the result line.

use crate::json::Value;
use crate::spec::{self, MetricSpec};

/// One measured metric with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub n: u64,
}

/// Requests (or train steps) of one phase, by how they ended.
#[derive(Debug, Clone, Default)]
pub struct PhaseCounts {
    pub phase: &'static str,
    pub sent: u64,
    pub succeeded: u64,
    pub shed: u64,
    pub failed: u64,
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Measured>,
    pub phases: Vec<PhaseCounts>,
    /// False when an output check failed or the generator could not hold
    /// its schedule; the process then exits non-zero.
    pub correct: bool,
    /// Free-form lines for stderr (percentiles beside the gated ones,
    /// generator honesty, publish log, ...).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64, n: u64) {
        debug_assert!(spec::metric(name).is_some(), "unknown metric {name}");
        self.metrics.push(Measured { name, value, n });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.sent).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.shed + p.failed).sum()
    }

    /// Every metric of `table` in table order; a metric the workload did
    /// not produce is reported as 0 (per-layer: "layer not exercised").
    fn metric_object(&self, table: &[MetricSpec]) -> Value {
        let mut obj = Value::obj();
        for m in table {
            let value = self.get(m.name).unwrap_or(0.0);
            obj = obj.with(m.name, Value::obj().with("value", value).with("unit", m.unit));
        }
        obj
    }

    /// The one-line JSON object the driver reads from the last line of
    /// standard output.
    pub fn result_line(&self, table: &[MetricSpec]) -> String {
        Value::obj()
            .with("correct", self.correct)
            .with("attempted", self.attempted().max(1))
            .with("failed", self.failed())
            .with("metrics", self.metric_object(table))
            .compact()
    }

    /// Human-readable summary: every metric by name with unit, sample count
    /// and (end-to-end names are shared) what it measures on this
    /// workload, then per-phase op counts and the notes.
    pub fn render(&self, workload: &str, table: &[MetricSpec]) -> String {
        let mut out = format!("== {workload} ==\n");
        for m in table {
            let (value, n) =
                self.metrics.iter().find(|x| x.name == m.name).map_or((0.0, 0), |x| (x.value, x.n));
            out.push_str(&format!(
                "  {:<34} {:>16.4} {:<8} n={:<8} {}\n",
                m.name,
                value,
                m.unit,
                n,
                spec::meaning(workload, m.name)
            ));
        }
        for p in &self.phases {
            out.push_str(&format!(
                "  phase {:<12} ops_attempted={} succeeded={} shed={} ops_failed={}\n",
                p.phase,
                p.sent,
                p.succeeded,
                p.shed,
                p.shed + p.failed
            ));
        }
        for note in &self.notes {
            out.push_str(&format!("  {note}\n"));
        }
        out
    }
}

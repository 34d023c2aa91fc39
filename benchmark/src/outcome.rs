//! What one workload run hands back: operation counts, metric values and
//! the details that go into the result file.

use flexsim::jsonio::{obj, Json};

use crate::host::{peak_rss_mb, per_ref_second};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, summarize};

#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: one `run`, one config of a campaign, or one
    /// HTTP request.
    pub attempted: u64,
    /// Operations that panicked, errored, answered non-200, lost a record
    /// or produced a wrong digest.
    pub failed: u64,
    /// The first few failure reasons, for the human reading the output.
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    pub details: Vec<(&'static str, Json)>,
}

impl Outcome {
    /// Counts one operation; `why` is rendered only when it failed.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    /// Counts a failure that is not an operation of its own (a check over
    /// several operations, such as digest identity across passes).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn detail(&mut self, name: &'static str, value: Json) {
        self.details.push((name, value));
    }

    /// Sets the three end-to-end metrics and their sample summaries:
    /// `cycles` delivered in `quiet_ns` of quiet host time, read against
    /// the reference loop; `walls_ns` are the plain pass or round walls.
    pub fn set_end_to_end(
        &mut self,
        cycles: f64,
        quiet_ns: f64,
        walls_ns: &[f64],
        ref_loop_ns: f64,
        setups_s: &[f64],
    ) {
        self.set(
            "sim_cycles_per_ref_s",
            per_ref_second(cycles, quiet_ns, ref_loop_ns),
        );
        self.set("setup_s", median(setups_s));
        self.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
        let per_pass: Vec<f64> = walls_ns
            .iter()
            .map(|ns| per_ref_second(cycles, *ns, ref_loop_ns))
            .collect();
        self.detail("passes_cycles_per_ref_s", samples_json(&per_pass));
        self.detail(
            "quiet_host_cycles_per_s",
            Json::F64(cycles / quiet_ns * 1e9),
        );
        self.detail("setup_s_samples", samples_json(setups_s));
        self.detail("ref_kernel_ns_p10", Json::F64(ref_loop_ns));
        self.detail("simulated_cycles_per_pass", Json::F64(cycles));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The last line of standard output, in the driver's format: every
    /// end-to-end metric (untraced) or every per-layer metric (traced). A
    /// per-layer metric the workload does not exercise reads 0.
    pub fn result_line(&self, traced: bool) -> String {
        let names: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let metrics = names
            .into_iter()
            .map(|(name, unit)| {
                let value = self.get(name).unwrap_or(0.0);
                (
                    name,
                    obj(vec![
                        ("value", Json::F64(value)),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::U64(self.attempted.max(1))),
            ("failed", Json::U64(self.failed)),
            ("metrics", obj(metrics)),
        ])
        .to_string()
    }
}

/// Summary of a sample set as JSON (`null` when empty).
pub fn samples_json(values: &[f64]) -> Json {
    summarize(values).map_or(Json::Null, |s| {
        obj(vec![
            ("n", Json::U64(s.n as u64)),
            ("median", Json::F64(s.median)),
            ("q1", Json::F64(s.q1)),
            ("q3", Json::F64(s.q3)),
            ("mad", Json::F64(s.mad)),
            ("min", Json::F64(s.min)),
        ])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsim::jsonio::parse;

    fn keys(v: &Json) -> Vec<String> {
        match v {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
            _ => Vec::new(),
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric() {
        let mut out = Outcome::default();
        out.op(true, String::new);
        out.set("sim_cycles_per_ref_s", 1234.5);
        out.set("core.cycle_ns", 99.0);
        for traced in [false, true] {
            let v = parse(&out.result_line(traced)).unwrap();
            assert_eq!(keys(&v), ["correct", "attempted", "failed", "metrics"]);
            let want: Vec<&str> = if traced {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            assert_eq!(keys(v.get("metrics").unwrap()), want);
        }
        let v = parse(&out.result_line(false)).unwrap();
        let m = v
            .get("metrics")
            .unwrap()
            .get("sim_cycles_per_ref_s")
            .unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1234.5));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("1/ref_s"));
    }

    #[test]
    fn a_failed_operation_or_check_makes_the_run_incorrect() {
        let mut out = Outcome::default();
        assert!(!out.correct(), "nothing attempted is not correct");
        out.op(true, String::new);
        assert!(out.correct());
        out.fail("digest differs".to_string());
        assert!(!out.correct());
        assert_eq!((out.attempted, out.failed), (1, 1));
        assert_eq!(out.failures, ["digest differs"]);
    }
}

//! Sweep-grid job submissions.
//!
//! A job body is `{"base": <config>, "seeds": [...], "loads": [...]}`:
//! one full [`RunConfig`] in its canonical JSON form plus optional seed
//! and load axes. The expansion is the `loads × seeds` cross-product in
//! deterministic order (outer loads, inner seeds), so the configuration
//! at index `i` is the same on every server that ever sees the grid —
//! job checkpoints refer to configs by index.

use flexsim::jsonio::{bad, get, obj, parse, u64_arr, Json, ParseError};
use flexsim::{config_from_json, config_to_json, RunConfig};

/// Most configurations one grid may expand to. A submission's axes are
/// untrusted and [`SweepGrid::expand`] allocates their product up front,
/// so a body of a few hundred kilobytes could otherwise ask for a
/// hundred-gigabyte allocation and abort the server.
const MAX_CONFIGS: usize = 1 << 16;

/// A parsed job submission.
#[derive(Clone, Debug)]
pub struct SweepGrid {
    /// Template configuration; seed and load are overridden per point.
    pub base: RunConfig,
    /// Seed axis. Defaults to `[base.seed]`.
    pub seeds: Vec<u64>,
    /// Load axis. Defaults to `[base.load]`.
    pub loads: Vec<f64>,
    /// Optional per-config wall-clock budget in milliseconds. A config
    /// that exceeds it is marked `timed_out` (terminal) instead of
    /// completing. Persisted with the grid so every fleet member applies
    /// the same deadline after recovery.
    pub timeout_ms: Option<u64>,
}

impl SweepGrid {
    /// Parses a submission body.
    pub fn from_json(text: &str) -> Result<SweepGrid, ParseError> {
        let v = parse(text)?;
        let base = config_from_json(get(&v, "base")?)?;
        let seeds = match v.get("seeds") {
            None => vec![base.seed],
            Some(s) => {
                let arr = s.as_arr().ok_or_else(|| bad("`seeds` must be an array"))?;
                arr.iter()
                    .map(|x| x.as_u64().ok_or_else(|| bad("`seeds` holds a non-u64")))
                    .collect::<Result<Vec<_>, _>>()?
            }
        };
        let loads = match v.get("loads") {
            None => vec![base.load],
            Some(l) => {
                let arr = l.as_arr().ok_or_else(|| bad("`loads` must be an array"))?;
                arr.iter()
                    .map(|x| x.as_f64().ok_or_else(|| bad("`loads` holds a non-number")))
                    .collect::<Result<Vec<_>, _>>()?
            }
        };
        if seeds.is_empty() || loads.is_empty() {
            return Err(bad("grid axes must be non-empty"));
        }
        if seeds
            .len()
            .checked_mul(loads.len())
            .is_none_or(|n| n > MAX_CONFIGS)
        {
            return Err(bad(&format!(
                "grid expands to more than {MAX_CONFIGS} configs"
            )));
        }
        if !loads.iter().all(|l| l.is_finite() && *l > 0.0) {
            return Err(bad("`loads` must be finite and positive"));
        }
        let timeout_ms = match v.get("timeout_ms") {
            None => None,
            Some(t) => {
                let ms = t
                    .as_u64()
                    .ok_or_else(|| bad("`timeout_ms` must be a u64"))?;
                if ms == 0 {
                    return Err(bad("`timeout_ms` must be positive"));
                }
                Some(ms)
            }
        };
        Ok(SweepGrid {
            base,
            seeds,
            loads,
            timeout_ms,
        })
    }

    /// Renders the grid back to its canonical submission form.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("base", config_to_json(&self.base)),
            ("seeds", u64_arr(self.seeds.iter().copied())),
            (
                "loads",
                Json::Arr(self.loads.iter().map(|l| Json::F64(*l)).collect()),
            ),
        ];
        if let Some(ms) = self.timeout_ms {
            fields.push(("timeout_ms", Json::U64(ms)));
        }
        obj(fields)
    }

    /// Expands to concrete configurations: outer loop over loads, inner
    /// over seeds.
    pub fn expand(&self) -> Vec<RunConfig> {
        let mut out = Vec::with_capacity(self.loads.len() * self.seeds.len());
        for &load in &self.loads {
            for &seed in &self.seeds {
                let mut cfg = self.base.clone();
                cfg.load = load;
                cfg.seed = seed;
                out.push(cfg);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axes_default_to_base_values() {
        let base = RunConfig::small_default();
        let body = obj(vec![("base", config_to_json(&base))]).to_string();
        let grid = SweepGrid::from_json(&body).unwrap();
        assert_eq!(grid.seeds, vec![base.seed]);
        assert_eq!(grid.loads, vec![base.load]);
        assert_eq!(grid.expand().len(), 1);
        assert_eq!(grid.expand()[0], base);
    }

    #[test]
    fn expansion_order_is_loads_outer_seeds_inner() {
        let base = RunConfig::small_default();
        let mut grid = SweepGrid {
            base,
            seeds: vec![1, 2],
            loads: vec![0.1, 0.2],
            timeout_ms: Some(120_000),
        };
        let cfgs = grid.expand();
        let points: Vec<(f64, u64)> = cfgs.iter().map(|c| (c.load, c.seed)).collect();
        assert_eq!(points, vec![(0.1, 1), (0.1, 2), (0.2, 1), (0.2, 2)]);
        // Round-trip through JSON preserves the expansion exactly.
        grid.base.seed = 7;
        let again = SweepGrid::from_json(&grid.to_json().to_string()).unwrap();
        assert_eq!(
            again.timeout_ms,
            Some(120_000),
            "timeout survives round-trip"
        );
        let digests: Vec<String> = again
            .expand()
            .iter()
            .map(crate::cache::config_key)
            .collect();
        let expect: Vec<String> = grid.expand().iter().map(crate::cache::config_key).collect();
        assert_eq!(digests, expect);
    }

    /// A submission's numbers are untrusted: one that does not fit its
    /// field is a parse error (400 at the door), not a different network.
    #[test]
    fn rejects_out_of_range_config_members() {
        let mut base = RunConfig::small_default();
        base.routing = flexsim::RoutingSpec::Misroute { budget: 3 };
        base.faults.link_outage(2, 50, 90).node_stall(120, 9, 40);
        // The pattern type is not re-exported here; splice its text in.
        let body = obj(vec![("base", config_to_json(&base))])
            .to_string()
            .replace(
                r#"{"kind":"uniform"}"#,
                r#"{"kind":"hot-spot","hot":5,"fraction":0.15}"#,
            );
        SweepGrid::from_json(&body).expect("in-range twin parses");
        for (valid, wrapping) in [
            (r#""k":8"#, r#""k":65544"#),
            (r#""budget":3"#, r#""budget":259"#),
            (r#""hot":5"#, r#""hot":4294967301"#),
            (r#""channel":2"#, r#""channel":4294967298"#),
            (r#""node":9"#, r#""node":4294967305"#),
        ] {
            assert!(body.contains(valid), "{valid} in {body}");
            let err = SweepGrid::from_json(&body.replacen(valid, wrapping, 1)).unwrap_err();
            assert!(
                err.to_string().contains("out of range"),
                "{wrapping}: {err}"
            );
        }
    }

    #[test]
    fn rejects_bad_axes() {
        let base = RunConfig::small_default();
        let body = obj(vec![
            ("base", config_to_json(&base)),
            ("seeds", Json::Arr(vec![])),
        ])
        .to_string();
        assert!(SweepGrid::from_json(&body).is_err());
        let body = obj(vec![
            ("base", config_to_json(&base)),
            ("loads", Json::Arr(vec![Json::F64(-0.5)])),
        ])
        .to_string();
        assert!(SweepGrid::from_json(&body).is_err());
        assert!(SweepGrid::from_json("{\"no\":\"base\"}").is_err());
        let body = obj(vec![
            ("base", config_to_json(&base)),
            ("timeout_ms", Json::U64(0)),
        ])
        .to_string();
        assert!(
            SweepGrid::from_json(&body).is_err(),
            "zero timeout rejected"
        );
    }

    /// The axes' product is bounded before anything is expanded: 256 ×
    /// 256 is exactly `MAX_CONFIGS`, 300 × 300 is over it.
    #[test]
    fn rejects_grids_over_the_config_bound() {
        let square = |side: u64| {
            obj(vec![
                ("base", config_to_json(&RunConfig::small_default())),
                ("seeds", u64_arr(1..=side)),
                (
                    "loads",
                    Json::Arr((1..=side).map(|i| Json::F64(i as f64 / 1e3)).collect()),
                ),
            ])
            .to_string()
        };
        let grid = SweepGrid::from_json(&square(256)).expect("at the bound");
        assert_eq!(grid.seeds.len() * grid.loads.len(), MAX_CONFIGS);
        let err = SweepGrid::from_json(&square(300)).unwrap_err();
        assert!(err.to_string().contains("more than 65536 configs"), "{err}");
    }
}

//! Metric names, the result line, and small statistics helpers.
//!
//! Every name the benchmark can print is declared here; a test checks the
//! lists against `BENCHMARK.json`.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("report_s", "s"),
    ("qps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The paper experiments, registry order, each with the FNV-1a digest
/// of its `Scale::Small` output section.
pub const PINNED_SECTIONS: [(&str, u64); 23] = [
    ("table1", 0xd9ec_797a_007f_810f),
    ("table2", 0xfe7e_847f_2e77_bd08),
    ("table3", 0x2a08_6dc0_7c6a_4cf2),
    ("table4", 0x6bca_5ffe_024c_2498),
    ("fig1", 0x5fe1_4010_745d_8dbd),
    ("fig2", 0x7dcb_3b46_60d9_03ea),
    ("fig3", 0xe77a_0a93_18f7_8105),
    ("fig4", 0x7ed0_2de7_6cc2_a50c),
    ("fig5", 0xf67e_b037_047d_d75f),
    ("fig6", 0x3794_0366_6551_f6e5),
    ("fig7", 0x013c_e1d5_f525_11bd),
    ("fig8", 0xfef8_ce5c_6c7b_5eaf),
    ("fig9", 0x14a2_5652_bcaf_fcec),
    ("fig10", 0xcab4_d13e_2f3a_4950),
    ("fig11", 0x1f8d_fbfd_0bed_3b00),
    ("fig12", 0x3ee2_5509_73c3_3e4a),
    ("fig13", 0xdfcf_958b_ba32_fedd),
    ("sec5", 0x35aa_b9b0_4116_e622),
    ("fig14", 0xf5df_01ba_f05e_e8ff),
    ("sec6_paths", 0xccc4_f34a_511d_0273),
    ("sec7_channels", 0x1bc5_a32b_2f2d_2960),
    ("scenario_demo", 0x705e_8b44_4a2e_3b2f),
    ("rootd_demo", 0x465a_d7fe_579f_735a),
];

/// Farm workloads whose runs report per-query serve figures.
pub const SERVE_MIXES: [&str; 2] = ["farm_broot", "farm_cold"];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("vantage.world_s", "s"),
        ("vantage.measure_s", "s"),
        ("vantage.measure_records", "count"),
        ("vantage.measure_ns_per_record", "ns"),
        ("traces.generate_s", "s"),
        ("traces.flows", "count"),
        ("core.pipeline_s", "s"),
        ("core.pipeline_unattributed_s", "s"),
        ("core.experiments_s", "s"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for (id, _) in PINNED_SECTIONS {
        out.push((format!("analysis.{id}_s"), "s"));
    }
    out.push(("analysis.critical_s".to_string(), "s"));
    for (n, u) in [
        ("rootd.setup.world_s", "s"),
        ("rootd.index.build_s", "s"),
        ("rootd.farm.build_s", "s"),
        ("rootd.farm.steer_ns", "ns"),
        ("rootd.engine.hit_ns", "ns"),
        ("rootd.engine.fallback_ns", "ns"),
    ] {
        out.push((n.to_string(), u));
    }
    for mix in SERVE_MIXES {
        for (n, u) in [
            ("rootd.farm.driver_ns_per_q", "ns"),
            ("rootd.farm.serve_ns_per_q", "ns"),
            ("rootd.cache.hit_ratio", "ratio"),
            ("rootd.farm.serve_p50_ns", "ns"),
            ("rootd.farm.serve_p99_ns", "ns"),
            ("rootd.farm.size_p50_b", "B"),
            ("rootd.farm.size_p99_b", "B"),
            ("rootd.farm.qps_1shard", "1/s"),
            ("rootd.farm.shard_scaling", "ratio"),
        ] {
            out.push((format!("{n}.{mix}"), u));
        }
    }
    for (n, u) in [
        ("rootd.farm.driver_ns_per_q.farm_chaos", "ns"),
        ("rootd.farm.serve_ns_per_q.farm_chaos", "ns"),
        ("rootd.cache.hit_ratio.farm_chaos", "ratio"),
        ("rootd.farm.healthy_overhead_wall_pct", "%"),
        ("rootd.recovery.control_plane_s", "s"),
        ("rootd.recovery.probes", "count"),
        ("rootd.recovery.window_share", "ratio"),
        ("rootd.health.transitions", "count"),
        ("rootd.farm.steering_epochs", "count"),
        ("rootd.farm.hedged", "count"),
        ("rootd.farm.late", "count"),
        ("rootd.farm.shed_junk", "count"),
        ("rootd.farm.shed_benign", "count"),
        ("rootd.farm.unanswered", "count"),
        ("bench.trace_overhead_pct", "%"),
    ] {
        out.push((n.to_string(), u));
    }
    out
}

/// FNV-1a over bytes: the digest pinned per paper section.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one benchmark run prints as its last line.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Descriptions of failed correctness checks.
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Record a failed check that voids `ops` operations.
    pub fn fail(&mut self, ops: u64, problem: String) {
        self.failed += ops;
        self.problems.push(problem);
    }

    /// The JSON result line over `names`, in that order. A name without
    /// a value, or a value that is not finite, is a failed check.
    pub fn result_line(&mut self, names: &[(String, &str)]) -> String {
        let mut body = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                other => {
                    self.problems
                        .push(format!("metric {name} missing or not finite: {other:?}"));
                    0.0
                }
            };
            body.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of the objects in `BENCHMARK.json`'s `key`
    /// array, with their units.
    fn declared(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split('{')
            .skip(1)
            .map(|obj| {
                let field = |f: &str| {
                    let at = obj.find(&format!("\"{f}\"")).expect("field present") + f.len() + 2;
                    let rest = &obj[at..];
                    let open = rest.find('"').expect("string value") + 1;
                    let close = open + rest[open..].find('"').expect("string closes");
                    rest[open..close].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        let json = benchmark_json();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared(&json, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared(&json, "per_layer"), layers);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        for n in &names {
            assert!(n.len() <= 64, "{n} too long");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }

    #[test]
    fn registry_matches_pinned_sections() {
        let ids: Vec<&str> = roots_core::experiments::registry()
            .iter()
            .map(|e| e.id)
            .collect();
        let pinned: Vec<&str> = PINNED_SECTIONS.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, pinned);
    }

    #[test]
    fn median_and_result_line() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let mut out = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        out.set("a", 1.5);
        let names = [("a".to_string(), "s"), ("b".to_string(), "s")];
        let line = out.result_line(&names);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"a\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert_eq!(out.problems.len(), 1, "missing metric b is a failed check");
    }
}

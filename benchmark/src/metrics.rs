//! The metric tables: names, units, directions and bounds, exactly as
//! `BENCHMARK.json` lists them (a test holds the two together).

/// A metric's definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Def {
    Def { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better, bound: 0.0 }
}

/// Measured with tracing off; every workload reports every one.
pub const END_TO_END: [Def; 4] = [
    e2e("pass_wall_s", "s", "lower", 0.25),
    e2e("ops_per_sec", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.1),
    e2e("setup_s", "s", "lower", 0.25),
];

/// End-to-end numbers that exist on `registry_mixed` only. The driver's
/// contract wants every listed metric from every workload, so these are
/// printed and A/A-checked by this program but not listed in
/// `BENCHMARK.json`, which says so in the workload's `why`: the driver
/// does not gate them. The `registry.remote_*` probes are their per-layer
/// stand-ins.
pub const REGISTRY_ONLY: [Def; 4] = [
    e2e("lookup_exact_p50_us", "us", "lower", 0.1),
    e2e("lookup_nearest_p50_us", "us", "lower", 0.1),
    e2e("lookup_nearest_p90_us", "us", "lower", 0.1),
    e2e("put_p50_us", "us", "lower", 0.1),
];

/// Measured by the traced run; every workload reports every one. Shares
/// and counts are 0 on a workload that makes no call into the layer;
/// probe timings do not depend on the workload.
pub const PER_LAYER: [Def; 63] = [
    layer("apps.instantiate_share", "ratio", "lower"),
    layer("apps.resize_share", "ratio", "lower"),
    layer("apps.check_share", "ratio", "lower"),
    layer("core.execute_share", "ratio", "lower"),
    layer("core.executor_new_share", "ratio", "lower"),
    layer("core.lazy_pulls", "count", "lower"),
    layer("core.compile_events", "count", "lower"),
    layer("rt.sched_steps", "count", "lower"),
    layer("rt.eligibility_rescans", "count", "lower"),
    layer("rt.cpu_tasks", "count", "lower"),
    layer("rt.gpu_tasks", "count", "lower"),
    layer("rt.steal_success", "ratio", "higher"),
    layer("gpu.copy_in_dedup_hits", "count", "higher"),
    layer("gpu.copy_out_requeues", "count", "lower"),
    layer("blas.lapack_gemm128_us", "us", "lower"),
    layer("blas.blocked_gemm128_us", "us", "lower"),
    layer("tuner.trials", "count", "lower"),
    layer("tuner.rejected_share", "ratio", "lower"),
    layer("tuner.kicks", "count", "lower"),
    layer("tuner.mutate_us", "us", "lower"),
    layer("tuner.between_trials_share", "ratio", "lower"),
    layer("tuner.unattributed_share", "ratio", "lower"),
    layer("farm.merge_share", "ratio", "lower"),
    layer("farm.wire_job_small_encode_ns", "ns", "lower"),
    layer("farm.wire_job_small_decode_ns", "ns", "lower"),
    layer("farm.wire_job_small_bytes", "B", "lower"),
    layer("farm.wire_job_large_encode_ns", "ns", "lower"),
    layer("farm.wire_job_large_decode_ns", "ns", "lower"),
    layer("farm.wire_job_large_bytes", "B", "lower"),
    layer("farm.wire_result_encode_ns", "ns", "lower"),
    layer("farm.wire_result_decode_ns", "ns", "lower"),
    layer("farm.wire_result_bytes", "B", "lower"),
    layer("shard.pipe_hop_share", "ratio", "lower"),
    layer("shard.serve_us_per_job", "us", "lower"),
    layer("shard.spawn_ms", "ms", "lower"),
    layer("farmd.socket_hop_share", "ratio", "lower"),
    layer("farmd.journal_share", "ratio", "lower"),
    layer("farmd.journal_bytes_per_job", "B", "lower"),
    layer("farmd.session_open_ms", "ms", "lower"),
    layer("farmd.requeues", "count", "lower"),
    layer("farmd.completed", "count", "higher"),
    layer("farmd.reg_hop_us", "us", "lower"),
    layer("registry.entries", "count", "higher"),
    layer("registry.dir_lookup_exact_us", "us", "lower"),
    layer("registry.dir_lookup_nearest_us", "us", "lower"),
    layer("registry.dir_lookup_crosssize_us", "us", "lower"),
    layer("registry.dir_put_us", "us", "lower"),
    layer("registry.remote_lookup_exact_us", "us", "lower"),
    layer("registry.remote_lookup_nearest_us", "us", "lower"),
    layer("registry.remote_put_us", "us", "lower"),
    layer("registry.scan_us", "us", "lower"),
    layer("registry.scan_us_per_entry", "us", "lower"),
    layer("registry.decode_entry_ns", "ns", "lower"),
    layer("registry.search_share", "ratio", "lower"),
    layer("registry.tier_exact", "count", "higher"),
    layer("registry.tier_family", "count", "higher"),
    layer("registry.tier_any", "count", "higher"),
    layer("registry.scaled", "count", "higher"),
    layer("registry.miss", "count", "lower"),
    layer("registry.put_replaced", "count", "higher"),
    layer("registry.put_kept", "count", "higher"),
    layer("proc.cpu_share", "ratio", "lower"),
    layer("proc.trace_overhead", "ratio", "lower"),
];

/// Units in which 0 is a measurement ("this workload made no such call")
/// rather than a missing value.
pub fn zero_is_a_value(unit: &str) -> bool {
    matches!(unit, "ratio" | "count" | "B")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the program prints. Every name, unit, direction and bound must
    /// agree, in order.
    #[test]
    fn benchmark_json_lists_exactly_these_tables() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repo root");
        let section = |key: &str| -> Vec<String> {
            let start = json.find(&format!("\"{key}\": [")).expect(key);
            let end = start + json[start..].find("\n  ]").expect("closing bracket");
            json[start..end]
                .lines()
                .skip(1)
                .map(|l| l.trim().trim_end_matches(',').to_owned())
                .collect()
        };
        let want: Vec<String> = END_TO_END
            .iter()
            .map(|d| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    d.name, d.unit, d.better, d.bound
                )
            })
            .collect();
        assert_eq!(section("end_to_end"), want);
        let want: Vec<String> = PER_LAYER
            .iter()
            .map(|d| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    d.name, d.unit, d.better
                )
            })
            .collect();
        assert_eq!(section("per_layer"), want);
        let workloads: Vec<String> =
            crate::workloads::WORKLOADS.iter().map(|w| format!("{{\"name\": \"{w}\"")).collect();
        for (line, want) in section("workloads").iter().zip(&workloads) {
            assert!(line.starts_with(want.as_str()), "{line}");
        }
        assert!(json.contains(&format!("\"run_seconds\": {}", crate::run::RUN_SECONDS)));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|d| d.name).collect();
        assert!(names
            .iter()
            .all(|n| n.len() <= 64
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
    }
}

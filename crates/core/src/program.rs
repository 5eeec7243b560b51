//! Transform-level program structure: transforms and their algorithmic
//! choices (§2, §3).
//!
//! A [`Program`] is the metadata the autotuner needs about a benchmark:
//! which call sites carry selectors, how many algorithmic choices each has,
//! which tunables exist, and the size of the resulting search space (the
//! "# Possible Configs" column of Fig. 8). §3's choice dependency graph
//! (data as vertices, rules as hyperedges, several rules producing one
//! datum) is not a data structure here: each benchmark lowers the choices
//! a configuration makes straight to a [`crate::plan::Plan`].

use crate::config::{Config, Selector, Tunable, RATIO_DENOMINATOR};
use petal_gpu::profile::MachineProfile;

/// Metadata about one choice site (a transform or a recursive call site).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChoiceSite {
    /// Selector name (also the transform name used by
    /// `plan::placement_from_config`).
    pub name: String,
    /// Number of algorithmic choices at this site.
    pub num_algs: usize,
    /// Whether OpenCL variants exist (adds `local_size` / `gpu_ratio`
    /// tunables and counts generated kernels).
    pub opencl: bool,
    /// Whether the scratchpad variant was synthesized (a second kernel).
    pub local_memory_variant: bool,
    /// Whether the site's lowering can actually split work fractionally
    /// between CPU and device (§4.3). Sites that lower to fixed whole-device
    /// kernels (e.g. bitonic sorting networks) set this `false` so no dead
    /// `*.gpu_ratio` tunable inflates the search space — the static verifier
    /// flags the mismatch either way.
    pub fractional: bool,
}

/// Program-level metadata consumed by the autotuner and the reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// Benchmark name.
    pub name: String,
    /// Choice sites (selectors).
    pub sites: Vec<ChoiceSite>,
    /// Extra tunables beyond the per-site standard ones:
    /// `(name, default, min, max)`.
    pub extra_tunables: Vec<(String, i64, i64, i64)>,
}

impl Program {
    /// New empty program description.
    #[must_use]
    pub fn new(name: &str) -> Self {
        Program { name: name.into(), ..Program::default() }
    }

    /// Add a choice site.
    pub fn add_site(&mut self, site: ChoiceSite) -> &mut Self {
        self.sites.push(site);
        self
    }

    /// Add an extra tunable.
    pub fn add_tunable(&mut self, name: &str, default: i64, min: i64, max: i64) -> &mut Self {
        self.extra_tunables.push((name.into(), default, min, max));
        self
    }

    /// The default (untuned) configuration: algorithm 0 everywhere, default
    /// tunables — what a user gets without autotuning.
    #[must_use]
    pub fn default_config(&self, machine: &MachineProfile) -> Config {
        let mut cfg = Config::new();
        let max_wg = machine.gpu.as_ref().map_or(1, |g| g.max_work_group) as i64;
        for site in &self.sites {
            let algs = self.site_algs(site, machine);
            cfg.set_selector(&site.name, Selector::constant(0, algs));
            if site.opencl && machine.has_opencl() {
                cfg.set_tunable(
                    &format!("{}.local_size", site.name),
                    Tunable::new(128.min(max_wg), 1, max_wg),
                );
                if site.fractional {
                    cfg.set_tunable(
                        &format!("{}.gpu_ratio", site.name),
                        Tunable::new(RATIO_DENOMINATOR, 0, RATIO_DENOMINATOR),
                    );
                }
            }
        }
        cfg.set_tunable("sequential_cutoff", Tunable::new(64, 1, 1 << 20));
        cfg.set_tunable("split_rows", Tunable::new(0, 0, 1 << 20));
        for (name, default, min, max) in &self.extra_tunables {
            cfg.set_tunable(name, Tunable::new(*default, *min, *max));
        }
        cfg
    }

    /// Number of algorithms available at `site` on `machine`: the declared
    /// algorithmic choices, plus the OpenCL backend choice(s) when the
    /// machine has a device (CPU / OpenCL-global / OpenCL-local, §5.3).
    #[must_use]
    pub fn site_algs(&self, site: &ChoiceSite, machine: &MachineProfile) -> usize {
        let mut n = site.num_algs.max(1);
        if site.opencl && machine.has_opencl() {
            n += 1; // OpenCL with global memory
            if site.local_memory_variant {
                n += 1; // OpenCL with local memory
            }
        }
        n
    }

    /// Number of OpenCL kernels generated for this program (the "Generated
    /// OpenCL Kernels" column of Fig. 8).
    #[must_use]
    pub fn generated_kernels(&self) -> usize {
        self.sites
            .iter()
            .map(|s| usize::from(s.opencl) + usize::from(s.opencl && s.local_memory_variant))
            .sum()
    }

    /// log₁₀ of the configuration-space size on `machine` for inputs up to
    /// `max_input_size` (Fig. 8's astronomically large numbers come from
    /// cutoffs being arbitrary input sizes at each of the 12 levels).
    #[must_use]
    pub fn log10_config_space(&self, machine: &MachineProfile, max_input_size: u64) -> f64 {
        self.default_config(machine).log10_space_size(max_input_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MAX_SELECTOR_LEVELS;

    #[test]
    fn program_counts_kernels_and_space() {
        let mut p = Program::new("conv");
        p.add_site(ChoiceSite {
            name: "convolve".into(),
            num_algs: 1,
            opencl: true,
            local_memory_variant: true,
            fractional: true,
        });
        p.add_site(ChoiceSite {
            name: "helper".into(),
            num_algs: 2,
            opencl: false,
            local_memory_variant: false,
            fractional: false,
        });
        assert_eq!(p.generated_kernels(), 2);
        let desktop = MachineProfile::desktop();
        assert_eq!(p.site_algs(&p.sites[0], &desktop), 3, "CPU/global/local");
        assert_eq!(p.site_algs(&p.sites[1], &desktop), 2);
        let mut no_gpu = desktop.clone();
        no_gpu.gpu = None;
        assert_eq!(p.site_algs(&p.sites[0], &no_gpu), 1, "no OpenCL without a device");
        assert!(p.log10_config_space(&desktop, 1 << 22) > 100.0, "Fig. 8 scale");
    }

    #[test]
    fn default_config_has_standard_tunables() {
        let mut p = Program::new("x");
        p.add_site(ChoiceSite {
            name: "t".into(),
            num_algs: 1,
            opencl: true,
            local_memory_variant: false,
            fractional: true,
        });
        p.add_tunable("accuracy_rank", 8, 1, 64);
        let cfg = p.default_config(&MachineProfile::desktop());
        assert!(cfg.selector("t").is_some());
        assert!(cfg.tunable("t.local_size").is_some());
        assert!(cfg.tunable("t.gpu_ratio").is_some());
        assert!(cfg.tunable("sequential_cutoff").is_some());
        assert_eq!(cfg.tunable_or("accuracy_rank", 0), 8);
        // Selector levels never exceed the paper's 12.
        assert!(cfg.selector("t").unwrap().levels() <= MAX_SELECTOR_LEVELS);
    }
}

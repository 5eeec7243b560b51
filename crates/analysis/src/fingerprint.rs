//! The pinned value of [`petal_core::plan::plan_fingerprint`], checked
//! here because `petal_core` cannot reach a benchmark.

mod tests {
    use petal_apps::benchmark_from_spec;
    use petal_core::plan::plan_fingerprint;
    use petal_gpu::profile::MachineProfile;

    /// `petal-verify` reports quote fingerprints verbatim: one is pinned.
    #[test]
    fn a_plan_fingerprint_keeps_its_value() {
        let machine = MachineProfile::desktop();
        let bench = benchmark_from_spec("convolution n=64 k=5").unwrap();
        let cfg = bench.program(&machine).default_config(&machine);
        assert_eq!(
            plan_fingerprint(&bench.instantiate(&machine, &cfg).plan),
            0x025e_a59f_ecc5_0d25
        );
    }
}

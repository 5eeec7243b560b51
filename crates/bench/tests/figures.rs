//! The paper's Fig. 6 and Fig. 7 claims, asserted: each benchmark's
//! table at harness sizes, on the five machines `fig7_migration` prints,
//! held to `figures::check`'s bands (every diagonal cell exactly 1.0,
//! the asserted baseline and migration cells, the Fig. 6 placements).
//!
//! Tunes whose debug build takes more than 30 s run only in release,
//! where `ci.sh` runs this file.

use petal_bench::figures::{check, table};
use petal_bench::{harness_benchmarks, tuner_settings_on};
use petal_farm::FarmSettings;
use petal_gpu::profile::MachineProfile;

fn assert_figure(name: &str) {
    let bench: Vec<_> =
        harness_benchmarks(false).into_iter().filter(|b| b.name() == name).collect();
    assert_eq!(bench.len(), 1, "{name} is a harness benchmark");
    let settings = tuner_settings_on(FarmSettings::host_parallel());
    let table = table(&bench, &MachineProfile::extended(), &settings);
    if let Err(errors) = check(&table) {
        panic!("{name} leaves its bands:\n{}", errors.join("\n"));
    }
}

#[test]
fn black_scholes_goes_all_gpu_on_desktop_and_splits_on_laptop() {
    assert_figure("Black-Scholes");
}

#[test]
fn poisson_diagonal_is_its_own_native_run() {
    assert_figure("Poisson2D SOR");
}

#[test]
fn convolution_beats_the_hand_coded_opencl_kernel() {
    assert_figure("SeparableConvolution");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "harness-size tunes; ci.sh runs it in release")]
fn sort_beats_the_gpu_only_bitonic_sort() {
    assert_figure("Sort");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "harness-size tunes; ci.sh runs it in release")]
fn strassen_laptop_config_loses_on_desktop_and_server() {
    assert_figure("Strassen");
}

#[test]
fn svd_diagonal_is_its_own_native_run() {
    assert_figure("SVD");
}

#[test]
fn tridiagonal_diagonal_is_its_own_native_run() {
    assert_figure("Tridiagonal Solver");
}

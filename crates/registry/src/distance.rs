//! Machine fingerprints, families, and the nearest-key distance.
//!
//! Lookup needs three things from a [`MachineProfile`]: an *identity*
//! (the [`fingerprint`] — equal iff every cost-model field is
//! bit-identical), a *coarse class* (the [`MachineFamily`] — which of
//! the paper's qualitative regimes the machine tunes like), and a
//! *metric* (the [`distance`] — how far apart two machines' dominant
//! cost-model ratios sit). The tiers exist because family membership
//! dominates raw magnitudes: Fig. 7's worst migrations are
//! cross-family (Desktop→Server 16×), so a small same-family machine is
//! a better warm-start donor than a big cross-family one even when the
//! latter's numbers are closer.

use petal_farm::wire::Message;
use petal_gpu::profile::MachineProfile;
use petal_gpu::Fnv;
use std::fmt;

/// The machine's identity for registry keys: FNV-1a ([`Fnv`]) over the profile's
/// canonical wire encoding (the same [`petal_farm::wire`] field
/// flattening that ships profiles to shard workers). Two profiles share
/// a fingerprint iff every field — codename, OS, runtime, and every
/// cost-model number, down to exact f64 bit patterns — is identical.
#[must_use]
pub fn fingerprint(machine: &MachineProfile) -> u64 {
    // The INIT encoding is the one canonical profile serialization in
    // the workspace; the version and spec slots are pinned so the
    // fingerprint depends on the machine alone.
    let line =
        Message::Init { version: 0, bench_spec: String::new(), machine: Box::new(machine.clone()) }
            .encode();
    Fnv::of(line.as_bytes())
}

/// [`fingerprint`] as the fixed-width hex used in filenames and CLI
/// output.
#[must_use]
pub fn fingerprint_hex(machine: &MachineProfile) -> String {
    format!("{:016x}", fingerprint(machine))
}

/// The qualitative tuning regime a machine belongs to. Same family ⇒
/// the same *kinds* of choices win (which algorithm class, whether to
/// stage scratchpad, whether fractional CPU/GPU splits pay), so a
/// same-family config is a strong warm-start seed even across very
/// different magnitudes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MachineFamily {
    /// No OpenCL runtime at all (`gpu: None`) — tuning is purely
    /// CPU-side structure (the ManyCore preset).
    CpuOnly,
    /// An OpenCL runtime that JITs for the host CPU (`cpu_backed`):
    /// transfers are memcpys and local memory is a fiction (the Server
    /// preset).
    CpuBackedOpenCl,
    /// A physical GPU sharing host DRAM — `global_bw` within 25% of the
    /// host `mem_bw`, so transfers are nearly free but the device
    /// competes for bandwidth (the iGPU preset).
    IntegratedGpu,
    /// A physical GPU with its own memory behind an interconnect (the
    /// Desktop and Laptop presets).
    DiscreteGpu,
}

impl fmt::Display for MachineFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MachineFamily::CpuOnly => "cpu-only",
            MachineFamily::CpuBackedOpenCl => "cpu-backed-opencl",
            MachineFamily::IntegratedGpu => "integrated-gpu",
            MachineFamily::DiscreteGpu => "discrete-gpu",
        })
    }
}

/// Classify a machine into its [`MachineFamily`].
#[must_use]
pub fn family(machine: &MachineProfile) -> MachineFamily {
    match &machine.gpu {
        None => MachineFamily::CpuOnly,
        Some(g) if g.cpu_backed => MachineFamily::CpuBackedOpenCl,
        // "Shares host DRAM": no meaningful device-side bandwidth edge
        // over the host memory bus. The 1.25 slack absorbs calibration
        // noise without capturing any discrete card (the weakest
        // discrete preset, the Laptop's HD 6630M, is at 2.1×).
        Some(g) if g.global_bw <= machine.cpu.mem_bw * 1.25 => MachineFamily::IntegratedGpu,
        Some(_) => MachineFamily::DiscreteGpu,
    }
}

/// |log₂(a/b)| — octaves between two positive magnitudes; 0 for equal
/// values, 1 per doubling, symmetric. Degenerate (≤ 0 or non-finite)
/// inputs fall back to a fixed 32-octave penalty instead of poisoning
/// the sum with NaN.
pub(crate) fn octaves(a: f64, b: f64) -> f64 {
    if a > 0.0 && b > 0.0 && a.is_finite() && b.is_finite() {
        // Divide large by small so the result is bit-identical in both
        // argument orders (a/b and b/a round differently at the ulp).
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        (hi / lo).log2()
    } else if a == b {
        0.0
    } else {
        32.0
    }
}

/// Penalty added when exactly one side has the named capability.
fn mismatch(a: bool, b: bool, penalty: f64) -> f64 {
    if a == b {
        0.0
    } else {
        penalty
    }
}

/// Nearest-key metric between two machines: the sum of octave gaps
/// (|log₂ ratio|) over the cost-model magnitudes that dominate tuned
/// configurations, plus fixed penalties for capability mismatches.
///
/// Summed terms (each in octaves):
///
/// * CPU — core count, aggregate scalar flop/s, memory bandwidth;
/// * GPU (when both sides have one) — device flop/s, global bandwidth,
///   interconnect bandwidth, scratchpad bandwidth;
/// * +8 when exactly one side's device is `cpu_backed` (staging and
///   transfer decisions invert);
/// * +16 when exactly one side has a device at all (every OpenCL choice
///   is meaningless on the other).
///
/// Ratios, not differences: what moves a tuned config is *relative*
/// capability (GPU:CPU speed ratio, transfer cost per byte of
/// bandwidth), so a uniformly-2×-faster machine is "1 octave away" on
/// each axis, not "billions of flop/s away". Symmetric, zero iff the
/// compared magnitudes are all equal; used only to rank candidates
/// within a lookup tier.
#[must_use]
pub fn distance(a: &MachineProfile, b: &MachineProfile) -> f64 {
    let mut d = octaves(a.cpu.cores as f64, b.cpu.cores as f64)
        + octaves(a.cpu_flops(), b.cpu_flops())
        + octaves(a.cpu.mem_bw, b.cpu.mem_bw);
    match (&a.gpu, &b.gpu) {
        (Some(ga), Some(gb)) => {
            d += octaves(ga.flops, gb.flops)
                + octaves(ga.global_bw, gb.global_bw)
                + octaves(ga.pcie_bw, gb.pcie_bw)
                + octaves(ga.local_bw, gb.local_bw)
                + mismatch(ga.cpu_backed, gb.cpu_backed, 8.0);
        }
        (None, None) => {}
        _ => d += 16.0,
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_classify_into_the_documented_families() {
        assert_eq!(family(&MachineProfile::desktop()), MachineFamily::DiscreteGpu);
        assert_eq!(family(&MachineProfile::laptop()), MachineFamily::DiscreteGpu);
        assert_eq!(family(&MachineProfile::server()), MachineFamily::CpuBackedOpenCl);
        assert_eq!(family(&MachineProfile::igpu()), MachineFamily::IntegratedGpu);
        assert_eq!(family(&MachineProfile::manycore()), MachineFamily::CpuOnly);
    }

    #[test]
    fn fingerprint_is_sensitive_to_every_cost_field() {
        let base = MachineProfile::desktop();
        let fp = fingerprint(&base);
        assert_eq!(fp, fingerprint(&base), "fingerprint is a pure function");

        let mut cores = base.clone();
        cores.cpu.cores += 1;
        assert_ne!(fingerprint(&cores), fp);

        let mut bw = base.clone();
        bw.gpu.as_mut().unwrap().global_bw *= 1.0 + f64::EPSILON;
        assert_ne!(fingerprint(&bw), fp, "a single ulp changes the fingerprint");

        let mut name = base;
        name.codename = "Desktop2".into();
        assert_ne!(fingerprint(&name), fp);
    }

    #[test]
    fn distance_is_a_symmetric_premetric_on_presets() {
        let machines = MachineProfile::extended();
        for a in &machines {
            assert_eq!(distance(a, a), 0.0, "{} to itself", a.codename);
            for b in &machines {
                let d = distance(a, b);
                assert!(d.is_finite() && d >= 0.0);
                assert_eq!(d, distance(b, a), "{} vs {}", a.codename, b.codename);
                if a.codename != b.codename {
                    assert!(d > 0.0, "{} vs {}", a.codename, b.codename);
                }
            }
        }
    }

    #[test]
    fn capability_mismatches_dominate_magnitude_gaps() {
        let desktop = MachineProfile::desktop();
        let laptop = MachineProfile::laptop();
        let server = MachineProfile::server();
        let manycore = MachineProfile::manycore();
        // Desktop↔Laptop differ only in magnitudes; Desktop↔Server cross
        // the cpu_backed line (+8); Desktop↔ManyCore the gpu-presence
        // line (+16).
        assert!(distance(&desktop, &laptop) < distance(&desktop, &server));
        assert!(distance(&desktop, &server) < distance(&desktop, &manycore));
    }

    #[test]
    fn octaves_degrade_gracefully() {
        assert_eq!(octaves(4.0, 4.0), 0.0);
        assert_eq!(octaves(8.0, 2.0), 2.0);
        assert_eq!(octaves(2.0, 8.0), 2.0);
        assert_eq!(octaves(0.0, 0.0), 0.0);
        assert_eq!(octaves(1.0, 0.0), 32.0);
        assert_eq!(octaves(f64::NAN, 1.0), 32.0);
    }
}

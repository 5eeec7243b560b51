//! Structural plan fingerprints for dead-choice probing.
//!
//! Two plans with the same fingerprint lower to the same task structure:
//! same step kinds in the same order, same placements, same buffer wiring,
//! same dependence edges. The linter varies one configuration knob at a
//! time and declares the knob *dead* when no probed variation ever changes
//! the fingerprint — the knob provably cannot affect what the executor
//! does (closures inside native steps excepted; see
//! `Benchmark::dynamic_config_keys`).

use petal_core::plan::{Plan, Step, StepKind};
use petal_gpu::Fnv;

fn hash_step(h: &mut Fnv, step: &Step) {
    match &step.kind {
        StepKind::Stencil(s) => {
            h.write(&[1]);
            h.write_str(&s.rule.name);
            // Placement debug form covers the variant and every knob
            // (chunks, local_size, local_memory, gpu_eighths).
            h.write_str(&format!("{:?}", s.placement));
            h.write_usize(s.out_dims.0);
            h.write_usize(s.out_dims.1);
            for sc in &s.user_scalars {
                h.write(&sc.to_bits().to_le_bytes());
            }
        }
        StepKind::Native(n) => {
            h.write(&[2]);
            h.write_str(&n.label);
        }
    }
    for m in step.reads() {
        h.write_usize(m.index());
    }
    h.write(&[0xfe]);
    for m in step.writes() {
        h.write_usize(m.index());
    }
    h.write(&[0xfd]);
    for d in &step.deps {
        h.write_usize(d.index());
    }
}

/// Structural fingerprint of a lowered plan.
#[must_use]
pub fn plan_fingerprint(plan: &Plan) -> u64 {
    let mut h = Fnv::default();
    h.write_usize(plan.steps().len());
    for step in plan.steps() {
        hash_step(&mut h, step);
    }
    for m in plan.outputs() {
        h.write_usize(m.index());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use petal_apps::benchmark_from_spec;
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

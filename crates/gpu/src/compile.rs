//! Kernel dedup and the compile log (§5.4).
//!
//! OpenCL kernels are compiled at runtime; in the paper these compiles are
//! "a fixed startup cost, often on the order of a few seconds" that dominates
//! autotuning time at small input sizes. A device compiles each distinct
//! source once (a later compile of it in the same process is a warm hit and
//! costs nothing) and logs every compile it does as a [`CompileEvent`]. It
//! prices nothing: what a compile costs depends on process and IR-cache
//! state that outlives one trial's device, so the evaluation farm replays
//! the log against the one model of it (`petal_farm::EvalFarm`).

use crate::fnv::Fnv;
use crate::profile::GpuProfile;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// Handle to a kernel compiled on one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelHandle(pub(crate) usize);

impl KernelHandle {
    /// Raw index, for diagnostics.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }

    /// Rebuild a handle from [`KernelHandle::index`] (for tests and
    /// serialization; the device validates handles at launch).
    #[must_use]
    pub fn from_raw(index: usize) -> Self {
        KernelHandle(index)
    }
}

/// Kernel text ready to compile: the entry-point name, the OpenCL C source
/// and the source's [`source_hash`], computed once here and shared from then
/// on — whoever generated the text keeps one of these, and every compile of
/// it is one hash-map probe however long the source is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelText {
    name: Arc<str>,
    source: Arc<str>,
    source_hash: u64,
}

impl KernelText {
    /// Wrap `source` under entry point `name`, hashing it.
    #[must_use]
    pub fn new(name: &str, source: &str) -> Self {
        KernelText { name: name.into(), source: source.into(), source_hash: source_hash(source) }
    }

    /// Kernel entry-point name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Full OpenCL C source (generated by `petal-core`).
    #[must_use]
    pub fn source(&self) -> &str {
        &self.source
    }

    /// [`source_hash`] of the source: the dedup and IR-cache key.
    #[must_use]
    pub fn source_hash(&self) -> u64 {
        self.source_hash
    }
}

/// The key a kernel source is deduplicated and IR-cached under: its
/// FNV-1a hash ([`Fnv`]; stable across runs, unlike `DefaultHasher`, which
/// is randomly seeded).
#[must_use]
pub fn source_hash(source: &str) -> u64 {
    Fnv::of(source.as_bytes())
}

/// One compile a device did (a warm in-process reuse is free and not
/// logged). The event carries the raw frontend/JIT split, not a price:
/// what a compile costs depends on cache state the *consumer* owns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompileEvent {
    /// IR-cache key of the compiled source ([`source_hash`]).
    pub source_hash: u64,
    /// Frontend (parse + optimize) virtual seconds — the part an IR-cache
    /// hit skips.
    pub frontend_secs: f64,
    /// Architecture-specific JIT virtual seconds — never skippable.
    pub jit_secs: f64,
}

/// Per-device kernel dedup (one handle per distinct source) and the log of
/// the compiles it did.
#[derive(Debug, Default)]
pub struct CompileCache {
    by_hash: HashMap<u64, KernelHandle>,
    log: Vec<CompileEvent>,
}

impl CompileCache {
    /// Compile `text` on `gpu`, or reuse the kernel an earlier compile of
    /// the same source made; only a compile is logged.
    pub fn compile(&mut self, gpu: &GpuProfile, text: &KernelText) -> KernelHandle {
        let hash = text.source_hash();
        let handle = KernelHandle(self.by_hash.len());
        match self.by_hash.entry(hash) {
            Entry::Occupied(warm) => *warm.get(),
            Entry::Vacant(slot) => {
                self.log.push(CompileEvent {
                    source_hash: hash,
                    frontend_secs: gpu.compile_frontend,
                    jit_secs: gpu.compile_jit,
                });
                *slot.insert(handle)
            }
        }
    }

    /// Drain the log of compiles since the last drain (in compile order).
    /// Used by the executor to report per-run compile events.
    pub fn take_compile_log(&mut self) -> Vec<CompileEvent> {
        std::mem::take(&mut self.log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::MachineProfile;

    fn gpu() -> GpuProfile {
        MachineProfile::desktop().gpu.unwrap()
    }

    #[test]
    fn source_hash_is_stable_and_discriminating() {
        assert_eq!(source_hash("kernel void f(){}"), source_hash("kernel void f(){}"));
        assert_ne!(source_hash("a"), source_hash("b"));
        // FNV-1a's published vectors, and one kernel source pinned.
        assert_eq!(source_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(source_hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(source_hash("__kernel void f(__global double* out) {}"), 0xc4a7_7823_bb68_b497);
    }

    #[test]
    fn first_compile_is_full_price() {
        let g = gpu();
        let mut c = CompileCache::default();
        c.compile(&g, &KernelText::new("f", "src-a"));
        let want = CompileEvent {
            source_hash: source_hash("src-a"),
            frontend_secs: g.compile_frontend,
            jit_secs: g.compile_jit,
        };
        assert_eq!(c.take_compile_log(), [want]);
    }

    #[test]
    fn same_process_recompile_is_free() {
        let g = gpu();
        let mut c = CompileCache::default();
        let h1 = c.compile(&g, &KernelText::new("f", "src-a"));
        assert_eq!(c.take_compile_log().len(), 1);
        let h2 = c.compile(&g, &KernelText::new("f", "src-a"));
        assert_eq!(h1, h2);
        assert!(c.take_compile_log().is_empty(), "a warm hit is not logged");
    }

    #[test]
    fn distinct_sources_get_distinct_handles() {
        let g = gpu();
        let mut c = CompileCache::default();
        let h1 = c.compile(&g, &KernelText::new("f", "src-a"));
        let h2 = c.compile(&g, &KernelText::new("g", "src-b"));
        assert_eq!((h1.index(), h2.index()), (0, 1));
        let logged: Vec<u64> = c.take_compile_log().iter().map(|e| e.source_hash).collect();
        assert_eq!(logged, [source_hash("src-a"), source_hash("src-b")]);
    }
}

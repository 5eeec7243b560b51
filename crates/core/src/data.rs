//! Host-side data: the matrix store shared by all tasks of one execution.
//!
//! The [`World`] is the state `S` threaded through the runtime engine. It
//! owns every matrix of a program run, tracks per-matrix *versions* (so the
//! GPU residency table can detect stale copies, §4.3), and holds the
//! **lazy copy-out** table: regions computed on the GPU whose transfer back
//! is deferred until a consumer actually needs them (*may copy-out*, §3.2).
//!
//! A world is built on a [`Recycler`]: the zero matrices it hands out
//! ([`World::zeros`]) draw their storage from it and every matrix the
//! world owns when it is dropped goes back to it, so a session that builds
//! its worlds on one recycler pays the allocator for a trial's outputs
//! once, not once per trial. Matrices of 8 192 elements or more the
//! recycler passes on to the process's list of large storage, so the
//! next session of the same sizes pays nothing for them either.

use petal_blas::Matrix;
use petal_gpu::buffer::{Recycler, SharedSlice};
use std::sync::Arc;

/// Handle to a matrix inside a [`World`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MatrixId(pub(crate) usize);

impl MatrixId {
    /// Raw index, for diagnostics.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// A deferred (lazy) copy-out: the functional data is already known, but in
/// virtual time it only becomes available on the host once it is pulled.
#[derive(Debug, Clone)]
pub struct LazyEntry {
    /// The data that will land in the matrix when pulled: a snapshot of the
    /// device buffer, copied only by the pull.
    pub data: SharedSlice,
    /// Virtual time at which the device-side producer kernel finishes.
    pub ready_at: f64,
    /// Modeled transfer seconds for the pull itself.
    pub pull_secs: f64,
}

/// One matrix slot. A `Shared` slot borrows read-only data that outlives
/// the world (a benchmark's memoised inputs); it becomes `Owned` on its
/// first host write, so the donor is never written through.
#[derive(Debug)]
enum Slot {
    Owned(Matrix),
    Shared(Arc<Matrix>),
}

impl Slot {
    fn get(&self) -> &Matrix {
        match self {
            Slot::Owned(m) => m,
            Slot::Shared(m) => m,
        }
    }

    /// The slot's matrix for writing; a shared one is copied first.
    fn make_mut(&mut self) -> &mut Matrix {
        if let Slot::Shared(m) = self {
            *self = Slot::Owned(Matrix::clone(m));
        }
        match self {
            Slot::Owned(m) => m,
            Slot::Shared(_) => unreachable!("made owned above"),
        }
    }
}

/// All host-side matrices of one program execution.
#[derive(Debug, Default)]
pub struct World {
    mats: Vec<Slot>,
    versions: Vec<u64>,
    lazy: Vec<Option<LazyEntry>>,
    /// Lazy pulls performed (for reports and the movement-analysis tests).
    pub lazy_pulls: usize,
    recycler: Arc<Recycler>,
}

impl World {
    /// Empty world, on a recycler of its own.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty world on `recycler`, which outlives it: what this world
    /// gives back, the next world built on it starts from (and, for a
    /// matrix at or above the recycler's floor, the next world built on
    /// any recycler of the process).
    #[must_use]
    pub fn on(recycler: Arc<Recycler>) -> Self {
        World { mats: Vec::new(), versions: Vec::new(), lazy: Vec::new(), lazy_pulls: 0, recycler }
    }

    /// The recycler this world is built on; `Executor::run` lends it to
    /// the device for the run, so device buffers recycle with the world.
    #[must_use]
    pub fn recycler(&self) -> &Arc<Recycler> {
        &self.recycler
    }

    /// Install a matrix and get its handle.
    pub fn alloc(&mut self, m: Matrix) -> MatrixId {
        self.push(Slot::Owned(m))
    }

    /// Install a `rows × cols` matrix of zeros — `alloc(Matrix::zeros(rows,
    /// cols))` in everything a task can observe, every element `0.0`
    /// whatever the storage held before ([`Recycler::zeros`]) — drawn from
    /// the world's recycler.
    pub fn zeros(&mut self, rows: usize, cols: usize) -> MatrixId {
        let zeros = self.recycler.zeros(rows * cols);
        self.alloc(Matrix::from_vec(rows, cols, zeros))
    }

    /// Install a read-only matrix shared with other worlds. Reads cost
    /// what they cost on an owned matrix; the first host write
    /// ([`World::get_mut`], [`World::take_matrix`]) copies it into this
    /// world, so no execution can change what the others see. Versions
    /// and residency keys behave exactly as for [`World::alloc`].
    pub fn alloc_shared(&mut self, m: Arc<Matrix>) -> MatrixId {
        self.push(Slot::Shared(m))
    }

    fn push(&mut self, slot: Slot) -> MatrixId {
        self.mats.push(slot);
        self.versions.push(0);
        self.lazy.push(None);
        MatrixId(self.mats.len() - 1)
    }

    /// The donor of a slot that still borrows it ([`World::alloc_shared`]
    /// and no host write since), as a device copy-in may hold it: by
    /// reference. `None` once the slot owns its matrix.
    #[must_use]
    pub fn shared(&self, id: MatrixId) -> Option<&Arc<Matrix>> {
        match &self.mats[id.0] {
            Slot::Shared(m) => Some(m),
            Slot::Owned(_) => None,
        }
    }

    /// Number of matrices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.mats.len()
    }

    /// True when no matrices exist.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.mats.is_empty()
    }

    /// Read a matrix.
    ///
    /// # Panics
    /// Panics if a lazy copy-out is still pending for it — consumers must
    /// go through [`World::ensure_host`] first (the compiler-inserted check
    /// of §3.2).
    #[must_use]
    pub fn get(&self, id: MatrixId) -> &Matrix {
        assert!(
            self.lazy[id.0].is_none(),
            "matrix {id:?} read while its lazy copy-out is pending; call ensure_host first"
        );
        self.mats[id.0].get()
    }

    /// Mutate a matrix; bumps its version so stale GPU copies are detected.
    pub fn get_mut(&mut self, id: MatrixId) -> &mut Matrix {
        self.versions[id.0] += 1;
        self.lazy[id.0] = None; // host write supersedes any pending copy-out
        self.mats[id.0].make_mut()
    }

    /// Overwrite a matrix wholesale.
    pub fn set(&mut self, id: MatrixId, m: Matrix) {
        self.versions[id.0] += 1;
        self.lazy[id.0] = None;
        self.mats[id.0] = Slot::Owned(m);
    }

    /// Current version of a matrix (bumped on every host write).
    #[must_use]
    pub fn version(&self, id: MatrixId) -> u64 {
        self.versions[id.0]
    }

    /// Residency key for the GPU buffer table: identifies these exact bytes
    /// (matrix identity + version + row range).
    #[must_use]
    pub fn residency_key(&self, id: MatrixId, row0: usize, row1: usize) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for piece in [id.0 as u64, self.versions[id.0], row0 as u64, row1 as u64] {
            h ^= piece;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// `(cols, rows)` of a matrix — readable even while a lazy copy-out is
    /// pending (dimensions never change under deferral).
    #[must_use]
    pub fn get_dims(&self, id: MatrixId) -> (usize, usize) {
        let m = self.mats[id.0].get();
        (m.cols(), m.rows())
    }

    /// Move a matrix out for exclusive mutation (tasks run one at a time,
    /// so this never races). Pair with [`World::restore_matrix`]. An owned
    /// matrix moves out without allocating; a shared one is copied.
    #[must_use]
    pub fn take_matrix(&mut self, id: MatrixId) -> Matrix {
        match std::mem::replace(&mut self.mats[id.0], Slot::Owned(Matrix::zeros(0, 0))) {
            Slot::Owned(m) => m,
            Slot::Shared(m) => Matrix::clone(&m),
        }
    }

    /// Put a matrix taken with [`World::take_matrix`] back, bumping its
    /// version (it was mutated).
    pub fn restore_matrix(&mut self, id: MatrixId, m: Matrix) {
        self.versions[id.0] += 1;
        self.lazy[id.0] = None;
        self.mats[id.0] = Slot::Owned(m);
    }

    /// Register a deferred copy-out for `id` (the *may copy-out* policy).
    /// The matrix must not be read until the entry is pulled.
    pub fn defer_copy_out(&mut self, id: MatrixId, entry: LazyEntry) {
        self.lazy[id.0] = Some(entry);
    }

    /// True when a lazy copy-out is pending for `id`.
    #[must_use]
    pub fn has_pending_copy_out(&self, id: MatrixId) -> bool {
        self.lazy[id.0].is_some()
    }

    /// The compiler-inserted check before any consumer of a *may copy-out*
    /// region: if the data is still on the GPU, pull it now.
    ///
    /// Returns the virtual seconds the consuming task must additionally
    /// charge (waiting for the producer kernel plus the transfer), or zero
    /// when the data was already on the host.
    pub fn ensure_host(&mut self, id: MatrixId, now: f64) -> f64 {
        match self.lazy[id.0].take() {
            None => 0.0,
            Some(e) => {
                let wait = (e.ready_at - now).max(0.0);
                // Into the storage the slot owns; a slot that borrows a
                // donor gets a matrix of its own, as on any host write.
                match &mut self.mats[id.0] {
                    Slot::Owned(m) => m.as_mut_slice().copy_from_slice(&e.data),
                    Slot::Shared(m) => {
                        let pulled = Matrix::from_vec(m.rows(), m.cols(), e.data.to_vec());
                        self.mats[id.0] = Slot::Owned(pulled);
                    }
                }
                self.versions[id.0] += 1;
                self.lazy_pulls += 1;
                wait + e.pull_secs
            }
        }
    }
}

impl Drop for World {
    fn drop(&mut self) {
        for slot in self.mats.drain(..) {
            if let Slot::Owned(m) = slot {
                self.recycler.give(m.into_vec());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_get_set_roundtrip() {
        let mut w = World::new();
        let id = w.alloc(Matrix::zeros(2, 2));
        assert_eq!(w.get(id).rows(), 2);
        w.get_mut(id)[(0, 0)] = 5.0;
        assert_eq!(w.get(id)[(0, 0)], 5.0);
        assert_eq!(w.version(id), 1);
    }

    #[test]
    fn residency_key_changes_with_version_and_range() {
        let mut w = World::new();
        let id = w.alloc(Matrix::zeros(4, 4));
        let k1 = w.residency_key(id, 0, 4);
        assert_eq!(k1, w.residency_key(id, 0, 4), "key is deterministic");
        assert_ne!(k1, w.residency_key(id, 0, 2), "range matters");
        w.get_mut(id)[(0, 0)] = 1.0;
        assert_ne!(k1, w.residency_key(id, 0, 4), "version matters");
    }

    #[test]
    fn a_write_to_a_shared_slot_copies_once_and_leaves_the_donor_untouched() {
        let donor = Arc::new(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let mut w = World::new();
        let id = w.alloc_shared(Arc::clone(&donor));
        let fresh = w.residency_key(id, 0, 1);
        assert!(std::ptr::eq(w.get(id), &*donor), "reads go to the donor's bytes");
        assert!(w.shared(id).is_some_and(|held| Arc::ptr_eq(held, &donor)));
        assert_eq!((w.get_dims(id), w.version(id)), ((2, 1), 0));
        assert_eq!(Arc::strong_count(&donor), 2);

        w.get_mut(id)[(0, 0)] = 9.0;
        assert_eq!(w.version(id), 1, "one write, one bump");
        assert_ne!(w.residency_key(id, 0, 1), fresh);
        assert_eq!(w.get(id).as_slice(), [9.0, 2.0]);
        assert_eq!(donor.as_slice(), [1.0, 2.0]);
        assert_eq!(Arc::strong_count(&donor), 1, "the slot let go of the donor");
        assert!(w.shared(id).is_none(), "an owned slot has no donor to hold by reference");

        // Every other write path detaches the same way.
        let mut w = World::new();
        let (a, b) = (w.alloc_shared(Arc::clone(&donor)), w.alloc_shared(Arc::clone(&donor)));
        let mut taken = w.take_matrix(a);
        taken[(0, 1)] = 7.0;
        w.restore_matrix(a, taken);
        w.defer_copy_out(
            b,
            LazyEntry { data: vec![5.0, 6.0].into(), ready_at: 0.0, pull_secs: 0.0 },
        );
        let _ = w.ensure_host(b, 0.0);
        assert_eq!((w.version(a), w.version(b)), (1, 1));
        assert_eq!(w.lazy_pulls, 1);
        assert_eq!((w.get(a).as_slice(), w.get(b).as_slice()), (&[1.0, 7.0][..], &[5.0, 6.0][..]));
        assert_eq!(donor.as_slice(), [1.0, 2.0]);
    }

    #[test]
    fn take_and_restore_of_an_owned_slot_move_the_buffer() {
        let mut w = World::new();
        let id = w.alloc(Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]));
        let buffer = w.get(id).as_slice().as_ptr();
        let m = w.take_matrix(id);
        assert_eq!(m.as_slice().as_ptr(), buffer, "moved out, not cloned");
        w.restore_matrix(id, m);
        assert_eq!(w.get(id).as_slice().as_ptr(), buffer, "moved back, not cloned");
        assert_eq!(w.version(id), 1);
    }

    #[test]
    fn lazy_pull_charges_wait_and_transfer() {
        let mut w = World::new();
        let id = w.alloc(Matrix::zeros(1, 2));
        w.defer_copy_out(
            id,
            LazyEntry { data: vec![7.0, 8.0].into(), ready_at: 5.0, pull_secs: 0.5 },
        );
        assert!(w.has_pending_copy_out(id));
        // Consumer arrives at t=3: waits 2.0 for the kernel, then 0.5 transfer.
        let storage = w.mats[id.0].get().as_slice().as_ptr();
        let extra = w.ensure_host(id, 3.0);
        assert!((extra - 2.5).abs() < 1e-12);
        assert_eq!(w.get(id)[(0, 1)], 8.0);
        assert_eq!(w.lazy_pulls, 1);
        // Second call is free.
        assert_eq!(w.ensure_host(id, 10.0), 0.0);
        // The pull is one host write — to the world, the same as `set`ting
        // the pulled data — into the storage the slot already owned.
        let mut twin = World::new();
        let twin_id = twin.alloc(Matrix::zeros(1, 2));
        twin.set(twin_id, Matrix::from_vec(1, 2, vec![7.0, 8.0]));
        assert_eq!((w.version(id), w.lazy_pulls), (1, 1));
        assert_eq!(w.residency_key(id, 0, 1), twin.residency_key(twin_id, 0, 1));
        assert_eq!(w.get(id), twin.get(twin_id));
        assert_eq!(w.get(id).as_slice().as_ptr(), storage, "copied into, not replaced");
    }

    #[test]
    fn zeros_are_zeros_on_recycled_storage_and_a_dropped_world_gives_its_matrices_back() {
        let recycler = Arc::new(Recycler::default());
        let donor = Arc::new(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let mut w = World::on(Arc::clone(&recycler));
        assert!(Arc::ptr_eq(w.recycler(), &recycler));
        let (a, b) = (w.zeros(2, 3), w.zeros(1, 4));
        let shared = w.alloc_shared(Arc::clone(&donor));
        assert_eq!(w.get(a), &Matrix::zeros(2, 3));
        assert_eq!((w.get_dims(b), w.version(b)), ((4, 1), 0));
        w.get_mut(a).as_mut_slice().fill(f64::NAN);
        w.get_mut(b).as_mut_slice().fill(-0.0);
        let storage = [a, b].map(|id| w.get(id).as_slice().as_ptr());
        drop(w);
        assert_eq!(Arc::strong_count(&donor), 1, "a shared slot is let go of, not given");
        let _ = shared;

        // Best fit: the four-element buffer serves the three, the six the five.
        let mut next = World::on(Arc::clone(&recycler));
        let (c, d) = (next.zeros(1, 3), next.zeros(5, 1));
        assert_eq!([d, c].map(|id| next.get(id).as_slice().as_ptr()), storage);
        for id in [c, d] {
            assert!(next.get(id).as_slice().iter().all(|x| x.to_bits() == 0));
        }
        assert_eq!(recycler.fresh_and_reused(), (2, 2));
    }

    #[test]
    fn lazy_pull_after_ready_time_costs_only_transfer() {
        let mut w = World::new();
        let id = w.alloc(Matrix::zeros(1, 1));
        w.defer_copy_out(id, LazyEntry { data: vec![1.0].into(), ready_at: 1.0, pull_secs: 0.25 });
        let extra = w.ensure_host(id, 9.0);
        assert!((extra - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "lazy copy-out is pending")]
    fn reading_pending_matrix_panics() {
        let mut w = World::new();
        let id = w.alloc(Matrix::zeros(1, 1));
        w.defer_copy_out(id, LazyEntry { data: vec![1.0].into(), ready_at: 0.0, pull_secs: 0.0 });
        let _ = w.get(id);
    }

    #[test]
    fn host_write_supersedes_pending_copy_out() {
        let mut w = World::new();
        let id = w.alloc(Matrix::zeros(1, 1));
        w.defer_copy_out(id, LazyEntry { data: vec![1.0].into(), ready_at: 0.0, pull_secs: 0.0 });
        w.set(id, Matrix::from_vec(1, 1, vec![2.0]));
        assert!(!w.has_pending_copy_out(id));
        assert_eq!(w.get(id)[(0, 0)], 2.0);
    }
}

//! Device buffers and the residency table.
//!
//! Buffers are backed by real `f64` storage so kernels can execute
//! functionally: a `Vec` of their own, or — copy-on-write — a reference to
//! read-only data somebody else holds ([`SharedSlice`]) until the first
//! device write. A buffer's own `Vec` is drawn from a [`Recycler`] and goes
//! back to it when the buffer dies, so a session of trials stops asking the
//! allocator for the same pages over and over; the recycler lives here, in
//! the lowest crate both the table and `petal_core`'s `World` can see (it
//! knows nothing of either, and `petal_gpu` depends on no other crate).
//! The [`BufferTable`] additionally tracks which *host region*
//! each buffer currently mirrors; the GPU management thread uses this for
//! the copy-in deduplication of §4.3 ("if all data that will be copied in by
//! the task is already on the GPU ... change the status of that copy-in task
//! to complete without actually executing it").

use crate::GpuError;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Identifier of a live device buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufferId(pub(crate) usize);

impl BufferId {
    /// Raw index, for diagnostics.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Read-only `f64`s a buffer can hold by reference: a host matrix a
/// copy-in found shared, or a buffer's own contents once a copy-out has
/// taken a snapshot of them. Dereferences to the slice; whatever owns the
/// storage lives as long as any clone of this does.
#[derive(Clone)]
pub struct SharedSlice(Arc<dyn AsRef<[f64]> + Send + Sync>);

impl<T: AsRef<[f64]> + Send + Sync + 'static> From<Arc<T>> for SharedSlice {
    fn from(owner: Arc<T>) -> Self {
        SharedSlice(owner)
    }
}

impl From<Vec<f64>> for SharedSlice {
    fn from(data: Vec<f64>) -> Self {
        SharedSlice(Arc::new(data))
    }
}

impl std::ops::Deref for SharedSlice {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        (*self.0).as_ref()
    }
}

impl fmt::Debug for SharedSlice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharedSlice(len {})", self.len())
    }
}

/// A free list of `f64` storage, for whoever allocates the same zeroed
/// buffers again and again: the trials of one tuning session, whose `World`
/// outputs, device buffers and copy-out snapshots have the same sizes every
/// time. One is owned by each resized benchmark a session keeps (every
/// `World` that benchmark instantiates is built on it, and
/// `Executor::run` lends it to the device for the run), so it lives as
/// long as the session and is shared by the session's threads.
///
/// **A recycled buffer is a fresh one.** [`Recycler::zeros`] hands out
/// exactly `len` elements, every one `0.0`, whether the storage is new or
/// was given back full of somebody's results: nothing that runs on it can
/// tell the difference, so nothing has to prove it writes every cell.
///
/// **It holds no more than was once in use.** [`Recycler::give`] keeps a
/// buffer only while what is retained plus what is lent stays within the
/// most that was ever lent at once; anything beyond that is freed as it
/// always was. There is nothing to configure.
#[derive(Debug, Default)]
pub struct Recycler(Mutex<FreeList>);

/// Sizes are capacities, in elements.
#[derive(Debug, Default)]
struct FreeList {
    /// Retained buffers by capacity (a trial asks for many of one size).
    free: BTreeMap<usize, Vec<Vec<f64>>>,
    retained: usize,
    /// Handed out and not given back yet, and the most that ever was.
    lent: usize,
    peak_lent: usize,
    fresh: u64,
    reused: u64,
}

impl Recycler {
    /// A free list has no invariant a panic elsewhere can break: a
    /// poisoned lock is taken over.
    fn list(&self) -> MutexGuard<'_, FreeList> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `len` zeros, as `vec![0.0; len]` is: in the smallest retained
    /// buffer that holds them, cleared and zero-filled, or in new storage
    /// when none does.
    #[must_use]
    pub fn zeros(&self, len: usize) -> Vec<f64> {
        let found = {
            let mut list = self.list();
            let found = list.free.range_mut(len..).find_map(|(_, same)| same.pop());
            let capacity = found.as_ref().map_or(len, Vec::capacity);
            if found.is_some() {
                list.retained -= capacity;
                list.reused += 1;
            } else {
                list.fresh += 1;
            }
            list.lent += capacity;
            list.peak_lent = list.peak_lent.max(list.lent);
            // Only new storage can pass the bound, beside buffers all too
            // small for it: the smallest go until it holds again.
            while list.retained + list.lent > list.peak_lent {
                let smallest = list.free.values_mut().find_map(Vec::pop);
                list.retained -= smallest.map_or(0, |v| v.capacity());
            }
            found
        };
        // The fill runs outside the lock.
        match found {
            Some(mut v) => {
                v.clear();
                v.resize(len, 0.0);
                v
            }
            None => vec![0.0; len],
        }
    }

    /// Take storage back, whatever it holds and wherever it came from;
    /// keep it while `retained + lent` stays within the most ever lent at
    /// once, free it otherwise.
    pub fn give(&self, v: Vec<f64>) {
        let capacity = v.capacity();
        if capacity == 0 {
            return;
        }
        let mut list = self.list();
        list.lent = list.lent.saturating_sub(capacity);
        if list.retained + capacity + list.lent <= list.peak_lent {
            list.free.entry(capacity).or_default().push(v);
            list.retained += capacity;
        }
    }

    /// How many [`Recycler::zeros`] calls were served from new storage and
    /// how many from a retained buffer, so far.
    #[must_use]
    pub fn fresh_and_reused(&self) -> (u64, u64) {
        let list = self.list();
        (list.fresh, list.reused)
    }

    /// Fill every retained buffer with NaN, to its capacity: what a test
    /// does between two trials to show that no answer depends on what a
    /// recycled buffer held.
    #[doc(hidden)]
    pub fn poison(&self) {
        for v in self.list().free.values_mut().flatten() {
            let capacity = v.capacity();
            v.clear();
            v.resize(capacity, f64::NAN);
        }
    }
}

/// Storage a copy-out snapshot took from its buffer: read-only from here
/// on, and given back to the recycler the buffer drew it from when the
/// last [`SharedSlice`] of it is dropped.
struct Snapshot {
    data: Vec<f64>,
    home: Arc<Recycler>,
}

impl AsRef<[f64]> for Snapshot {
    fn as_ref(&self) -> &[f64] {
        &self.data
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        self.home.give(std::mem::take(&mut self.data));
    }
}

/// What backs a buffer. `Shared` storage is never written through: the
/// first write replaces it with an `Owned` copy.
#[derive(Debug, Clone)]
enum Storage {
    Owned(Vec<f64>),
    Shared(SharedSlice),
}

impl Storage {
    fn as_slice(&self) -> &[f64] {
        match self {
            Storage::Owned(v) => v,
            Storage::Shared(s) => s,
        }
    }

    /// The storage as a `Vec` of the buffer's own, copied if it was shared.
    fn make_mut(&mut self) -> &mut Vec<f64> {
        if let Storage::Shared(s) = self {
            *self = Storage::Owned(s.to_vec());
        }
        match self {
            Storage::Owned(v) => v,
            Storage::Shared(_) => unreachable!("made owned above"),
        }
    }
}

/// A device allocation backed by host storage.
#[derive(Debug, Clone)]
pub struct DeviceBuffer {
    id: BufferId,
    data: Storage,
    /// Where storage of the buffer's own comes from and goes back to.
    home: Arc<Recycler>,
}

impl DeviceBuffer {
    /// Buffer id.
    #[must_use]
    pub fn id(&self) -> BufferId {
        self.id
    }

    /// Length in elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data().len()
    }

    /// True when the buffer holds zero elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data().is_empty()
    }

    /// Read-only view of the backing storage.
    #[must_use]
    pub fn data(&self) -> &[f64] {
        self.data.as_slice()
    }

    /// Mutable view of the backing storage (used by the kernel interpreter).
    /// A buffer that holds its contents by reference copies them first, so
    /// whoever else holds them never sees the write.
    pub fn data_mut(&mut self) -> &mut [f64] {
        self.data.make_mut()
    }

    /// The buffer's contents as they are now, by reference (the data part of
    /// a copy-out): the buffer keeps reading the same storage, and a later
    /// device write to it copies first, so the snapshot never changes. The
    /// storage goes back to the buffer's recycler when the buffer and every
    /// clone of the snapshot have let go of it.
    pub fn snapshot(&mut self) -> SharedSlice {
        match &mut self.data {
            Storage::Shared(s) => s.clone(),
            Storage::Owned(v) => {
                let taken = Snapshot { data: std::mem::take(v), home: Arc::clone(&self.home) };
                let moved = SharedSlice::from(Arc::new(taken));
                self.data = Storage::Shared(moved.clone());
                moved
            }
        }
    }
}

impl Drop for DeviceBuffer {
    fn drop(&mut self) {
        if let Storage::Owned(v) = &mut self.data {
            self.home.give(std::mem::take(v));
        }
    }
}

/// Key identifying a host-side region (matrix id + sub-region + version).
///
/// Opaque to this crate; the runtime constructs keys such that equal keys
/// mean "the same bytes".
pub type ResidencyKey = u64;

/// All buffers on one device, plus the host-region residency index.
#[derive(Debug, Default)]
pub struct BufferTable {
    buffers: Vec<DeviceBuffer>,
    resident: HashMap<ResidencyKey, BufferId>,
    bytes_allocated: usize,
    peak_bytes: usize,
    /// Where the buffers allocated from now on draw their storage.
    recycler: Arc<Recycler>,
}

impl BufferTable {
    /// New, empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Draw the storage of every buffer allocated from now on from
    /// `recycler` (a table nobody lends one to has a private one). Live
    /// buffers keep the recycler they were allocated under: storage always
    /// goes back where it came from.
    pub fn draw_from(&mut self, recycler: Arc<Recycler>) {
        self.recycler = recycler;
    }

    /// Allocate a zero-initialized buffer of `len` elements. The storage
    /// comes from the table's [`Recycler`] — `len` zeros whether it is new
    /// or recycled — and returns to it when the buffer is released or
    /// dropped with the table, or, once a copy-out has taken a snapshot
    /// of it, when the last holder of the snapshot lets go. The modeled
    /// allocation (`alloc_secs`, the accounting below) is the same either
    /// way: recycling saves host time, not virtual time.
    pub fn alloc(&mut self, len: usize) -> BufferId {
        let zeros = self.recycler.zeros(len);
        self.push(Storage::Owned(zeros))
    }

    /// Allocate the buffer a copy-in of `host` is about to fill: one of
    /// `host.len()` elements, accounted as [`BufferTable::alloc`] accounts
    /// it, that reads `host`'s storage in place from the start instead of
    /// zero-filling storage of its own that the copy-in would overwrite.
    pub fn alloc_shared(&mut self, host: SharedSlice) -> BufferId {
        self.push(Storage::Shared(host))
    }

    fn push(&mut self, data: Storage) -> BufferId {
        let id = BufferId(self.buffers.len());
        self.bytes_allocated += std::mem::size_of_val(data.as_slice());
        self.peak_bytes = self.peak_bytes.max(self.bytes_allocated);
        self.buffers.push(DeviceBuffer { id, data, home: Arc::clone(&self.recycler) });
        id
    }

    /// Free every buffer (ids start over) and drop every residency entry:
    /// what the previous run left on a device that is about to run again.
    /// The high-water mark stays.
    pub(crate) fn release_all(&mut self) {
        self.buffers.clear();
        self.resident.clear();
        self.bytes_allocated = 0;
    }

    /// Shared access to a buffer.
    ///
    /// # Errors
    /// Returns [`GpuError::UnknownBuffer`] if `id` is not live.
    pub fn get(&self, id: BufferId) -> Result<&DeviceBuffer, GpuError> {
        self.buffers.get(id.0).ok_or(GpuError::UnknownBuffer(id))
    }

    /// Exclusive access to a buffer.
    ///
    /// # Errors
    /// Returns [`GpuError::UnknownBuffer`] if `id` is not live.
    pub fn get_mut(&mut self, id: BufferId) -> Result<&mut DeviceBuffer, GpuError> {
        self.buffers.get_mut(id.0).ok_or(GpuError::UnknownBuffer(id))
    }

    /// Run `f` with exclusive access to `out`'s storage beside shared access
    /// to every other buffer — how a kernel reads its inputs in place while
    /// writing its output in place. Inside `f` the table shows `out` as
    /// empty; its storage is back when this returns.
    ///
    /// # Errors
    /// Returns [`GpuError::UnknownBuffer`] if `out` is not live.
    pub fn with_output<R>(
        &mut self,
        out: BufferId,
        f: impl FnOnce(&BufferTable, &mut [f64]) -> R,
    ) -> Result<R, GpuError> {
        let mut data = std::mem::take(self.get_mut(out)?.data.make_mut());
        let result = f(self, &mut data);
        self.get_mut(out)?.data = Storage::Owned(data);
        Ok(result)
    }

    /// Copy host data into a buffer (the data part of a copy-in).
    ///
    /// # Errors
    /// [`GpuError::UnknownBuffer`] for a dead id, [`GpuError::SizeMismatch`]
    /// when lengths differ.
    pub fn write(&mut self, id: BufferId, host: &[f64]) -> Result<(), GpuError> {
        let buf = self.get_mut(id)?;
        if buf.len() != host.len() {
            return Err(GpuError::SizeMismatch { expected: buf.len(), actual: host.len() });
        }
        match &mut buf.data {
            Storage::Owned(v) => v.copy_from_slice(host),
            // Nothing of the old contents survives a whole-buffer write.
            shared @ Storage::Shared(_) => *shared = Storage::Owned(host.to_vec()),
        }
        Ok(())
    }

    /// [`BufferTable::write`] of host data that is read-only and shared: the
    /// buffer reads `host`'s storage in place from now on instead of holding
    /// a copy of it, and copies it on the first device write
    /// ([`DeviceBuffer::data_mut`], [`BufferTable::with_output`]). Nothing
    /// else tells the two apart: lengths, accounting and residency are a
    /// copied write's.
    ///
    /// # Errors
    /// As [`BufferTable::write`].
    pub fn write_shared(&mut self, id: BufferId, host: SharedSlice) -> Result<(), GpuError> {
        let buf = self.get_mut(id)?;
        if buf.len() != host.len() {
            return Err(GpuError::SizeMismatch { expected: buf.len(), actual: host.len() });
        }
        buf.data = Storage::Shared(host);
        Ok(())
    }

    /// Copy a buffer back to host storage (the data part of a copy-out).
    ///
    /// # Errors
    /// [`GpuError::UnknownBuffer`] for a dead id, [`GpuError::SizeMismatch`]
    /// when lengths differ.
    pub fn read(&self, id: BufferId, host: &mut [f64]) -> Result<(), GpuError> {
        let buf = self.get(id)?;
        if buf.len() != host.len() {
            return Err(GpuError::SizeMismatch { expected: buf.len(), actual: host.len() });
        }
        host.copy_from_slice(buf.data());
        Ok(())
    }

    /// Record that `id` now holds a valid copy of host region `key`.
    pub fn mark_resident(&mut self, key: ResidencyKey, id: BufferId) {
        self.resident.insert(key, id);
    }

    /// Look up a buffer already holding host region `key`, if any.
    #[must_use]
    pub fn lookup_resident(&self, key: ResidencyKey) -> Option<BufferId> {
        self.resident.get(&key).copied()
    }

    /// Bytes currently allocated on the device.
    #[must_use]
    pub fn bytes_allocated(&self) -> usize {
        self.bytes_allocated
    }

    /// High-water mark of device allocation.
    #[must_use]
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Number of live buffers.
    #[must_use]
    pub fn live_buffers(&self) -> usize {
        self.buffers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn capacities(r: &Recycler) -> Vec<usize> {
        r.list().free.values().flatten().map(Vec::capacity).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The recycler's whole contract over random histories: a hand-out
        /// is `len` zeros by bits whatever was written into the storage
        /// before it came back (NaN, −0.0, a poisoning of the list); it is
        /// the smallest retained buffer that fits, new storage only when
        /// none does; and `retained + lent` never passes the most ever
        /// lent, with buffers the recycler never lent given to it as well.
        #[test]
        fn a_hand_out_is_zeros_best_fit_and_the_list_stays_within_the_peak(
            ops in proptest::collection::vec((0u8..6, 0usize..96), 1..120),
        ) {
            let r = Recycler::default();
            let mut out: Vec<Vec<f64>> = Vec::new();
            for (op, n) in ops {
                match op {
                    0..=2 => {
                        let before = capacities(&r);
                        let counts = r.fresh_and_reused();
                        let mut v = r.zeros(n);
                        prop_assert_eq!(v.len(), n);
                        prop_assert!(v.iter().all(|x| x.to_bits() == 0), "{:?}", v);
                        match before.iter().copied().filter(|&c| c >= n).min() {
                            Some(best) => {
                                prop_assert_eq!(v.capacity(), best);
                                prop_assert_eq!(r.fresh_and_reused(), (counts.0, counts.1 + 1));
                            }
                            None => {
                                prop_assert_eq!(v.capacity(), n);
                                prop_assert_eq!(r.fresh_and_reused(), (counts.0 + 1, counts.1));
                            }
                        }
                        v.fill(if op == 0 { f64::NAN } else { -0.0 });
                        out.push(v);
                    }
                    3 | 4 if !out.is_empty() => r.give(out.swap_remove(n % out.len())),
                    3 | 4 => r.give(vec![f64::NAN; n]),
                    _ => r.poison(),
                }
                let caps = capacities(&r);
                let list = r.list();
                prop_assert!(list.free.iter().all(|(c, same)| same.iter().all(|v| v.capacity() == *c)));
                prop_assert!(caps.iter().all(|&c| c > 0));
                prop_assert_eq!(list.retained, caps.iter().sum::<usize>());
                prop_assert!(list.retained + list.lent <= list.peak_lent, "{:?}", *list);
                let lent: usize = out.iter().map(Vec::capacity).sum();
                prop_assert!(list.lent <= lent, "foreign gives only ever understate");
            }
        }
    }

    #[test]
    fn a_recycler_whose_lock_a_panic_poisoned_keeps_serving() {
        let r = Arc::new(Recycler::default());
        r.give(r.zeros(8));
        let held = Arc::clone(&r);
        let panicked = std::thread::spawn(move || {
            let _guard = held.0.lock().expect("first holder");
            panic!("while holding the free list");
        })
        .join();
        assert!(panicked.is_err() && r.0.is_poisoned());
        assert_eq!(r.zeros(8), [0.0; 8]);
        assert_eq!(r.fresh_and_reused(), (1, 1));
    }

    #[test]
    fn a_buffers_storage_goes_back_where_it_was_drawn_from_by_every_way_out() {
        let (home, other) = (Arc::new(Recycler::default()), Arc::new(Recycler::default()));
        let (mut t, mut kept) = (BufferTable::new(), BufferTable::new());
        t.draw_from(Arc::clone(&home));
        kept.draw_from(Arc::clone(&home));
        // Released; snapshotted, then released with a holder left; dropped
        // with its table — each after its table was pointed elsewhere.
        let (released, snapped, dropped) = (t.alloc(4), t.alloc(5), kept.alloc(6));
        t.draw_from(Arc::clone(&other));
        kept.draw_from(Arc::clone(&other));
        let elsewhere = t.alloc(7);
        assert_eq!((home.fresh_and_reused(), other.fresh_and_reused()), ((3, 0), (1, 0)));

        t.write(snapped, &[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        let held = t.get_mut(snapped).unwrap().snapshot();
        t.release_all();
        assert_eq!(
            (capacities(&home), capacities(&other)),
            (vec![4], vec![7]),
            "a snapshot is still read"
        );
        assert_eq!(*held, [1.0, 2.0, 3.0, 4.0, 5.0]);
        drop(held);
        assert_eq!(capacities(&home), [4, 5]);
        drop(kept);
        assert_eq!((capacities(&home), capacities(&other)), (vec![4, 5, 6], vec![7]));
        let _ = (released, dropped, elsewhere);
    }

    #[test]
    fn release_all_frees_every_buffer_and_keeps_the_high_water_mark() {
        let mut t = BufferTable::new();
        let first = t.alloc(3);
        t.alloc_shared(vec![1.0; 2].into());
        t.mark_resident(9, first);
        t.release_all();
        assert_eq!((t.live_buffers(), t.bytes_allocated(), t.peak_bytes()), (0, 0, 40));
        assert_eq!(t.lookup_resident(9), None);
        assert_eq!(t.get(first).unwrap_err(), GpuError::UnknownBuffer(first));
        // Ids start over, on the storage the released buffer gave back.
        assert_eq!((t.alloc(3), t.recycler.fresh_and_reused()), (first, (1, 1)));
        assert_eq!(t.get(first).unwrap().data(), [0.0; 3]);
    }

    #[test]
    fn alloc_write_read_roundtrip() {
        let mut t = BufferTable::new();
        let id = t.alloc(4);
        t.write(id, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        let mut out = [0.0; 4];
        t.read(id, &mut out).unwrap();
        assert_eq!(out, [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn with_output_lends_one_buffer_mutably_beside_the_rest() {
        let mut t = BufferTable::new();
        let (a, out) = (t.alloc(2), t.alloc(2));
        t.write(a, &[1.0, 2.0]).unwrap();
        let seen = t
            .with_output(out, |t, o| {
                o.copy_from_slice(t.get(a).unwrap().data());
                t.get(out).unwrap().len()
            })
            .unwrap();
        assert_eq!(seen, 0, "the lent buffer reads as empty meanwhile");
        assert_eq!(t.get(out).unwrap().data(), [1.0, 2.0]);
        assert_eq!(t.bytes_allocated(), 32);
        t.release_all();
        assert_eq!(t.with_output(out, |_, _| ()).unwrap_err(), GpuError::UnknownBuffer(out));
    }

    #[test]
    fn a_shared_buffer_reads_its_donor_in_place_and_is_accounted_like_a_copy() {
        let donor = Arc::new(vec![1.0, 2.0, 3.0]);
        let (mut by_ref, mut copied) = (BufferTable::new(), BufferTable::new());
        // Reserved by reference and filled by reference; zero-filled and
        // then filled by reference; zero-filled and then copied into.
        let reserved = by_ref.alloc_shared(Arc::clone(&donor).into());
        let filled = by_ref.alloc(3);
        for id in [reserved, filled] {
            by_ref.write_shared(id, Arc::clone(&donor).into()).unwrap();
            assert!(std::ptr::eq(by_ref.get(id).unwrap().data(), &donor[..]), "no copy was made");
        }
        for _ in 0..2 {
            let id = copied.alloc(3);
            copied.write(id, &donor).unwrap();
            assert_eq!(copied.get(id).unwrap().data(), &donor[..]);
        }
        assert_eq!(Arc::strong_count(&donor), 3);
        let accounts = |t: &BufferTable| (t.bytes_allocated(), t.peak_bytes(), t.live_buffers());
        assert_eq!(accounts(&by_ref), accounts(&copied));
        assert_eq!(by_ref.get(reserved).unwrap().len(), 3);

        let short: SharedSlice = vec![0.0; 2].into();
        assert_eq!(
            by_ref.write_shared(filled, short).unwrap_err(),
            GpuError::SizeMismatch { expected: 3, actual: 2 }
        );
        drop(by_ref);
        assert_eq!(Arc::strong_count(&donor), 1, "the table let go of the donor");
    }

    #[test]
    fn every_device_write_detaches_a_shared_buffer_and_leaves_the_donor_untouched() {
        let donor = Arc::new(vec![1.0, 2.0]);
        type Write = fn(&mut BufferTable, BufferId);
        let writes: [(&str, Write); 3] = [
            ("data_mut", |t, id| t.get_mut(id).unwrap().data_mut()[0] = 9.0),
            ("with_output", |t, id| t.with_output(id, |_, out| out[0] = 9.0).unwrap()),
            ("write", |t, id| t.write(id, &[9.0, 2.0]).unwrap()),
        ];
        for (name, write) in writes {
            let mut t = BufferTable::new();
            let id = t.alloc_shared(Arc::clone(&donor).into());
            write(&mut t, id);
            assert_eq!(t.get(id).unwrap().data(), [9.0, 2.0], "{name}");
            assert_eq!(*donor, [1.0, 2.0], "{name} wrote through to the donor");
            assert_eq!(Arc::strong_count(&donor), 1, "{name} kept the donor");
            assert_eq!(t.bytes_allocated(), 16, "{name}");
        }
    }

    #[test]
    fn a_snapshot_is_the_buffer_at_that_moment_and_costs_no_copy_until_a_write() {
        let mut t = BufferTable::new();
        let id = t.alloc(2);
        t.write(id, &[1.0, 2.0]).unwrap();
        let storage = t.get(id).unwrap().data().as_ptr();
        let first = t.get_mut(id).unwrap().snapshot();
        let second = t.get_mut(id).unwrap().snapshot();
        for at in [first.as_ptr(), second.as_ptr(), t.get(id).unwrap().data().as_ptr()] {
            assert_eq!(at, storage, "the snapshots and the buffer read the storage it had");
        }
        t.with_output(id, |_, out| out[1] = 7.0).unwrap();
        assert_eq!(t.get(id).unwrap().data(), [1.0, 7.0]);
        assert_eq!((&*first, &*second), (&[1.0, 2.0][..], &[1.0, 2.0][..]));
        assert_eq!(*t.get_mut(id).unwrap().snapshot(), [1.0, 7.0]);
    }

    #[test]
    fn size_mismatch_is_reported() {
        let mut t = BufferTable::new();
        let id = t.alloc(4);
        let err = t.write(id, &[1.0]).unwrap_err();
        assert_eq!(err, GpuError::SizeMismatch { expected: 4, actual: 1 });
    }
}

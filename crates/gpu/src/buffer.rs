//! Device buffers and the residency table.
//!
//! Buffers are backed by real `f64` storage so kernels can execute
//! functionally: a `Vec` of their own, or — copy-on-write — a reference to
//! read-only data somebody else holds ([`SharedSlice`]) until the first
//! device write. The [`BufferTable`] additionally tracks which *host region*
//! each buffer currently mirrors; the GPU management thread uses this for
//! the copy-in deduplication of §4.3 ("if all data that will be copied in by
//! the task is already on the GPU ... change the status of that copy-in task
//! to complete without actually executing it").

use crate::GpuError;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

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
    /// device write to it copies first, so the snapshot never changes.
    pub fn snapshot(&mut self) -> SharedSlice {
        match &mut self.data {
            Storage::Shared(s) => s.clone(),
            Storage::Owned(v) => {
                let moved = SharedSlice::from(std::mem::take(v));
                self.data = Storage::Shared(moved.clone());
                moved
            }
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
    buffers: Vec<Option<DeviceBuffer>>,
    resident: HashMap<ResidencyKey, BufferId>,
    bytes_allocated: usize,
    peak_bytes: usize,
}

impl BufferTable {
    /// New, empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a zero-initialized buffer of `len` elements.
    pub fn alloc(&mut self, len: usize) -> BufferId {
        self.push(Storage::Owned(vec![0.0; len]))
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
        self.buffers.push(Some(DeviceBuffer { id, data }));
        id
    }

    /// Release a buffer and drop any residency entries pointing at it.
    ///
    /// # Errors
    /// Returns [`GpuError::UnknownBuffer`] if `id` is not live.
    pub fn free(&mut self, id: BufferId) -> Result<(), GpuError> {
        let slot =
            self.buffers.get_mut(id.0).and_then(Option::take).ok_or(GpuError::UnknownBuffer(id))?;
        self.bytes_allocated -= slot.len() * std::mem::size_of::<f64>();
        self.resident.retain(|_, v| *v != id);
        Ok(())
    }

    /// Shared access to a buffer.
    ///
    /// # Errors
    /// Returns [`GpuError::UnknownBuffer`] if `id` is not live.
    pub fn get(&self, id: BufferId) -> Result<&DeviceBuffer, GpuError> {
        self.buffers.get(id.0).and_then(Option::as_ref).ok_or(GpuError::UnknownBuffer(id))
    }

    /// Exclusive access to a buffer.
    ///
    /// # Errors
    /// Returns [`GpuError::UnknownBuffer`] if `id` is not live.
    pub fn get_mut(&mut self, id: BufferId) -> Result<&mut DeviceBuffer, GpuError> {
        self.buffers.get_mut(id.0).and_then(Option::as_mut).ok_or(GpuError::UnknownBuffer(id))
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

    /// Drop a residency entry (the host copy was overwritten, §4.3:
    /// "releasing buffers that become stale").
    pub fn invalidate(&mut self, key: ResidencyKey) {
        self.resident.remove(&key);
    }

    /// Drop every residency entry (e.g. between autotuning trials).
    pub fn invalidate_all(&mut self) {
        self.resident.clear();
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
        self.buffers.iter().filter(|b| b.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        t.free(out).unwrap();
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
        by_ref.free(filled).unwrap();
        assert_eq!(accounts(&by_ref), (24, 48, 1));
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

    #[test]
    fn free_releases_bytes_and_residency() {
        let mut t = BufferTable::new();
        let id = t.alloc(100);
        t.mark_resident(42, id);
        assert_eq!(t.bytes_allocated(), 800);
        assert_eq!(t.lookup_resident(42), Some(id));
        t.free(id).unwrap();
        assert_eq!(t.bytes_allocated(), 0);
        assert_eq!(t.lookup_resident(42), None);
        assert_eq!(t.get(id).unwrap_err(), GpuError::UnknownBuffer(id));
        assert_eq!(t.peak_bytes(), 800);
    }

    #[test]
    fn double_free_errors() {
        let mut t = BufferTable::new();
        let id = t.alloc(1);
        t.free(id).unwrap();
        assert!(t.free(id).is_err());
    }

    #[test]
    fn residency_invalidation() {
        let mut t = BufferTable::new();
        let id = t.alloc(1);
        t.mark_resident(7, id);
        t.invalidate(7);
        assert_eq!(t.lookup_resident(7), None);
        t.mark_resident(8, id);
        t.invalidate_all();
        assert_eq!(t.lookup_resident(8), None);
    }
}

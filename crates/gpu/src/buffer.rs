//! Device buffers and the residency table.
//!
//! Buffers are backed by real `Vec<f64>` storage so kernels can execute
//! functionally. The [`BufferTable`] additionally tracks which *host region*
//! each buffer currently mirrors; the GPU management thread uses this for
//! the copy-in deduplication of §4.3 ("if all data that will be copied in by
//! the task is already on the GPU ... change the status of that copy-in task
//! to complete without actually executing it").

use crate::GpuError;
use std::collections::HashMap;

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

/// A device allocation backed by host storage.
#[derive(Debug, Clone)]
pub struct DeviceBuffer {
    id: BufferId,
    data: Vec<f64>,
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
        self.data.len()
    }

    /// True when the buffer holds zero elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the backing storage.
    #[must_use]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the backing storage (used by the kernel interpreter).
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
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
        let id = BufferId(self.buffers.len());
        self.buffers.push(Some(DeviceBuffer { id, data: vec![0.0; len] }));
        self.bytes_allocated += len * std::mem::size_of::<f64>();
        self.peak_bytes = self.peak_bytes.max(self.bytes_allocated);
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
        let mut data = std::mem::take(&mut self.get_mut(out)?.data);
        let result = f(self, &mut data);
        self.get_mut(out)?.data = data;
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
        buf.data_mut().copy_from_slice(host);
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

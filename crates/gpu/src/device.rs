//! The simulated OpenCL device.
//!
//! A [`Device`] owns the buffer table, the in-order command queue and the
//! compile cache for one machine's OpenCL runtime. Kernels are registered
//! with both their generated OpenCL C source (deduplicated and logged as a
//! compile, for the evaluation farm to price) and a [`KernelBody`] — the
//! functional implementation that actually transforms buffer contents when
//! the launch executes.

use crate::buffer::{BufferId, BufferTable, SharedSlice};
use crate::compile::{CompileCache, CompileEvent, KernelHandle, KernelText};
use crate::cost::{self, KernelWork};
use crate::profile::GpuProfile;
use crate::queue::{CommandQueue, Event};
use crate::GpuError;
use std::collections::HashMap;
use std::sync::Arc;

/// Functional implementation of a kernel: mutates device buffers exactly as
/// the generated OpenCL would.
pub trait KernelBody: Send + Sync {
    /// Execute the whole ND-range against the buffer table.
    ///
    /// # Errors
    /// Propagates buffer lookup/size failures.
    fn execute(&self, buffers: &mut BufferTable, launch: &KernelLaunch) -> Result<(), GpuError>;
}

impl<F> KernelBody for F
where
    F: Fn(&mut BufferTable, &KernelLaunch) -> Result<(), GpuError> + Send + Sync,
{
    fn execute(&self, buffers: &mut BufferTable, launch: &KernelLaunch) -> Result<(), GpuError> {
        self(buffers, launch)
    }
}

/// One kernel launch request.
#[derive(Debug, Clone)]
pub struct KernelLaunch {
    /// Which compiled kernel to run.
    pub kernel: KernelHandle,
    /// Buffer arguments, in kernel-argument order.
    pub buffers: Vec<BufferId>,
    /// Scalar arguments (sizes, constants), in order.
    pub scalars: Vec<f64>,
    /// Work descriptor used for both cost and any geometry the body needs.
    pub work: KernelWork,
}

/// Cumulative device activity, reported per run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceStats {
    /// Kernel launches executed.
    pub launches: usize,
    /// Host→device transfers performed (after deduplication).
    pub writes: usize,
    /// Device→host transfers performed.
    pub reads: usize,
    /// Bytes moved host→device.
    pub bytes_in: f64,
    /// Bytes moved device→host.
    pub bytes_out: f64,
}

/// A complete simulated OpenCL device.
#[derive(Debug)]
pub struct Device {
    profile: GpuProfile,
    buffers: BufferTable,
    queue: CommandQueue,
    compiler: CompileCache,
    bodies: HashMap<KernelHandle, Arc<dyn KernelBody>>,
    stats: DeviceStats,
}

impl std::fmt::Debug for dyn KernelBody {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("<kernel body>")
    }
}

impl Device {
    /// New device for `profile`, no kernels compiled yet.
    #[must_use]
    pub fn new(profile: GpuProfile) -> Self {
        Device {
            profile,
            buffers: BufferTable::new(),
            queue: CommandQueue::new(),
            compiler: CompileCache::default(),
            bodies: HashMap::new(),
            stats: DeviceStats::default(),
        }
    }

    /// Device profile.
    #[must_use]
    pub fn profile(&self) -> &GpuProfile {
        &self.profile
    }

    /// Buffer table (shared).
    #[must_use]
    pub fn buffers(&self) -> &BufferTable {
        &self.buffers
    }

    /// Buffer table (exclusive), for the GPU management thread.
    pub fn buffers_mut(&mut self) -> &mut BufferTable {
        &mut self.buffers
    }

    /// Cumulative activity statistics.
    #[must_use]
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Drain the compile log since the last drain (see
    /// [`CompileCache::take_compile_log`]).
    pub fn take_compile_log(&mut self) -> Vec<CompileEvent> {
        self.compiler.take_compile_log()
    }

    /// Virtual time at which the device timeline drains.
    #[must_use]
    pub fn busy_until(&self) -> f64 {
        self.queue.busy_until()
    }

    /// Total device-busy virtual seconds.
    #[must_use]
    pub fn busy_secs(&self) -> f64 {
        self.queue.busy_secs()
    }

    /// Compile (or reuse, if the same source was already compiled in this
    /// process) a kernel and register its functional body.
    pub fn register_kernel(
        &mut self,
        text: &KernelText,
        body: Arc<dyn KernelBody>,
    ) -> KernelHandle {
        let handle = self.compiler.compile(&self.profile, text);
        self.bodies.entry(handle).or_insert(body);
        handle
    }

    /// Allocate a device buffer (the data part of a *prepare* task).
    pub fn alloc_buffer(&mut self, len: usize) -> BufferId {
        self.buffers.alloc(len)
    }

    /// Allocate the device buffer a copy-in of the shared, read-only `host`
    /// data will fill, holding that data by reference
    /// ([`BufferTable::alloc_shared`]).
    pub fn alloc_buffer_shared(&mut self, host: SharedSlice) -> BufferId {
        self.buffers.alloc_shared(host)
    }

    /// Enqueue a non-blocking host→device write at virtual time `now`.
    ///
    /// The data lands in the buffer immediately (functional semantics); the
    /// returned [`Event`] carries the modeled completion time.
    ///
    /// # Errors
    /// Buffer lookup or size mismatch.
    pub fn enqueue_write(
        &mut self,
        now: f64,
        id: BufferId,
        host: &[f64],
    ) -> Result<Event, GpuError> {
        self.buffers.write(id, host)?;
        Ok(self.charge_write(now, host.len()))
    }

    /// [`Device::enqueue_write`] of read-only host data the caller shares:
    /// the buffer holds `host` by reference and copies it on the first
    /// device write ([`BufferTable::write_shared`]). The modeled transfer,
    /// the statistics and the event are those of the copying write.
    ///
    /// # Errors
    /// Buffer lookup or size mismatch.
    pub fn enqueue_write_shared(
        &mut self,
        now: f64,
        id: BufferId,
        host: SharedSlice,
    ) -> Result<Event, GpuError> {
        let len = host.len();
        self.buffers.write_shared(id, host)?;
        Ok(self.charge_write(now, len))
    }

    /// Model a host→device transfer of `len` elements issued at `now`.
    fn charge_write(&mut self, now: f64, len: usize) -> Event {
        let bytes = len as f64 * 8.0;
        let secs = cost::transfer_secs(&self.profile, bytes);
        self.stats.writes += 1;
        self.stats.bytes_in += bytes;
        self.queue.enqueue(now, secs)
    }

    /// Enqueue a non-blocking device→host read at virtual time `now`.
    ///
    /// Functional data is returned immediately, as a snapshot by reference
    /// ([`crate::buffer::DeviceBuffer::snapshot`]: a later kernel that
    /// writes the buffer copies it first); the caller must not publish it
    /// to the host side before the event completes (the runtime's copy-out
    /// completion task enforces this).
    ///
    /// # Errors
    /// Buffer lookup failure.
    pub fn enqueue_read(
        &mut self,
        now: f64,
        id: BufferId,
    ) -> Result<(Event, SharedSlice), GpuError> {
        let data = self.buffers.get_mut(id)?.snapshot();
        let bytes = data.len() as f64 * 8.0;
        let secs = cost::transfer_secs(&self.profile, bytes);
        self.stats.reads += 1;
        self.stats.bytes_out += bytes;
        Ok((self.queue.enqueue(now, secs), data))
    }

    /// Enqueue a kernel launch at virtual time `now`.
    ///
    /// The functional body runs immediately against the buffer table; the
    /// modeled execution occupies the device timeline for
    /// `launch_overhead + exec_secs(work)`.
    ///
    /// # Errors
    /// Unknown kernel, oversized work-group, or body failure.
    pub fn enqueue_kernel(&mut self, now: f64, launch: &KernelLaunch) -> Result<Event, GpuError> {
        if launch.work.local_size > self.profile.max_work_group {
            return Err(GpuError::WorkGroupTooLarge {
                requested: launch.work.local_size,
                max: self.profile.max_work_group,
            });
        }
        let body = self
            .bodies
            .get(&launch.kernel)
            .cloned()
            .ok_or(GpuError::UnknownKernel(launch.kernel.index()))?;
        body.execute(&mut self.buffers, launch)?;
        let secs = self.profile.launch_overhead + launch.work.exec_secs(&self.profile);
        self.stats.launches += 1;
        Ok(self.queue.enqueue(now, secs))
    }

    /// Clear timing state between autotuning trials and release the
    /// buffers of the run before (nothing can reach them once residency is
    /// gone; their storage goes back to the recycler it was drawn from),
    /// keeping compiled kernels (they persist within a process).
    pub fn reset_timeline(&mut self) {
        self.queue.reset();
        self.buffers.release_all();
        self.stats = DeviceStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::MachineProfile;

    fn device() -> Device {
        Device::new(MachineProfile::desktop().gpu.unwrap())
    }

    /// A kernel body that doubles every element of its single buffer arg.
    fn double_body() -> Arc<dyn KernelBody> {
        Arc::new(|bufs: &mut BufferTable, launch: &KernelLaunch| -> Result<(), GpuError> {
            let buf = bufs.get_mut(launch.buffers[0])?;
            for v in buf.data_mut() {
                *v *= 2.0;
            }
            Ok(())
        })
    }

    fn launch(handle: KernelHandle, buf: BufferId, n: usize) -> KernelLaunch {
        KernelLaunch {
            kernel: handle,
            buffers: vec![buf],
            scalars: vec![n as f64],
            work: KernelWork {
                work_items: n as f64,
                flops_per_item: 1.0,
                global_read_bytes: n as f64 * 8.0,
                global_write_bytes: n as f64 * 8.0,
                groups: (n as f64 / 64.0).ceil(),
                local_size: 64,
                ..KernelWork::default()
            },
        }
    }

    #[test]
    fn kernel_executes_functionally_and_charges_time() {
        let mut d = device();
        let h = d.register_kernel(&KernelText::new("dbl", "kernel void dbl(...)"), double_body());
        assert_eq!(d.take_compile_log().len(), 1);
        let buf = d.alloc_buffer(4);
        let w = d.enqueue_write(0.0, buf, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        let k = d.enqueue_kernel(0.0, &launch(h, buf, 4)).unwrap();
        assert!(k.complete_at > w.complete_at, "kernel queued behind write");
        let (r, data) = d.enqueue_read(0.0, buf).unwrap();
        assert_eq!(*data, [2.0, 4.0, 6.0, 8.0]);
        assert!(r.complete_at > k.complete_at);
        assert_eq!(d.stats().launches, 1);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().reads, 1);
    }

    #[test]
    fn a_shared_write_is_charged_and_counted_as_the_copying_write_is() {
        let host = Arc::new(vec![1.0, 2.0, 3.0, 4.0]);
        let (mut by_ref, mut copying) = (device(), device());
        let h = by_ref.register_kernel(&KernelText::new("dbl", "src"), double_body());
        copying.register_kernel(&KernelText::new("dbl", "src"), double_body());
        let shared = by_ref.alloc_buffer_shared(Arc::clone(&host).into());
        let copied = copying.alloc_buffer(4);
        assert_eq!(
            by_ref.enqueue_write_shared(0.0, shared, Arc::clone(&host).into()).unwrap(),
            copying.enqueue_write(0.0, copied, &host).unwrap()
        );
        // The kernel writes its one buffer: the shared one detaches first.
        assert_eq!(
            by_ref.enqueue_kernel(0.0, &launch(h, shared, 4)).unwrap(),
            copying.enqueue_kernel(0.0, &launch(h, copied, 4)).unwrap()
        );
        let (by_ref_read, got) = by_ref.enqueue_read(0.0, shared).unwrap();
        let (copying_read, want) = copying.enqueue_read(0.0, copied).unwrap();
        assert_eq!((by_ref_read, &*got), (copying_read, &*want));
        assert_eq!(*got, [2.0, 4.0, 6.0, 8.0]);
        assert_eq!(*host, [1.0, 2.0, 3.0, 4.0]);
        assert_eq!(by_ref.stats(), copying.stats());
        assert_eq!(by_ref.buffers().peak_bytes(), copying.buffers().peak_bytes());
        assert_eq!(by_ref.busy_until().to_bits(), copying.busy_until().to_bits());
        // A later kernel write leaves the snapshot a read returned alone.
        by_ref.enqueue_kernel(0.0, &launch(h, shared, 4)).unwrap();
        assert_eq!(*got, [2.0, 4.0, 6.0, 8.0]);
        assert_eq!(by_ref.buffers().get(shared).unwrap().data(), [4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn oversized_work_group_is_rejected() {
        let mut d = device();
        let h = d.register_kernel(&KernelText::new("dbl", "src"), double_body());
        let buf = d.alloc_buffer(1);
        let mut l = launch(h, buf, 1);
        l.work.local_size = 100_000;
        assert!(matches!(d.enqueue_kernel(0.0, &l), Err(GpuError::WorkGroupTooLarge { .. })));
    }

    #[test]
    fn unknown_kernel_is_rejected() {
        let mut d = device();
        let buf = d.alloc_buffer(1);
        let l = launch(KernelHandle(99), buf, 1);
        assert!(matches!(d.enqueue_kernel(0.0, &l), Err(GpuError::UnknownKernel(99))));
    }

    #[test]
    fn recompiling_same_source_is_free() {
        let mut d = device();
        let h1 = d.register_kernel(&KernelText::new("a", "same"), double_body());
        let h2 = d.register_kernel(&KernelText::new("a", "same"), double_body());
        assert_eq!(h1, h2);
        assert_eq!(d.take_compile_log().len(), 1, "the second register compiles nothing");
    }

    #[test]
    fn reset_timeline_keeps_kernels() {
        let mut d = device();
        let h = d.register_kernel(&KernelText::new("a", "src"), double_body());
        let buf = d.alloc_buffer(2);
        d.enqueue_write(0.0, buf, &[1.0, 1.0]).unwrap();
        d.reset_timeline();
        assert_eq!(d.busy_until(), 0.0);
        let left = (d.buffers().live_buffers(), d.buffers().bytes_allocated());
        assert_eq!(left, (0, 0), "the run before's buffers are released");
        let buf = d.alloc_buffer(2);
        d.enqueue_kernel(0.0, &launch(h, buf, 2)).expect("the kernel is still registered");
    }
}

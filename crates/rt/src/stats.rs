//! Run statistics reported by the engine.

use petal_gpu::device::DeviceStats;

/// Everything measured during one engine run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Virtual time at which the last task completed (the result the
    /// autotuner minimizes).
    pub makespan: f64,
    /// Busy virtual seconds per CPU worker.
    pub worker_busy: Vec<f64>,
    /// CPU tasks executed.
    pub cpu_tasks: usize,
    /// GPU tasks executed (all four classes, excluding re-queued polls).
    pub gpu_tasks: usize,
    /// Successful steals.
    pub steals: usize,
    /// Steal attempts (successful + failed).
    pub steal_attempts: usize,
    /// Copy-in tasks short-circuited by the device residency table (§4.3).
    pub copy_in_dedup_hits: usize,
    /// Copy-out polls that found the read still in flight and re-queued.
    pub copy_out_requeues: usize,
    /// Scheduling decisions taken (one per engine hot-loop iteration):
    /// the "events" of the discrete-event simulation, and the numerator
    /// of the `bench_hotpath` events/sec throughput metric.
    pub sched_steps: usize,
    /// Eligible pops/steals that missed the O(1) fast path (the item at
    /// the preferred queue end had not arrived yet) and had to scan the
    /// queue. A pure function of queue contents, so identical under every
    /// [`crate::SchedPolicy`]; future profiling PRs can attribute queue
    /// time without re-instrumenting.
    pub eligibility_rescans: usize,
    /// Draws from the engine's seeded generator: one per steal-victim
    /// probe, one per random deque a GPU-woken CPU task is placed on (a
    /// single worker is no choice and draws nothing). Identical under
    /// every [`crate::SchedPolicy`]. A run with none never read its seed,
    /// so its report, its host state and its action trace are the same
    /// under every seed.
    pub seed_draws: usize,
    /// Device activity during this run (zeroed if the machine has no GPU).
    pub device: DeviceStats,
    /// Device busy virtual seconds.
    pub device_busy: f64,
}

impl RunReport {
    /// Device utilization in `[0, 1]`.
    #[must_use]
    pub fn device_utilization(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        (self.device_busy / self.makespan).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_bounds() {
        let r = RunReport { makespan: 2.0, device_busy: 1.0, ..RunReport::default() };
        assert!((r.device_utilization() - 0.5).abs() < 1e-12);
        let over = RunReport { device_busy: 3.0, ..r };
        assert_eq!(over.device_utilization(), 1.0);
        assert_eq!(RunReport::default().device_utilization(), 0.0);
    }
}

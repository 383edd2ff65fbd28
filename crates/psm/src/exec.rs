//! Per-node PSM execution state.

use soc_types::{ResVec, SimMillis, TaskId, MAX_DIM};
use std::sync::{Mutex, PoisonError};

/// Per-VM maintenance overhead (§IV-A, from the Walters et al. report):
/// fractional capacity loss on the rate dimensions plus an absolute memory
/// cost, *per running VM instance*.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VmOverhead {
    /// Fraction of total CPU capacity consumed per VM (default 0.05).
    pub cpu_frac: f64,
    /// Fraction of total I/O capacity consumed per VM (default 0.10).
    pub io_frac: f64,
    /// Fraction of total network capacity consumed per VM (default 0.05).
    pub net_frac: f64,
    /// Absolute memory cost per VM in MB (default 5.0).
    pub mem_mb: f64,
}

impl Default for VmOverhead {
    fn default() -> Self {
        VmOverhead {
            cpu_frac: 0.05,
            io_frac: 0.10,
            net_frac: 0.05,
            mem_mb: 5.0,
        }
    }
}

impl VmOverhead {
    /// No overhead (used by unit tests reproducing the paper's worked
    /// example, which ignores VM cost).
    pub fn none() -> Self {
        VmOverhead {
            cpu_frac: 0.0,
            io_frac: 0.0,
            net_frac: 0.0,
            mem_mb: 0.0,
        }
    }
}

/// Scheduler configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PsmConfig {
    /// Per-VM maintenance cost.
    pub overhead: VmOverhead,
    /// How many leading dimensions are *performance* dimensions whose
    /// allocation drives progress (§IV-A: execution time depends only on
    /// computation, I/O and network → 3). Must be ≤ the vector dimension.
    pub perf_dims: usize,
    /// Dimension index of memory (for the absolute MB overhead), if any.
    pub mem_dim: Option<usize>,
}

impl Default for PsmConfig {
    fn default() -> Self {
        PsmConfig {
            overhead: VmOverhead::default(),
            perf_dims: soc_types::PERF_DIMS,
            mem_dim: Some(soc_types::units::DIM_MEM),
        }
    }
}

impl PsmConfig {
    /// Overhead-free config with `perf_dims` performance dimensions and no
    /// memory dimension — matches the paper's §II worked example.
    pub fn bare(perf_dims: usize) -> Self {
        PsmConfig {
            overhead: VmOverhead::none(),
            perf_dims,
            mem_dim: None,
        }
    }

    /// The process's one copy of this config. A run builds every node from
    /// the same config, so an executor row holds a pointer to it instead of
    /// its own 56-byte copy; each distinct config is stored once and kept
    /// for the life of the process (a process sees a handful). No run can
    /// observe another through this table: it only ever hands back a value
    /// equal to the one it was given.
    fn shared(self) -> &'static PsmConfig {
        static SHARED: Mutex<Vec<&'static PsmConfig>> = Mutex::new(Vec::new());
        // Every update is one push of a finished value, so a table poisoned
        // by a panic elsewhere is still whole.
        let mut shared = SHARED.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&c) = shared.iter().find(|&&c| *c == self) {
            return c;
        }
        let c: &'static PsmConfig = Box::leak(Box::new(self));
        shared.push(c);
        c
    }
}

/// A task currently executing on a node.
#[derive(Clone, Debug)]
pub struct RunningTask {
    /// Task identity.
    pub id: TaskId,
    /// Expectation vector `e(t_ij)` (full dimensionality).
    pub expect: ResVec,
    /// Remaining work per performance dimension, in demand-units × seconds.
    pub remaining: [f64; MAX_DIM],
    /// Submission time at the *origin* node (for efficiency accounting).
    pub submitted_at: SimMillis,
    /// When execution began on this node.
    pub started_at: SimMillis,
}

// Every event on a node walks all its resident tasks: the id, the
// expectation and remaining-work vectors (`MAX_DIM` wide each) and two
// timestamps.
const _: () = assert!(std::mem::size_of::<RunningTask>() == 128);

impl RunningTask {
    /// Build a task whose expected duration (at exactly its expectation
    /// rates) is `duration_s` seconds: work `w_k = e_k · duration_s` on
    /// every performance dimension.
    pub fn with_duration(
        id: TaskId,
        expect: ResVec,
        duration_s: f64,
        perf_dims: usize,
        submitted_at: SimMillis,
        started_at: SimMillis,
    ) -> Self {
        let mut remaining = [0.0; MAX_DIM];
        for (k, slot) in remaining.iter_mut().enumerate().take(perf_dims) {
            *slot = expect[k] * duration_s;
        }
        RunningTask {
            id,
            expect,
            remaining,
            submitted_at,
            started_at,
        }
    }

    fn is_done(&self, perf_dims: usize) -> bool {
        self.remaining[..perf_dims].iter().all(|&w| w <= 1e-9)
    }
}

/// A completed task, as reported by [`NodeExec::collect_finished`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FinishedTask {
    /// Task identity.
    pub id: TaskId,
    /// Original submission time.
    pub submitted_at: SimMillis,
    /// Execution start on the finishing node.
    pub started_at: SimMillis,
    /// Completion time.
    pub finished_at: SimMillis,
}

/// Cached completion prediction: the earliest predicted finish time,
/// valid for exactly one epoch.
///
/// Under proportional sharing every allocation-changing event
/// (admit/complete/kill/drain) re-rates *all* resident tasks, so the
/// minimum cannot be repaired incrementally — it is recomputed lazily on
/// the first prediction after an epoch bump and then answers every further
/// [`NodeExec::next_completion`] in O(1) (absolute finish times are
/// invariant while rates are constant).
#[derive(Clone, Debug)]
struct CompletionMemo {
    /// Epoch the memo was computed under (`u64::MAX` = never computed).
    epoch: u64,
    /// Earliest predicted completion over the resident tasks that do
    /// finish; `None` when the node is idle or every task is starved.
    next: Option<SimMillis>,
}

impl CompletionMemo {
    fn new() -> Self {
        CompletionMemo {
            epoch: u64::MAX,
            next: None,
        }
    }
}

/// PSM execution state of one node.
#[derive(Clone, Debug)]
pub struct NodeExec {
    capacity: ResVec,
    config: &'static PsmConfig,
    tasks: Vec<RunningTask>,
    last_integrated: SimMillis,
    epoch: u64,
    pred: CompletionMemo,
}

// One row per node id: the capacity vector, a pointer to the run's one
// config, the task list and the completion memo.
const _: () = assert!(std::mem::size_of::<NodeExec>() <= 128);

impl NodeExec {
    /// A node with capacity vector `c_i` and the given config.
    ///
    /// # Panics
    /// Panics if `perf_dims` exceeds the capacity dimensionality.
    pub fn new(capacity: ResVec, config: PsmConfig) -> Self {
        assert!(config.perf_dims <= capacity.dim());
        if let Some(m) = config.mem_dim {
            assert!(m < capacity.dim());
        }
        NodeExec {
            capacity,
            config: config.shared(),
            tasks: Vec::new(),
            last_integrated: 0,
            epoch: 0,
            pred: CompletionMemo::new(),
        }
    }

    /// Raw capacity vector `c_i`.
    pub fn capacity(&self) -> &ResVec {
        &self.capacity
    }

    /// Number of resident tasks (VM instances).
    pub fn n_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Epoch counter; completion events carry the epoch they were predicted
    /// under and are ignored when stale.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Resident tasks (read-only).
    pub fn tasks(&self) -> &[RunningTask] {
        &self.tasks
    }

    /// Effective capacity after per-VM maintenance overhead.
    pub fn effective_capacity(&self) -> ResVec {
        let k = self.tasks.len() as f64;
        let o = &self.config.overhead;
        let mut c = self.capacity;
        // Rate overheads apply to the first three performance dims when
        // present (cpu, io, net order per soc_types::units).
        let fracs = [o.cpu_frac, o.io_frac, o.net_frac];
        for (d, f) in fracs.iter().enumerate().take(self.config.perf_dims) {
            c[d] *= (1.0 - f * k).max(0.0);
        }
        if let Some(m) = self.config.mem_dim {
            c[m] = (c[m] - o.mem_mb * k).max(0.0);
        }
        c
    }

    /// Aggregate expected load `l_i = Σ_j e(t_ij)`.
    pub fn load(&self) -> ResVec {
        let mut l = ResVec::zeros(self.capacity.dim());
        for t in &self.tasks {
            l += t.expect;
        }
        l
    }

    /// Availability vector `a_i = c_i − l_i`, clamped at zero.
    ///
    /// This is what the node advertises in its periodic state-update; any
    /// dimension driven to zero by over-commitment simply stops matching
    /// positive demands (Inequality (2)).
    pub fn availability(&self) -> ResVec {
        self.effective_capacity().sub_clamped(&self.load())
    }

    /// Would this node currently qualify for demand `e` (Inequality (2))?
    pub fn qualifies(&self, e: &ResVec) -> bool {
        self.availability().dominates(e)
    }

    /// Equation (1): the allocation of every resident task under
    /// proportional sharing, in task order.
    ///
    /// Components where the aggregate load is zero yield zero allocation
    /// (no task wants that resource).
    pub fn allocations(&self) -> Vec<ResVec> {
        let c = self.effective_capacity();
        let l = self.load();
        self.tasks
            .iter()
            .map(|t| {
                let mut r = ResVec::zeros(c.dim());
                for d in 0..c.dim() {
                    if l[d] > 0.0 {
                        // Work-conserving proportional share; idle headroom
                        // is distributed (allocation may exceed e).
                        r[d] = t.expect[d] / l[d] * c[d];
                    }
                }
                r
            })
            .collect()
    }

    /// Equation (1) allocation of one task on one dimension, given the
    /// precomputed effective capacity and aggregate load. Inlined on the
    /// integration/prediction hot paths so neither allocates the
    /// [`Self::allocations`] vector per event; the expression matches
    /// `allocations()` exactly, keeping the arithmetic bit-identical.
    #[inline]
    fn rate(t: &RunningTask, c: &ResVec, l: &ResVec, d: usize) -> f64 {
        if l[d] > 0.0 {
            t.expect[d] / l[d] * c[d]
        } else {
            0.0
        }
    }

    /// Advance all remaining-work counters to `now` under the current
    /// (constant) allocation rates.
    fn integrate(&mut self, now: SimMillis) {
        debug_assert!(now >= self.last_integrated);
        let dt = (now - self.last_integrated) as f64 / 1_000.0;
        self.last_integrated = now;
        if dt == 0.0 || self.tasks.is_empty() {
            return;
        }
        let c = self.effective_capacity();
        let l = self.load();
        for t in &mut self.tasks {
            for d in 0..self.config.perf_dims {
                let r = Self::rate(t, &c, &l, d);
                t.remaining[d] = (t.remaining[d] - r * dt).max(0.0);
            }
        }
    }

    /// Admit a task at `now` (unconditionally — see DESIGN.md on
    /// contention). Returns the new epoch.
    pub fn add_task(&mut self, now: SimMillis, task: RunningTask) -> u64 {
        self.integrate(now);
        self.tasks.push(task);
        self.epoch += 1;
        self.epoch
    }

    /// Integrate to `now` and remove every task whose work is exhausted.
    /// Bumps the epoch when anything finished.
    pub fn collect_finished(&mut self, now: SimMillis) -> Vec<FinishedTask> {
        self.integrate(now);
        let perf = self.config.perf_dims;
        let mut done = Vec::new();
        self.tasks.retain(|t| {
            if t.is_done(perf) {
                done.push(FinishedTask {
                    id: t.id,
                    submitted_at: t.submitted_at,
                    started_at: t.started_at,
                    finished_at: now,
                });
                false
            } else {
                true
            }
        });
        if !done.is_empty() {
            self.epoch += 1;
        }
        done
    }

    /// Predict the absolute time of the next task completion under current
    /// rates, or `None` when idle. Valid until the epoch changes.
    ///
    /// Incremental: the first call after an allocation-changing event
    /// (admit/complete/kill/drain — anything that bumps the epoch)
    /// recomputes the minimum of the per-task finish times in one pass;
    /// every further call in the same epoch returns it in O(1). Absolute
    /// finish times do not drift while rates are constant, so the memo
    /// needs no time parameter — the
    /// only exception is a prediction already at-or-behind `now` (the
    /// residual-epsilon case, where the completion event fired but the work
    /// was not yet below the `is_done` threshold), which recomputes so the
    /// caller always observes forward progress.
    pub fn next_completion(&mut self, now: SimMillis) -> Option<SimMillis> {
        if self.pred.epoch == self.epoch {
            match self.pred.next {
                None => return None,
                Some(at) if at > now => return Some(at),
                _ => {} // stale "due now" prediction: recompute below
            }
        }
        self.integrate(now);
        self.pred.epoch = self.epoch;
        self.pred.next = None;
        if self.tasks.is_empty() {
            return None;
        }
        let c = self.effective_capacity();
        let l = self.load();
        for t in &self.tasks {
            // A task finishes when its slowest dimension drains.
            let mut finish_s: f64 = 0.0;
            let mut starved = false;
            for d in 0..self.config.perf_dims {
                if t.remaining[d] <= 1e-9 {
                    continue;
                }
                let r = Self::rate(t, &c, &l, d);
                if r <= 0.0 {
                    starved = true; // never finishes
                    break;
                }
                finish_s = finish_s.max(t.remaining[d] / r);
            }
            if !starved {
                // Round up so the event fires at-or-after true completion;
                // the residual work at the event is ≤ rate × 1 ms and is
                // absorbed by the is_done epsilon via one extra
                // integration step.
                let at = now + (finish_s * 1_000.0).ceil() as SimMillis;
                self.pred.next = Some(self.pred.next.map_or(at, |m| m.min(at)));
            }
        }
        self.pred.next
    }

    /// Kill every resident task (node churned away). Returns their ids.
    pub fn kill_all(&mut self, now: SimMillis) -> Vec<TaskId> {
        self.integrate(now);
        self.epoch += 1;
        self.tasks.drain(..).map(|t| t.id).collect()
    }

    /// Drain every resident task with its up-to-date remaining work
    /// (checkpoint capture at node departure — the paper's §VI
    /// fault-tolerance future work).
    pub fn drain_tasks(&mut self, now: SimMillis) -> Vec<RunningTask> {
        self.integrate(now);
        self.epoch += 1;
        std::mem::take(&mut self.tasks)
    }

    /// Remaining *nominal* seconds of a task: how long the residual work
    /// takes at exactly the expectation rates (used to size checkpoint
    /// resubmissions).
    pub fn remaining_nominal_s(task: &RunningTask, perf_dims: usize) -> f64 {
        let mut t: f64 = 0.0;
        for d in 0..perf_dims {
            if task.expect[d] > 0.0 {
                t = t.max(task.remaining[d] / task.expect[d]);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &[f64]) -> ResVec {
        ResVec::from_slice(s)
    }

    /// The §II worked example: capacity {13.5 GFlops, 1200 M}, three tasks
    /// expecting {2,100}, {3,200}, {4,300} receive {3,200}, {4.5,400},
    /// {6,600}.
    #[test]
    fn paper_worked_example() {
        let mut node = NodeExec::new(v(&[13.5, 1200.0]), PsmConfig::bare(1));
        for (i, e) in [[2.0, 100.0], [3.0, 200.0], [4.0, 300.0]]
            .iter()
            .enumerate()
        {
            node.add_task(
                0,
                RunningTask::with_duration(TaskId(i as u64), v(e), 100.0, 1, 0, 0),
            );
        }
        let allocs = node.allocations();
        let expect = [[3.0, 200.0], [4.5, 400.0], [6.0, 600.0]];
        for (a, e) in allocs.iter().zip(expect.iter()) {
            assert!((a[0] - e[0]).abs() < 1e-9, "{a:?} vs {e:?}");
            assert!((a[1] - e[1]).abs() < 1e-9, "{a:?} vs {e:?}");
        }
    }

    #[test]
    fn allocation_meets_expectation_iff_not_overcommitted() {
        let mut node = NodeExec::new(v(&[10.0, 10.0]), PsmConfig::bare(2));
        node.add_task(
            0,
            RunningTask::with_duration(TaskId(0), v(&[4.0, 4.0]), 10.0, 2, 0, 0),
        );
        node.add_task(
            0,
            RunningTask::with_duration(TaskId(1), v(&[4.0, 4.0]), 10.0, 2, 0, 0),
        );
        // l = (8,8) ⪯ c: every allocation dominates its expectation.
        for (a, t) in node.allocations().iter().zip(node.tasks()) {
            assert!(a.dominates(&t.expect));
        }
        node.add_task(
            0,
            RunningTask::with_duration(TaskId(2), v(&[4.0, 4.0]), 10.0, 2, 0, 0),
        );
        // l = (12,12) ⋠ c: everyone is below expectation now.
        for (a, t) in node.allocations().iter().zip(node.tasks()) {
            assert!(!a.dominates(&t.expect));
            assert!((a[0] - 10.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn availability_reflects_load_and_overhead() {
        let cfg = PsmConfig {
            overhead: VmOverhead::default(),
            perf_dims: 3,
            mem_dim: Some(4),
        };
        let cap = v(&[10.0, 100.0, 10.0, 100.0, 1000.0]);
        let mut node = NodeExec::new(cap, cfg);
        assert_eq!(node.availability(), cap); // idle, no VMs
        node.add_task(
            0,
            RunningTask::with_duration(TaskId(0), v(&[2.0, 10.0, 1.0, 10.0, 100.0]), 10.0, 3, 0, 0),
        );
        let a = node.availability();
        // cpu: 10·0.95 − 2 = 7.5; io: 100·0.9 − 10 = 80; net: 10·0.95 − 1 = 8.5
        assert!((a[0] - 7.5).abs() < 1e-9);
        assert!((a[1] - 80.0).abs() < 1e-9);
        assert!((a[2] - 8.5).abs() < 1e-9);
        // disk: no overhead: 100 − 10 = 90; mem: 1000 − 5 − 100 = 895.
        assert!((a[3] - 90.0).abs() < 1e-9);
        assert!((a[4] - 895.0).abs() < 1e-9);
    }

    #[test]
    fn lone_task_runs_at_full_capacity() {
        // A single task on an idle node gets the whole effective capacity,
        // finishing faster than its expected duration.
        let mut node = NodeExec::new(v(&[10.0, 10.0]), PsmConfig::bare(2));
        node.add_task(
            0,
            RunningTask::with_duration(TaskId(0), v(&[5.0, 5.0]), 100.0, 2, 0, 0),
        );
        // Expected duration 100 s at rate 5, actual rate 10 ⇒ 50 s.
        let done_at = node.next_completion(0).unwrap();
        assert_eq!(done_at, 50_000);
        let fins = node.collect_finished(done_at);
        assert_eq!(fins.len(), 1);
        assert_eq!(fins[0].finished_at, 50_000);
        assert_eq!(node.n_tasks(), 0);
    }

    #[test]
    fn contention_slows_completion() {
        let mut node = NodeExec::new(v(&[10.0]), PsmConfig::bare(1));
        node.add_task(
            0,
            RunningTask::with_duration(TaskId(0), v(&[10.0]), 100.0, 1, 0, 0),
        );
        node.add_task(
            0,
            RunningTask::with_duration(TaskId(1), v(&[10.0]), 100.0, 1, 0, 0),
        );
        // Each gets 5 units instead of 10: the 100 s tasks take 200 s.
        let done_at = node.next_completion(0).unwrap();
        assert_eq!(done_at, 200_000);
    }

    #[test]
    fn membership_change_respects_prior_progress() {
        let mut node = NodeExec::new(v(&[10.0]), PsmConfig::bare(1));
        node.add_task(
            0,
            RunningTask::with_duration(TaskId(0), v(&[10.0]), 100.0, 1, 0, 0),
        );
        // Runs alone for 50 s (half the work done at full speed)…
        node.add_task(
            50_000,
            RunningTask::with_duration(TaskId(1), v(&[10.0]), 100.0, 1, 0, 50_000),
        );
        // …then shares: remaining 500 units at 5/s ⇒ +100 s.
        let done_at = node.next_completion(50_000).unwrap();
        assert_eq!(done_at, 150_000);
    }

    #[test]
    fn epochs_bump_on_membership_changes() {
        let mut node = NodeExec::new(v(&[10.0]), PsmConfig::bare(1));
        let e0 = node.epoch();
        node.add_task(
            0,
            RunningTask::with_duration(TaskId(0), v(&[5.0]), 10.0, 1, 0, 0),
        );
        assert!(node.epoch() > e0);
        let e1 = node.epoch();
        let done_at = node.next_completion(0).unwrap();
        assert_eq!(node.epoch(), e1, "prediction must not change the epoch");
        node.collect_finished(done_at);
        assert!(node.epoch() > e1);
    }

    #[test]
    fn starved_dimension_never_completes() {
        // Zero capacity on a demanded dimension ⇒ no completion prediction.
        let mut node = NodeExec::new(v(&[0.0, 10.0]), PsmConfig::bare(2));
        node.add_task(
            0,
            RunningTask::with_duration(TaskId(0), v(&[1.0, 1.0]), 10.0, 2, 0, 0),
        );
        assert_eq!(node.next_completion(0), None);
    }

    #[test]
    fn kill_all_drains_node() {
        let mut node = NodeExec::new(v(&[10.0]), PsmConfig::bare(1));
        for i in 0..3 {
            node.add_task(
                0,
                RunningTask::with_duration(TaskId(i), v(&[1.0]), 10.0, 1, 0, 0),
            );
        }
        let killed = node.kill_all(1_000);
        assert_eq!(killed.len(), 3);
        assert_eq!(node.n_tasks(), 0);
        assert_eq!(node.next_completion(1_000), None);
    }

    #[test]
    fn drain_preserves_progress_for_checkpointing() {
        let mut node = NodeExec::new(v(&[10.0]), PsmConfig::bare(1));
        node.add_task(
            0,
            RunningTask::with_duration(TaskId(0), v(&[5.0]), 100.0, 1, 0, 0),
        );
        // Run for 25 s at rate 10 (alone, work-conserving) ⇒ 250 of 500
        // units done ⇒ 50 nominal seconds remain at the expectation rate.
        let drained = node.drain_tasks(25_000);
        assert_eq!(drained.len(), 1);
        let rem = NodeExec::remaining_nominal_s(&drained[0], 1);
        assert!((rem - 50.0).abs() < 1e-6, "remaining {rem}");
        assert_eq!(node.n_tasks(), 0);
    }

    #[test]
    fn executors_share_one_copy_of_an_equal_config() {
        let a = NodeExec::new(v(&[1.0, 2.0]), PsmConfig::bare(2));
        let b = NodeExec::new(v(&[3.0, 4.0]), PsmConfig::bare(2));
        let c = NodeExec::new(v(&[3.0, 4.0]), PsmConfig::bare(1));
        assert!(std::ptr::eq(a.config, b.config));
        assert!(!std::ptr::eq(a.config, c.config));
        assert_eq!(*c.config, PsmConfig::bare(1));
    }

    #[test]
    fn overhead_can_zero_out_capacity() {
        let cfg = PsmConfig {
            overhead: VmOverhead {
                cpu_frac: 0.5,
                io_frac: 0.5,
                net_frac: 0.5,
                mem_mb: 0.0,
            },
            perf_dims: 1,
            mem_dim: None,
        };
        let mut node = NodeExec::new(v(&[10.0]), cfg);
        for i in 0..2 {
            node.add_task(
                0,
                RunningTask::with_duration(TaskId(i), v(&[1.0]), 10.0, 1, 0, 0),
            );
        }
        // 2 VMs × 50% ⇒ zero effective capacity; clamped, not negative.
        assert_eq!(node.effective_capacity()[0], 0.0);
        assert_eq!(node.availability()[0], 0.0);
        assert_eq!(node.next_completion(0), None);
    }

    #[test]
    fn prediction_is_memoized_within_an_epoch() {
        let mut node = NodeExec::new(v(&[10.0]), PsmConfig::bare(1));
        node.add_task(
            0,
            RunningTask::with_duration(TaskId(0), v(&[5.0]), 100.0, 1, 0, 0),
        );
        let at = node.next_completion(0).unwrap();
        // Absolute finish times are invariant while rates are constant:
        // later queries in the same epoch return the identical instant.
        assert_eq!(node.next_completion(10_000), Some(at));
        assert_eq!(node.next_completion(at - 1), Some(at));
        // An allocation-changing event invalidates the memo.
        node.add_task(
            at - 1,
            RunningTask::with_duration(TaskId(1), v(&[5.0]), 100.0, 1, 0, at - 1),
        );
        let at2 = node.next_completion(at - 1).unwrap();
        assert!(at2 > at, "sharing must push the finish out: {at2} vs {at}");
    }

    #[test]
    fn stale_due_now_prediction_recomputes_forward() {
        // If the caller re-queries at (or past) the predicted instant
        // without the epoch moving, the memo must not pin the clock: the
        // recomputed prediction lies strictly in the future.
        let mut node = NodeExec::new(v(&[10.0]), PsmConfig::bare(1));
        node.add_task(
            0,
            RunningTask::with_duration(TaskId(0), v(&[5.0]), 100.0, 1, 0, 0),
        );
        let at = node.next_completion(0).unwrap();
        let again = node.next_completion(at).unwrap();
        assert!(again >= at, "prediction went backwards: {again} < {at}");
        // The residual at `at` is below the is_done epsilon, so the
        // recomputed prediction is "due immediately", not pinned stale.
        assert_eq!(again, at);
    }

    #[test]
    fn idle_prediction_memo_survives_queries() {
        let mut node = NodeExec::new(v(&[10.0]), PsmConfig::bare(1));
        assert_eq!(node.next_completion(0), None);
        assert_eq!(node.next_completion(99_000), None);
        node.add_task(
            100_000,
            RunningTask::with_duration(TaskId(0), v(&[10.0]), 10.0, 1, 100_000, 100_000),
        );
        assert_eq!(node.next_completion(100_000), Some(110_000));
    }

    #[test]
    fn work_conservation_under_heterogeneous_demands() {
        let mut node = NodeExec::new(v(&[12.0]), PsmConfig::bare(1));
        node.add_task(
            0,
            RunningTask::with_duration(TaskId(0), v(&[1.0]), 10.0, 1, 0, 0),
        );
        node.add_task(
            0,
            RunningTask::with_duration(TaskId(1), v(&[3.0]), 10.0, 1, 0, 0),
        );
        let total: f64 = node.allocations().iter().map(|a| a[0]).sum();
        assert!(
            (total - 12.0).abs() < 1e-9,
            "allocations must sum to capacity"
        );
    }
}

//! The process's one background scheduler: [`WORKERS`] threads shared
//! by every store opened with `background: true`. Seals go first —
//! LevelDB's order (the immutable memtable before any compaction) on
//! RocksDB's one pool per process — and at most `WORKERS − 1`
//! compactions run at once, so a worker is always left for seals. One
//! exception keeps a stream of seals from starving compaction: while a
//! seal runs and no compaction does, a queued compaction goes before
//! queued seals. A store has at most one queued job of each kind, and a
//! job holds its store weakly.
//!
//! A store opened with `background: false` queues the same jobs, under
//! the same one-of-each-kind rule, on a queue of its own instead: no
//! worker runs them, and [`step`] runs one on the caller's thread.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, Weak};
use std::thread;

use crate::error::SegmentError;
use crate::store::Inner;

/// The pool's threads, spawned with the first job: three, so that two
/// seal while one compacts. With two, a stream of writes to two stores
/// starved compaction, or (with the exception above) stalled writers
/// at the active table's cap while the one sealer served both stores.
const WORKERS: usize = 3;

/// One kind of background work on a store, in the order [`step`]
/// takes them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Job {
    /// Seal the frozen table, then queue a compaction, and another
    /// seal if the active table froze meanwhile.
    Seal,
    /// One compaction step, queueing the next if it merged.
    Compact,
}

/// A store's job, queued or running.
type Entry = (Weak<Inner>, Job);

#[derive(Default)]
struct Queue {
    queued: Vec<Entry>,
    running: Vec<Entry>,
}

/// The queue, and its signal: a job was queued or has ended.
static SCHEDULER: OnceLock<(Mutex<Queue>, Condvar)> = OnceLock::new();

/// The scheduler, its workers spawned on first use. They live as long
/// as the process, so nothing joins them.
fn scheduler() -> &'static (Mutex<Queue>, Condvar) {
    SCHEDULER.get_or_init(|| {
        for _ in 0..WORKERS {
            thread::spawn(work);
        }
        Default::default()
    })
}

/// Jobs run outside the lock, and nothing under it panics mid-update,
/// so a poisoned queue is still consistent.
fn lock(queue: &Mutex<Queue>) -> MutexGuard<'_, Queue> {
    queue.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Does an entry belong to `store`?
fn of(store: &Arc<Inner>) -> impl Fn(&Entry) -> bool + '_ {
    |(entry, _)| std::ptr::eq(entry.as_ptr(), Arc::as_ptr(store))
}

impl Queue {
    /// Starts the next job, in the order the module docs give.
    fn start(&mut self) -> Option<Entry> {
        let running = |kind| self.running.iter().filter(|(_, job)| *job == kind).count();
        let (sealing, compacting) = (running(Job::Seal), running(Job::Compact));
        let first = |kind| self.queued.iter().position(|(_, job)| *job == kind);
        let at = match (first(Job::Seal), first(Job::Compact)) {
            (Some(_), Some(compaction)) if sealing > 0 && compacting == 0 => compaction,
            (Some(seal), _) => seal,
            (None, compaction) => compaction.filter(|_| compacting + 1 < WORKERS)?,
        };
        let entry = self.queued.remove(at);
        self.running.push(entry.clone());
        Some(entry)
    }
}

fn work() {
    let (queue, changed) = scheduler();
    let mut guard = lock(queue);
    loop {
        let Some((store, job)) = guard.start() else {
            guard = changed.wait(guard).unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        drop(guard);
        if let Some(store) = store.upgrade() {
            // A job that fails or panics leaves its store as it was,
            // for the next submit to retry, and stops no worker. One
            // step a job, so the stores take turns.
            let _ = catch_unwind(AssertUnwindSafe(|| run(&store, job)));
        }
        guard = lock(queue);
        let ended = guard
            .running
            .iter()
            .position(|(s, j)| s.ptr_eq(&store) && *j == job);
        if let Some(at) = ended {
            guard.running.swap_remove(at);
        }
        changed.notify_all();
    }
}

/// One job's body, wherever it runs: a seal queues a compaction, and
/// another seal if the active table froze meanwhile; a compaction that
/// merged queues the next.
fn run(store: &Arc<Inner>, job: Job) -> Result<(), SegmentError> {
    match job {
        Job::Seal => {
            let refrozen = store.seal_frozen().and_then(|()| store.freeze_if_due());
            if let Ok(true) = refrozen {
                submit(store, job);
            }
            submit(store, Job::Compact);
            refrozen.map(drop)
        }
        Job::Compact => {
            if store.compact_once()? {
                submit(store, job);
            }
            Ok(())
        }
    }
}

/// Queues `job` on `store` unless one of its kind is queued already:
/// on the process's queue, or with `background: false` on the store's
/// own.
pub(crate) fn submit(store: &Arc<Inner>, job: Job) {
    if !store.policy.background {
        store.stepped.lock().insert(job);
        return;
    }
    let (queue, changed) = scheduler();
    let (mut guard, mine) = (lock(queue), of(store));
    let queued = guard
        .queued
        .iter()
        .any(|entry| mine(entry) && entry.1 == job);
    if !queued {
        guard.queued.push((Arc::downgrade(store), job));
        changed.notify_all();
    }
}

/// Runs the first job on `store`'s own queue — a seal before a
/// compaction — on the calling thread, and returns whether there was
/// one. A job's error is returned; the job is not queued again.
pub(crate) fn step(store: &Arc<Inner>) -> Result<bool, SegmentError> {
    let Some(job) = store.stepped.lock().pop_first() else {
        return Ok(false);
    };
    run(store, job)?;
    Ok(true)
}

/// Drops `store`'s queued jobs and waits for its running ones: on
/// return, no worker touches the store again.
pub(crate) fn cancel(store: &Arc<Inner>) {
    let Some((queue, changed)) = SCHEDULER.get() else {
        return;
    };
    let mut guard = lock(queue);
    // Re-checked after each wait: a seal queues a compaction as it ends.
    loop {
        guard.queued.retain(|entry| !of(store)(entry));
        if !guard.running.iter().any(of(store)) {
            return;
        }
        guard = changed.wait(guard).unwrap_or_else(PoisonError::into_inner);
    }
}

//! Steady-state allocation budget for the training step.
//!
//! A counting `#[global_allocator]` (this file is its own test binary,
//! so the allocator hook is scoped to it) measures how many heap
//! allocations one `Atnn::train_step` performs after warmup. The reused
//! tape + backward workspace arena and the row-sparse embedding
//! gradients are supposed to make the step allocation-light; this test
//! pins that property to a fixed ceiling so a regression (e.g. a new op
//! allocating per-node scratch in backward) fails CI rather than
//! silently eating the win. Run from `scripts/check.sh`.
//!
//! The budget is a *count*, not bytes: buffer reuse eliminates whole
//! allocation sites, which is what the counter sees. Threads are pinned
//! to 1 so pool workers cannot smear counts across runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use atnn_core::{gather_batch, Atnn, AtnnConfig};
use atnn_data::tmall::{TmallConfig, TmallDataset};
use atnn_tensor::pool;

struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// The counter is process-wide and the harness runs tests on parallel
/// threads: each test holds this for its whole body so one test's warmup
/// never lands in the other's measured window.
static SERIAL: Mutex<()> = Mutex::new(());

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing realloc is a fresh allocation from the budget's point
        // of view (it defeats buffer reuse just the same).
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Ceiling on heap allocations for one steady-state train step (batch
/// 64, `AtnnConfig::scaled()`, similarity mode). Measured at 284/step
/// when introduced, 236/step after the fused `Op::Linear` /
/// `BceWithLogits` kernels collapsed the per-layer bias-broadcast and
/// activation intermediates; the ceiling leaves ~40% headroom for
/// allocator/std drift while still catching structural regressions (one
/// extra allocation per tape node — ~100 nodes at this config post
/// fusion — would breach it, as would losing workspace reuse in
/// backward).
const STEP_ALLOC_BUDGET: usize = 330;

const WARMUP_STEPS: usize = 6;
const MEASURED_STEPS: usize = 10;

#[test]
fn steady_state_train_step_stays_within_alloc_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    // The observability layer must be free when no active sink is
    // installed: a NullSink reports `active() == false`, so the hub stays
    // disabled and every producer's telemetry path is one atomic load —
    // the budget below is asserted with the sink in place.
    let _sink = atnn_obs::install_scoped(std::sync::Arc::new(atnn_obs::NullSink));
    assert!(
        !atnn_obs::enabled(),
        "NullSink must leave the obs hub disabled; the alloc budget assumes the no-op path"
    );
    pool::with_threads(1, || {
        let data = TmallDataset::generate(TmallConfig::tiny());
        let mut model = Atnn::new(AtnnConfig::scaled(), &data);
        let rows: Vec<u32> = (0..64).collect();
        let (profile, stats, users, labels) = gather_batch(&data, &rows);

        // Warmup: fills the workspace arena, optimizer state, sparse
        // gradient buffers, and the tape's node storage to steady state.
        for _ in 0..WARMUP_STEPS {
            model.train_step(&profile, &stats, &users, &labels);
        }

        ALLOCS.store(0, Ordering::SeqCst);
        ENABLED.store(true, Ordering::SeqCst);
        for _ in 0..MEASURED_STEPS {
            model.train_step(&profile, &stats, &users, &labels);
        }
        ENABLED.store(false, Ordering::SeqCst);

        let per_step = ALLOCS.load(Ordering::SeqCst) / MEASURED_STEPS;
        eprintln!("steady-state allocations per train step: {per_step}");
        assert!(
            per_step <= STEP_ALLOC_BUDGET,
            "train step allocated {per_step} times (budget {STEP_ALLOC_BUDGET}); \
             a gradient buffer or workspace stopped being reused"
        );
    });
}

#[test]
fn repeated_steps_do_not_grow_allocation_count() {
    let _serial = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    // Second invariant: the per-step count is *flat* — later steps must
    // not allocate more than early post-warmup steps (a slow leak or an
    // arena that stops recycling shows up as growth before it shows up
    // as a budget breach).
    pool::with_threads(1, || {
        let data = TmallDataset::generate(TmallConfig::tiny());
        let mut model = Atnn::new(AtnnConfig::scaled(), &data);
        let rows: Vec<u32> = (0..32).collect();
        let (profile, stats, users, labels) = gather_batch(&data, &rows);
        for _ in 0..WARMUP_STEPS {
            model.train_step(&profile, &stats, &users, &labels);
        }

        let mut window = |steps: usize| {
            ALLOCS.store(0, Ordering::SeqCst);
            ENABLED.store(true, Ordering::SeqCst);
            for _ in 0..steps {
                model.train_step(&profile, &stats, &users, &labels);
            }
            ENABLED.store(false, Ordering::SeqCst);
            ALLOCS.load(Ordering::SeqCst) / steps
        };

        let early = window(5);
        let late = window(5);
        eprintln!("allocations per step: early window {early}, late window {late}");
        assert!(
            late <= early + early / 10 + 8,
            "per-step allocations grew from {early} to {late}: steady state is leaking"
        );
    });
}

//! A durable state write streams its files to disk through a bounded
//! buffer: writing a checkpoint and a base allocates about the same at any
//! graph size, not a buffer as large as the state.
//!
//! The binary counts every byte the process allocates through a counting
//! global allocator, so it holds a single test: no other test's threads may
//! allocate while a state write is being counted. CI runs it in release,
//! the build the benchmark measures: `cargo test --release --test
//! state_write_footprint`.

use slfe::apps::sssp::SsspProgram;
use slfe::delta::{DeltaServer, DurabilityConfig, ServerConfig};
use slfe::graph::generators::{self, BatchShape};
use slfe::graph::{stats, Graph};
use slfe::prelude::ClusterConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Adds up the bytes of every allocation and reallocation; frees are not
/// subtracted, so a window's count is everything it asked the heap for.
struct Counting;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes allocated by one `snapshot()` that writes a checkpoint and a base
/// on a durable SSSP server over R-MAT `n` / `10n`, and the bytes those two
/// files hold. The cadence is set high, so no batch writes state; the
/// batches applied first, outside the counted window, bring the WAL to
/// 1/1024 of the base's bytes, which makes the next state write a base too.
fn state_write_bytes(n: usize) -> (u64, u64) {
    let dir = std::env::temp_dir().join(format!("slfe-state-footprint-{n}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let graph = generators::rmat(n, 10 * n, 0.57, 0.19, 0.19, 2626);
    let root = stats::highest_out_degree_vertex(&graph).unwrap();
    let config = ServerConfig {
        cluster: ClusterConfig::new(2, 1),
        ..ServerConfig::default()
    };
    let durability = DurabilityConfig::new(&dir).with_snapshot_every(1 << 20);
    let mut server = DeltaServer::create_durable(
        graph,
        move |_: &Graph| SsspProgram { root },
        config,
        durability.clone(),
    )
    .expect("durable server");
    let file_len = |path: std::path::PathBuf| std::fs::metadata(path).unwrap().len();
    let base_bytes = file_len(durability.snapshot_path());
    let mut seed = 0;
    while file_len(durability.wal_path()) * 1024 < base_bytes {
        let shape = BatchShape::Mixed {
            allow_growth: false,
        };
        let batch = generators::random_batch(server.graph(), seed, 256, shape);
        server.try_apply(&batch).expect("batch applies");
        seed += 1;
    }
    let counters = *server.durability_counters().unwrap();
    let before = ALLOCATED.load(Ordering::Relaxed);
    server.snapshot().expect("state write");
    let bytes = ALLOCATED.load(Ordering::Relaxed) - before;
    let after = *server.durability_counters().unwrap();
    assert_eq!(
        (after.snapshots_written, after.base_writes),
        (counters.snapshots_written + 2, counters.base_writes + 1),
        "the counted write must be a checkpoint and a base"
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    (
        bytes,
        after.snapshot_bytes_written - counters.snapshot_bytes_written,
    )
}

#[test]
fn a_state_write_allocates_the_same_at_8x_the_graph() {
    let (small, small_state) = state_write_bytes(25_000);
    let (large, large_state) = state_write_bytes(200_000);
    eprintln!(
        "state write: {small} bytes allocated for {small_state} written at 25k vertices, \
         {large} for {large_state} at 200k"
    );
    assert!(small > 0, "the counter saw nothing");
    assert!(
        large <= 2 * small,
        "a state write allocated {large} bytes at 200k vertices, {small} at 25k: \
         its buffer grows with the state"
    );
    assert!(
        large < 4 << 20,
        "a state write allocated {large} bytes at 200k vertices"
    );
}

//! Out-of-core adjacency storage: disk-resident CSR/CSC segments served
//! through a byte-budgeted buffer pool.
//!
//! The in-memory [`Adjacency`] caps graph size at RAM. This module adds the
//! GraphChi-style alternative the real engine needs for graphs past memory:
//!
//! * [`AdjacencyStore`] — the abstraction the engine's pull/push phases
//!   traverse: `block(v)` hands out the [`Block`] holding `v`'s list. Both
//!   backings serve that one type. The in-memory [`Adjacency`] lends one of
//!   its shared blocks, so a cursor looks a block up once per
//!   [`BLOCK_VERTICES`](crate::csr::BLOCK_VERTICES) vertices, not once per
//!   vertex.
//! * [`SegmentedStore`] — one adjacency direction written to disk in
//!   fixed-byte-budget **segments**: a contiguous vertex range's local offset
//!   array plus its neighbor/weight arrays, self-contained so a segment can be
//!   rewritten without shifting its siblings. A segment fault checks the
//!   bytes' CRC32 and decodes them into a [`Block`]. The in-RAM footprint is
//!   only the segment *directory* (a few dozen bytes per segment).
//! * [`BufferPool`] — a clock (second-chance) cache of decoded segments, held
//!   as `Arc<Block>`s, with a byte budget. Faults and bytes read are counted
//!   ([`PoolCounters`]), and pinned segments (ones a worker currently
//!   traverses) are never evicted.
//! * [`GraphStorage`] — both directions of one graph version sharing a single
//!   pool, plus [`GraphStorage::patched`]: the segment analogue of
//!   [`Adjacency::patched`] — after an edge-update batch only the segments
//!   covering dirty vertices are rewritten (appended to the store file, the
//!   directory repointed), every clean segment's bytes stay where they are and
//!   its cached frame stays warm.
//!
//! Traversal streams through a [`StreamCursor`]: the engine walks each chunk's
//! vertices in ascending id order, so the cursor holds (pins) exactly one
//! block at a time per worker and faults a segment only when a vertex
//! actually needs it — skipped chunks and inactive sources fault nothing,
//! which is what makes the chunk-level activity summaries double as the I/O
//! planner.
//!
//! Segment lists are stored in the same sorted-by-neighbor order the
//! in-memory structure maintains, so a traversal through either store visits
//! byte-identical `(neighbor, weight)` sequences — the engine-level
//! bit-for-bit equivalence tests rest on that.

use crate::csr::{Adjacency, Block};
use crate::faults::{with_retries, FaultAction, FaultInjector, FaultSite, RetryPolicy};
use crate::io::binary::crc32;
use crate::types::{EdgeWeight, VertexId};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io;
use std::ops::{Deref, Range};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use slfe_metrics::telemetry::{SpanEvent, Telemetry, HIST_SEGMENT_FAULT};

/// Abstract adjacency access for the engine's traversal phases: `block(v)`
/// pins and returns the [`Block`] holding `v`'s list (one of the in-memory
/// blocks, or one decoded segment of a [`SegmentedStore`]). The returned view
/// keeps that block alive — and, out of core, resident — until it drops.
pub trait AdjacencyStore: Sync {
    /// A pinned block of the store.
    type View<'a>: Deref<Target = Block>
    where
        Self: 'a;

    /// Pin the block holding `v`'s list.
    fn block(&self, v: VertexId) -> Self::View<'_>;
}

impl AdjacencyStore for Adjacency {
    type View<'a> = &'a Block;

    fn block(&self, v: VertexId) -> &Block {
        Adjacency::block(self, v)
    }
}

/// Adjacency reader over any [`AdjacencyStore`]: re-pins the store's block
/// whenever the requested vertex leaves the pinned block's span. One cursor
/// per worker pins at most one block at a time.
pub struct StreamCursor<'a, S: AdjacencyStore> {
    store: &'a S,
    /// The pinned block and the vertices it holds.
    current: Option<(Range<VertexId>, S::View<'a>)>,
}

impl<'a, S: AdjacencyStore> StreamCursor<'a, S> {
    /// A cursor with nothing pinned yet.
    pub fn new(store: &'a S) -> Self {
        Self {
            store,
            current: None,
        }
    }

    /// Neighbor list and weights of `v`, faulting the block containing `v`
    /// if the cursor is not already positioned on it.
    #[inline]
    pub fn list(&mut self, v: VertexId) -> (&[VertexId], &[EdgeWeight]) {
        if !matches!(&self.current, Some((span, _)) if span.contains(&v)) {
            // Unpin the old block *before* faulting the next one, so each
            // cursor holds at most one segment at any instant — the
            // pinned-set bound (`total_workers` segments) the budget sizing
            // docs promise.
            self.current = None;
            let block = self.store.block(v);
            let span = block.span();
            debug_assert!(span.contains(&v), "the block must hold the vertex");
            self.current = Some((span, block));
        }
        self.current.as_ref().expect("positioned above").1.list(v)
    }
}

/// One segment's on-disk bytes: the local offsets, targets and weights of
/// vertices `v_start..v_end` as little-endian `u32` words (the layout
/// [`SegmentMeta::decode`] reads), then the CRC32 of those words, so a torn,
/// short or bit-flipped segment read is detected at decode time instead of
/// being traversed as garbage adjacency.
struct EncodedSegment {
    v_start: VertexId,
    v_end: VertexId,
    num_edges: usize,
    bytes: Vec<u8>,
}

impl EncodedSegment {
    /// Encode the next segment of `lo..hi` (non-empty) straight from `adj`'s
    /// blocks. The segment closes after the first vertex that brings it to
    /// `segment_bytes` (4 bytes per offset, the leading one included, plus 8
    /// per edge), or at `hi`, so a hub's list never splits. The output is
    /// allocated at its exact size and filled with word copies.
    fn next(adj: &Adjacency, lo: VertexId, hi: VertexId, segment_bytes: usize) -> Self {
        debug_assert!(lo < hi, "empty segment range");
        let (mut v_end, mut budget, mut num_edges) = (lo, 4usize, 0usize);
        while v_end < hi {
            let degree = adj.degree(v_end);
            budget += 4 + degree * 8;
            num_edges += degree;
            v_end += 1;
            if budget >= segment_bytes {
                break;
            }
        }
        let words = (v_end - lo) as usize + 1 + 2 * num_edges;
        let mut bytes = vec![0u8; 4 * words + 4];
        let (payload, crc) = bytes.split_at_mut(4 * words);
        let (offsets, lists) = payload.split_at_mut(4 * (v_end - lo) as usize + 4);
        let (targets, weights) = lists.split_at_mut(4 * num_edges);
        // The leading offset is the zero already there.
        let mut offsets = offsets.chunks_exact_mut(4).skip(1);
        let (mut targets, mut weights) = (targets.chunks_exact_mut(4), weights.chunks_exact_mut(4));
        let mut entry = 0usize;
        // Each run's words lead each zip: a zip stops at its first
        // iterator's end without taking from the second, so no output word
        // is skipped between runs.
        for (run_offsets, run_targets, run_weights) in adj.runs(lo..v_end) {
            for (&end, dst) in run_offsets[1..].iter().zip(offsets.by_ref()) {
                let local = entry + (end - run_offsets[0]) as usize;
                dst.copy_from_slice(&(local as u32).to_le_bytes());
            }
            for (t, dst) in run_targets.iter().zip(targets.by_ref()) {
                dst.copy_from_slice(&t.to_le_bytes());
            }
            for (w, dst) in run_weights.iter().zip(weights.by_ref()) {
                dst.copy_from_slice(&w.to_le_bytes());
            }
            entry += run_targets.len();
        }
        debug_assert_eq!(entry, num_edges, "runs cover the counted lists");
        crc.copy_from_slice(&crc32(payload).to_le_bytes());
        Self {
            v_start: lo,
            v_end,
            num_edges,
            bytes,
        }
    }
}

/// One directory entry: where a segment's bytes live and what they cover.
/// The directory is the only per-segment state that stays in RAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SegmentMeta {
    /// First vertex covered (segments are contiguous and sorted).
    v_start: VertexId,
    /// Vertices covered.
    num_vertices: u32,
    /// Edges stored.
    num_edges: u64,
    /// Byte offset into the store file. Patching appends rewritten segments,
    /// so an offset uniquely identifies one immutable version of a segment's
    /// bytes — which is what lets patched generations share the buffer pool
    /// without invalidating clean segments' cached frames.
    file_offset: u64,
    /// Byte length on disk.
    bytes: u64,
}

impl SegmentMeta {
    fn v_end(&self) -> VertexId {
        self.v_start + self.num_vertices
    }

    /// In-RAM bytes of the decoded segment (the on-disk `bytes` minus the
    /// trailing CRC): what the buffer pool reserves before loading.
    fn decoded_bytes(&self) -> u64 {
        (self.num_vertices as u64 + 1) * 4 + self.num_edges * 8
    }

    /// Decode the segment's on-disk bytes into a [`Block`]; counts come from
    /// this entry. Returns `None` when the byte length does not match the
    /// entry or the trailing CRC32 does not match the payload.
    fn decode(&self, bytes: &[u8]) -> Option<Block> {
        let nv = self.num_vertices as usize;
        let ne = self.num_edges as usize;
        if bytes.len() != (nv + 1) * 4 + ne * 8 + 4 {
            return None;
        }
        let (payload, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4-byte split"));
        if crc32(payload) != stored {
            return None;
        }
        let (offsets, rest) = payload.split_at((nv + 1) * 4);
        let (targets, weights) = rest.split_at(ne * 4);
        // `try_into` on each exact 4-byte chunk lets every loop compile to a
        // straight copy: ≈0.5 µs per 8 KiB segment read from beyond the
        // cache, next to ≈0.7 µs for its CRC (one core of a 2-vCPU x86-64
        // VM).
        let word = |w: &[u8]| -> [u8; 4] { w.try_into().expect("4-byte chunk") };
        Some(Block::new(
            self.v_start,
            offsets
                .chunks_exact(4)
                .map(|w| u32::from_le_bytes(word(w)))
                .collect(),
            targets
                .chunks_exact(4)
                .map(|w| VertexId::from_le_bytes(word(w)))
                .collect(),
            weights
                .chunks_exact(4)
                .map(|w| EdgeWeight::from_le_bytes(word(w)))
                .collect(),
        ))
    }
}

/// Cache-wide fault statistics, all monotone counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Segments faulted from disk (cache misses).
    pub segments_faulted: u64,
    /// Bytes read from disk by those faults.
    pub segment_bytes_read: u64,
    /// Cache hits — `get` calls satisfied without touching disk, so
    /// `segment_hits + segments_faulted` equals total `get` calls.
    pub segment_hits: u64,
    /// Frames the clock hand reclaimed (budget-pressure evictions; explicit
    /// invalidations after patches/compaction are not counted here).
    pub segments_evicted: u64,
}

impl PoolCounters {
    /// Hit rate over all `get` calls, in `[0, 1]`; `None` before any access.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.segment_hits + self.segments_faulted;
        if total == 0 {
            None
        } else {
            Some(self.segment_hits as f64 / total as f64)
        }
    }
}

/// One resident cache frame.
#[derive(Debug)]
struct Frame {
    key: (u64, u64),
    data: Arc<Block>,
    bytes: u64,
    /// Clock reference bit: set on every hit, cleared as the hand passes.
    referenced: bool,
}

#[derive(Debug, Default)]
struct PoolInner {
    /// `(file id, file offset)` → index into `frames`.
    map: HashMap<(u64, u64), usize>,
    frames: Vec<Option<Frame>>,
    free: Vec<usize>,
    resident_bytes: u64,
    hand: usize,
}

/// Clock (second-chance) segment cache with a byte budget.
///
/// Eviction runs *before* a faulted segment is inserted, so resident bytes
/// never exceed the budget as long as the segments currently pinned by
/// traversal cursors (one per worker) plus the incoming segment fit within
/// it; a pinned frame (its `Arc` held outside the pool) is never evicted.
#[derive(Debug)]
pub struct BufferPool {
    budget_bytes: u64,
    inner: Mutex<PoolInner>,
    faults: AtomicU64,
    bytes_read: AtomicU64,
    peak_resident: AtomicU64,
    hits: AtomicU64,
    evictions: AtomicU64,
    /// Optional telemetry hub for fault spans/latency histograms. Guarded by
    /// `has_telemetry` so the common un-instrumented path never locks.
    telemetry: Mutex<Option<Arc<Telemetry>>>,
    has_telemetry: AtomicBool,
}

impl BufferPool {
    /// An empty pool with the given byte budget.
    pub fn new(budget_bytes: u64) -> Self {
        Self {
            budget_bytes,
            inner: Mutex::new(PoolInner::default()),
            faults: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            peak_resident: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            telemetry: Mutex::new(None),
            has_telemetry: AtomicBool::new(false),
        }
    }

    /// Attach a telemetry hub; fault latencies will be recorded as spans and
    /// into the segment-fault histogram. Disabled hubs are ignored, keeping
    /// the un-instrumented fast path free of clock reads.
    pub fn set_telemetry(&self, telemetry: &Arc<Telemetry>) {
        if telemetry.enabled() {
            *self.telemetry.lock().unwrap() = Some(Arc::clone(telemetry));
            self.has_telemetry.store(true, Ordering::Release);
        }
    }

    /// The attached (enabled) telemetry hub, if any.
    pub fn telemetry_handle(&self) -> Option<Arc<Telemetry>> {
        if !self.has_telemetry.load(Ordering::Acquire) {
            return None;
        }
        self.telemetry.lock().unwrap().clone()
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// Monotone fault statistics.
    pub fn counters(&self) -> PoolCounters {
        PoolCounters {
            segments_faulted: self.faults.load(Ordering::Relaxed),
            segment_bytes_read: self.bytes_read.load(Ordering::Relaxed),
            segment_hits: self.hits.load(Ordering::Relaxed),
            segments_evicted: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.inner.lock().unwrap().resident_bytes
    }

    /// High-water mark of resident bytes.
    pub fn peak_resident_bytes(&self) -> u64 {
        self.peak_resident.load(Ordering::Relaxed)
    }

    /// Fetch the segment identified by `key`, loading it through `load` on a
    /// miss. The returned `Arc` pins the frame against eviction.
    ///
    /// The frame's budget (`expected_bytes`, the decoded size known from the
    /// directory) is **reserved before** the load and **released if the load
    /// fails**, so `resident_bytes` can never drift above the budget no
    /// matter how many reads fail mid-fault — a failed load leaves the pool's
    /// accounting exactly where it was.
    fn get(
        &self,
        key: (u64, u64),
        expected_bytes: u64,
        load: impl FnOnce() -> io::Result<(Block, u64)>,
    ) -> io::Result<Arc<Block>> {
        {
            let mut inner = self.inner.lock().unwrap();
            if let Some(&slot) = inner.map.get(&key) {
                let frame = inner.frames[slot].as_mut().expect("mapped frame");
                frame.referenced = true;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(&frame.data));
            }
            // Reserve the incoming frame's bytes now, evicting to make room.
            Self::evict_until(
                &mut inner,
                self.budget_bytes.saturating_sub(expected_bytes),
                &self.evictions,
            );
            inner.resident_bytes += expected_bytes;
        }
        // Miss: read and decode *outside* the lock, so workers faulting
        // distinct segments stream from disk concurrently — in the
        // pool-cycling regime (budget far below footprint) faulting dominates
        // the iteration, and serialising it would collapse parallel traversal
        // to one thread's I/O throughput. Two workers racing on the same
        // segment may both read it; the re-check below keeps one copy and the
        // fault counters stay honest (both reads really happened).
        let telemetry = self.telemetry_handle();
        let fault_start = telemetry.as_ref().map(|t| t.clock().now_ns());
        let (data, disk_bytes) = match load() {
            Ok(loaded) => loaded,
            Err(e) => {
                // Release the reservation: the frame never materialised.
                self.inner.lock().unwrap().resident_bytes -= expected_bytes;
                return Err(e);
            }
        };
        if let (Some(t), Some(start_ns)) = (&telemetry, fault_start) {
            let dur_ns = t.clock().now_ns().saturating_sub(start_ns);
            t.push_span(SpanEvent {
                name: "segment_fault",
                cat: "storage",
                track: Telemetry::lane(),
                start_ns,
                dur_ns,
            });
            t.record_ns(HIST_SEGMENT_FAULT, dur_ns);
        }
        self.faults.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(disk_bytes, Ordering::Relaxed);
        let mut inner = self.inner.lock().unwrap();
        if let Some(&slot) = inner.map.get(&key) {
            // A racing worker inserted the same segment while we loaded:
            // keep its copy, drop ours, hand back our reservation.
            inner.resident_bytes -= expected_bytes;
            let frame = inner.frames[slot].as_mut().expect("mapped frame");
            frame.referenced = true;
            return Ok(Arc::clone(&frame.data));
        }
        let data = Arc::new(data);
        let bytes = data.resident_bytes();
        // Trade the reservation for the actual decoded size (equal in
        // practice — both derive from the directory entry).
        inner.resident_bytes = inner.resident_bytes - expected_bytes + bytes;
        let slot = inner.free.pop().unwrap_or_else(|| {
            inner.frames.push(None);
            inner.frames.len() - 1
        });
        inner.frames[slot] = Some(Frame {
            key,
            data: Arc::clone(&data),
            bytes,
            referenced: true,
        });
        inner.map.insert(key, slot);
        self.peak_resident
            .fetch_max(inner.resident_bytes, Ordering::Relaxed);
        Ok(data)
    }

    /// Insert an already-decoded segment (a quarantine rebuild holds the data
    /// in hand — re-reading the replacement it just wrote would be wasted
    /// I/O). Same budget bookkeeping as a loaded frame; a no-op if the key is
    /// already resident.
    fn insert(&self, key: (u64, u64), data: Arc<Block>) {
        let bytes = data.resident_bytes();
        let mut inner = self.inner.lock().unwrap();
        if inner.map.contains_key(&key) {
            return;
        }
        Self::evict_until(
            &mut inner,
            self.budget_bytes.saturating_sub(bytes),
            &self.evictions,
        );
        let slot = inner.free.pop().unwrap_or_else(|| {
            inner.frames.push(None);
            inner.frames.len() - 1
        });
        inner.frames[slot] = Some(Frame {
            key,
            data,
            bytes,
            referenced: true,
        });
        inner.map.insert(key, slot);
        inner.resident_bytes += bytes;
        self.peak_resident
            .fetch_max(inner.resident_bytes, Ordering::Relaxed);
    }

    /// Clock-evict unpinned frames until resident bytes fit `target`, or every
    /// remaining frame is pinned/just-referenced twice around.
    fn evict_until(inner: &mut PoolInner, target: u64, evicted: &AtomicU64) {
        if inner.frames.is_empty() {
            return;
        }
        let mut sweeps = 0usize;
        let limit = inner.frames.len() * 2;
        while inner.resident_bytes > target && sweeps < limit {
            sweeps += 1;
            let slot = inner.hand % inner.frames.len();
            inner.hand = (inner.hand + 1) % inner.frames.len();
            let evict = match &mut inner.frames[slot] {
                Some(frame) => {
                    if frame.referenced {
                        frame.referenced = false;
                        false
                    } else {
                        // Pinned iff a traversal still holds the Arc.
                        Arc::strong_count(&frame.data) == 1
                    }
                }
                None => false,
            };
            if evict {
                let frame = inner.frames[slot].take().expect("checked above");
                inner.map.remove(&frame.key);
                inner.resident_bytes -= frame.bytes;
                inner.free.push(slot);
                evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Drop every unpinned frame belonging to `file_id` — compaction retired
    /// the whole file, so none of its segments can ever be requested again.
    /// Pinned frames (a traversal still holds the `Arc`, and with it the old
    /// `StoreFile`) are left for the clock to reclaim.
    fn invalidate_file(&self, file_id: u64) {
        let keys: Vec<(u64, u64)> = {
            let inner = self.inner.lock().unwrap();
            inner
                .map
                .keys()
                .filter(|(fid, _)| *fid == file_id)
                .copied()
                .collect()
        };
        self.invalidate(keys);
    }

    /// Drop a set of frames outright (their segments were superseded by a
    /// patch); pinned frames are left for the clock to reclaim.
    fn invalidate(&self, keys: impl IntoIterator<Item = (u64, u64)>) {
        let mut inner = self.inner.lock().unwrap();
        for key in keys {
            if let Some(&slot) = inner.map.get(&key) {
                if inner.frames[slot]
                    .as_ref()
                    .is_some_and(|f| Arc::strong_count(&f.data) == 1)
                {
                    let frame = inner.frames[slot].take().expect("mapped frame");
                    inner.map.remove(&frame.key);
                    inner.resident_bytes -= frame.bytes;
                    inner.free.push(slot);
                }
            }
        }
    }
}

/// A process-created backing directory, removed when the last store file
/// inside it drops (user-supplied directories are never removed).
#[derive(Debug)]
struct StorageDir {
    path: PathBuf,
}

impl Drop for StorageDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir(&self.path);
    }
}

/// Shared append-only backing file of one adjacency direction; generations of
/// patched stores share it, and its bytes are deleted when the last one drops.
#[derive(Debug)]
struct StoreFile {
    file: File,
    path: PathBuf,
    /// Distinguishes files inside the shared pool's key space.
    id: u64,
    /// Next append offset. Lives on the shared file (not the store) so that
    /// patches taken from *any* generation reserve disjoint byte ranges.
    append_cursor: AtomicU64,
    /// Keeps an auto-created parent directory alive; dropped — and the
    /// directory removed — after the file itself is deleted below. Held for
    /// its `Drop` ordering only, never read.
    #[allow(dead_code)]
    dir: Option<Arc<StorageDir>>,
}

impl Drop for StoreFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

impl StoreFile {
    /// Append one encoded segment with one positioned write, reserving its
    /// byte range, and return its directory entry. The offset is reserved
    /// once and the write retried in place on transient failure (partial
    /// bytes from a failed attempt are simply overwritten), so retries never
    /// leak file space.
    fn append(&self, segment: &EncodedSegment, faults: &FaultState) -> io::Result<SegmentMeta> {
        let encoded = &segment.bytes;
        let offset = self
            .append_cursor
            .fetch_add(encoded.len() as u64, Ordering::Relaxed);
        crate::faults::with_retries(&faults.retry, faults.injector.as_deref(), || {
            if let Some(inj) = &faults.injector {
                match inj.on_io(FaultSite::SegmentWrite) {
                    Some(FaultAction::Error(e)) => return Err(e),
                    Some(FaultAction::ShortIo) => {
                        // Land half the bytes, then report the short write;
                        // the retry rewrites the full range at the same
                        // offset.
                        write_exact_at(&self.file, &encoded[..encoded.len() / 2], offset)?;
                        return Err(io::Error::new(
                            io::ErrorKind::WriteZero,
                            "injected short segment write",
                        ));
                    }
                    None => {}
                }
            }
            write_exact_at(&self.file, encoded, offset)
        })?;
        Ok(SegmentMeta {
            v_start: segment.v_start,
            num_vertices: segment.v_end - segment.v_start,
            num_edges: segment.num_edges as u64,
            file_offset: offset,
            bytes: encoded.len() as u64,
        })
    }
}

fn next_file_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The authoritative in-memory adjacency a quarantined segment is rebuilt
/// from: the graph version this store generation serves (itself recovered
/// from snapshot + WAL replay on a durable server), plus which direction of
/// it this store encodes.
#[derive(Clone)]
struct RecoverySource {
    graph: Arc<crate::Graph>,
    outgoing: bool,
}

impl std::fmt::Debug for RecoverySource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecoverySource")
            .field("outgoing", &self.outgoing)
            .field("num_vertices", &self.graph.num_vertices())
            .finish()
    }
}

/// Per-store fault-handling state: the (optional) shared injector, the retry
/// policy, the recovery source for quarantine rebuilds, and the quarantine
/// directory overrides. Everything `Arc`-shared here survives `clone()` so a
/// view pinned on an old generation keeps its fault machinery.
#[derive(Debug, Clone, Default)]
struct FaultState {
    injector: Option<Arc<FaultInjector>>,
    retry: RetryPolicy,
    recovery: Option<RecoverySource>,
    /// Directory index → replacement entry for segments whose original bytes
    /// became unreadable and were rebuilt at a fresh file offset. Folded into
    /// the directory proper on the next `patched()`/`compacted()` generation.
    quarantined: Arc<Mutex<HashMap<usize, SegmentMeta>>>,
    /// Relaxed fast-path guard so fetches skip the quarantine lock until the
    /// first quarantine actually happens.
    has_quarantined: Arc<AtomicBool>,
    /// Set when a segment could be neither read nor rebuilt and a placeholder
    /// was served: the current traversal's result is garbage and must be
    /// discarded by the caller (see `GraphStorage::take_poisoned`).
    poisoned: Arc<AtomicBool>,
    /// Human-readable cause of the poisoning, for health reporting.
    poison_note: Arc<Mutex<Option<String>>>,
}

impl FaultState {
    /// The state a fresh store generation (patch or compaction) starts from:
    /// same injector/retry/poison channel, but an empty quarantine map — the
    /// new generation's directory already points at live replacement bytes.
    fn fresh_generation(&self) -> Self {
        Self {
            injector: self.injector.clone(),
            retry: self.retry,
            recovery: self.recovery.clone(),
            quarantined: Arc::new(Mutex::new(HashMap::new())),
            has_quarantined: Arc::new(AtomicBool::new(false)),
            poisoned: Arc::clone(&self.poisoned),
            poison_note: Arc::clone(&self.poison_note),
        }
    }
}

/// One adjacency direction stored on disk in self-contained segments.
#[derive(Debug, Clone)]
pub struct SegmentedStore {
    file: Arc<StoreFile>,
    pool: Arc<BufferPool>,
    /// Sorted, contiguous directory covering `0..num_vertices`.
    segments: Vec<SegmentMeta>,
    num_vertices: usize,
    num_edges: usize,
    faults: FaultState,
}

impl SegmentedStore {
    /// Write `adj` to `path` in segments of roughly `segment_bytes` bytes each
    /// and return a store reading them back through `pool`.
    fn build_in(
        adj: &Adjacency,
        path: &Path,
        segment_bytes: usize,
        pool: Arc<BufferPool>,
        dir: Option<Arc<StorageDir>>,
        faults: FaultState,
    ) -> io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut store = Self {
            file: Arc::new(StoreFile {
                file,
                path: path.to_path_buf(),
                id: next_file_id(),
                append_cursor: AtomicU64::new(0),
                dir,
            }),
            pool,
            segments: Vec::new(),
            num_vertices: adj.num_vertices(),
            num_edges: adj.num_edges(),
            faults,
        };
        let metas = store.append_range(adj, 0, adj.num_vertices() as VertexId, segment_bytes)?;
        store.segments = metas;
        Ok(store)
    }

    /// Cut vertices `lo..hi` of `adj` into segments of ~`segment_bytes` and
    /// append their encodings to the file, returning their directory entries.
    fn append_range(
        &self,
        adj: &Adjacency,
        lo: VertexId,
        hi: VertexId,
        segment_bytes: usize,
    ) -> io::Result<Vec<SegmentMeta>> {
        let mut metas = Vec::new();
        let mut v = lo;
        while v < hi {
            let segment = EncodedSegment::next(adj, v, hi, segment_bytes);
            v = segment.v_end;
            metas.push(self.file.append(&segment, &self.faults)?);
        }
        Ok(metas)
    }

    /// Index of the segment containing `v`.
    fn segment_of(&self, v: VertexId) -> usize {
        debug_assert!((v as usize) < self.num_vertices);
        self.segments.partition_point(|m| m.v_end() <= v)
    }

    /// The live directory entry for `idx`: the quarantine replacement when
    /// the original bytes went bad, the directory entry otherwise.
    fn live_meta(&self, idx: usize) -> SegmentMeta {
        if self.faults.has_quarantined.load(Ordering::Acquire) {
            if let Some(meta) = self
                .faults
                .quarantined
                .lock()
                .expect("quarantine lock poisoned")
                .get(&idx)
            {
                return *meta;
            }
        }
        self.segments[idx]
    }

    /// Fault (or hit) segment `idx` through the pool.
    ///
    /// Never panics on I/O failure: transient errors are retried with bounded
    /// exponential backoff ([`with_retries`]); a segment whose bytes stay
    /// unreadable is quarantined — rebuilt from the recovery source at a fresh
    /// file offset and served bit-identically. Only when that too is
    /// impossible does the store serve an empty placeholder and mark itself
    /// poisoned, telling the server to discard the run's result.
    fn fetch(&self, idx: usize) -> Arc<Block> {
        let meta = self.live_meta(idx);
        let injector = self.faults.injector.as_deref();
        let err = match with_retries(&self.faults.retry, injector, || self.load_segment(&meta)) {
            Ok(block) => return block,
            Err(e) => e,
        };
        match self.quarantine_rebuild(idx, &meta) {
            Ok(data) => data,
            Err(rebuild_err) => {
                *self
                    .faults
                    .poison_note
                    .lock()
                    .expect("poison note lock poisoned") = Some(format!(
                    "segment {}..{} unreadable ({err}) and unrebuildable ({rebuild_err})",
                    meta.v_start,
                    meta.v_end()
                ));
                self.faults.poisoned.store(true, Ordering::Release);
                // The right vertex range with every list empty. Only ever
                // served on a poisoned run, whose result the server discards.
                let offsets = vec![0; meta.num_vertices as usize + 1];
                Arc::new(Block::new(meta.v_start, offsets, Vec::new(), Vec::new()))
            }
        }
    }

    /// One pool-mediated load attempt for the segment described by `meta`.
    fn load_segment(&self, meta: &SegmentMeta) -> io::Result<Arc<Block>> {
        // Only consulted on a miss; `telemetry_handle` is an atomic-bool
        // check when no hub is attached.
        let telemetry = self.pool.telemetry_handle();
        self.pool.get(
            (self.file.id, meta.file_offset),
            meta.decoded_bytes(),
            || {
                let mut short_read = false;
                if let Some(inj) = &self.faults.injector {
                    match inj.on_io(FaultSite::SegmentRead) {
                        Some(FaultAction::Error(e)) => return Err(e),
                        Some(FaultAction::ShortIo) => short_read = true,
                        None => {}
                    }
                }
                let mut bytes = vec![0u8; meta.bytes as usize];
                let read_began = telemetry.as_ref().map(|t| t.begin());
                read_exact_at(&self.file.file, &mut bytes, meta.file_offset)?;
                if short_read {
                    // Deliver a truncated buffer: the validation below must
                    // catch it exactly as it would a real torn read.
                    bytes.truncate(bytes.len() / 2);
                }
                if let (Some(t), Some(h)) = (&telemetry, read_began) {
                    t.end(h, "disk_read", "storage", Telemetry::lane());
                }
                let decode_began = telemetry.as_ref().map(|t| t.begin());
                let data = meta.decode(&bytes).ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        "segment failed length/CRC validation (short read or corruption)",
                    )
                })?;
                if let (Some(t), Some(h)) = (&telemetry, decode_began) {
                    t.end(h, "decode", "storage", Telemetry::lane());
                }
                Ok((data, meta.bytes))
            },
        )
    }

    /// Rebuild an unreadable segment's bytes from the recovery source (the
    /// in-memory graph this store generation serves), append the replacement
    /// at a fresh offset, and repoint the quarantine directory at it. The
    /// rebuilt lists are the same lists the lost bytes encoded, so traversal
    /// stays bit-identical.
    fn quarantine_rebuild(&self, idx: usize, failed: &SegmentMeta) -> io::Result<Arc<Block>> {
        let src = self.faults.recovery.as_ref().ok_or_else(|| {
            io::Error::other("no recovery source attached (plain out-of-core store)")
        })?;
        let adj = if src.outgoing {
            src.graph.out_adjacency()
        } else {
            src.graph.in_adjacency()
        };
        if (failed.v_end() as usize) > adj.num_vertices() {
            return Err(io::Error::other(
                "recovery source covers an older graph version",
            ));
        }
        // No byte budget: the replacement covers exactly the failed range.
        let segment = EncodedSegment::next(adj, failed.v_start, failed.v_end(), usize::MAX);
        let meta = self.file.append(&segment, &self.faults)?;
        debug_assert_eq!(meta.num_edges, failed.num_edges, "recovery list mismatch");
        // The pool frame is the decode of the bytes just written, so it is
        // exactly what a later fault of the replacement would load.
        let data = meta
            .decode(&segment.bytes)
            .ok_or_else(|| io::Error::other("a rebuilt segment failed to decode"))?;
        self.faults
            .quarantined
            .lock()
            .expect("quarantine lock poisoned")
            .insert(idx, meta);
        self.faults.has_quarantined.store(true, Ordering::Release);
        if let Some(inj) = &self.faults.injector {
            inj.note_quarantine();
        }
        let data = Arc::new(data);
        self.pool
            .insert((self.file.id, meta.file_offset), Arc::clone(&data));
        Ok(data)
    }

    /// Number of segments in the directory.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Total on-disk bytes of the *live* segments (superseded generations of
    /// patched segments still occupy file space but are not counted).
    pub fn footprint_bytes(&self) -> u64 {
        self.segments.iter().map(|m| m.bytes).sum()
    }

    /// Total bytes ever appended to the backing file — live segments plus
    /// every superseded segment version left behind by patches.
    pub fn file_bytes(&self) -> u64 {
        self.file.append_cursor.load(Ordering::Relaxed)
    }

    /// Bytes of superseded segment versions still occupying the backing file.
    /// Only compaction ([`GraphStorage::compacted`]) reclaims them.
    pub fn dead_bytes(&self) -> u64 {
        self.file_bytes().saturating_sub(self.footprint_bytes())
    }

    /// Vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Stored edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Re-derive this store against `new_adj` after an edge-update batch:
    /// segments covering a vertex in `dirty` are re-encoded from `new_adj`
    /// and appended to the file (their directory entries repointed, their
    /// superseded cache frames dropped); grown vertices get fresh segments.
    /// Clean segments keep their bytes and any warm cache frames. Returns the
    /// patched store and the number of segments rewritten (appended ones
    /// included).
    ///
    /// The caller guarantees `dirty` covers every vertex whose list in this
    /// direction changed, and that the id space only grew.
    pub fn patched(
        &self,
        new_adj: &Adjacency,
        dirty: &[VertexId],
        segment_bytes: usize,
    ) -> io::Result<(Self, u64)> {
        assert!(
            new_adj.num_vertices() >= self.num_vertices,
            "the id space only grows"
        );
        let mut out = self.clone();
        out.num_vertices = new_adj.num_vertices();
        out.num_edges = new_adj.num_edges();
        let mut rewrite: Vec<usize> = dirty
            .iter()
            .filter(|&&v| (v as usize) < self.num_vertices)
            .map(|&v| self.segment_of(v))
            .collect();
        rewrite.sort_unstable();
        rewrite.dedup();
        // Re-encode each dirty vertex range through the same byte-budget
        // splitter the build uses, so a range whose lists grew past the
        // segment budget splits instead of ballooning — an oversized segment
        // would eventually exceed the whole pool budget and break the
        // residency invariant. One dirty segment may therefore become
        // several; the directory is re-spliced below.
        let mut superseded = Vec::with_capacity(rewrite.len());
        let mut rewritten = 0u64;
        let mut segments = Vec::with_capacity(out.segments.len());
        let mut rewrite_cursor = 0usize;
        for (idx, old) in self.segments.iter().enumerate() {
            // Quarantine replacements are the live bytes: clean segments
            // carry them into the new generation's directory, dirty ones
            // supersede them like any other live version.
            let live = self.live_meta(idx);
            if rewrite.get(rewrite_cursor) == Some(&idx) {
                rewrite_cursor += 1;
                superseded.push((self.file.id, live.file_offset));
                let fresh = out.append_range(new_adj, old.v_start, old.v_end(), segment_bytes)?;
                rewritten += fresh.len() as u64;
                segments.extend(fresh);
            } else {
                segments.push(live);
            }
        }
        if new_adj.num_vertices() > self.num_vertices {
            let appended = out.append_range(
                new_adj,
                self.num_vertices as VertexId,
                new_adj.num_vertices() as VertexId,
                segment_bytes,
            )?;
            rewritten += appended.len() as u64;
            segments.extend(appended);
        }
        out.segments = segments;
        // The new generation starts with an empty quarantine map (its
        // directory already points at live bytes) but keeps the recovery
        // source of *this* generation until the caller re-attaches the new
        // graph version via `GraphStorage::set_recovery`.
        out.faults = self.faults.fresh_generation();
        self.pool.invalidate(superseded);
        Ok((out, rewritten))
    }
}

/// Positioned read safe under the concurrent segment loads
/// [`BufferPool::get`] performs outside its lock: unix `pread` and Windows
/// `seek_read` never touch the shared cursor; any other platform serializes
/// its seek+read pairs on a process-wide lock so two faulting workers cannot
/// interleave and decode each other's bytes.
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        file.read_exact_at(buf, offset)
    }
    #[cfg(windows)]
    {
        use std::os::windows::fs::FileExt;
        let mut done = 0usize;
        while done < buf.len() {
            let n = file.seek_read(&mut buf[done..], offset + done as u64)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "segment truncated",
                ));
            }
            done += n;
        }
        Ok(())
    }
    #[cfg(not(any(unix, windows)))]
    {
        use std::io::{Read, Seek, SeekFrom};
        static SEEK_LOCK: Mutex<()> = Mutex::new(());
        let _guard = SEEK_LOCK.lock().unwrap();
        let mut f = file;
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(buf)
    }
}

/// Positioned write with the same cursor-safety contract as
/// [`read_exact_at`]: appends and quarantine rebuilds write at reserved
/// offsets without disturbing concurrent positioned reads.
fn write_exact_at(file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        file.write_all_at(buf, offset)
    }
    #[cfg(windows)]
    {
        use std::os::windows::fs::FileExt;
        let mut done = 0usize;
        while done < buf.len() {
            let n = file.seek_write(&buf[done..], offset + done as u64)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "segment write stalled",
                ));
            }
            done += n;
        }
        Ok(())
    }
    #[cfg(not(any(unix, windows)))]
    {
        use std::io::{Seek, SeekFrom, Write};
        static SEEK_LOCK: Mutex<()> = Mutex::new(());
        let _guard = SEEK_LOCK.lock().unwrap();
        let mut f = file;
        f.seek(SeekFrom::Start(offset))?;
        f.write_all(buf)
    }
}

impl AdjacencyStore for SegmentedStore {
    type View<'a> = Arc<Block>;

    /// The decoded segment holding `v`, faulted through the pool on a miss.
    fn block(&self, v: VertexId) -> Arc<Block> {
        self.fetch(self.segment_of(v))
    }
}

/// The default target on-disk bytes per segment ([`StorageConfig::default`]
/// and the engine's `storage_segment_bytes`). A segment is the unit of read,
/// checksum, cache and rewrite, so a smaller one brings what a selective
/// pull reads and a small batch rewrites closer to what they touch, while a
/// larger one costs fewer faults, writes and checksums per full pass, which
/// is what building a store and a cold run do. On a durable PageRank server
/// over a 100k-vertex, 1M-edge R-MAT graph (16-update batches, a buffer
/// pool of 1/8 of the footprint, 2-vCPU x86-64 VM, nine alternated seeds),
/// with the folding CRC32 and the one-pass segment encoder, 8 KiB served a
/// median 1,735 updates per second. 4 KiB served 1,816 (5% more, ahead on
/// 7 of 9 seeds but inside the 12% run-to-run spread) for 12% more set-up,
/// and 16 KiB served 1,637 (6% fewer) for 16% less set-up. No size won by
/// more than the spread, so 8 KiB stays; with the table CRC32 it had served
/// about 2.1× the updates per second of 64 KiB.
pub const DEFAULT_SEGMENT_BYTES: usize = 8 << 10;

/// Dead-byte fraction of the backing files past which a serving store is
/// compacted ([`GraphStorage::needs_compaction`]): superseded segment
/// versions outweigh the live ones, so compaction at least halves the files.
pub const COMPACT_DEAD_FRACTION: f64 = 0.5;

/// Configuration of an out-of-core graph store.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageConfig {
    /// Byte budget of the shared buffer pool (both directions count against
    /// it). Must comfortably exceed `workers × segment_bytes` — each worker's
    /// cursor pins one segment — or faulted segments cannot be cached.
    pub budget_bytes: u64,
    /// Target on-disk bytes per segment ([`DEFAULT_SEGMENT_BYTES`] by
    /// default).
    pub segment_bytes: usize,
    /// Directory for the backing files; a process-unique directory under
    /// [`std::env::temp_dir`] when `None`. Files are deleted when the last
    /// store generation drops.
    pub dir: Option<PathBuf>,
    /// Bounded exponential-backoff policy for transient segment read/write
    /// failures.
    pub retry: RetryPolicy,
}

impl Default for StorageConfig {
    fn default() -> Self {
        Self {
            budget_bytes: 64 << 20,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            dir: None,
            retry: RetryPolicy::default(),
        }
    }
}

/// Both adjacency directions of one graph version on disk, sharing one
/// buffer pool — the out-of-core counterpart of [`crate::Graph`]'s CSR+CSC
/// pair.
#[derive(Debug)]
pub struct GraphStorage {
    out: SegmentedStore,
    incoming: SegmentedStore,
    pool: Arc<BufferPool>,
    segment_bytes: usize,
}

impl GraphStorage {
    /// Write both directions of `graph` to disk under `config`.
    pub fn build(graph: &crate::Graph, config: &StorageConfig) -> io::Result<Self> {
        Self::build_with_faults(graph, config, None)
    }

    /// [`GraphStorage::build`] with a shared fault injector attached to both
    /// directions' disk touchpoints. Servers always attach one (disarmed by
    /// default) so retries/quarantines are counted; plain stores pass `None`.
    pub fn build_with_faults(
        graph: &crate::Graph,
        config: &StorageConfig,
        injector: Option<Arc<FaultInjector>>,
    ) -> io::Result<Self> {
        // An auto-created directory is removed when the last generation's
        // files drop; a user-supplied one is left alone.
        let (dir, dir_guard) = match &config.dir {
            Some(d) => (d.clone(), None),
            None => {
                let d = std::env::temp_dir().join(format!(
                    "slfe-oocore-{}-{}",
                    std::process::id(),
                    next_file_id()
                ));
                (d.clone(), Some(Arc::new(StorageDir { path: d })))
            }
        };
        std::fs::create_dir_all(&dir)?;
        let pool = Arc::new(BufferPool::new(config.budget_bytes));
        let faults = FaultState {
            injector,
            retry: config.retry,
            ..FaultState::default()
        };
        // Each direction gets its *own* quarantine map (directory indices are
        // per-store) but shares the injector and the poisoned channel.
        let out = SegmentedStore::build_in(
            graph.out_adjacency(),
            &dir.join(format!("csr-{}.seg", next_file_id())),
            config.segment_bytes,
            Arc::clone(&pool),
            dir_guard.clone(),
            faults.fresh_generation(),
        )?;
        let incoming = SegmentedStore::build_in(
            graph.in_adjacency(),
            &dir.join(format!("csc-{}.seg", next_file_id())),
            config.segment_bytes,
            Arc::clone(&pool),
            dir_guard,
            faults.fresh_generation(),
        )?;
        Ok(Self {
            out,
            incoming,
            pool,
            segment_bytes: config.segment_bytes,
        })
    }

    /// Attach the graph version this storage serves as the recovery source
    /// for quarantine rebuilds. Must be re-attached after every
    /// [`GraphStorage::patched`] (the new generation serves a new version);
    /// the previous generation keeps its own source and stays recoverable
    /// while pinned queries drain.
    pub fn set_recovery(&mut self, graph: &Arc<crate::Graph>) {
        self.out.faults.recovery = Some(RecoverySource {
            graph: Arc::clone(graph),
            outgoing: true,
        });
        self.incoming.faults.recovery = Some(RecoverySource {
            graph: Arc::clone(graph),
            outgoing: false,
        });
    }

    /// Take-and-clear the poisoned flag: true when some traversal since the
    /// last call was served a placeholder for an unrecoverable segment, so
    /// its result is garbage and must be discarded.
    pub fn take_poisoned(&self) -> bool {
        // `|` not `||`: both flags must be consumed.
        self.out.faults.poisoned.swap(false, Ordering::AcqRel)
            | self.incoming.faults.poisoned.swap(false, Ordering::AcqRel)
    }

    /// Human-readable cause of the most recent poisoning, if any.
    pub fn poison_note(&self) -> Option<String> {
        for store in [&self.out, &self.incoming] {
            if let Some(note) = store
                .faults
                .poison_note
                .lock()
                .expect("poison note lock poisoned")
                .clone()
            {
                return Some(note);
            }
        }
        None
    }

    /// Segments currently served from quarantine replacements (folded back
    /// into the directory by the next patch/compaction generation).
    pub fn quarantined_segments(&self) -> usize {
        let count = |s: &SegmentedStore| {
            if s.faults.has_quarantined.load(Ordering::Acquire) {
                s.faults
                    .quarantined
                    .lock()
                    .expect("quarantine lock poisoned")
                    .len()
            } else {
                0
            }
        };
        count(&self.out) + count(&self.incoming)
    }

    /// The CSR (outgoing) direction.
    pub fn out_store(&self) -> &SegmentedStore {
        &self.out
    }

    /// The CSC (incoming) direction.
    pub fn in_store(&self) -> &SegmentedStore {
        &self.incoming
    }

    /// The shared buffer pool.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Total live on-disk bytes across both directions.
    pub fn footprint_bytes(&self) -> u64 {
        self.out.footprint_bytes() + self.incoming.footprint_bytes()
    }

    /// Total backing-file bytes across both directions, dead bytes included.
    pub fn file_bytes(&self) -> u64 {
        self.out.file_bytes() + self.incoming.file_bytes()
    }

    /// Bytes of superseded segment versions across both directions.
    pub fn dead_bytes(&self) -> u64 {
        self.out.dead_bytes() + self.incoming.dead_bytes()
    }

    /// Fraction of the backing files occupied by superseded segment versions
    /// (0.0 for empty files).
    pub fn dead_fraction(&self) -> f64 {
        let file = self.file_bytes();
        if file == 0 {
            0.0
        } else {
            self.dead_bytes() as f64 / file as f64
        }
    }

    /// `true` when the dead-byte fraction is past [`COMPACT_DEAD_FRACTION`]:
    /// the serving layer then replaces this generation with
    /// [`GraphStorage::compacted`].
    pub fn needs_compaction(&self) -> bool {
        self.dead_fraction() > COMPACT_DEAD_FRACTION
    }

    /// Rewrite both directions into fresh backing files containing only live
    /// data, retiring the current generation's files: their unpinned buffer
    /// -pool frames are dropped immediately, and the files themselves are
    /// deleted once the last pre-compaction generation drops (the backing
    /// file handle's `Drop`). The new storage lives in the same directory
    /// and shares the same pool; `graph` must be the graph version this
    /// storage currently serves.
    pub fn compacted(&self, graph: &crate::Graph) -> io::Result<Self> {
        assert_eq!(
            graph.num_vertices(),
            self.out.num_vertices,
            "compaction requires the graph version this storage serves"
        );
        assert_eq!(graph.num_edges(), self.out.num_edges);
        let dir = self
            .out
            .file
            .path
            .parent()
            .expect("store file has a parent directory")
            .to_path_buf();
        let dir_guard = self.out.file.dir.clone();
        let out = SegmentedStore::build_in(
            graph.out_adjacency(),
            &dir.join(format!("csr-{}.seg", next_file_id())),
            self.segment_bytes,
            Arc::clone(&self.pool),
            dir_guard.clone(),
            self.out.faults.fresh_generation(),
        )?;
        let incoming = SegmentedStore::build_in(
            graph.in_adjacency(),
            &dir.join(format!("csc-{}.seg", next_file_id())),
            self.segment_bytes,
            Arc::clone(&self.pool),
            dir_guard,
            self.incoming.faults.fresh_generation(),
        )?;
        self.pool.invalidate_file(self.out.file.id);
        self.pool.invalidate_file(self.incoming.file.id);
        Ok(Self {
            out,
            incoming,
            pool: Arc::clone(&self.pool),
            segment_bytes: self.segment_bytes,
        })
    }

    /// Patch both directions against the post-batch `graph`: only segments
    /// covering a vertex in `dirty` (the batch's dirty endpoints) are
    /// rewritten, plus fresh segments for appended vertices. Returns the new
    /// storage generation — sharing this one's files and pool — and the
    /// total segments rewritten.
    pub fn patched(&self, graph: &crate::Graph, dirty: &[VertexId]) -> io::Result<(Self, u64)> {
        let (out, a) = self
            .out
            .patched(graph.out_adjacency(), dirty, self.segment_bytes)?;
        let (incoming, b) =
            self.incoming
                .patched(graph.in_adjacency(), dirty, self.segment_bytes)?;
        Ok((
            Self {
                out,
                incoming,
                pool: Arc::clone(&self.pool),
                segment_bytes: self.segment_bytes,
            },
            a + b,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::UpdateBatch;
    use crate::generators;

    fn tmp_config(budget: u64, segment: usize) -> StorageConfig {
        StorageConfig {
            budget_bytes: budget,
            segment_bytes: segment,
            ..StorageConfig::default()
        }
    }

    fn assert_lists_match(graph: &crate::Graph, storage: &GraphStorage) {
        assert_walk_matches(
            graph,
            storage.out_store(),
            storage.in_store(),
            graph.vertices(),
        );
    }

    /// Walk `order` with one cursor per direction, both alive at once, and
    /// compare every list and weight with `graph`.
    fn assert_walk_matches<S: AdjacencyStore>(
        graph: &crate::Graph,
        out: &S,
        incoming: &S,
        order: impl IntoIterator<Item = VertexId>,
    ) {
        let mut out_cursor = StreamCursor::new(out);
        let mut in_cursor = StreamCursor::new(incoming);
        for v in order {
            let (ts, ws) = out_cursor.list(v);
            assert_eq!(ts, graph.out_neighbors(v), "CSR list of {v}");
            assert_eq!(ws, graph.out_weights(v), "CSR weights of {v}");
            let (ts, ws) = in_cursor.list(v);
            assert_eq!(ts, graph.in_neighbors(v), "CSC list of {v}");
            assert_eq!(ws, graph.in_weights(v), "CSC weights of {v}");
        }
    }

    #[test]
    fn segmented_store_round_trips_every_list() {
        let g = generators::rmat(500, 4000, 0.57, 0.19, 0.19, 3);
        let storage = GraphStorage::build(&g, &tmp_config(1 << 20, 1 << 10)).unwrap();
        assert!(storage.out_store().num_segments() > 1);
        assert_eq!(storage.out_store().num_edges(), g.num_edges());
        assert_lists_match(&g, &storage);
    }

    #[test]
    fn in_memory_adjacency_implements_the_store_trait() {
        // Three blocks, the last one partial: the cursor re-pins per block.
        let n = 2 * crate::csr::BLOCK_VERTICES + 300;
        let g = generators::rmat(n, 6 * n, 0.57, 0.19, 0.19, 5);
        let adj = g.in_adjacency();
        assert_eq!(
            AdjacencyStore::block(adj, n as VertexId - 1).span().end,
            n as VertexId
        );
        let mut cursor = StreamCursor::new(adj);
        for v in g.vertices() {
            let span = AdjacencyStore::block(adj, v).span();
            assert!(span.contains(&v) && span.len() <= crate::csr::BLOCK_VERTICES);
            assert_eq!(cursor.list(v), (g.in_neighbors(v), g.in_weights(v)));
        }
    }

    #[test]
    fn pool_stays_within_budget_and_counts_refaults() {
        let g = generators::rmat(2000, 16000, 0.57, 0.19, 0.19, 7);
        let budget = 16 << 10; // far below the footprint
        let storage = GraphStorage::build(&g, &tmp_config(budget, 2 << 10)).unwrap();
        assert!(storage.footprint_bytes() > budget);
        // Two full passes: the second must refault what the first evicted.
        for _ in 0..2 {
            let mut cursor = StreamCursor::new(storage.out_store());
            for v in g.vertices() {
                let _ = cursor.list(v);
            }
        }
        let c = storage.pool().counters();
        assert!(
            c.segments_faulted > storage.out_store().num_segments() as u64,
            "second pass must refault ({} faults, {} segments)",
            c.segments_faulted,
            storage.out_store().num_segments()
        );
        assert!(c.segment_bytes_read > budget);
        assert!(
            storage.pool().peak_resident_bytes() <= budget,
            "peak resident {} exceeds budget {budget}",
            storage.pool().peak_resident_bytes()
        );
    }

    #[test]
    fn generous_budget_faults_each_segment_once() {
        let g = generators::rmat(800, 6400, 0.57, 0.19, 0.19, 11);
        let storage = GraphStorage::build(&g, &tmp_config(64 << 20, 2 << 10)).unwrap();
        for _ in 0..3 {
            let mut cursor = StreamCursor::new(storage.in_store());
            for v in g.vertices() {
                let _ = cursor.list(v);
            }
        }
        let c = storage.pool().counters();
        assert_eq!(
            c.segments_faulted,
            storage.in_store().num_segments() as u64,
            "warm passes must not refault"
        );
    }

    #[test]
    fn patched_store_serves_the_mutated_graph() {
        for seed in 0..4u64 {
            let g = generators::rmat(600, 4200, 0.57, 0.19, 0.19, seed + 40);
            let storage = GraphStorage::build(&g, &tmp_config(1 << 20, 1 << 10)).unwrap();
            let mut rng = crate::rng::SplitMix64::seed_from_u64(seed);
            let n = g.num_vertices() as u32;
            let mut batch = UpdateBatch::new();
            for _ in 0..25 {
                let src = rng.range_u32(0, n);
                if rng.next_f64() < 0.6 {
                    let hi = if rng.next_f64() < 0.3 { n + 6 } else { n };
                    batch.insert(src, rng.range_u32(0, hi), rng.range_f32(1.0, 9.0));
                } else if let Some(&dst) = g.out_neighbors(src).first() {
                    batch.delete(src, dst);
                }
            }
            let (mutated, effect) = g.apply_batch(&batch);
            let (patched, rewritten) = storage.patched(&mutated, &effect.dirty).unwrap();
            assert!(rewritten > 0);
            let total_segments =
                patched.out_store().num_segments() + patched.in_store().num_segments();
            assert!(
                (rewritten as usize) < total_segments,
                "a small batch must not rewrite every segment ({rewritten} of {total_segments})"
            );
            assert_lists_match(&mutated, &patched);
            // The pre-patch generation still serves the old graph.
            assert_lists_match(&g, &storage);
        }
    }

    /// Sustained growth concentrated in one vertex range must re-split the
    /// dirty segment on patch, not balloon it: an ever-growing segment would
    /// eventually exceed the whole pool budget and break the residency
    /// invariant.
    #[test]
    fn patching_resplits_segments_that_outgrow_the_byte_budget() {
        let segment_bytes = 1 << 10;
        let mut graph = generators::path(400);
        let mut storage =
            GraphStorage::build(&graph, &tmp_config(64 << 10, segment_bytes)).unwrap();
        // 12 batches of 40 edges all out of vertex 3: its segment's range
        // accumulates ~480 edges (~4 KiB), several times the segment budget.
        for round in 0..12u32 {
            let mut batch = UpdateBatch::new();
            for k in 0..40u32 {
                batch.insert(3, 4 + ((round * 40 + k) * 7) % 390, 1.0 + round as f32);
            }
            let (mutated, effect) = graph.apply_batch(&batch);
            let (patched, _) = storage.patched(&mutated, &effect.dirty).unwrap();
            graph = mutated;
            storage = patched;
        }
        assert!(graph.out_degree(3) > 300);
        assert_lists_match(&graph, &storage);
        // No segment may grow past the budget by more than one vertex's
        // list (the splitter closes a segment only after the vertex that
        // crossed the line) plus the trailing CRC word.
        let hub_list_bytes = (graph.out_degree(3) * 8) as u64;
        for store in [storage.out_store(), storage.in_store()] {
            for meta in &store.segments {
                assert!(
                    meta.bytes <= segment_bytes as u64 + hub_list_bytes + 12,
                    "segment covering {}..{} ballooned to {} B",
                    meta.v_start,
                    meta.v_end(),
                    meta.bytes
                );
            }
        }
    }

    #[test]
    fn view_pins_segments_against_eviction() {
        let g = generators::rmat(1500, 12000, 0.57, 0.19, 0.19, 13);
        let budget = 8 << 10;
        let storage = GraphStorage::build(&g, &tmp_config(budget, 2 << 10)).unwrap();
        // Pin the first segment, then sweep the whole store to force eviction
        // pressure; the pinned data must stay valid (and identical) throughout.
        let store = storage.out_store();
        let view = store.block(0);
        let before: Vec<VertexId> = view.list(0).0.to_vec();
        let mut cursor = StreamCursor::new(store);
        for v in g.vertices() {
            let _ = cursor.list(v);
        }
        assert_eq!(view.list(0).0, before.as_slice());
    }

    /// Both backings serve every list through the cursor, in ascending order
    /// and in a seeded shuffled order whose backward jumps re-pin blocks the
    /// cursor already left. The segment store's pool holds two of its largest
    /// segments, one per cursor, so its peak residency also pins the rule of
    /// one pinned block per cursor.
    #[test]
    fn cursors_serve_every_list_in_any_order_from_both_backings() {
        let g = generators::rmat(3000, 24000, 0.57, 0.19, 0.19, 29);
        let sized = GraphStorage::build(&g, &tmp_config(64 << 20, 2 << 10)).unwrap();
        let largest = [&sized.out, &sized.incoming]
            .iter()
            .flat_map(|store| &store.segments)
            .map(|meta| meta.decoded_bytes())
            .max()
            .unwrap();
        let budget = 2 * largest;
        let storage = GraphStorage::build(&g, &tmp_config(budget, 2 << 10)).unwrap();
        assert!(storage.out_store().num_segments() > 8);
        let mut shuffled: Vec<VertexId> = g.vertices().collect();
        let mut rng = crate::rng::SplitMix64::seed_from_u64(41);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.range_u32(0, i as u32 + 1) as usize);
        }
        for order in [g.vertices().collect(), shuffled] {
            assert_walk_matches(&g, g.out_adjacency(), g.in_adjacency(), order.clone());
            assert_walk_matches(&g, storage.out_store(), storage.in_store(), order);
        }
        assert!(storage.pool().counters().segments_evicted > 0);
        assert!(
            storage.pool().peak_resident_bytes() <= budget,
            "peak resident {} exceeds the budget {budget}",
            storage.pool().peak_resident_bytes()
        );
    }

    #[test]
    fn dead_bytes_track_superseded_segment_versions() {
        let g = generators::rmat(400, 2800, 0.57, 0.19, 0.19, 21);
        let storage = GraphStorage::build(&g, &tmp_config(1 << 20, 1 << 10)).unwrap();
        assert_eq!(storage.dead_bytes(), 0, "a fresh build has no dead bytes");
        assert_eq!(storage.file_bytes(), storage.footprint_bytes());
        let mut batch = UpdateBatch::new();
        batch.insert(0, 1, 5.0).insert(7, 3, 2.0);
        let (mutated, effect) = g.apply_batch(&batch);
        let (patched, _) = storage.patched(&mutated, &effect.dirty).unwrap();
        assert!(patched.dead_bytes() > 0, "patching strands old versions");
        assert_eq!(
            patched.file_bytes(),
            patched.footprint_bytes() + patched.dead_bytes()
        );
        assert!(patched.dead_fraction() > 0.0 && patched.dead_fraction() < 1.0);
    }

    #[test]
    fn compaction_reclaims_dead_bytes_and_serves_identical_lists() {
        let mut graph = generators::rmat(500, 3500, 0.57, 0.19, 0.19, 23);
        let mut storage = GraphStorage::build(&graph, &tmp_config(1 << 20, 1 << 10)).unwrap();
        let mut rng = crate::rng::SplitMix64::seed_from_u64(99);
        for _ in 0..10 {
            let n = graph.num_vertices() as u32;
            let mut batch = UpdateBatch::new();
            for _ in 0..20 {
                batch.insert(
                    rng.range_u32(0, n),
                    rng.range_u32(0, n),
                    rng.range_f32(1.0, 9.0),
                );
            }
            let (mutated, effect) = graph.apply_batch(&batch);
            let (patched, _) = storage.patched(&mutated, &effect.dirty).unwrap();
            graph = mutated;
            storage = patched;
        }
        assert!(storage.dead_fraction() > 0.2, "batches strand dead bytes");
        let faulted_before = storage.pool().counters().segments_faulted;
        let compacted = storage.compacted(&graph).unwrap();
        assert_eq!(
            compacted.dead_bytes(),
            0,
            "compaction removes every dead byte"
        );
        assert_eq!(compacted.file_bytes(), compacted.footprint_bytes());
        assert_lists_match(&graph, &compacted);
        // The retired generation keeps serving until dropped.
        assert_lists_match(&graph, &storage);
        // The retired files' frames were invalidated: fresh traversal faults.
        assert!(compacted.pool().counters().segments_faulted > faulted_before);
    }

    #[test]
    fn compaction_retires_old_backing_files_on_drop() {
        let dir = std::env::temp_dir().join(format!("slfe-oocore-compact-{}", std::process::id()));
        let g = generators::path(64);
        let config = StorageConfig {
            dir: Some(dir.clone()),
            ..tmp_config(1 << 20, 1 << 10)
        };
        let storage = GraphStorage::build(&g, &config).unwrap();
        let count_files = || std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
        assert_eq!(count_files(), 2);
        let compacted = storage.compacted(&g).unwrap();
        assert_eq!(count_files(), 4, "old and new generations coexist");
        drop(storage);
        assert_eq!(
            count_files(),
            2,
            "retired files deleted with the old generation"
        );
        assert_lists_match(&g, &compacted);
        drop(compacted);
        assert_eq!(count_files(), 0);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn auto_created_directories_are_removed_with_the_last_generation() {
        let g = generators::path(32);
        let storage = GraphStorage::build(&g, &tmp_config(1 << 20, 1 << 10)).unwrap();
        let dir = storage.out.file.path.parent().unwrap().to_path_buf();
        assert!(dir.exists());
        drop(storage);
        assert!(!dir.exists(), "auto-created temp dir must not leak");
    }

    #[test]
    fn transient_read_faults_retry_to_bit_identical_lists() {
        use crate::faults::{FaultInjector, FaultKind, FaultPlan};
        let g = generators::rmat(300, 2100, 0.57, 0.19, 0.19, 31);
        let inj = FaultInjector::armed(FaultPlan::new().fail(
            FaultSite::SegmentRead,
            0,
            FaultKind::Transient { failures: 2 },
        ));
        let mut config = tmp_config(1 << 20, 1 << 10);
        config.retry = RetryPolicy {
            max_retries: 3,
            ..RetryPolicy::none()
        };
        let storage = GraphStorage::build_with_faults(&g, &config, Some(Arc::clone(&inj))).unwrap();
        assert_lists_match(&g, &storage);
        let c = inj.counters();
        assert_eq!(c.injected_transient, 2);
        assert_eq!(c.io_retries, 2);
        assert_eq!(c.io_retry_successes, 1);
        assert_eq!(c.segments_quarantined, 0);
        assert!(!storage.take_poisoned());
    }

    /// Satellite regression: a segment read failing mid-fault must hand its
    /// reserved frame back, so `resident_bytes` never drifts above (or, with
    /// every load failing, off) its true value.
    #[test]
    fn failed_segment_reads_release_their_pool_reservation() {
        use crate::faults::{FaultInjector, FaultKind, FaultPlan};
        let g = generators::rmat(800, 6400, 0.57, 0.19, 0.19, 17);
        let budget = 16 << 10;
        let inj = FaultInjector::armed(FaultPlan::new().fail(
            FaultSite::SegmentRead,
            0,
            FaultKind::Permanent,
        ));
        let mut config = tmp_config(budget, 2 << 10);
        config.retry = RetryPolicy::none();
        let storage = GraphStorage::build_with_faults(&g, &config, Some(Arc::clone(&inj))).unwrap();
        // Every load fails (no retries, no recovery source): each reservation
        // must be handed back, so residency never drifts off zero.
        for _ in 0..2 {
            let mut cursor = StreamCursor::new(storage.out_store());
            for v in g.vertices() {
                let _ = cursor.list(v);
            }
            assert_eq!(storage.pool().resident_bytes(), 0, "reservation leaked");
        }
        assert!(storage.take_poisoned(), "placeholders must poison the run");
        assert!(storage.poison_note().is_some());
        assert!(inj.counters().injected_permanent > 0);
        // Healed store: traversal succeeds and stays within budget.
        inj.disarm();
        assert_lists_match(&g, &storage);
        assert!(storage.pool().resident_bytes() <= budget);
        assert!(storage.pool().peak_resident_bytes() <= budget);
        assert!(!storage.take_poisoned());
    }

    #[test]
    fn permanent_read_faults_quarantine_and_rebuild_bit_identical_segments() {
        use crate::faults::{FaultInjector, FaultKind, FaultPlan};
        let g = Arc::new(generators::rmat(400, 2800, 0.57, 0.19, 0.19, 19));
        let inj = FaultInjector::armed(FaultPlan::new().fail(
            FaultSite::SegmentRead,
            0,
            FaultKind::Permanent,
        ));
        let mut config = tmp_config(1 << 20, 1 << 10);
        config.retry = RetryPolicy {
            max_retries: 1,
            ..RetryPolicy::none()
        };
        let mut storage =
            GraphStorage::build_with_faults(&g, &config, Some(Arc::clone(&inj))).unwrap();
        storage.set_recovery(&g);
        assert_lists_match(&g, &storage);
        let c = inj.counters();
        assert!(c.segments_quarantined > 0, "every faulted segment rebuilds");
        assert_eq!(
            storage.quarantined_segments() as u64,
            c.segments_quarantined
        );
        assert!(!storage.take_poisoned(), "quarantine is full recovery");

        // A patch folds the quarantine replacements into the new directory.
        inj.disarm();
        let mut batch = UpdateBatch::new();
        batch.insert(0, 1, 5.0);
        let (mutated, effect) = g.apply_batch(&batch);
        let (mut patched, _) = storage.patched(&mutated, &effect.dirty).unwrap();
        let mutated = Arc::new(mutated);
        patched.set_recovery(&mutated);
        assert_eq!(patched.quarantined_segments(), 0);
        assert_lists_match(&mutated, &patched);
    }

    /// The per-segment CRC turns silent on-disk corruption into a fallible
    /// decode, which the quarantine path then heals from the recovery source.
    #[test]
    fn corrupt_segment_bytes_are_detected_and_rebuilt() {
        let g = Arc::new(generators::rmat(200, 1400, 0.57, 0.19, 0.19, 23));
        let mut config = tmp_config(1 << 20, 1 << 10);
        config.retry = RetryPolicy::none();
        let mut storage = GraphStorage::build(&g, &config).unwrap();
        storage.set_recovery(&g);
        // Flip bytes inside the first live segment on disk.
        let meta = storage.out.segments[0];
        write_exact_at(&storage.out.file.file, &[0xAB; 8], meta.file_offset).unwrap();
        assert_lists_match(&g, &storage);
        assert_eq!(storage.quarantined_segments(), 1);
        assert!(!storage.take_poisoned());
    }

    /// Encode and decode share the CRC kernel, so a kernel that skipped
    /// bytes would still round-trip: flip every bit of a segment instead.
    /// 2 vertices and 1 edge make 20 payload bytes, one 16-byte step plus a
    /// 4-byte tail.
    #[test]
    fn every_bit_flip_in_a_segment_is_rejected() {
        let g = crate::Graph::from_edges(8, vec![crate::types::Edge::new(6, 7, 2.5)]);
        let segment = EncodedSegment::next(g.out_adjacency(), 6, 8, usize::MAX);
        let bytes = segment.bytes;
        assert_eq!(bytes.len(), 20 + 4);
        let meta = SegmentMeta {
            v_start: 6,
            num_vertices: 2,
            num_edges: 1,
            file_offset: 0,
            bytes: bytes.len() as u64,
        };
        let decoded = meta.decode(&bytes).expect("intact bytes decode");
        assert_eq!(decoded.list(6), (&[7][..], &[2.5][..]));
        assert_eq!(decoded.list(7), (&[][..], &[][..]));
        assert_eq!(decoded, Block::new(6, vec![0, 1, 1], vec![7], vec![2.5]));
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                assert!(meta.decode(&bad).is_none(), "flip of bit {bit} in byte {i}");
            }
        }
        for cut in 1..=4 {
            let short = &bytes[..bytes.len() - cut];
            assert!(meta.decode(short).is_none(), "cut {cut}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(meta.decode(&long).is_none());
    }

    /// The same at a size the folding CRC kernel checks: 2 vertices and 37
    /// edges make 308 payload bytes, four 64-byte lines, three 16-byte
    /// blocks and a 4-byte tail, so a kernel that skipped its tail or a
    /// middle block would let a flip through.
    #[test]
    fn every_bit_flip_in_a_folded_size_segment_is_rejected() {
        let edges = (0..25)
            .map(|u| crate::types::Edge::new(6, u, 1.0 + u as f32))
            .chain((0..12).map(|u| crate::types::Edge::new(7, 40 + u, 0.5)))
            .collect();
        let g = crate::Graph::from_edges(64, edges);
        let segment = EncodedSegment::next(g.out_adjacency(), 6, 8, usize::MAX);
        let bytes = segment.bytes;
        assert_eq!(bytes.len(), 308 + 4);
        assert!(bytes.len() - 4 >= 256 && !(bytes.len() - 4).is_multiple_of(16));
        let meta = SegmentMeta {
            v_start: 6,
            num_vertices: 2,
            num_edges: 37,
            file_offset: 0,
            bytes: bytes.len() as u64,
        };
        let decoded = meta.decode(&bytes).expect("intact bytes decode");
        for v in [6, 7] {
            assert_eq!(decoded.list(v), (g.out_neighbors(v), g.out_weights(v)));
        }
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                assert!(meta.decode(&bad).is_none(), "flip of bit {bit} in byte {i}");
            }
        }
    }

    /// The segment byte format, pinned as `snapshot_bytes_keep_the_flat_layout`
    /// pins the base's: the length and CRC32 of both store files of a seeded
    /// R-MAT graph in 8 KiB segments, after the build and after a chain of
    /// patches that append re-encoded and grown segments to the same files.
    /// The expected values predate this encoder.
    #[test]
    fn segment_files_keep_their_bytes() {
        let files = |s: &GraphStorage| {
            [&s.out, &s.incoming].map(|store| {
                let bytes = std::fs::read(&store.file.path).unwrap();
                (bytes.len(), crc32(&bytes))
            })
        };
        let mut graph = generators::rmat(3000, 30000, 0.57, 0.19, 0.19, 7);
        let mut storage = GraphStorage::build(&graph, &tmp_config(1 << 20, 8 << 10)).unwrap();
        assert_eq!(
            files(&storage),
            [(0x3_d950, 0xdd89_6858), (0x3_d950, 0x7f04_1bae)],
            "after the build"
        );
        for seed in 0..8 {
            let shape = generators::BatchShape::Mixed { allow_growth: true };
            let batch = generators::random_batch(&graph, seed, 16, shape);
            let (mutated, effect) = graph.apply_batch(&batch);
            (storage, _) = storage.patched(&mutated, &effect.dirty).unwrap();
            graph = mutated;
        }
        let mut grow = UpdateBatch::new();
        grow.insert(1, 3004, 2.5);
        let (mutated, effect) = graph.apply_batch(&grow);
        (storage, _) = storage.patched(&mutated, &effect.dirty).unwrap();
        graph = mutated;
        assert_lists_match(&graph, &storage);
        assert_eq!(graph.num_vertices(), 3005);
        assert_eq!(
            files(&storage),
            [(0x14_6854, 0x76ba_1b05), (0x13_6f1c, 0xbfcd_d226)],
            "after the patches"
        );
    }

    #[test]
    fn backing_files_are_deleted_when_the_last_generation_drops() {
        let dir = std::env::temp_dir().join(format!("slfe-oocore-droptest-{}", std::process::id()));
        let g = generators::path(64);
        let config = StorageConfig {
            dir: Some(dir.clone()),
            ..tmp_config(1 << 20, 1 << 10)
        };
        let storage = GraphStorage::build(&g, &config).unwrap();
        let count_files = || std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
        assert_eq!(count_files(), 2);
        let mut batch = UpdateBatch::new();
        batch.insert(0, 63, 2.0);
        let (mutated, effect) = g.apply_batch(&batch);
        let (patched, _) = storage.patched(&mutated, &effect.dirty).unwrap();
        drop(storage);
        assert_eq!(count_files(), 2, "shared files survive the old generation");
        drop(patched);
        assert_eq!(count_files(), 0, "files deleted with the last generation");
        let _ = std::fs::remove_dir(&dir);
    }
}

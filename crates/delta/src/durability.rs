//! Durability for the delta server: write-ahead logging, atomic fixpoint
//! snapshots, and the compaction trigger riding the snapshot path.
//!
//! The contract mirrors what ledger-grade serving stores provide:
//!
//! * Every [`slfe_graph::UpdateBatch`] is appended to a checksummed,
//!   length-prefixed **write-ahead log** and fsync'd *before* the in-memory
//!   graph or the out-of-core segment files see it. A `kill -9` at any point
//!   therefore loses at most the batch whose WAL append had not yet returned
//!   — never one the caller was told about.
//! * Every N batches (or M WAL bytes) the server writes a **snapshot** of its
//!   exact served state — graph (raw adjacency arrays, physically exact),
//!   fixpoint values, stable partitioning, cumulative stats — via a temp
//!   file and a rename, then trims the WAL. The RR guidance is derived state
//!   and is not stored. Recovery loads the snapshot, regenerates the
//!   guidance, and replays only the WAL suffix past its sequence number
//!   through the identical warm apply path, which is what makes recovered
//!   values **bit-identical** to an uninterrupted run for every registered
//!   app.
//! * Corruption is handled structurally, never with a panic: a torn or
//!   bit-flipped WAL tail truncates to the last valid frame; a corrupt
//!   snapshot is a typed [`DurabilityError`].

use slfe_graph::io::binary::{self, Reader};
use slfe_graph::{
    with_retries, FaultAction, FaultInjector, FaultSite, Graph, RetryPolicy, UpdateBatch,
};
use slfe_metrics::DurabilityCounters;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::health::ApplyError;
use crate::server::ServerStats;

/// Frame magic of one WAL entry ("SLFW").
const WAL_MAGIC: u32 = 0x534C_4657;
/// Snapshot file magic ("SLFS").
const SNAPSHOT_MAGIC: u32 = 0x534C_4653;
/// Snapshot format version, the only one this build reads. Version 3
/// dropped the RR-guidance section and the guidance-regeneration stat that
/// versions 1 and 2 stored; a directory written by an earlier build is
/// refused as corrupt and must be recreated.
const SNAPSHOT_VERSION: u32 = 3;
/// Bytes of a WAL frame header: magic, sequence, payload length, checksum.
const WAL_HEADER_BYTES: usize = 4 + 8 + 4 + 4;
/// WAL length at which a snapshot is due regardless of the batch cadence.
pub(crate) const SNAPSHOT_WAL_BYTES: u64 = 1 << 20;

/// Durability knobs of a [`crate::DeltaServer`].
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the WAL and snapshot files. Created if absent.
    pub dir: PathBuf,
    /// Snapshot after this many applied batches since the last snapshot (or
    /// once the WAL holds 1 MiB, whichever comes first).
    pub snapshot_every_batches: u64,
    /// Out-of-core serving: compact the segment files (rewriting live
    /// segments into a fresh generation) whenever a snapshot finds their
    /// dead-byte fraction above this threshold, bounding on-disk size.
    pub max_dead_fraction: f64,
    /// Retry/backoff budget applied to every durability I/O (WAL append and
    /// fsync, WAL trim, snapshot write/rename/read). Transient failures
    /// within the budget are absorbed with no observable effect; disk-full
    /// errors are never retried.
    pub retry: RetryPolicy,
}

impl DurabilityConfig {
    /// Defaults: snapshot every 8 batches or 1 MiB of WAL, compact past 50%
    /// dead bytes.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            snapshot_every_batches: 8,
            max_dead_fraction: 0.5,
            retry: RetryPolicy::default(),
        }
    }

    /// Set the batch-count snapshot cadence.
    pub fn with_snapshot_every(mut self, batches: u64) -> Self {
        self.snapshot_every_batches = batches.max(1);
        self
    }

    /// Set the compaction dead-byte threshold.
    pub fn with_max_dead_fraction(mut self, fraction: f64) -> Self {
        self.max_dead_fraction = fraction;
        self
    }

    /// Set the I/O retry/backoff budget.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Path of the write-ahead log.
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join("wal.log")
    }

    /// Path of the current snapshot.
    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot.bin")
    }

    fn snapshot_tmp_path(&self) -> PathBuf {
        self.dir.join("snapshot.bin.tmp")
    }
}

/// Structured failures of the durability layer. Corruption is a value, not a
/// panic: recovery always either succeeds or reports *why* it cannot.
#[derive(Debug)]
pub enum DurabilityError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// No snapshot exists at the given path (nothing to recover from —
    /// create the server instead).
    MissingSnapshot(PathBuf),
    /// The snapshot file exists but failed checksum or structural
    /// validation; `reason` names the first check that failed.
    CorruptSnapshot {
        /// The first validation step that failed.
        reason: &'static str,
    },
    /// Re-applying a logged batch during recovery failed.
    Replay {
        /// Sequence number of the WAL entry that failed.
        seq: u64,
        /// Why the apply pipeline refused or failed it.
        error: ApplyError,
    },
}

impl std::fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityError::Io(e) => write!(f, "i/o error: {e}"),
            DurabilityError::MissingSnapshot(p) => {
                write!(f, "no snapshot at {}", p.display())
            }
            DurabilityError::CorruptSnapshot { reason } => {
                write!(f, "corrupt snapshot: {reason}")
            }
            DurabilityError::Replay { seq, error } => {
                write!(f, "replaying WAL entry {seq} failed: {error}")
            }
        }
    }
}

impl std::error::Error for DurabilityError {}

impl From<io::Error> for DurabilityError {
    fn from(e: io::Error) -> Self {
        DurabilityError::Io(e)
    }
}

/// What scanning a WAL file found: the decodable prefix and how much torn or
/// corrupt tail was discarded.
#[derive(Debug)]
pub struct WalReplay {
    /// Valid entries in append order, each `(sequence, batch)`.
    pub entries: Vec<(u64, UpdateBatch)>,
    /// Bytes of the valid prefix.
    pub valid_bytes: u64,
    /// Bytes past the last valid frame (torn write or bit flip) that were
    /// discarded.
    pub bytes_truncated: u64,
}

/// Result of one [`Wal::append`]: the frame's on-disk size and the measured
/// latency of the fsync that made it durable.
#[derive(Debug, Clone, Copy)]
pub struct WalAppend {
    /// Bytes written for the frame (header + payload).
    pub frame_bytes: u64,
    /// Wall-clock nanoseconds spent in `sync_data` for this frame.
    pub fsync_nanos: u64,
}

/// Append handle over the write-ahead log. Opening scans the existing file,
/// truncates any invalid tail to the last valid frame, and returns what must
/// be replayed.
#[derive(Debug)]
pub struct Wal {
    file: File,
    bytes: u64,
    faults: Option<Arc<FaultInjector>>,
    retry: RetryPolicy,
}

impl Wal {
    /// Open (creating if absent) the WAL at `path`. Any torn or corrupt tail
    /// is truncated away so subsequent appends extend a valid log.
    pub fn open(path: &Path) -> io::Result<(Self, WalReplay)> {
        Self::open_with(path, None, RetryPolicy::default())
    }

    /// [`Wal::open`] with a fault injector and retry budget attached. The
    /// opening scan itself runs under the retry budget so transient read
    /// failures are absorbed before any truncation decision is made.
    pub fn open_with(
        path: &Path,
        faults: Option<Arc<FaultInjector>>,
        retry: RetryPolicy,
    ) -> io::Result<(Self, WalReplay)> {
        let replay = with_retries(&retry, faults.as_deref(), || {
            Self::scan(path, faults.as_deref())
        })?;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        file.set_len(replay.valid_bytes)?;
        let mut wal = Self {
            file,
            bytes: replay.valid_bytes,
            faults,
            retry,
        };
        if replay.bytes_truncated > 0 {
            wal.file.sync_data()?;
        }
        wal.file.seek(io::SeekFrom::Start(replay.valid_bytes))?;
        Ok((wal, replay))
    }

    /// Decode the valid frame prefix of the WAL at `path`; a missing file is
    /// an empty log. Never panics on corrupt bytes.
    ///
    /// An injected short read fails the scan instead of delivering a
    /// truncated buffer: acting on a partial read here would truncate
    /// durable frames that are in fact intact on disk, so the only safe
    /// reaction is to report the read as failed and let the retry budget
    /// (or the caller) try again.
    fn scan(path: &Path, faults: Option<&FaultInjector>) -> io::Result<WalReplay> {
        match faults.and_then(|i| i.on_io(FaultSite::WalOpen)) {
            Some(FaultAction::Error(e)) => return Err(e),
            Some(FaultAction::ShortIo) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "injected short WAL read at open",
                ));
            }
            None => {}
        }
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let mut entries = Vec::new();
        let mut pos = 0usize;
        while let Some((seq, batch, len)) = decode_frame(&bytes[pos..]) {
            entries.push((seq, batch));
            pos += len;
        }
        Ok(WalReplay {
            entries,
            valid_bytes: pos as u64,
            bytes_truncated: (bytes.len() - pos) as u64,
        })
    }

    /// Append one batch under sequence number `seq` and fsync. This is *the*
    /// durability point: it must complete before the batch touches the graph
    /// or the segment files. The returned record carries the frame's byte
    /// length and the measured fsync latency for the telemetry layer.
    ///
    /// Failed attempts (including injected short writes that leave a partial
    /// frame on disk) are repaired by truncating back to the last durable
    /// frame before each retry, so a retried append never duplicates or
    /// interleaves frame bytes.
    pub fn append(&mut self, seq: u64, batch: &UpdateBatch) -> io::Result<WalAppend> {
        let payload = batch.to_bytes();
        let mut frame = Vec::with_capacity(WAL_HEADER_BYTES + payload.len());
        binary::put_u32(&mut frame, WAL_MAGIC);
        binary::put_u64(&mut frame, seq);
        binary::put_u32(&mut frame, payload.len() as u32);
        binary::put_u32(&mut frame, frame_crc(seq, &payload));
        frame.extend_from_slice(&payload);
        let appended = with_retries(&self.retry, self.faults.as_deref(), || {
            Self::try_append_once(&self.file, self.bytes, &frame, self.faults.as_deref())
        })?;
        self.bytes += frame.len() as u64;
        Ok(appended)
    }

    /// One append attempt: repair any partial bytes a previous attempt left,
    /// write the frame, fsync.
    fn try_append_once(
        file: &File,
        valid_bytes: u64,
        frame: &[u8],
        faults: Option<&FaultInjector>,
    ) -> io::Result<WalAppend> {
        if file.metadata()?.len() != valid_bytes {
            file.set_len(valid_bytes)?;
        }
        (&*file).seek(io::SeekFrom::Start(valid_bytes))?;
        match faults.and_then(|i| i.on_io(FaultSite::WalAppend)) {
            Some(FaultAction::Error(e)) => return Err(e),
            Some(FaultAction::ShortIo) => {
                (&*file).write_all(&frame[..frame.len() / 2])?;
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "injected short WAL append",
                ));
            }
            None => {}
        }
        (&*file).write_all(frame)?;
        match faults.and_then(|i| i.on_io(FaultSite::WalFsync)) {
            Some(FaultAction::Error(e)) => return Err(e),
            Some(FaultAction::ShortIo) => {
                return Err(io::Error::other("injected WAL fsync failure"));
            }
            None => {}
        }
        let fsync_began = std::time::Instant::now();
        file.sync_data()?;
        let fsync_nanos = fsync_began.elapsed().as_nanos() as u64;
        Ok(WalAppend {
            frame_bytes: frame.len() as u64,
            fsync_nanos,
        })
    }

    /// Current log length in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Cut the log back to its first `len` bytes, a frame boundary, under
    /// the [`FaultSite::WalTrim`] site and the retry budget. `0` drops every
    /// entry, right after a snapshot covering them all landed (safe even if
    /// the process dies first: replay skips entries at or below the
    /// snapshot's sequence number). A longer `len` retracts the frames
    /// appended since the log had that length: a batch rejected after its
    /// append.
    pub fn truncate_to(&mut self, len: u64) -> io::Result<()> {
        let file = &self.file;
        with_retries(&self.retry, self.faults.as_deref(), || {
            match self
                .faults
                .as_deref()
                .and_then(|i| i.on_io(FaultSite::WalTrim))
            {
                Some(FaultAction::Error(e)) => return Err(e),
                Some(FaultAction::ShortIo) => {
                    return Err(io::Error::other("injected WAL trim failure"));
                }
                None => {}
            }
            file.set_len(len)?;
            (&*file).seek(io::SeekFrom::Start(len))?;
            file.sync_data()
        })?;
        self.bytes = len;
        Ok(())
    }
}

/// Checksum of one frame: sequence number plus payload (the header fields
/// the magic does not already pin), hashed as `seq ‖ payload` in place.
fn frame_crc(seq: u64, payload: &[u8]) -> u32 {
    binary::crc32_update(binary::crc32(&seq.to_le_bytes()), payload)
}

/// Decode one frame from the front of `buf`; `None` on anything invalid
/// (short header, wrong magic, bad checksum, undecodable payload).
fn decode_frame(buf: &[u8]) -> Option<(u64, UpdateBatch, usize)> {
    let mut r = Reader::new(buf);
    if r.u32()? != WAL_MAGIC {
        return None;
    }
    let seq = r.u64()?;
    let len = r.u32()? as usize;
    let crc = r.u32()?;
    let payload = r.bytes(len)?;
    if frame_crc(seq, payload) != crc {
        return None;
    }
    let batch = UpdateBatch::from_bytes(payload)?;
    Some((seq, batch, WAL_HEADER_BYTES + len))
}

/// Fixed-layout binary encoding for snapshot-able program values. The tag is
/// recorded in the snapshot header so a restore under the wrong program type
/// fails structurally instead of reinterpreting bits.
pub trait SnapshotValue: Copy {
    /// Format tag written to (and checked against) the snapshot header.
    const TAG: u8;
    /// Append the exact bit pattern.
    fn write(self, out: &mut Vec<u8>);
    /// Read one value back.
    fn read(r: &mut Reader<'_>) -> Option<Self>;
}

impl SnapshotValue for f32 {
    const TAG: u8 = 1;
    fn write(self, out: &mut Vec<u8>) {
        binary::put_f32(out, self);
    }
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        r.f32()
    }
}

/// The pair layout SpMV serves (`(numerator, count)`-style accumulators).
impl SnapshotValue for (f32, f32) {
    const TAG: u8 = 2;
    fn write(self, out: &mut Vec<u8>) {
        binary::put_f32(out, self.0);
        binary::put_f32(out, self.1);
    }
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        Some((r.f32()?, r.f32()?))
    }
}

/// Everything a snapshot persists, borrowed from the live server.
pub(crate) struct SnapshotState<'a, V> {
    pub seq: u64,
    pub stats: ServerStats,
    pub graph: &'a Graph,
    pub values: &'a [V],
    pub owners: &'a [usize],
    pub num_parts: usize,
}

/// A decoded snapshot, owned.
pub(crate) struct LoadedSnapshot<V> {
    pub seq: u64,
    pub stats: ServerStats,
    pub graph: Graph,
    pub values: Vec<V>,
    pub owners: Vec<usize>,
    pub num_parts: usize,
}

/// Write `state` atomically (temp file, fsync, rename, directory fsync) as
/// the current snapshot. Returns the file's byte length.
///
/// Both phases — materialising the temp file and renaming it into place —
/// run under the config's retry budget. A failed attempt leaves at worst a
/// stale temp file; the current snapshot is replaced only by the atomic
/// rename, so a failure here never corrupts the recovery point.
pub(crate) fn write_snapshot<V: SnapshotValue>(
    config: &DurabilityConfig,
    state: &SnapshotState<'_, V>,
    faults: Option<&FaultInjector>,
) -> io::Result<u64> {
    let mut out = Vec::new();
    binary::put_u32(&mut out, SNAPSHOT_MAGIC);
    binary::put_u32(&mut out, SNAPSHOT_VERSION);
    binary::put_u8(&mut out, V::TAG);
    binary::put_u64(&mut out, state.seq);
    binary::put_u64(&mut out, state.stats.batches_applied);
    binary::put_u64(&mut out, state.stats.total_work);
    binary::put_u64(&mut out, state.stats.total_distribution_messages);
    binary::put_u64(&mut out, state.stats.full_recomputes);
    binary::encode_graph(&mut out, state.graph);
    binary::put_u64(&mut out, state.values.len() as u64);
    for &v in state.values {
        v.write(&mut out);
    }
    binary::put_u64(&mut out, state.num_parts as u64);
    binary::put_u64(&mut out, state.owners.len() as u64);
    for &o in state.owners {
        binary::put_u32(&mut out, o as u32);
    }
    // Remap section: the graph's adjacency was encoded physically exact
    // above, so only the external→physical bijection travels here.
    match state.graph.id_remap() {
        Some(remap) if !remap.is_identity() => {
            binary::put_u8(&mut out, 1);
            binary::put_u64(&mut out, remap.len() as u64);
            for ext in 0..remap.len() as u32 {
                binary::put_u32(&mut out, remap.to_new(ext));
            }
        }
        _ => binary::put_u8(&mut out, 0),
    }
    let crc = binary::crc32(&out);
    binary::put_u32(&mut out, crc);

    let tmp = config.snapshot_tmp_path();
    with_retries(&config.retry, faults, || {
        match faults.and_then(|i| i.on_io(FaultSite::SnapshotWrite)) {
            Some(FaultAction::Error(e)) => return Err(e),
            Some(FaultAction::ShortIo) => {
                // A short write leaves a torn temp file behind; the retry
                // recreates it from scratch, so nothing durable is harmed.
                let mut file = File::create(&tmp)?;
                file.write_all(&out[..out.len() / 2])?;
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "injected short snapshot write",
                ));
            }
            None => {}
        }
        let mut file = File::create(&tmp)?;
        file.write_all(&out)?;
        file.sync_all()
    })?;
    with_retries(&config.retry, faults, || {
        match faults.and_then(|i| i.on_io(FaultSite::SnapshotRename)) {
            Some(FaultAction::Error(e)) => return Err(e),
            Some(FaultAction::ShortIo) => {
                return Err(io::Error::other("injected snapshot rename failure"));
            }
            None => {}
        }
        std::fs::rename(&tmp, config.snapshot_path())?;
        sync_dir(&config.dir)
    })?;
    Ok(out.len() as u64)
}

/// Load and validate the current snapshot.
///
/// The read runs under the config's retry budget; an injected short read
/// delivers a truncated buffer, which the trailing checksum then rejects as
/// a typed [`DurabilityError::CorruptSnapshot`] — corruption stays a value,
/// never a panic.
pub(crate) fn read_snapshot<V: SnapshotValue>(
    config: &DurabilityConfig,
    faults: Option<&FaultInjector>,
) -> Result<LoadedSnapshot<V>, DurabilityError> {
    let path = config.snapshot_path();
    let bytes = with_retries(&config.retry, faults, || {
        let short = match faults.and_then(|i| i.on_io(FaultSite::SnapshotRead)) {
            Some(FaultAction::Error(e)) => return Err(e),
            Some(FaultAction::ShortIo) => true,
            None => false,
        };
        let mut b = match std::fs::read(&path) {
            Ok(b) => Some(b),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        if short {
            if let Some(buf) = b.as_mut() {
                buf.truncate(buf.len() / 2);
            }
        }
        Ok(b)
    })?;
    let bytes = match bytes {
        Some(b) => b,
        None => return Err(DurabilityError::MissingSnapshot(path)),
    };
    let corrupt = |reason: &'static str| DurabilityError::CorruptSnapshot { reason };
    if bytes.len() < 4 {
        return Err(corrupt("shorter than its checksum"));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored_crc = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if binary::crc32(body) != stored_crc {
        return Err(corrupt("checksum mismatch"));
    }
    let mut r = Reader::new(body);
    if r.u32() != Some(SNAPSHOT_MAGIC) {
        return Err(corrupt("bad magic"));
    }
    let version = r.u32().ok_or_else(|| corrupt("truncated header"))?;
    if version != SNAPSHOT_VERSION {
        return Err(corrupt("unknown version"));
    }
    if r.u8() != Some(V::TAG) {
        return Err(corrupt("value-type tag mismatch"));
    }
    let seq = r.u64().ok_or_else(|| corrupt("truncated header"))?;
    let stats = ServerStats {
        batches_applied: r.u64().ok_or_else(|| corrupt("truncated stats"))?,
        total_work: r.u64().ok_or_else(|| corrupt("truncated stats"))?,
        total_distribution_messages: r.u64().ok_or_else(|| corrupt("truncated stats"))?,
        full_recomputes: r.u64().ok_or_else(|| corrupt("truncated stats"))?,
    };
    let graph = binary::decode_graph(&mut r).ok_or_else(|| corrupt("invalid graph section"))?;
    let n = graph.num_vertices();
    let value_count = r.u64().ok_or_else(|| corrupt("truncated values"))? as usize;
    if value_count != n {
        return Err(corrupt("value count does not match the graph"));
    }
    let mut values = Vec::with_capacity(value_count);
    for _ in 0..value_count {
        values.push(V::read(&mut r).ok_or_else(|| corrupt("truncated values"))?);
    }
    let num_parts = r.u64().ok_or_else(|| corrupt("truncated partitioning"))? as usize;
    let owner_count = r.u64().ok_or_else(|| corrupt("truncated partitioning"))? as usize;
    if owner_count != n || num_parts == 0 {
        return Err(corrupt("partitioning does not match the graph"));
    }
    let mut owners = Vec::with_capacity(owner_count);
    for _ in 0..owner_count {
        let o = r.u32().ok_or_else(|| corrupt("truncated partitioning"))? as usize;
        if o >= num_parts {
            return Err(corrupt("owner outside the node range"));
        }
        owners.push(o);
    }
    let graph = match r.u8() {
        Some(0) => graph,
        Some(1) => {
            let len = r.u64().ok_or_else(|| corrupt("truncated remap"))? as usize;
            if len > n {
                return Err(corrupt("remap larger than the graph"));
            }
            let mut forward = Vec::with_capacity(len);
            for _ in 0..len {
                let p = r.u32().ok_or_else(|| corrupt("truncated remap"))?;
                if p as usize >= len {
                    return Err(corrupt("remap entry out of range"));
                }
                forward.push(p);
            }
            let mut seen = vec![false; len];
            for &p in &forward {
                if std::mem::replace(&mut seen[p as usize], true) {
                    return Err(corrupt("remap is not a bijection"));
                }
            }
            graph.with_remap(slfe_graph::IdRemap::from_forward(forward))
        }
        _ => return Err(corrupt("invalid remap flag")),
    };
    if !r.is_empty() {
        return Err(corrupt("trailing bytes"));
    }
    Ok(LoadedSnapshot {
        seq,
        stats,
        graph,
        values,
        owners,
        num_parts,
    })
}

/// fsync the directory so a just-renamed snapshot survives power loss.
fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

/// The live durability state a durable [`crate::DeltaServer`] carries.
#[derive(Debug)]
pub(crate) struct DurabilityState {
    pub config: DurabilityConfig,
    pub wal: Wal,
    /// Sequence number of the last batch appended to the WAL.
    pub seq: u64,
    /// Sequence number the current snapshot covers.
    pub snapshot_seq: u64,
    /// The WAL length a rejected batch's frame must be cut back to, while
    /// that cut has not succeeded yet.
    pub pending_cut: Option<u64>,
    pub counters: DurabilityCounters,
}

impl DurabilityState {
    /// Cut the WAL back to [`DurabilityState::pending_cut`], if a rejected
    /// batch left a frame there. `false` when the cut failed and the frame
    /// is still pending.
    pub fn retract(&mut self) -> bool {
        match self.pending_cut {
            Some(len) if self.wal.truncate_to(len).is_err() => false,
            _ => {
                self.pending_cut = None;
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slfe_graph::rng::SplitMix64;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("slfe-durability-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn random_batch(rng: &mut SplitMix64, ops: usize) -> UpdateBatch {
        let mut batch = UpdateBatch::new();
        for _ in 0..ops {
            let src = rng.range_u32(0, 500);
            let dst = rng.range_u32(0, 500);
            if rng.next_f64() < 0.7 {
                batch.insert(src, dst, rng.range_f32(0.1, 9.0));
            } else {
                batch.delete(src, dst);
            }
        }
        batch
    }

    #[test]
    fn wal_round_trips_seeded_random_batches() {
        for seed in 0..6u64 {
            let dir = tmp_dir(&format!("roundtrip-{seed}"));
            let path = dir.join("wal.log");
            let mut rng = SplitMix64::seed_from_u64(seed);
            let mut written = Vec::new();
            {
                let (mut wal, replay) = Wal::open(&path).unwrap();
                assert!(replay.entries.is_empty());
                for seq in 1..=10u64 {
                    let batch = random_batch(&mut rng, (seq as usize % 5) * 7);
                    wal.append(seq, &batch).unwrap();
                    written.push((seq, batch));
                }
            }
            let (_, replay) = Wal::open(&path).unwrap();
            assert_eq!(replay.bytes_truncated, 0);
            assert_eq!(replay.entries.len(), written.len());
            for ((seq, batch), (wseq, wbatch)) in replay.entries.iter().zip(&written) {
                assert_eq!(seq, wseq);
                assert_eq!(
                    batch.stages().collect::<Vec<_>>(),
                    wbatch.stages().collect::<Vec<_>>()
                );
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn torn_tail_truncates_to_the_last_valid_entry() {
        let dir = tmp_dir("torn");
        let path = dir.join("wal.log");
        let mut rng = SplitMix64::seed_from_u64(9);
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            for seq in 1..=4u64 {
                wal.append(seq, &random_batch(&mut rng, 12)).unwrap();
            }
        }
        let full = std::fs::read(&path).unwrap();
        // Chop the file at every possible byte boundary: recovery must keep
        // exactly the frames that fit, discard the tail, and never panic.
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (_, replay) = Wal::open(&path).unwrap();
            assert_eq!(
                replay.valid_bytes + replay.bytes_truncated,
                cut as u64,
                "cut {cut}"
            );
            assert!(replay.entries.len() <= 4);
            // Opening truncated the file to the valid prefix on disk.
            assert_eq!(std::fs::metadata(&path).unwrap().len(), replay.valid_bytes);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flips_are_detected_and_cut_the_log_there() {
        let dir = tmp_dir("flip");
        let path = dir.join("wal.log");
        let mut rng = SplitMix64::seed_from_u64(11);
        let mut frame_starts = vec![0u64];
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            for seq in 1..=3u64 {
                wal.append(seq, &random_batch(&mut rng, 10)).unwrap();
                frame_starts.push(wal.bytes());
            }
        }
        let full = std::fs::read(&path).unwrap();
        for i in (0..full.len()).step_by(7) {
            let mut bad = full.clone();
            bad[i] ^= 0x40;
            std::fs::write(&path, &bad).unwrap();
            let (_, replay) = Wal::open(&path).unwrap();
            // The flip invalidates the frame containing byte i; every entry
            // before that frame survives, nothing after it is trusted.
            let hit_frame = frame_starts.iter().filter(|&&s| s <= i as u64).count() - 1;
            assert_eq!(replay.entries.len(), hit_frame, "flip at byte {i}");
            assert_eq!(replay.valid_bytes, frame_starts[hit_frame]);
            assert!(replay.bytes_truncated > 0);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The frame layout and its checksum, byte for byte: WAL files written
    /// by earlier builds must still replay, and the checksum must still
    /// cover `seq ‖ payload`.
    #[test]
    fn wal_frame_bytes_are_pinned() {
        let dir = tmp_dir("pin");
        let path = dir.join("wal.log");
        let mut batch = UpdateBatch::new();
        batch.insert(3, 5, 2.5).delete(9, 1);
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(7, &batch).unwrap();
        }
        let mut expected = Vec::new();
        binary::put_u32(&mut expected, WAL_MAGIC);
        binary::put_u64(&mut expected, 7);
        binary::put_u32(&mut expected, 26);
        binary::put_u32(&mut expected, 0x62DC_AA8A);
        binary::put_u32(&mut expected, 2);
        expected.extend_from_slice(&[3, 0, 0, 0, 5, 0, 0, 0, 1]);
        binary::put_f32(&mut expected, 2.5);
        expected.extend_from_slice(&[9, 0, 0, 0, 1, 0, 0, 0, 0]);
        assert_eq!(std::fs::read(&path).unwrap(), expected);
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.bytes_truncated, 0);
        assert_eq!(replay.entries.len(), 1);
        assert_eq!(replay.entries[0].0, 7);
        assert_eq!(
            replay.entries[0].1.stages().collect::<Vec<_>>(),
            vec![(3, 5, Some(2.5)), (9, 1, None)]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_all_empties_the_log_for_new_appends() {
        let dir = tmp_dir("trim");
        let path = dir.join("wal.log");
        let mut rng = SplitMix64::seed_from_u64(13);
        let (mut wal, _) = Wal::open(&path).unwrap();
        for seq in 1..=5u64 {
            wal.append(seq, &random_batch(&mut rng, 8)).unwrap();
        }
        wal.truncate_to(0).unwrap();
        assert_eq!(wal.bytes(), 0);
        // Appends after the trim land at the file start with later seqs.
        wal.append(6, &random_batch(&mut rng, 8)).unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.entries.len(), 1);
        assert_eq!(replay.entries[0].0, 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_to_retracts_the_frames_past_a_boundary() {
        let dir = tmp_dir("retract");
        let path = dir.join("wal.log");
        let mut rng = SplitMix64::seed_from_u64(29);
        let (mut wal, _) = Wal::open(&path).unwrap();
        let kept: Vec<UpdateBatch> = (0..2).map(|_| random_batch(&mut rng, 6)).collect();
        for (seq, batch) in (1..).zip(&kept) {
            wal.append(seq, batch).unwrap();
        }
        let boundary = wal.bytes();
        wal.append(3, &random_batch(&mut rng, 6)).unwrap();
        wal.truncate_to(boundary).unwrap();
        assert_eq!(wal.bytes(), boundary);
        // The next append reuses the retracted sequence number.
        let next = random_batch(&mut rng, 6);
        wal.append(3, &next).unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&path).unwrap();
        let seqs: Vec<u64> = replay.entries.iter().map(|(seq, _)| *seq).collect();
        assert_eq!(seqs, [1, 2, 3]);
        assert_eq!(replay.entries[2].1.to_bytes(), next.to_bytes());
        assert_eq!(replay.entries[0].1.to_bytes(), kept[0].to_bytes());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

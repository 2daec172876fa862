//! Durability for the delta server: a write-ahead log, and recovery state
//! split into a graph **base** that is rarely rewritten and a small
//! **checkpoint** written often.
//!
//! The contract mirrors what ledger-grade serving stores provide:
//!
//! * Every [`slfe_graph::UpdateBatch`] is appended to a checksummed,
//!   length-prefixed **write-ahead log** and fsync'd *before* the in-memory
//!   graph or the out-of-core segment files see it. A `kill -9` at any point
//!   therefore loses at most the batch whose WAL append had not yet returned
//!   — never one the caller was told about.
//! * Every N batches (or 1 MiB of WAL since the last state write) the server
//!   writes a **checkpoint** (`checkpoint.bin`): its sequence number, the
//!   sequence number and CRC of the base it extends, the cumulative stats,
//!   the fixpoint values and the stable partitioning — no adjacency, so it
//!   costs O(V) bytes however many edges the graph has.
//! * The **base** (`snapshot.bin`, format version 3) is the whole served
//!   state: graph (raw adjacency arrays, physically exact), values,
//!   partitioning, stats. It is written at creation, then only at a
//!   checkpoint where the WAL since the last base has reached 1/1024 of the
//!   base's bytes, or where a remap changed the physical layout (a
//!   checkpoint shares its base's layout, and WAL frames never cross a
//!   layout change). Only a base write trims the WAL. Both files are
//!   written through a temp file, fsync, rename and directory fsync. The RR
//!   guidance is derived state and is stored in neither.
//! * Recovery loads the base, folds the logged batches up to the checkpoint
//!   into its graph without running the engine (the live path's id
//!   translation and [`Graph::apply_batch`], batch by batch), installs the
//!   checkpoint's values, regenerates the guidance, and replays only the WAL
//!   suffix past the checkpoint through the identical warm apply path — which
//!   is what makes recovered values **bit-identical** to an uninterrupted run
//!   for every registered app. A checkpoint that fails its checksum, names
//!   another base, or covers entries the WAL no longer holds is ignored and
//!   deleted (the batches logged next reuse the sequence numbers it
//!   covers): everything past the base is then replayed, slower and just as
//!   exact.
//! * Corruption is handled structurally, never with a panic: a torn or
//!   bit-flipped WAL tail truncates to the last valid frame; a corrupt base
//!   is a typed [`DurabilityError`].

use slfe_graph::io::binary::{self, Reader};
use slfe_graph::{
    with_retries, FaultAction, FaultInjector, FaultSite, Graph, RetryPolicy, UpdateBatch,
};
use slfe_metrics::DurabilityCounters;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Seek as _, Write};
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
/// Checkpoint file magic ("SLFC").
const CHECKPOINT_MAGIC: u32 = 0x534C_4643;
/// Checkpoint format version, the only one this build reads.
const CHECKPOINT_VERSION: u32 = 1;
/// Bytes of a WAL frame header: magic, sequence, payload length, checksum.
const WAL_HEADER_BYTES: usize = 4 + 8 + 4 + 4;
/// WAL bytes since the last state write at which a checkpoint is due
/// regardless of the batch cadence.
pub(crate) const SNAPSHOT_WAL_BYTES: u64 = 1 << 20;
/// A checkpoint also writes a new base once the WAL since the last base holds
/// 1/`BASE_WAL_DIVISOR` of the base's bytes. For 16-update batches over a
/// 100k-vertex, 1M-edge graph (an 18.4 MB base) that is 80–100 batches,
/// which bounds the graph refold at open to about as many `apply_batch`
/// calls and amortizes each base write over as many batches.
pub(crate) const BASE_WAL_DIVISOR: u64 = 1024;

/// Durability knobs of a [`crate::DeltaServer`].
///
/// The server writes a checkpoint (values, partitioning and stats; no
/// adjacency) every `snapshot_every_batches` batches, or once 1 MiB of WAL
/// has accrued since the last state write. A checkpoint also writes a new
/// graph base when the WAL since the last base has reached 1/1024 of the
/// base's bytes, or when a remap changed the layout; only then is the WAL
/// trimmed. Out-of-core segment files are compacted independently of both,
/// after any batch that leaves more than half of their bytes dead
/// ([`slfe_graph::storage::COMPACT_DEAD_FRACTION`]).
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the WAL, the base and the checkpoint. Created if
    /// absent.
    pub dir: PathBuf,
    /// Write a checkpoint after this many applied batches since the last
    /// state write (or once 1 MiB of WAL has accrued since it, whichever
    /// comes first).
    pub snapshot_every_batches: u64,
    /// Retry/backoff budget applied to every durability I/O (WAL append and
    /// fsync, WAL trim, base and checkpoint write/rename/read). Transient
    /// failures within the budget are absorbed with no observable effect;
    /// disk-full errors are never retried.
    pub retry: RetryPolicy,
}

impl DurabilityConfig {
    /// Defaults: a checkpoint every 8 batches or 1 MiB of WAL.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            snapshot_every_batches: 8,
            retry: RetryPolicy::default(),
        }
    }

    /// Set the batch-count checkpoint cadence.
    pub fn with_snapshot_every(mut self, batches: u64) -> Self {
        self.snapshot_every_batches = batches.max(1);
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

    /// Path of the current base: the full-state snapshot (format version 3)
    /// that every checkpoint extends.
    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot.bin")
    }

    /// Path of the latest checkpoint.
    pub fn checkpoint_path(&self) -> PathBuf {
        self.dir.join("checkpoint.bin")
    }
}

/// Structured failures of the durability layer. Corruption is a value, not a
/// panic: recovery always either succeeds or reports *why* it cannot.
#[derive(Debug)]
pub enum DurabilityError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// No base snapshot exists at the given path (nothing to recover from —
    /// create the server instead).
    MissingSnapshot(PathBuf),
    /// The base snapshot exists but failed checksum or structural
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
    /// Byte offset just past each entry's frame, parallel to `entries`.
    ends: Vec<u64>,
}

impl WalReplay {
    /// Length of the valid prefix that holds every entry up to sequence
    /// `seq`: the log's length right after that entry was appended, and 0
    /// when no entry is that old. Sequence numbers ascend in file order.
    pub(crate) fn bytes_through(&self, seq: u64) -> u64 {
        match self.entries.partition_point(|(s, _)| *s <= seq) {
            0 => 0,
            kept => self.ends[kept - 1],
        }
    }
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
        let mut ends = Vec::new();
        let mut pos = 0usize;
        while let Some((seq, batch, len)) = decode_frame(&bytes[pos..]) {
            entries.push((seq, batch));
            pos += len;
            ends.push(pos as u64);
        }
        Ok(WalReplay {
            entries,
            valid_bytes: pos as u64,
            bytes_truncated: (bytes.len() - pos) as u64,
            ends,
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
    /// entry, right after a base covering them all landed (safe even if the
    /// process dies first: replay skips entries at or below the base's
    /// sequence number). A longer `len` retracts the frames
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

/// The served state a base or a checkpoint persists, borrowed from the live
/// server.
pub(crate) struct SnapshotState<'a, V> {
    pub stats: ServerStats,
    pub graph: &'a Graph,
    pub values: &'a [V],
    pub owners: &'a [usize],
    pub num_parts: usize,
}

/// What names a base: the sequence number it covers and its trailing CRC
/// (the pair every checkpoint records), plus its length in bytes (what the
/// base trigger compares the WAL against).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct BaseStamp {
    pub seq: u64,
    pub crc: u32,
    pub bytes: u64,
}

/// A decoded base, owned.
pub(crate) struct LoadedSnapshot<V> {
    pub stamp: BaseStamp,
    pub stats: ServerStats,
    pub graph: Graph,
    pub values: Vec<V>,
    pub owners: Vec<usize>,
    pub num_parts: usize,
}

/// A decoded checkpoint, owned. Its values and owners are indexed by the
/// physical ids of the graph its base refolds to at `seq`.
pub(crate) struct LoadedCheckpoint<V> {
    pub seq: u64,
    pub base_seq: u64,
    pub base_crc: u32,
    pub stats: ServerStats,
    pub values: Vec<V>,
    pub owners: Vec<usize>,
    pub num_parts: usize,
}

fn write_header(
    out: &mut impl Write,
    magic: u32,
    version: u32,
    tag: u8,
    seq: u64,
) -> io::Result<()> {
    out.write_all(&magic.to_le_bytes())?;
    out.write_all(&version.to_le_bytes())?;
    out.write_all(&[tag])?;
    out.write_all(&seq.to_le_bytes())
}

fn write_stats(out: &mut impl Write, stats: &ServerStats) -> io::Result<()> {
    for word in [
        stats.batches_applied,
        stats.total_work,
        stats.total_distribution_messages,
        stats.full_recomputes,
    ] {
        out.write_all(&word.to_le_bytes())?;
    }
    Ok(())
}

fn read_stats(r: &mut Reader<'_>) -> Option<ServerStats> {
    Some(ServerStats {
        batches_applied: r.u64()?,
        total_work: r.u64()?,
        total_distribution_messages: r.u64()?,
        full_recomputes: r.u64()?,
    })
}

/// Values encoded per write of the values section into its sink.
const VALUES_PER_WRITE: usize = 4096;

/// The values section: a count, then each value's exact bit pattern,
/// encoded a bounded run of values at a time.
fn write_values<V: SnapshotValue>(out: &mut impl Write, values: &[V]) -> io::Result<()> {
    out.write_all(&(values.len() as u64).to_le_bytes())?;
    let mut run = Vec::new();
    for part in values.chunks(VALUES_PER_WRITE) {
        run.clear();
        part.iter().for_each(|&v| v.write(&mut run));
        out.write_all(&run)?;
    }
    Ok(())
}

fn read_values<V: SnapshotValue>(r: &mut Reader<'_>) -> Option<Vec<V>> {
    let count = usize::try_from(r.u64()?).ok()?;
    // Every value takes at least four bytes: refuse a count the buffer
    // cannot hold before allocating for it.
    if count > r.remaining() / 4 {
        return None;
    }
    (0..count).map(|_| V::read(r)).collect()
}

/// The partitioning section: the node count, then one owner per vertex.
fn write_partitioning(out: &mut impl Write, num_parts: usize, owners: &[usize]) -> io::Result<()> {
    out.write_all(&(num_parts as u64).to_le_bytes())?;
    out.write_all(&(owners.len() as u64).to_le_bytes())?;
    owners
        .iter()
        .try_for_each(|&o| out.write_all(&(o as u32).to_le_bytes()))
}

/// The remap section of a base: a flag, then for a remapped graph the
/// external→physical bijection. The graph section already holds the
/// adjacency physically exact, so only the bijection travels here.
fn write_remap(out: &mut impl Write, graph: &Graph) -> io::Result<()> {
    match graph.id_remap() {
        Some(remap) if !remap.is_identity() => {
            out.write_all(&[1])?;
            out.write_all(&(remap.len() as u64).to_le_bytes())?;
            (0..remap.len() as u32)
                .try_for_each(|ext| out.write_all(&remap.to_new(ext).to_le_bytes()))
        }
        _ => out.write_all(&[0]),
    }
}

/// Read a partitioning of `n` vertices; the error names the failed check.
fn read_partitioning(r: &mut Reader<'_>, n: usize) -> Result<(usize, Vec<usize>), &'static str> {
    let truncated = "truncated partitioning";
    let num_parts = r.u64().ok_or(truncated)? as usize;
    let owner_count = r.u64().ok_or(truncated)? as usize;
    if owner_count != n || num_parts == 0 {
        return Err("partitioning does not match the graph");
    }
    let mut owners = Vec::with_capacity(owner_count);
    for _ in 0..owner_count {
        let o = r.u32().ok_or(truncated)? as usize;
        if o >= num_parts {
            return Err("owner outside the node range");
        }
        owners.push(o);
    }
    Ok((num_parts, owners))
}

/// Bytes of the buffer a state file streams through on its way to disk: the
/// most a base or checkpoint write holds in memory, whatever the state's size.
const STATE_WRITE_BUFFER: usize = 1 << 20;

/// The sink a state file's sections stream into: a bounded buffer in front
/// of the temp file.
type StateSink = BufWriter<Checksummed>;

/// The temp file under a running CRC32 of every byte that reaches it.
struct Checksummed {
    file: File,
    crc: u32,
    bytes: u64,
}

impl Write for Checksummed {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let written = self.file.write(buf)?;
        self.crc = binary::crc32_update(self.crc, &buf[..written]);
        self.bytes += written as u64;
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

/// Stream a state file to `dest` atomically, and return its trailing CRC32
/// and its length in bytes. `produce` writes the body a section at a time
/// through a [`STATE_WRITE_BUFFER`] buffer into a temp file, under a
/// running CRC32 that then lands as the trailer; then come fsync, rename and
/// directory fsync, each phase under the config's retry budget and its fault
/// site (consulted once per attempt). A failed attempt leaves at worst a
/// stale temp file; `dest` is replaced only by the rename, so a failure
/// never corrupts the recovery point it holds.
fn write_atomically(
    config: &DurabilityConfig,
    dest: &Path,
    (write_site, rename_site): (FaultSite, FaultSite),
    faults: Option<&FaultInjector>,
    produce: impl Fn(&mut StateSink) -> io::Result<()>,
) -> io::Result<(u32, u64)> {
    let tmp = dest.with_extension("bin.tmp");
    let written = with_retries(&config.retry, faults, || {
        let short = match faults.and_then(|i| i.on_io(write_site)) {
            Some(FaultAction::Error(e)) => return Err(e),
            Some(FaultAction::ShortIo) => true,
            None => false,
        };
        let file = File::create(&tmp)?;
        let mut sink = BufWriter::with_capacity(
            STATE_WRITE_BUFFER,
            Checksummed {
                file,
                crc: 0,
                bytes: 0,
            },
        );
        produce(&mut sink)?;
        let Checksummed {
            mut file,
            crc,
            bytes,
        } = sink.into_inner().map_err(io::IntoInnerError::into_error)?;
        file.write_all(&crc.to_le_bytes())?;
        let bytes = bytes + 4;
        if short {
            // Cut the file back to half its bytes: the torn temp file a
            // short write leaves. The retry recreates it from scratch, so
            // nothing durable is harmed.
            file.set_len(bytes / 2)?;
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                format!("injected short write at {}", write_site.name()),
            ));
        }
        file.sync_all()?;
        Ok((crc, bytes))
    })?;
    with_retries(&config.retry, faults, || {
        match faults.and_then(|i| i.on_io(rename_site)) {
            Some(FaultAction::Error(e)) => return Err(e),
            Some(FaultAction::ShortIo) => {
                return Err(io::Error::other(format!(
                    "injected failure at {}",
                    rename_site.name()
                )));
            }
            None => {}
        }
        std::fs::rename(&tmp, dest)?;
        sync_dir(&config.dir)
    })?;
    Ok(written)
}

/// Read the state file at `path` under the config's retry budget and fault
/// `site`; `None` when it does not exist. An injected short read delivers a
/// truncated buffer, which the trailing checksum then rejects.
fn read_state_file(
    config: &DurabilityConfig,
    path: &Path,
    site: FaultSite,
    faults: Option<&FaultInjector>,
) -> io::Result<Option<Vec<u8>>> {
    with_retries(&config.retry, faults, || {
        let short = match faults.and_then(|i| i.on_io(site)) {
            Some(FaultAction::Error(e)) => return Err(e),
            Some(FaultAction::ShortIo) => true,
            None => false,
        };
        let mut b = match std::fs::read(path) {
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
    })
}

/// The body of a state file whose trailing CRC32 matches it, and that CRC.
fn checked_body(bytes: &[u8]) -> Option<(&[u8], u32)> {
    let (body, crc) = bytes.split_at(bytes.len().checked_sub(4)?);
    let crc = u32::from_le_bytes(crc.try_into().ok()?);
    (binary::crc32(body) == crc).then_some((body, crc))
}

/// Write `state` at sequence `seq` atomically as the base (format version
/// 3, the flat layout `io::tests::snapshot_bytes_keep_the_flat_layout`
/// pins for the graph section), streamed section by section. Returns what
/// names the new base.
pub(crate) fn write_snapshot<V: SnapshotValue>(
    config: &DurabilityConfig,
    seq: u64,
    state: &SnapshotState<'_, V>,
    faults: Option<&FaultInjector>,
) -> io::Result<BaseStamp> {
    let (crc, bytes) = write_atomically(
        config,
        &config.snapshot_path(),
        (FaultSite::SnapshotWrite, FaultSite::SnapshotRename),
        faults,
        |out| {
            write_header(out, SNAPSHOT_MAGIC, SNAPSHOT_VERSION, V::TAG, seq)?;
            write_stats(out, &state.stats)?;
            binary::write_graph(out, state.graph)?;
            write_values(out, state.values)?;
            write_partitioning(out, state.num_parts, state.owners)?;
            write_remap(out, state.graph)
        },
    )?;
    Ok(BaseStamp { seq, crc, bytes })
}

/// Load and validate the current base.
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
    let Some(bytes) = read_state_file(config, &path, FaultSite::SnapshotRead, faults)? else {
        return Err(DurabilityError::MissingSnapshot(path));
    };
    let corrupt = |reason: &'static str| DurabilityError::CorruptSnapshot { reason };
    if bytes.len() < 4 {
        return Err(corrupt("shorter than its checksum"));
    }
    let (body, crc) = checked_body(&bytes).ok_or_else(|| corrupt("checksum mismatch"))?;
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
    let stats = read_stats(&mut r).ok_or_else(|| corrupt("truncated stats"))?;
    let graph = binary::decode_graph(&mut r).ok_or_else(|| corrupt("invalid graph section"))?;
    let n = graph.num_vertices();
    let values = read_values(&mut r).ok_or_else(|| corrupt("truncated values"))?;
    if values.len() != n {
        return Err(corrupt("value count does not match the graph"));
    }
    let (num_parts, owners) = read_partitioning(&mut r, n).map_err(corrupt)?;
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
        stamp: BaseStamp {
            seq,
            crc,
            bytes: bytes.len() as u64,
        },
        stats,
        graph,
        values,
        owners,
        num_parts,
    })
}

/// Write `state` at sequence `seq` atomically as the checkpoint over `base`:
/// a header naming the base by sequence number and CRC, the stats, the
/// values and the owners, under one trailing CRC — no adjacency. Returns the
/// file's byte length.
pub(crate) fn write_checkpoint<V: SnapshotValue>(
    config: &DurabilityConfig,
    seq: u64,
    base: &BaseStamp,
    state: &SnapshotState<'_, V>,
    faults: Option<&FaultInjector>,
) -> io::Result<u64> {
    let (_, bytes) = write_atomically(
        config,
        &config.checkpoint_path(),
        (FaultSite::CheckpointWrite, FaultSite::CheckpointRename),
        faults,
        |out| {
            write_header(out, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, V::TAG, seq)?;
            out.write_all(&base.seq.to_le_bytes())?;
            out.write_all(&base.crc.to_le_bytes())?;
            write_stats(out, &state.stats)?;
            write_values(out, state.values)?;
            write_partitioning(out, state.num_parts, state.owners)
        },
    )?;
    Ok(bytes)
}

/// Load the current checkpoint, under the config's retry budget and the
/// [`FaultSite::CheckpointRead`] site. `Ok(None)` when there is none or it
/// fails its checksum or a structural check: recovery then falls back to
/// the base, which is slower but just as exact, so a bad checkpoint is not an
/// error. A read that keeps failing is one.
pub(crate) fn read_checkpoint<V: SnapshotValue>(
    config: &DurabilityConfig,
    faults: Option<&FaultInjector>,
) -> io::Result<Option<LoadedCheckpoint<V>>> {
    let path = config.checkpoint_path();
    let bytes = read_state_file(config, &path, FaultSite::CheckpointRead, faults)?;
    Ok(bytes.as_deref().and_then(decode_checkpoint))
}

fn decode_checkpoint<V: SnapshotValue>(bytes: &[u8]) -> Option<LoadedCheckpoint<V>> {
    let (body, _) = checked_body(bytes)?;
    let mut r = Reader::new(body);
    if r.u32()? != CHECKPOINT_MAGIC || r.u32()? != CHECKPOINT_VERSION || r.u8()? != V::TAG {
        return None;
    }
    let seq = r.u64()?;
    let base_seq = r.u64()?;
    let base_crc = r.u32()?;
    let stats = read_stats(&mut r)?;
    let values = read_values(&mut r)?;
    let (num_parts, owners) = read_partitioning(&mut r, values.len()).ok()?;
    r.is_empty().then_some(LoadedCheckpoint {
        seq,
        base_seq,
        base_crc,
        stats,
        values,
        owners,
        num_parts,
    })
}

/// Delete the checkpoint, if there is one, and fsync the directory so the
/// deletion survives power loss. Always safe: the WAL holds every entry
/// since the base, so a checkpoint only bounds how many of them recovery
/// runs through the engine.
pub(crate) fn remove_checkpoint(config: &DurabilityConfig) -> io::Result<()> {
    match std::fs::remove_file(config.checkpoint_path()) {
        Ok(()) => sync_dir(&config.dir),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

/// fsync the directory so a just-renamed state file survives power loss.
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
    /// Sequence number the last state write (checkpoint or base) covers:
    /// the checkpoint cadence counts batches from here.
    pub state_seq: u64,
    /// The WAL length right after that write: the 1 MiB trigger counts WAL
    /// bytes from here, not from the start of a file that a failing trim
    /// leaves in place.
    pub state_mark: u64,
    /// The base every checkpoint names.
    pub base: BaseStamp,
    /// The WAL length right after the base was written: the base trigger
    /// counts WAL bytes from here.
    pub base_mark: u64,
    /// `true` while no checkpoint can extend `base`: before the first base
    /// is written, and once a remap changed the physical layout since. The
    /// next state write is then a base alone.
    pub base_stale: bool,
    /// The WAL length a rejected batch's frame must be cut back to, while
    /// that cut has not succeeded yet.
    pub pending_cut: Option<u64>,
    pub counters: DurabilityCounters,
}

impl DurabilityState {
    /// The state of a server whose first base is still to be written.
    pub fn fresh(config: DurabilityConfig, wal: Wal) -> Self {
        Self {
            config,
            wal,
            seq: 0,
            state_seq: 0,
            state_mark: 0,
            base: BaseStamp::default(),
            base_mark: 0,
            base_stale: true,
            pending_cut: None,
            counters: DurabilityCounters::zero(),
        }
    }

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

    /// Whether the cadence calls for a state write: the batches or the WAL
    /// bytes since the last one.
    pub fn checkpoint_due(&self) -> bool {
        self.seq.saturating_sub(self.state_seq) >= self.config.snapshot_every_batches
            || self.wal.bytes().saturating_sub(self.state_mark) >= SNAPSHOT_WAL_BYTES
    }

    /// WAL bytes appended since the current base was written.
    pub fn wal_bytes_since_base(&self) -> u64 {
        self.wal.bytes().saturating_sub(self.base_mark)
    }

    /// Whether this state write must also write a new base.
    pub fn base_due(&self) -> bool {
        self.base_stale
            || self.wal_bytes_since_base().saturating_mul(BASE_WAL_DIVISOR) >= self.base.bytes
    }

    /// Write `state` as a checkpoint over the current base.
    pub fn write_checkpoint<V: SnapshotValue>(
        &mut self,
        state: &SnapshotState<'_, V>,
        faults: Option<&FaultInjector>,
    ) -> io::Result<()> {
        let bytes = write_checkpoint(&self.config, self.seq, &self.base, state, faults)?;
        self.counters.snapshots_written += 1;
        self.counters.snapshot_bytes_written += bytes;
        self.state_seq = self.seq;
        self.state_mark = self.wal.bytes();
        Ok(())
    }

    /// Write `state` as the new base, then trim the WAL: every logged batch
    /// is now folded into the base. `Ok(false)` when the base landed but the
    /// trim failed — harmless, because replay skips entries at or below the
    /// base's sequence number, so a failed trim costs replay time, never
    /// correctness (the same holds if the process dies before the trim).
    pub fn write_base<V: SnapshotValue>(
        &mut self,
        state: &SnapshotState<'_, V>,
        faults: Option<&FaultInjector>,
    ) -> io::Result<bool> {
        let base = write_snapshot(&self.config, self.seq, state, faults)?;
        self.counters.snapshots_written += 1;
        self.counters.snapshot_bytes_written += base.bytes;
        self.counters.base_writes += 1;
        self.counters.base_bytes_written += base.bytes;
        self.base = base;
        self.base_stale = false;
        let trimmed = self.wal.truncate_to(0).is_ok();
        self.state_seq = self.seq;
        self.state_mark = self.wal.bytes();
        self.base_mark = self.wal.bytes();
        Ok(trimmed)
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

    /// `bytes_through(seq)` is the log's length right after entry `seq` was
    /// appended: what the state-write cadence counts WAL bytes from after a
    /// reopen.
    #[test]
    fn bytes_through_is_the_log_length_after_each_entry() {
        let dir = tmp_dir("through");
        let path = dir.join("wal.log");
        let mut rng = SplitMix64::seed_from_u64(31);
        let mut lengths = Vec::new();
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            for seq in 4..=7u64 {
                wal.append(seq, &random_batch(&mut rng, 5)).unwrap();
                lengths.push(wal.bytes());
            }
        }
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.bytes_through(3), 0);
        for (seq, len) in (4..=7).zip(&lengths) {
            assert_eq!(replay.bytes_through(seq), *len, "entry {seq}");
        }
        assert_eq!(replay.bytes_through(99), replay.valid_bytes);
        std::fs::remove_dir_all(&dir).unwrap();
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

//! Plain-text edge-list I/O.
//!
//! The format is the SNAP-style whitespace-separated edge list the paper's datasets
//! ship in: one edge per line, `src dst [weight]`, with `#`-prefixed comment lines.

use crate::builder::GraphBuilder;
use crate::graph::Graph;
use crate::types::{EdgeWeight, VertexId, INVALID_VERTEX};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Errors produced while parsing an edge list.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line could not be parsed; carries the 1-based line number and its content.
    Parse { line: usize, content: String },
    /// A vertex id falls outside the valid id space: at or above the header's
    /// declared vertex count, or — absent a header — at or above
    /// [`crate::INVALID_VERTEX`] (the reserved sentinel). Earlier revisions
    /// silently truncated such ids through the `u32` parse; a graph quietly
    /// missing declared vertices is far worse than a load failure, so this is
    /// now a structured error carrying the 1-based line and the offending id.
    IdOutOfRange {
        /// 1-based line number of the offending edge.
        line: usize,
        /// The offending vertex id as written in the file.
        id: u64,
        /// First invalid id: the declared vertex count when a header bounds
        /// the id space, the sentinel otherwise.
        limit: u64,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error: {e}"),
            LoadError::Parse { line, content } => {
                write!(f, "parse error on line {line}: {content:?}")
            }
            LoadError::IdOutOfRange { line, id, limit } => {
                write!(
                    f,
                    "vertex id {id} on line {line} is outside the valid id space (limit {limit})"
                )
            }
        }
    }
}

impl std::error::Error for LoadError {}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// Extract the declared vertex count from the header comment this module's
/// writer emits (`# slfe edge list: N vertices, M edges`). Foreign comment
/// lines simply do not match.
fn declared_vertices(comment: &str) -> Option<usize> {
    let rest = comment.strip_prefix("# slfe edge list:")?.trim_start();
    let count_tok = rest.split_whitespace().next()?;
    rest.split_whitespace()
        .nth(1)
        .filter(|&unit| unit.starts_with("vertices"))?;
    count_tok.parse().ok()
}

/// Parse an edge list from any reader. Lines beginning with `#` or `%` and blank
/// lines are skipped, except that this module's own header comment
/// (`# slfe edge list: N vertices, ...`) declares the vertex count: the graph
/// then gets exactly `N` vertices (isolated trailing vertices survive a
/// round-trip) and any edge endpoint `>= N` is a [`LoadError::IdOutOfRange`]
/// instead of silently growing — or, before this check existed, silently
/// corrupting — the id space. Each remaining line must be `src dst` or
/// `src dst weight`.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<Graph, LoadError> {
    let mut builder = GraphBuilder::new();
    let mut declared: Option<usize> = None;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            if declared.is_none() {
                if let Some(n) = declared_vertices(trimmed) {
                    // The id space tops out below the sentinel; a header
                    // declaring more vertices than that describes a graph
                    // this format cannot hold (and would otherwise drive a
                    // huge allocation), so it fails at the header line.
                    if n as u64 > INVALID_VERTEX as u64 {
                        return Err(LoadError::Parse {
                            line: idx + 1,
                            content: line,
                        });
                    }
                    declared = Some(n);
                    builder = builder.with_vertices(n);
                }
            }
            continue;
        }
        // Ids parse as u64 first so an id too large for `VertexId` is reported
        // as the id it actually was, not as a generic parse failure. A header
        // may declare any count, but the id space itself still tops out at
        // the sentinel — without the cap, a declared count past 2^32 would
        // let huge ids through to a silently wrapping `as VertexId` cast.
        let limit = declared
            .map(|n| (n as u64).min(INVALID_VERTEX as u64))
            .unwrap_or(INVALID_VERTEX as u64);
        let mut parts = trimmed.split_whitespace();
        let parse = |tok: Option<&str>| -> Option<u64> { tok?.parse().ok() };
        let src = parse(parts.next());
        let dst = parse(parts.next());
        let weight: Option<EdgeWeight> = match parts.next() {
            None => Some(1.0),
            Some(tok) => tok.parse().ok(),
        };
        match (src, dst, weight) {
            (Some(s), Some(d), Some(w)) if parts.next().is_none() => {
                if let Some(&id) = [s, d].iter().find(|&&id| id >= limit) {
                    return Err(LoadError::IdOutOfRange {
                        line: idx + 1,
                        id,
                        limit,
                    });
                }
                builder.add_edge(s as VertexId, d as VertexId, w);
            }
            _ => {
                return Err(LoadError::Parse {
                    line: idx + 1,
                    content: line,
                });
            }
        }
    }
    Ok(builder.build())
}

/// Load an edge-list file from disk.
pub fn load_edge_list(path: impl AsRef<Path>) -> Result<Graph, LoadError> {
    let file = File::open(path)?;
    read_edge_list(BufReader::new(file))
}

/// Write a graph as a weighted edge list.
pub fn write_edge_list<W: Write>(graph: &Graph, mut writer: W) -> io::Result<()> {
    writeln!(
        writer,
        "# slfe edge list: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    for v in graph.vertices() {
        for (u, w) in graph.out_edges(v) {
            writeln!(writer, "{v} {u} {w}")?;
        }
    }
    Ok(())
}

/// Save a graph as a weighted edge-list file.
pub fn save_edge_list(graph: &Graph, path: impl AsRef<Path>) -> io::Result<()> {
    let file = File::create(path)?;
    let mut writer = BufWriter::new(file);
    write_edge_list(graph, &mut writer)?;
    writer.flush()
}

/// Little-endian binary primitives, a CRC32 checksum, and an *exact* graph
/// codec — the building blocks of the out-of-core segments
/// ([`crate::storage`]) and of the durability layer (WAL frames and snapshot
/// files in `slfe-delta`).
///
/// Every one of those checksums runs through
/// [`crc32_update`](binary::crc32_update) (and [`crc32`](binary::crc32), its
/// one-shot form), the one place that picks a kernel. From 128 bytes up, on
/// an x86-64 CPU with carry-less multiplication (PCLMULQDQ), it folds the
/// input 64 bytes at a time (Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction", Intel, 2009, the scheme of the
/// Linux kernel's `crc32-pclmul`); everywhere else, and for the last 0–15
/// bytes, it runs a portable slicing-by-16 table kernel (Kounavis & Berry,
/// ISCC'05). In a release build on one core of a 2-vCPU x86-64 VM the
/// folding kernel checks an 8 KiB segment in ≈0.42 µs (≈19 GB/s) against
/// ≈4.9 µs (≈1.7 GB/s) for the table kernel, and every checksum is
/// bit-identical.
///
/// The graph codec persists both directions' per-vertex lists in entry order,
/// as flat CSR/CSC arrays (global offsets, neighbors, weights), rather than an
/// edge list: rebuilding from edges re-sorts adjacency lists with
/// `sort_unstable`, which may reorder duplicate `(src, dst)` pairs carrying
/// different weights. Arithmetic programs fold weights in physical array
/// order, so recovery-to-bit-equality needs the *physical* representation
/// back, not merely an equivalent multigraph. The flat layout does not depend
/// on how [`crate::Adjacency`] cuts its lists into blocks.
pub mod binary {
    use crate::csr::Adjacency;
    use crate::graph::Graph;
    use crate::types::VertexId;
    use std::io::{self, Write};

    /// Slicing-by-16 tables for CRC32 (IEEE 802.3, reflected polynomial
    /// 0xEDB88320), built at compile time. Row 0 is the classic byte table;
    /// row `k` advances a byte's contribution past `k` further zero bytes, so
    /// one 16-byte step XORs 16 independent lookups (Kounavis & Berry,
    /// ISCC'05).
    static CRC_TABLES: [[u32; 256]; 16] = {
        let mut tables = [[0u32; 256]; 16];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            tables[0][i] = crc;
            i += 1;
        }
        let mut k = 1;
        while k < 16 {
            let mut i = 0;
            while i < 256 {
                let prev = tables[k - 1][i];
                tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
                i += 1;
            }
            k += 1;
        }
        tables
    };

    /// CRC32 (IEEE) of `bytes` — the checksum guarding out-of-core segments,
    /// WAL frames and snapshot files against torn writes and bit flips.
    /// Equal to `crc32_update(0, bytes)`, whose kernels it shares: ≈0.42 µs
    /// per 8 KiB segment (≈19 GB/s) on one core of a 2-vCPU x86-64 VM with
    /// PCLMULQDQ.
    pub fn crc32(bytes: &[u8]) -> u32 {
        crc32_update(0, bytes)
    }

    /// The shortest input the folding kernel takes: two 64-byte lines. The
    /// kernel needs one line to start and is already faster than the table
    /// kernel there (≈9 against ≈25 ns for 64 bytes, hot cache), but the
    /// inputs checksummed at volume (segments, state files, WAL frames of
    /// multi-update batches) are all longer, so shorter ones stay on the
    /// portable kernel.
    const FOLD_MIN_BYTES: usize = 128;

    /// Continue a CRC32 (IEEE): `crc` is the checksum of the bytes before
    /// `bytes` (0 for none), and the result is the checksum of both, so
    /// `crc32_update(crc32(a), b) == crc32(a ‖ b)` and input split across
    /// buffers needs no copy into one.
    ///
    /// The one place that picks a kernel: the carry-less-multiply folding
    /// kernel for the 16-byte blocks of an input of at least 128 bytes on an
    /// x86-64 CPU that reports PCLMULQDQ, then the slicing-by-16 table kernel
    /// for the rest. Both compute the same register, so the choice never
    /// shows in a checksum.
    pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
        let raw = !crc;
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= FOLD_MIN_BYTES && std::is_x86_feature_detected!("pclmulqdq") {
            let (blocks, tail) = bytes.split_at(bytes.len() & !15);
            // SAFETY: `fold::crc32` asks only that the CPU support the
            // pclmulqdq target feature it is compiled for, which the
            // runtime check above just confirmed; it reads its input
            // through bounds-checked slice accesses, so no load can leave
            // `blocks`.
            let raw = unsafe { fold::crc32(raw, blocks) };
            return !table_kernel(raw, tail);
        }
        !table_kernel(raw, bytes)
    }

    /// The slicing-by-16 kernel: the raw (uninverted) CRC register after
    /// `bytes`, from the raw register `raw`. The portable path, the path for
    /// short inputs and tails, and the folding kernel's test oracle.
    pub(crate) fn table_kernel(raw: u32, bytes: &[u8]) -> u32 {
        let t = &CRC_TABLES;
        let mut crc = raw;
        let mut blocks = bytes.chunks_exact(16);
        for b in &mut blocks {
            let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            crc = t[15][(lo & 0xFF) as usize]
                ^ t[14][((lo >> 8) & 0xFF) as usize]
                ^ t[13][((lo >> 16) & 0xFF) as usize]
                ^ t[12][(lo >> 24) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        for &b in blocks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc
    }

    /// CRC32 by carry-less multiplication: four 128-bit lanes fold across
    /// each 64-byte line, then into one lane, which reduces to 64 and 32
    /// bits and ends in a Barrett reduction (Gopal et al., Intel, 2009). The
    /// constants are those of the Linux kernel's
    /// `arch/x86/crypto/crc32-pclmul_asm.S` for the reflected polynomial
    /// 0xEDB88320, each bit-reflected and shifted left by one.
    #[cfg(target_arch = "x86_64")]
    mod fold {
        use std::arch::x86_64::{
            __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
            _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
        };

        /// Fold a lane across 512 bits: x^(4·128+32) and x^(4·128−32) mod P.
        const R1: i64 = 0x1_5444_2bd4;
        const R2: i64 = 0x1_c6e4_1596;
        /// Fold a lane across 128 bits: x^(128+32) and x^(128−32) mod P.
        const R3: i64 = 0x1_7519_97d0;
        const R4: i64 = 0x0_ccaa_009e;
        /// Reduce 64 bits to 32: x^64 mod P.
        const R5: i64 = 0x1_63cd_6124;
        /// Barrett reduction: the quotient μ = ⌊x^64 / P⌋ and P′, the
        /// polynomial itself.
        const MU: i64 = 0x1_f701_1641;
        const P: i64 = 0x1_db71_0641;

        /// The raw CRC register after `blocks`, from the raw register `raw`.
        /// `blocks` holds whole 16-byte blocks, at least four of them.
        #[target_feature(enable = "pclmulqdq")]
        pub(super) fn crc32(raw: u32, blocks: &[u8]) -> u32 {
            assert!(blocks.len() >= 64 && blocks.len().is_multiple_of(16));
            let (first, rest) = blocks.split_at(64);
            let mut lanes = [0, 1, 2, 3].map(|i| load(&first[16 * i..16 * i + 16]));
            lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(raw as i32));
            let by_512 = _mm_set_epi64x(R2, R1);
            let mut lines = rest.chunks_exact(64);
            for line in &mut lines {
                for (i, lane) in lanes.iter_mut().enumerate() {
                    *lane = fold(*lane, load(&line[16 * i..16 * i + 16]), by_512);
                }
            }
            let by_128 = _mm_set_epi64x(R4, R3);
            let mut x = lanes[0];
            for &lane in &lanes[1..] {
                x = fold(x, lane, by_128);
            }
            for block in lines.remainder().chunks_exact(16) {
                x = fold(x, load(block), by_128);
            }
            // 128 → 64 bits: the low half times R4, onto the high half.
            let x = _mm_xor_si128(_mm_clmulepi64_si128(x, by_128, 0x10), _mm_srli_si128(x, 8));
            // 64 → 32 bits: the low 32 bits times R5, onto the rest.
            let low32 = _mm_set_epi32(0, 0, 0, -1);
            let x = _mm_xor_si128(
                _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, R5), 0x00),
                _mm_srli_si128(x, 4),
            );
            // Barrett: T1 = (x mod x^32)·μ, T2 = (T1 mod x^32)·P, and the
            // register is bits 32..64 of x ⊕ T2.
            let barrett = _mm_set_epi64x(MU, P);
            let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett, 0x10);
            let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), barrett, 0x00);
            _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x, t2), 4)) as u32
        }

        /// `x` carried 128 or 512 bits forward (its halves times `k`'s), onto
        /// the lane `next`.
        #[target_feature(enable = "pclmulqdq")]
        fn fold(x: __m128i, next: __m128i, k: __m128i) -> __m128i {
            let low = _mm_clmulepi64_si128(x, k, 0x00);
            let high = _mm_clmulepi64_si128(x, k, 0x11);
            _mm_xor_si128(_mm_xor_si128(low, high), next)
        }

        /// One 16-byte block as a lane, little-endian.
        #[target_feature(enable = "pclmulqdq")]
        fn load(block: &[u8]) -> __m128i {
            let word = |half: &[u8]| i64::from_le_bytes(half.try_into().expect("8-byte half"));
            _mm_set_epi64x(word(&block[8..16]), word(&block[..8]))
        }
    }

    /// Append a `u8`.
    pub fn put_u8(out: &mut Vec<u8>, v: u8) {
        out.push(v);
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f32` as its exact bit pattern.
    pub fn put_f32(out: &mut Vec<u8>, v: f32) {
        put_u32(out, v.to_bits());
    }

    /// Bounds-checked cursor over a byte buffer. Every read returns `None`
    /// past the end instead of panicking, so corrupt or truncated input
    /// degrades into a structured decode failure.
    pub struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        /// Start reading at the beginning of `buf`.
        pub fn new(buf: &'a [u8]) -> Self {
            Self { buf, pos: 0 }
        }

        /// Take the next `n` raw bytes.
        pub fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
            let end = self.pos.checked_add(n)?;
            let slice = self.buf.get(self.pos..end)?;
            self.pos = end;
            Some(slice)
        }

        /// Read a `u8`.
        pub fn u8(&mut self) -> Option<u8> {
            self.bytes(1).map(|b| b[0])
        }

        /// Read a little-endian `u32`.
        pub fn u32(&mut self) -> Option<u32> {
            self.bytes(4)
                .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
        }

        /// Read a little-endian `u64`.
        pub fn u64(&mut self) -> Option<u64> {
            self.bytes(8)
                .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        }

        /// Read an `f32` bit pattern.
        pub fn f32(&mut self) -> Option<f32> {
            self.u32().map(f32::from_bits)
        }

        /// Bytes not yet consumed.
        pub fn remaining(&self) -> usize {
            self.buf.len() - self.pos
        }

        /// `true` when every byte has been consumed.
        pub fn is_empty(&self) -> bool {
            self.remaining() == 0
        }
    }

    /// One direction in the flat layout: the edge count, `n + 1` global
    /// offsets, then every neighbor and then every weight, in vertex order,
    /// read from the blocks a run at a time.
    fn write_adjacency(out: &mut impl Write, adj: &Adjacency) -> io::Result<()> {
        let all = 0..adj.num_vertices() as VertexId;
        out.write_all(&(adj.num_edges() as u64).to_le_bytes())?;
        out.write_all(&0u64.to_le_bytes())?;
        let mut base = 0u64;
        for (offsets, targets, _) in adj.runs(all.clone()) {
            for &end in &offsets[1..] {
                out.write_all(&(base + (end - offsets[0]) as u64).to_le_bytes())?;
            }
            base += targets.len() as u64;
        }
        for (_, targets, _) in adj.runs(all.clone()) {
            for t in targets {
                out.write_all(&t.to_le_bytes())?;
            }
        }
        for (_, _, weights) in adj.runs(all) {
            for w in weights {
                out.write_all(&w.to_le_bytes())?;
            }
        }
        Ok(())
    }

    fn decode_adjacency(r: &mut Reader<'_>, num_vertices: usize) -> Option<Adjacency> {
        let num_edges = r.u64()?;
        let num_edges = usize::try_from(num_edges).ok()?;
        // Refuse to allocate more than the buffer could possibly hold — a
        // corrupt length must fail cleanly, not drive a huge allocation.
        if num_edges > r.remaining() / 4 {
            return None;
        }
        let mut offsets = Vec::with_capacity(num_vertices + 1);
        let mut prev = 0usize;
        for i in 0..=num_vertices {
            let off = usize::try_from(r.u64()?).ok()?;
            if off < prev || off > num_edges || (i == 0 && off != 0) {
                return None;
            }
            prev = off;
            offsets.push(off);
        }
        if *offsets.last()? != num_edges {
            return None;
        }
        let targets = r.bytes(num_edges * 4)?;
        let weights = r.bytes(num_edges * 4)?;
        let word = |bytes: &[u8], i: usize| {
            u32::from_le_bytes(bytes[i * 4..i * 4 + 4].try_into().expect("4-byte word"))
        };
        if (0..num_edges).any(|i| word(targets, i) as usize >= num_vertices) {
            return None;
        }
        Some(Adjacency::from_lists(num_vertices, |v| {
            let entries = offsets[v]..offsets[v + 1];
            (
                entries.clone().map(|i| word(targets, i) as VertexId),
                entries.map(|i| f32::from_bits(word(weights, i))),
            )
        }))
    }

    /// Write the exact physical encoding of `graph` (vertex count plus the
    /// flat arrays of both adjacency directions) to `out` in pieces, so a
    /// file streamed through a bounded buffer never holds the whole encoding
    /// in memory.
    pub fn write_graph(out: &mut impl Write, graph: &Graph) -> io::Result<()> {
        out.write_all(&(graph.num_vertices() as u64).to_le_bytes())?;
        write_adjacency(out, graph.out_adjacency())?;
        write_adjacency(out, graph.in_adjacency())
    }

    /// Decode a graph previously written by [`write_graph`], validating the
    /// structure (monotone offsets, in-range neighbor ids, matching edge
    /// counts in both directions). Returns `None` on any inconsistency.
    pub fn decode_graph(r: &mut Reader<'_>) -> Option<Graph> {
        let n = usize::try_from(r.u64()?).ok()?;
        // An adjacency stores n+1 offsets of 8 bytes each per direction.
        if n > r.remaining() / 16 {
            return None;
        }
        let out = decode_adjacency(r, n)?;
        let incoming = decode_adjacency(r, n)?;
        if out.num_edges() != incoming.num_edges() {
            return None;
        }
        Some(Graph::from_parts(n, out, incoming))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_unweighted_and_weighted_lines() {
        let input = "# comment\n0 1\n1 2 3.5\n\n% another comment\n2 0 1\n";
        let g = read_edge_list(Cursor::new(input)).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_weights(1), &[3.5]);
        assert_eq!(g.out_weights(0), &[1.0]);
    }

    #[test]
    fn reports_parse_error_with_line_number() {
        let input = "0 1\nnot an edge\n";
        let err = read_edge_list(Cursor::new(input)).unwrap_err();
        match err {
            LoadError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn rejects_trailing_tokens() {
        let input = "0 1 2.0 junk\n";
        assert!(read_edge_list(Cursor::new(input)).is_err());
    }

    #[test]
    fn round_trips_through_text() {
        let g = crate::generators::rmat(32, 100, 0.57, 0.19, 0.19, 5);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(Cursor::new(buf)).unwrap();
        assert_eq!(g.num_edges(), g2.num_edges());
        // The header declares the vertex count, so even trailing isolated
        // vertices are reconstructed exactly.
        assert_eq!(g2.num_vertices(), g.num_vertices());
        for v in g2.vertices() {
            assert_eq!(g.out_neighbors(v), g2.out_neighbors(v));
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("slfe_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.el");
        let g = crate::generators::path(6);
        save_edge_list(&g, &path).unwrap();
        let g2 = load_edge_list(&path).unwrap();
        assert_eq!(g2.num_edges(), 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn id_past_the_declared_vertex_count_is_a_structured_error() {
        let input = "# slfe edge list: 4 vertices, 2 edges\n0 1\n2 9 1.5\n";
        match read_edge_list(Cursor::new(input)).unwrap_err() {
            LoadError::IdOutOfRange { line, id, limit } => {
                assert_eq!(line, 3);
                assert_eq!(id, 9);
                assert_eq!(limit, 4);
            }
            other => panic!("expected IdOutOfRange, got {other}"),
        }
        // The source id is checked too.
        let input = "# slfe edge list: 4 vertices, 1 edges\n7 0\n";
        match read_edge_list(Cursor::new(input)).unwrap_err() {
            LoadError::IdOutOfRange { line, id, .. } => {
                assert_eq!((line, id), (2, 7));
            }
            other => panic!("expected IdOutOfRange, got {other}"),
        }
    }

    #[test]
    fn ids_outside_the_u32_id_space_are_rejected_not_truncated() {
        // u32::MAX is the INVALID_VERTEX sentinel; anything at or above it
        // must fail loudly with the offending id, not wrap or vanish.
        for bad in [u32::MAX as u64, u32::MAX as u64 + 1, 99_999_999_999] {
            let input = format!("0 1\n1 {bad}\n");
            match read_edge_list(Cursor::new(input)).unwrap_err() {
                LoadError::IdOutOfRange { line, id, limit } => {
                    assert_eq!(line, 2);
                    assert_eq!(id, bad);
                    assert_eq!(limit, u32::MAX as u64);
                }
                other => panic!("expected IdOutOfRange for {bad}, got {other}"),
            }
        }
    }

    #[test]
    fn declared_vertex_count_preserves_isolated_trailing_vertices() {
        let g = crate::generators::path(4); // 4 vertices, 3 edges
        let mut buf = Vec::new();
        writeln!(
            buf,
            "# slfe edge list: 10 vertices, {} edges",
            g.num_edges()
        )
        .unwrap();
        for v in g.vertices() {
            for (u, w) in g.out_edges(v) {
                writeln!(buf, "{v} {u} {w}").unwrap();
            }
        }
        let loaded = read_edge_list(Cursor::new(buf)).unwrap();
        assert_eq!(loaded.num_vertices(), 10);
        assert_eq!(loaded.num_edges(), 3);
        assert_eq!(loaded.out_degree(9), 0);
    }

    #[test]
    fn oversized_declared_counts_do_not_reopen_the_wrapping_cast() {
        // A header claiming more vertices than the u32 id space holds is
        // rejected at the header line — its huge ids must never reach the
        // (wrapping) `as VertexId` cast, nor drive a giant allocation.
        let input = "# slfe edge list: 6000000000 vertices, 1 edges\n4294967296 1\n";
        match read_edge_list(Cursor::new(input)).unwrap_err() {
            LoadError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("expected Parse at the header, got {other}"),
        }
    }

    #[test]
    fn foreign_comments_do_not_declare_a_vertex_count() {
        let input = "# 2 vertices of interest\n0 5\n";
        let g = read_edge_list(Cursor::new(input)).unwrap();
        assert_eq!(g.num_vertices(), 6);
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The standard check vector for CRC32/IEEE.
        assert_eq!(binary::crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(binary::crc32(b""), 0);
    }

    /// The byte-at-a-time CRC32 loop the slicing kernel replaced, kept as
    /// the oracle: its own table, one lookup per byte.
    fn reference_crc32(bytes: &[u8]) -> u32 {
        const CRC_TABLE: [u32; 256] = {
            let mut table = [0u32; 256];
            let mut i = 0;
            while i < 256 {
                let mut crc = i as u32;
                let mut bit = 0;
                while bit < 8 {
                    crc = if crc & 1 != 0 {
                        (crc >> 1) ^ 0xEDB8_8320
                    } else {
                        crc >> 1
                    };
                    bit += 1;
                }
                table[i] = crc;
                i += 1;
            }
            table
        };
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    fn seeded_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = crate::rng::SplitMix64::seed_from_u64(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn slicing_crc32_equals_the_byte_at_a_time_reference() {
        // Every length through four 16-byte steps plus every tail, at every
        // alignment of the slice start.
        let buf = seeded_bytes(16 + 64, 41);
        for start in 0..16 {
            for len in 0..=64 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    binary::crc32(bytes),
                    reference_crc32(bytes),
                    "start {start}, len {len}"
                );
            }
        }
        for len in [64 << 10, (1 << 20) + 13] {
            let bytes = seeded_bytes(len, len as u64);
            assert_eq!(binary::crc32(&bytes), reference_crc32(&bytes), "len {len}");
        }
    }

    #[test]
    fn streaming_crc32_equals_the_one_shot_value_at_every_cut() {
        let small = seeded_bytes(100, 43);
        let whole = binary::crc32(&small);
        for cut in 0..=small.len() {
            let (a, b) = small.split_at(cut);
            assert_eq!(
                binary::crc32_update(binary::crc32(a), b),
                whole,
                "cut {cut}"
            );
        }
        let big = seeded_bytes(64 << 10, 47);
        let whole = binary::crc32(&big);
        for cut in [15, 16, 17, 65535] {
            let (a, b) = big.split_at(cut);
            assert_eq!(
                binary::crc32_update(binary::crc32(a), b),
                whole,
                "cut {cut}"
            );
        }
    }

    /// `crc32_update` against the table kernel alone, which it runs below
    /// 128 bytes and for tails: seeded random lengths up to 70,000 bytes,
    /// slice starts and seeds, then every length through 300 at 16 starts.
    /// On a CPU with PCLMULQDQ this compares the folding kernel with the
    /// table kernel; elsewhere both sides run the table kernel.
    #[test]
    fn crc32_update_equals_the_table_kernel_at_every_length() {
        let table = |crc: u32, bytes: &[u8]| !binary::table_kernel(!crc, bytes);
        let buf = seeded_bytes(70_000 + 64, 53);
        let mut rng = crate::rng::SplitMix64::seed_from_u64(26);
        for _ in 0..2000 {
            let (len, start) = (rng.range_usize(0, 70_001), rng.range_usize(0, 64));
            let seed = rng.next_u64() as u32;
            let bytes = &buf[start..start + len];
            assert_eq!(
                binary::crc32_update(seed, bytes),
                table(seed, bytes),
                "len {len}, start {start}, seed {seed:#x}"
            );
        }
        for start in 0..16 {
            for len in 0..=300 {
                let seed = rng.next_u64() as u32;
                let bytes = &buf[start..start + len];
                assert_eq!(
                    binary::crc32_update(seed, bytes),
                    table(seed, bytes),
                    "len {len}, start {start}, seed {seed:#x}"
                );
            }
        }
        // The streaming identity on both sides of the 128-byte switch.
        for len in [300, 4099] {
            let bytes = &buf[..len];
            let whole = binary::crc32(bytes);
            for cut in [0, 15, 16, 17, 127, 128, 129, len - 1] {
                let (a, b) = bytes.split_at(cut);
                assert_eq!(
                    binary::crc32_update(binary::crc32(a), b),
                    whole,
                    "len {len}, cut {cut}"
                );
            }
        }
    }

    #[test]
    fn binary_reader_is_bounds_checked() {
        let mut buf = Vec::new();
        binary::put_u32(&mut buf, 7);
        binary::put_u64(&mut buf, u64::MAX);
        binary::put_f32(&mut buf, -0.0);
        let mut r = binary::Reader::new(&buf);
        assert_eq!(r.u32(), Some(7));
        assert_eq!(r.u64(), Some(u64::MAX));
        assert_eq!(r.f32().map(f32::to_bits), Some((-0.0f32).to_bits()));
        assert!(r.is_empty());
        assert_eq!(r.u8(), None, "reading past the end yields None, not panic");
    }

    #[test]
    fn graph_binary_round_trip_is_physically_exact() {
        // Duplicate (src, dst) pairs with distinct weights pin physical-order
        // preservation: an edge-list rebuild may reorder them, the flat-array
        // codec must not.
        let mut g = crate::Graph::from_edges(
            4,
            vec![
                crate::types::Edge::new(0, 1, 2.0),
                crate::types::Edge::new(0, 1, 1.0),
                crate::types::Edge::new(2, 3, 5.5),
            ],
        );
        // Exercise a patched (post-batch) graph too.
        let mut batch = crate::UpdateBatch::new();
        batch.insert(3, 7, 9.25).delete(2, 3);
        (g, _) = g.apply_batch(&batch);

        let mut buf = Vec::new();
        binary::write_graph(&mut buf, &g).unwrap();
        let mut r = binary::Reader::new(&buf);
        let g2 = binary::decode_graph(&mut r).expect("decodes");
        assert!(r.is_empty());
        assert_eq!(g2.num_vertices(), g.num_vertices());
        assert_eq!(g2.out_adjacency(), g.out_adjacency());
        assert_eq!(g2.in_adjacency(), g.in_adjacency());
    }

    #[test]
    fn snapshot_bytes_keep_the_flat_layout() {
        use crate::types::{Edge, VertexId};
        // One edge, spelled out: the vertex count, then per direction the
        // edge count, n + 1 global offsets, the neighbors and the weights.
        let tiny = crate::Graph::from_edges(2, vec![Edge::new(0, 1, 2.0)]);
        let mut expected = Vec::new();
        for word in [2u64, 1, 0, 1, 1] {
            expected.extend_from_slice(&word.to_le_bytes());
        }
        expected.extend_from_slice(&1u32.to_le_bytes());
        expected.extend_from_slice(&2.0f32.to_le_bytes());
        for word in [1u64, 0, 0, 1] {
            expected.extend_from_slice(&word.to_le_bytes());
        }
        expected.extend_from_slice(&0u32.to_le_bytes());
        expected.extend_from_slice(&2.0f32.to_le_bytes());
        let mut buf = Vec::new();
        binary::write_graph(&mut buf, &tiny).unwrap();
        assert_eq!(buf, expected);

        // Several blocks plus a partial last one, duplicate pairs with
        // distinct weights, patched by a batch that grows the id space
        // across a block boundary.
        let w = crate::csr::BLOCK_VERTICES;
        let n = 2 * w + 100;
        let mut edges = crate::generators::rmat(n, 5 * n, 0.57, 0.19, 0.19, 9)
            .edges()
            .to_vec();
        for v in (0..n as VertexId).step_by(11) {
            let u = (v + 3) % n as VertexId;
            edges.push(Edge::new(v, u, 1.5));
            edges.push(Edge::new(v, u, 4.5));
        }
        let mut batch = crate::UpdateBatch::new();
        batch
            .insert(1, 2, 3.0)
            .delete(11, 14)
            .insert(7, (3 * w + 10) as VertexId, 2.0);
        let (g, _) = crate::Graph::from_edges(n, edges).apply_batch(&batch);
        assert!(g.num_vertices() > 3 * w);

        // The flat reference, built from the per-vertex lists.
        let mut expected = (g.num_vertices() as u64).to_le_bytes().to_vec();
        for adj in [g.out_adjacency(), g.in_adjacency()] {
            let lists: Vec<(&[VertexId], &[f32])> = g
                .vertices()
                .map(|v| (adj.neighbors(v), adj.weights(v)))
                .collect();
            let mut offsets = vec![0u64];
            for (neighbors, _) in &lists {
                offsets.push(offsets.last().unwrap() + neighbors.len() as u64);
            }
            expected.extend_from_slice(&offsets.last().unwrap().to_le_bytes());
            for offset in offsets {
                expected.extend_from_slice(&offset.to_le_bytes());
            }
            for (neighbors, _) in &lists {
                neighbors
                    .iter()
                    .for_each(|t| expected.extend_from_slice(&t.to_le_bytes()));
            }
            for (_, weights) in &lists {
                weights
                    .iter()
                    .for_each(|w| expected.extend_from_slice(&w.to_bits().to_le_bytes()));
            }
        }
        let mut buf = Vec::new();
        binary::write_graph(&mut buf, &g).unwrap();
        assert_eq!(buf, expected);
        let decoded = binary::decode_graph(&mut binary::Reader::new(&buf)).expect("decodes");
        assert_eq!(decoded.out_adjacency(), g.out_adjacency());
        assert_eq!(decoded.in_adjacency(), g.in_adjacency());
    }

    #[test]
    fn corrupt_graph_bytes_decode_to_none_not_panic() {
        let g = crate::generators::rmat(64, 300, 0.57, 0.19, 0.19, 3);
        let mut buf = Vec::new();
        binary::write_graph(&mut buf, &g).unwrap();
        // Truncations at every prefix length must fail cleanly.
        for cut in [0, 1, 7, 8, 9, buf.len() / 2, buf.len() - 1] {
            let mut r = binary::Reader::new(&buf[..cut]);
            assert!(binary::decode_graph(&mut r).is_none(), "cut at {cut}");
        }
        // A flipped byte either fails validation or still decodes into a
        // structurally valid graph (weight bytes carry no structure) — the
        // contract under corruption is "no panic", checksums above this
        // layer decide acceptance.
        for i in 0..buf.len().min(256) {
            let mut bad = buf.clone();
            bad[i] ^= 0xA5;
            let mut r = binary::Reader::new(&bad);
            let _ = binary::decode_graph(&mut r);
        }
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = load_edge_list("/definitely/not/here.el").unwrap_err();
        assert!(matches!(err, LoadError::Io(_)));
        assert!(err.to_string().contains("i/o error"));
    }

    fn assert_graphs_equal(a: &crate::Graph, b: &crate::Graph) {
        assert_eq!(a.num_edges(), b.num_edges());
        for v in a.vertices().filter(|&v| (v as usize) < b.num_vertices()) {
            assert_eq!(a.out_neighbors(v), b.out_neighbors(v), "out list of {v}");
            assert_eq!(a.out_weights(v), b.out_weights(v), "weights of {v}");
        }
    }

    #[test]
    fn comments_blank_lines_and_whitespace_are_skipped() {
        let input = "\n   \n# leading comment\n  0 1  \n\t1 2\t3.5\n% percent comment\n\n2 0\n";
        let g = read_edge_list(Cursor::new(input)).unwrap();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_neighbors(0), &[1]);
        assert_eq!(g.out_weights(1), &[3.5]);
    }

    #[test]
    fn self_loops_survive_a_round_trip() {
        let input = "0 0 2.5\n0 1\n1 1\n";
        let g = read_edge_list(Cursor::new(input)).unwrap();
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(0, 0));
        assert_eq!(g.in_neighbors(1), &[0, 1]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(Cursor::new(buf)).unwrap();
        assert_graphs_equal(&g, &g2);
        assert!(g2.has_edge(0, 0));
        assert_eq!(g2.out_weights(0), &[2.5, 1.0]);
    }

    #[test]
    fn duplicate_edges_survive_a_round_trip() {
        // The format does not deduplicate: multigraph inputs stay multigraphs.
        let input = "0 1 1.0\n0 1 2.0\n0 1 1.0\n1 0\n";
        let g = read_edge_list(Cursor::new(input)).unwrap();
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_neighbors(0), &[1, 1, 1]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(Cursor::new(buf)).unwrap();
        assert_graphs_equal(&g, &g2);
        assert_eq!(g2.out_weights(0), &[1.0, 2.0, 1.0]);
    }

    #[test]
    fn load_save_load_is_a_fixpoint_on_disk() {
        let dir =
            std::env::temp_dir().join(format!("slfe_graph_io_roundtrip_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let first = dir.join("first.el");
        let second = dir.join("second.el");
        let g = crate::generators::rmat(64, 400, 0.57, 0.19, 0.19, 9);

        save_edge_list(&g, &first).unwrap();
        let g1 = load_edge_list(&first).unwrap();
        save_edge_list(&g1, &second).unwrap();
        let g2 = load_edge_list(&second).unwrap();

        assert_graphs_equal(&g, &g1);
        assert_graphs_equal(&g1, &g2);
        // The header's declared vertex count makes load-save-load a byte-level
        // fixpoint from the very first save, isolated trailing vertices included.
        assert_eq!(g1.num_vertices(), g.num_vertices());
        assert_eq!(g1.num_vertices(), g2.num_vertices());
        assert_eq!(
            std::fs::read_to_string(&first).unwrap(),
            std::fs::read_to_string(&second).unwrap()
        );
        std::fs::remove_file(&first).ok();
        std::fs::remove_file(&second).ok();
    }
}

//! The `NBTITRC` binary trace format.
//!
//! A trace is the complete injection schedule of a workload: one record
//! per packet, in non-decreasing cycle order. The wire layout (all
//! integers little-endian):
//!
//! ```text
//! magic     [u8; 8]   b"NBTITRC\0"
//! version   u16       FORMAT_VERSION
//! num_nodes u16       node count the trace was generated for
//! records   u64       total record count across all chunks
//! hcheck    u64       FNV-1a-64 of the 20 bytes above
//! chunks    ...       until end of file:
//!   count     u32     records in this chunk (1 ..= CHUNK_RECORDS)
//!   payload   [u8]    count * RECORD_LEN bytes of records
//!   checksum  u64     FNV-1a-64 of the payload bytes
//! ```
//!
//! Each record is 14 bytes: `cycle u64 | src u16 | dst u16 | len u16`.
//!
//! Corruption is a *value*, never a panic, mirroring the `NBTICAMP`
//! snapshot format: short reads are [`TraceError::Truncated`], a flipped
//! payload bit is [`TraceError::ChunkChecksum`], foreign files are
//! [`TraceError::BadMagic`]/[`TraceError::BadVersion`], and structurally
//! impossible values (zero-length packets, out-of-range nodes, cycles
//! going backwards, trailing bytes) are [`TraceError::Malformed`].
//! Writes are atomic: the writer saves to `<path>.tmp` and renames.

use noc_sim::telemetry::digest::fnv1a_64;
use std::io::Read;
use std::path::Path;

/// File magic, 8 bytes.
pub const MAGIC: [u8; 8] = *b"NBTITRC\0";
/// Current (and only) format version.
pub const FORMAT_VERSION: u16 = 1;
/// Bytes per record on the wire.
pub const RECORD_LEN: usize = 14;
/// Maximum records per chunk; the checksum granularity.
pub const CHUNK_RECORDS: usize = 1024;
/// Fixed header length: magic + version + num_nodes + record count +
/// header checksum.
pub const HEADER_LEN: usize = 8 + 2 + 2 + 8 + 8;

/// One injected packet: who, where, how big, when.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceRecord {
    /// Injection cycle.
    pub cycle: u64,
    /// Source node index.
    pub src: u16,
    /// Destination node index.
    pub dst: u16,
    /// Packet length in flits (non-zero).
    pub len: u16,
}

/// Why a trace could not be read (or a record not be written).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The underlying I/O operation failed.
    Io(String),
    /// The byte stream ended before the advertised content did.
    Truncated,
    /// The first bytes are not the `NBTITRC` magic.
    BadMagic,
    /// The version field names a format this reader does not speak.
    BadVersion {
        /// Version found in the file.
        found: u16,
        /// Highest version this reader supports.
        supported: u16,
    },
    /// The header bytes do not match their stored checksum.
    HeaderChecksum {
        /// Checksum stored on the wire.
        stored: u64,
        /// Checksum computed over the header bytes read.
        computed: u64,
    },
    /// A chunk's payload does not match its stored checksum.
    ChunkChecksum {
        /// Zero-based index of the corrupt chunk.
        chunk: u32,
        /// Checksum stored on the wire.
        stored: u64,
        /// Checksum computed over the payload read.
        computed: u64,
    },
    /// The bytes parse but describe an impossible trace.
    Malformed(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::Truncated => write!(f, "trace is truncated"),
            TraceError::BadMagic => write!(f, "not an NBTITRC trace (bad magic)"),
            TraceError::BadVersion { found, supported } => write!(
                f,
                "unsupported trace version {found} (this reader supports up to {supported})"
            ),
            TraceError::HeaderChecksum { stored, computed } => write!(
                f,
                "header checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            TraceError::ChunkChecksum {
                chunk,
                stored,
                computed,
            } => write!(
                f,
                "chunk {chunk} checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            TraceError::Malformed(msg) => write!(f, "malformed trace: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Builds an `NBTITRC` byte stream record by record, then saves it
/// atomically.
#[derive(Debug, Clone)]
pub struct TraceWriter {
    num_nodes: u16,
    records: u64,
    last_cycle: u64,
    /// Complete chunks already encoded (payload + checksum).
    body: Vec<u8>,
    /// Payload of the chunk currently being filled.
    pending: Vec<u8>,
    pending_count: u32,
}

impl TraceWriter {
    /// A writer for a fabric of `num_nodes` nodes.
    pub fn new(num_nodes: u16) -> Self {
        TraceWriter {
            num_nodes,
            records: 0,
            last_cycle: 0,
            body: Vec::new(),
            pending: Vec::new(),
            pending_count: 0,
        }
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Malformed`] for a zero-length packet, an
    /// out-of-range node, or a cycle earlier than the previous record's.
    pub fn push(&mut self, rec: TraceRecord) -> Result<(), TraceError> {
        if rec.len == 0 {
            return Err(TraceError::Malformed("zero-length packet".into()));
        }
        if rec.src >= self.num_nodes || rec.dst >= self.num_nodes {
            return Err(TraceError::Malformed(format!(
                "node {} out of range (fabric has {} nodes)",
                rec.src.max(rec.dst),
                self.num_nodes
            )));
        }
        if self.records > 0 && rec.cycle < self.last_cycle {
            return Err(TraceError::Malformed(format!(
                "cycle {} after cycle {} (records must be time-ordered)",
                rec.cycle, self.last_cycle
            )));
        }
        self.last_cycle = rec.cycle;
        self.pending.extend_from_slice(&rec.cycle.to_le_bytes());
        self.pending.extend_from_slice(&rec.src.to_le_bytes());
        self.pending.extend_from_slice(&rec.dst.to_le_bytes());
        self.pending.extend_from_slice(&rec.len.to_le_bytes());
        self.pending_count += 1;
        self.records += 1;
        if self.pending_count as usize == CHUNK_RECORDS {
            self.flush_chunk();
        }
        Ok(())
    }

    fn flush_chunk(&mut self) {
        if self.pending_count == 0 {
            return;
        }
        self.body.extend_from_slice(&self.pending_count.to_le_bytes());
        self.body.extend_from_slice(&self.pending);
        self.body
            .extend_from_slice(&fnv1a_64(&self.pending).to_le_bytes());
        self.pending.clear();
        self.pending_count = 0;
    }

    /// Records appended so far.
    pub fn len(&self) -> u64 {
        self.records
    }

    /// `true` when no record has been appended.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Finishes the stream and returns the complete wire bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.flush_chunk();
        let mut out = Vec::with_capacity(HEADER_LEN + self.body.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.num_nodes.to_le_bytes());
        out.extend_from_slice(&self.records.to_le_bytes());
        let hcheck = fnv1a_64(&out);
        out.extend_from_slice(&hcheck.to_le_bytes());
        out.extend_from_slice(&self.body);
        out
    }

    /// Finishes the stream and writes it to `path` atomically (via
    /// `<path>.tmp` + rename), so a crash mid-write never leaves a
    /// half-trace under the final name.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] if the write or rename fails.
    pub fn save(self, path: &Path) -> Result<(), TraceError> {
        let bytes = self.finish();
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }
}

/// Encodes a complete record list (convenience over [`TraceWriter`]).
///
/// # Errors
///
/// Returns the first record validation error, if any.
pub fn encode_trace(num_nodes: u16, records: &[TraceRecord]) -> Result<Vec<u8>, TraceError> {
    let mut w = TraceWriter::new(num_nodes);
    for &r in records {
        w.push(r)?;
    }
    Ok(w.finish())
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Header of a validated trace stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHeader {
    /// Node count the trace addresses.
    pub num_nodes: u16,
    /// Total records the stream advertises.
    pub records: u64,
}

/// Streaming chunk-by-chunk reader over any byte source.
///
/// The header is validated on construction; records are yielded one at a
/// time, loading and checksum-verifying each chunk only when the previous
/// one is exhausted — a corrupt chunk surfaces exactly when reached, and
/// earlier records are still usable.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    src: R,
    header: TraceHeader,
    /// Decoded records of the current chunk, in order.
    chunk: Vec<TraceRecord>,
    /// Next index into `chunk`.
    pos: usize,
    /// Records yielded so far.
    yielded: u64,
    /// Chunks consumed so far.
    chunks: u32,
    last_cycle: u64,
    /// Set after an error or clean end; the iterator then stays finished.
    done: bool,
}

impl TraceReader<std::io::BufReader<std::fs::File>> {
    /// Opens a trace file and validates its header.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] if the file cannot be opened, or any header
    /// validation error.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        let file = std::fs::File::open(path)?;
        TraceReader::new(std::io::BufReader::new(file))
    }
}

impl<R: Read> TraceReader<R> {
    /// Wraps a byte source and validates the `NBTITRC` header.
    ///
    /// # Errors
    ///
    /// [`TraceError::Truncated`] on a short header, [`TraceError::BadMagic`]
    /// / [`TraceError::BadVersion`] on foreign content, [`TraceError::Io`]
    /// on read failure.
    pub fn new(mut src: R) -> Result<Self, TraceError> {
        let mut header = [0u8; HEADER_LEN];
        read_exact_or(&mut src, &mut header, TraceError::Truncated)?;
        if header[..8] != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = u16::from_le_bytes([header[8], header[9]]);
        if version != FORMAT_VERSION {
            return Err(TraceError::BadVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let stored = u64::from_le_bytes(
            header[20..28]
                .try_into()
                // lint:allow(no-unwrap) 8-byte slice of a 28-byte array
                .expect("header slice is 8 bytes"),
        );
        let computed = fnv1a_64(&header[..20]);
        if stored != computed {
            return Err(TraceError::HeaderChecksum { stored, computed });
        }
        let num_nodes = u16::from_le_bytes([header[10], header[11]]);
        let records = u64::from_le_bytes(
            header[12..20]
                .try_into()
                // lint:allow(no-unwrap) 8-byte slice of a 28-byte array
                .expect("header slice is 8 bytes"),
        );
        if num_nodes == 0 && records > 0 {
            return Err(TraceError::Malformed(
                "records on a zero-node fabric".into(),
            ));
        }
        Ok(TraceReader {
            src,
            header: TraceHeader { num_nodes, records },
            chunk: Vec::new(),
            pos: 0,
            yielded: 0,
            chunks: 0,
            last_cycle: 0,
            done: false,
        })
    }

    /// The validated header.
    pub fn header(&self) -> TraceHeader {
        self.header
    }

    /// Chunks consumed so far.
    pub fn chunks_read(&self) -> u32 {
        self.chunks
    }

    /// Loads and verifies the next chunk. `Ok(false)` means clean end of
    /// stream.
    fn load_chunk(&mut self) -> Result<bool, TraceError> {
        let mut count_buf = [0u8; 4];
        let first = self.src.read(&mut count_buf)?;
        if first == 0 {
            // End of stream: every advertised record must have arrived.
            return if self.yielded == self.header.records {
                Ok(false)
            } else {
                Err(TraceError::Truncated)
            };
        }
        if self.yielded == self.header.records {
            // All advertised records delivered, yet bytes remain.
            return Err(TraceError::Malformed(
                "trailing bytes after the last chunk".into(),
            ));
        }
        if first < 4 {
            read_exact_or(&mut self.src, &mut count_buf[first..], TraceError::Truncated)?;
        }
        let count = u32::from_le_bytes(count_buf);
        if count == 0 || count as usize > CHUNK_RECORDS {
            return Err(TraceError::Malformed(format!(
                "chunk record count {count} outside 1..={CHUNK_RECORDS}"
            )));
        }
        if self.yielded + count as u64 > self.header.records {
            return Err(TraceError::Malformed(format!(
                "chunks hold more records than the advertised {}",
                self.header.records
            )));
        }
        let mut payload = vec![0u8; count as usize * RECORD_LEN];
        read_exact_or(&mut self.src, &mut payload, TraceError::Truncated)?;
        let mut stored = [0u8; 8];
        read_exact_or(&mut self.src, &mut stored, TraceError::Truncated)?;
        let stored = u64::from_le_bytes(stored);
        let computed = fnv1a_64(&payload);
        if stored != computed {
            return Err(TraceError::ChunkChecksum {
                chunk: self.chunks,
                stored,
                computed,
            });
        }
        self.chunk.clear();
        for rec in payload.chunks_exact(RECORD_LEN) {
            let cycle = u64::from_le_bytes(
                rec[..8]
                    .try_into()
                    // lint:allow(no-unwrap) chunks_exact(14) slices are in range
                    .expect("record slice is 8 bytes"),
            );
            let src = u16::from_le_bytes([rec[8], rec[9]]);
            let dst = u16::from_le_bytes([rec[10], rec[11]]);
            let len = u16::from_le_bytes([rec[12], rec[13]]);
            if len == 0 {
                return Err(TraceError::Malformed("zero-length packet".into()));
            }
            if src >= self.header.num_nodes || dst >= self.header.num_nodes {
                return Err(TraceError::Malformed(format!(
                    "node {} out of range (fabric has {} nodes)",
                    src.max(dst),
                    self.header.num_nodes
                )));
            }
            if (self.yielded > 0 || !self.chunk.is_empty()) && cycle < self.last_cycle {
                return Err(TraceError::Malformed(format!(
                    "cycle {cycle} after cycle {} (records must be time-ordered)",
                    self.last_cycle
                )));
            }
            self.last_cycle = cycle;
            self.chunk.push(TraceRecord {
                cycle,
                src,
                dst,
                len,
            });
        }
        self.pos = 0;
        self.chunks += 1;
        Ok(true)
    }

    /// The next record, `Ok(None)` at clean end of stream.
    ///
    /// # Errors
    ///
    /// Any [`TraceError`]; after an error the reader stays finished.
    pub fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceError> {
        if self.done {
            return Ok(None);
        }
        if self.pos == self.chunk.len() {
            match self.load_chunk() {
                Ok(true) => {}
                Ok(false) => {
                    self.done = true;
                    return Ok(None);
                }
                Err(e) => {
                    self.done = true;
                    return Err(e);
                }
            }
        }
        let rec = self.chunk[self.pos];
        self.pos += 1;
        self.yielded += 1;
        Ok(Some(rec))
    }

    /// Reads and validates the remainder of the stream.
    ///
    /// # Errors
    ///
    /// The first [`TraceError`] encountered.
    pub fn read_all(mut self) -> Result<Vec<TraceRecord>, TraceError> {
        let mut out = Vec::new();
        while let Some(rec) = self.next_record()? {
            out.push(rec);
        }
        Ok(out)
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<TraceRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

/// `read_exact` with a typed short-read error instead of an `io::Error`.
fn read_exact_or<R: Read>(src: &mut R, buf: &mut [u8], short: TraceError) -> Result<(), TraceError> {
    src.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            short
        } else {
            TraceError::Io(e.to_string())
        }
    })
}

/// Decodes a complete in-memory stream (convenience over [`TraceReader`]).
///
/// # Errors
///
/// Any [`TraceError`]; trailing bytes after the last chunk are
/// [`TraceError::Malformed`].
pub fn decode_trace(bytes: &[u8]) -> Result<(TraceHeader, Vec<TraceRecord>), TraceError> {
    let mut reader = TraceReader::new(bytes)?;
    let header = reader.header();
    let mut out = Vec::with_capacity(header.records.min(1 << 20) as usize);
    while let Some(rec) = reader.next_record()? {
        out.push(rec);
    }
    Ok((header, out))
}

/// Summary of a verified trace file, for `trace info|verify`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// The validated header.
    pub header: TraceHeader,
    /// Records actually read (equals `header.records` on success).
    pub records: u64,
    /// Chunks read.
    pub chunks: u32,
    /// First record's cycle (0 for an empty trace).
    pub first_cycle: u64,
    /// Last record's cycle (0 for an empty trace).
    pub last_cycle: u64,
    /// Total flits across all records.
    pub flits: u64,
}

/// Reads a trace file end to end, verifying every chunk checksum and
/// record constraint.
///
/// # Errors
///
/// The first [`TraceError`] encountered.
pub fn verify_file(path: &Path) -> Result<TraceSummary, TraceError> {
    let mut reader = TraceReader::open(path)?;
    let header = reader.header();
    let mut records = 0u64;
    let mut flits = 0u64;
    let mut first_cycle = 0u64;
    let mut last_cycle = 0u64;
    while let Some(rec) = reader.next_record()? {
        if records == 0 {
            first_cycle = rec.cycle;
        }
        last_cycle = rec.cycle;
        flits += rec.len as u64;
        records += 1;
    }
    Ok(TraceSummary {
        header,
        records,
        chunks: reader.chunks_read(),
        first_cycle,
        last_cycle,
        flits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records(n: usize) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| TraceRecord {
                cycle: (i / 2) as u64,
                src: (i % 4) as u16,
                dst: ((i + 1) % 4) as u16,
                len: 5,
            })
            .collect()
    }

    #[test]
    fn round_trip_preserves_records() {
        for n in [0usize, 1, 7, CHUNK_RECORDS, CHUNK_RECORDS + 3] {
            let records = sample_records(n);
            let bytes = encode_trace(4, &records).unwrap();
            let (header, decoded) = decode_trace(&bytes).unwrap();
            assert_eq!(header.num_nodes, 4);
            assert_eq!(header.records, n as u64);
            assert_eq!(decoded, records, "n={n}");
        }
    }

    #[test]
    fn writer_rejects_invalid_records() {
        let mut w = TraceWriter::new(4);
        let base = TraceRecord {
            cycle: 10,
            src: 0,
            dst: 1,
            len: 5,
        };
        w.push(base).unwrap();
        assert!(matches!(
            w.push(TraceRecord { len: 0, ..base }),
            Err(TraceError::Malformed(_))
        ));
        assert!(matches!(
            w.push(TraceRecord { dst: 4, ..base }),
            Err(TraceError::Malformed(_))
        ));
        assert!(matches!(
            w.push(TraceRecord { cycle: 9, ..base }),
            Err(TraceError::Malformed(_))
        ));
        // Equal cycle is fine.
        w.push(base).unwrap();
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = encode_trace(4, &sample_records(10)).unwrap();
        for cut in [1, 7, 8, 9, 11, HEADER_LEN, HEADER_LEN + 3, bytes.len() - 1] {
            let err = decode_trace(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, TraceError::Truncated | TraceError::BadMagic),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn bitflip_in_payload_is_a_checksum_mismatch() {
        let bytes = encode_trace(4, &sample_records(10)).unwrap();
        let mut bad = bytes.clone();
        // Flip a bit inside the first chunk payload (after header+count).
        bad[HEADER_LEN + 4 + 3] ^= 0x10;
        assert!(matches!(
            decode_trace(&bad).unwrap_err(),
            TraceError::ChunkChecksum { chunk: 0, .. }
        ));
    }

    #[test]
    fn foreign_files_are_rejected_up_front() {
        let bytes = encode_trace(4, &sample_records(3)).unwrap();
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert_eq!(decode_trace(&wrong_magic).unwrap_err(), TraceError::BadMagic);
        let mut wrong_version = bytes.clone();
        wrong_version[8] = 0xFF;
        assert!(matches!(
            decode_trace(&wrong_version).unwrap_err(),
            TraceError::BadVersion {
                found: 0xFF,
                supported: FORMAT_VERSION
            }
        ));
        let mut trailing = bytes;
        trailing.push(0);
        assert!(matches!(
            decode_trace(&trailing).unwrap_err(),
            TraceError::Malformed(_)
        ));
    }

    #[test]
    fn streaming_reader_yields_prefix_before_corrupt_chunk() {
        // Two chunks; corrupt the second. The first chunk's records must
        // still stream out before the error surfaces.
        let records = sample_records(CHUNK_RECORDS + 8);
        let bytes = encode_trace(4, &records).unwrap();
        let chunk1_end = HEADER_LEN + 4 + CHUNK_RECORDS * RECORD_LEN + 8;
        let mut bad = bytes.clone();
        bad[chunk1_end + 4 + 1] ^= 0x01;
        let mut reader = TraceReader::new(&bad[..]).unwrap();
        let mut got = 0usize;
        let err = loop {
            match reader.next_record() {
                Ok(Some(rec)) => {
                    assert_eq!(rec, records[got]);
                    got += 1;
                }
                Ok(None) => panic!("corruption not detected"),
                Err(e) => break e,
            }
        };
        assert_eq!(got, CHUNK_RECORDS);
        assert!(matches!(err, TraceError::ChunkChecksum { chunk: 1, .. }));
        // After the error the reader stays finished.
        assert_eq!(reader.next_record(), Ok(None));
    }

    #[test]
    fn save_is_atomic_and_loadable() {
        let dir = std::env::temp_dir().join("nbtitrc-format-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.nbtitrc");
        let records = sample_records(20);
        let mut w = TraceWriter::new(4);
        for &r in &records {
            w.push(r).unwrap();
        }
        w.save(&path).unwrap();
        assert!(!path.with_extension("tmp").exists(), "tmp file left behind");
        let summary = verify_file(&path).unwrap();
        assert_eq!(summary.records, 20);
        assert_eq!(summary.flits, 100);
        assert_eq!(summary.header.num_nodes, 4);
        let loaded = TraceReader::open(&path).unwrap().read_all().unwrap();
        assert_eq!(loaded, records);
        std::fs::remove_file(&path).unwrap();
        let err = verify_file(&path).unwrap_err();
        assert!(matches!(err, TraceError::Io(_)));
    }
}

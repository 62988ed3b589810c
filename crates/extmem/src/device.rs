//! The simulated disk: files of records with block-granular I/O counting.
//!
//! A [`Disk`] stores files as record vectors. All access goes through
//! [`BlockReader`]/[`BlockWriter`], which move whole blocks of `B`
//! records and charge one I/O per block transferred — the accounting
//! discipline of the I/O model. Algorithms never touch file contents
//! directly (the type system hides them), so every data movement is
//! counted.
//!
//! A block fetch charges its read and copies nothing: the reader hands
//! out records from the file's own storage, one block window at a
//! time, and [`BlockReader::read_chunk`] copies whole blocks into one
//! vector sized once. A writer is sized from the length it will hold,
//! so neither side allocates per block or per record.

use pdc_core::metrics::Counter;
use pdc_core::trace::TraceSession;
use std::cell::Cell;
use std::rc::Rc;

/// Identifier of a file on a [`Disk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileId(usize);

/// Registry mirrors for the disk's `Rc<Cell>` counters: the
/// single-threaded I/O model keeps its cheap interior-mutable counts,
/// and every increment is echoed into the shared lock-free registry.
#[derive(Debug, Clone)]
struct IoObs {
    reads: Counter,
    writes: Counter,
}

/// Shared I/O counters.
#[derive(Debug, Clone, Default)]
pub struct IoStats {
    reads: Rc<Cell<u64>>,
    writes: Rc<Cell<u64>>,
    obs: Option<IoObs>,
}

impl IoStats {
    /// Block reads so far.
    pub fn reads(&self) -> u64 {
        self.reads.get()
    }

    /// Block writes so far.
    pub fn writes(&self) -> u64 {
        self.writes.get()
    }

    /// Total block I/Os.
    pub fn total(&self) -> u64 {
        self.reads() + self.writes()
    }

    fn add_read(&self) {
        self.reads.set(self.reads.get() + 1);
        if let Some(o) = &self.obs {
            o.reads.inc();
        }
    }

    fn add_write(&self) {
        self.writes.set(self.writes.get() + 1);
        if let Some(o) = &self.obs {
            o.writes.inc();
        }
    }
}

/// A simulated disk holding files of records of type `T`.
#[derive(Debug)]
pub struct Disk<T> {
    files: Vec<Vec<T>>,
    block: usize,
    stats: IoStats,
}

impl<T: Clone> Disk<T> {
    /// Create a disk with block size `block` records.
    ///
    /// # Panics
    /// Panics if `block == 0`.
    pub fn new(block: usize) -> Self {
        assert!(block > 0, "block size must be positive");
        Disk {
            files: Vec::new(),
            block,
            stats: IoStats::default(),
        }
    }

    /// The block size `B` in records.
    pub fn block_size(&self) -> usize {
        self.block
    }

    /// The I/O counters (cheaply cloneable handle).
    pub fn stats(&self) -> IoStats {
        self.stats.clone()
    }

    /// Publish this disk's block I/Os into `session` as `io.reads` /
    /// `io.writes`. Attach before opening readers or writers: handles
    /// snapshot the stats at creation time, so earlier ones keep
    /// counting privately. The `Rc<Cell>` counts are unchanged —
    /// every increment is simply echoed into the registry.
    pub fn attach_trace(&mut self, session: &TraceSession) {
        self.stats.obs = Some(IoObs {
            reads: session.counter("io.reads"),
            writes: session.counter("io.writes"),
        });
    }

    /// Create a file pre-populated with `data` (loading is free: models
    /// data that already resides on disk).
    pub fn create_file(&mut self, data: Vec<T>) -> FileId {
        self.files.push(data);
        FileId(self.files.len() - 1)
    }

    /// Create an empty file for writing.
    pub fn create_empty(&mut self) -> FileId {
        self.create_file(Vec::new())
    }

    /// Length of a file in records.
    pub fn len(&self, f: FileId) -> usize {
        self.files[f.0].len()
    }

    /// Whether the file has no records.
    pub fn is_empty(&self, f: FileId) -> bool {
        self.len(f) == 0
    }

    /// Host-side (uncounted) access for test verification only.
    pub fn contents(&self, f: FileId) -> &[T] {
        &self.files[f.0]
    }

    /// Open a sequential block reader.
    pub fn reader(&self, f: FileId) -> BlockReader<'_, T> {
        BlockReader {
            data: &self.files[f.0],
            block: self.block,
            stats: &self.stats,
            pos: 0,
            fetched: 0,
        }
    }

    /// Sequentially write `data` to file `f` (replacing its contents),
    /// charging `ceil(len/B)` write I/Os. Returns the I/O count charged.
    pub fn write_file(&mut self, f: FileId, data: Vec<T>) -> u64 {
        let blocks = data.len().div_ceil(self.block) as u64;
        for _ in 0..blocks {
            self.stats.add_write();
        }
        self.files[f.0] = data;
        blocks
    }

    /// Open a detached sequential block writer with room for `len`
    /// records (it grows past them if pushed more). The writer counts
    /// one write I/O per full block as records are pushed; call
    /// [`BlockWriter::finish`] to install the data as file `f`'s new
    /// contents. Detachment lets several readers stay open on `&Disk`
    /// while a writer produces output (the k-way merge pattern).
    pub fn writer(&self, len: usize) -> BlockWriter<T> {
        BlockWriter {
            stats: self.stats.clone(),
            block: self.block,
            data: Vec::with_capacity(len),
            pending: 0,
        }
    }

    /// Replace file `f`'s contents with data produced by a writer.
    pub fn install(&mut self, f: FileId, data: Vec<T>) {
        self.files[f.0] = data;
    }
}

/// Sequential reader charging one I/O per block fetched. A fetch moves
/// the reader's block window over the file's storage; records are
/// handed out from there, not from a copy.
pub struct BlockReader<'a, T> {
    data: &'a [T],
    block: usize,
    stats: &'a IoStats,
    /// Next record to hand out.
    pos: usize,
    /// End of the fetched block window; `pos == fetched` means the next
    /// record needs a fetch.
    fetched: usize,
}

impl<T: Clone> BlockReader<'_, T> {
    /// Fetch the block at `pos`, charging one read; `false` at end of
    /// file.
    fn fetch(&mut self) -> bool {
        if self.pos >= self.data.len() {
            return false;
        }
        self.fetched = (self.pos + self.block).min(self.data.len());
        self.stats.add_read();
        true
    }

    /// Next record, or `None` at end of file.
    ///
    /// Deliberately an inherent method, not `Iterator`: iterating
    /// borrows the disk's I/O stats, and callers should see the
    /// block-fetch cost model, not a transparent iterator.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<T> {
        if self.pos == self.fetched && !self.fetch() {
            return None;
        }
        let v = self.data[self.pos].clone();
        self.pos += 1;
        Some(v)
    }

    /// Read up to `n` records (for run formation: fill memory), copying
    /// whole fetched blocks into one vector sized for them.
    pub fn read_chunk(&mut self, n: usize) -> Vec<T> {
        let mut out = Vec::with_capacity(n.min(self.data.len() - self.pos));
        while out.len() < n {
            if self.pos == self.fetched && !self.fetch() {
                break;
            }
            let take = (self.fetched - self.pos).min(n - out.len());
            out.extend_from_slice(&self.data[self.pos..self.pos + take]);
            self.pos += take;
        }
        out
    }
}

/// Detached sequential writer charging one I/O per block flushed.
pub struct BlockWriter<T> {
    stats: IoStats,
    block: usize,
    data: Vec<T>,
    pending: usize,
}

impl<T> BlockWriter<T> {
    /// Append one record; a write I/O is charged each time a full block
    /// accumulates.
    pub fn push(&mut self, v: T) {
        self.data.push(v);
        self.pending += 1;
        if self.pending == self.block {
            self.stats.add_write();
            self.pending = 0;
        }
    }

    /// Records written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flush the trailing partial block (if any) and install the data as
    /// file `f` on `disk`.
    pub fn finish(mut self, disk: &mut Disk<T>, f: FileId)
    where
        T: Clone,
    {
        if self.pending > 0 {
            self.stats.add_write();
            self.pending = 0;
        }
        disk.install(f, std::mem::take(&mut self.data));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_charges_one_io_per_block() {
        let mut d = Disk::new(10);
        let f = d.create_file((0..95).collect());
        let mut r = d.reader(f);
        let mut count = 0;
        while r.next().is_some() {
            count += 1;
        }
        assert_eq!(count, 95);
        // 95 records / 10 per block = 10 blocks (last partial).
        assert_eq!(d.stats().reads(), 10);
        assert_eq!(d.stats().writes(), 0);
    }

    #[test]
    fn writer_charges_one_io_per_block() {
        let mut d = Disk::new(8);
        let f = d.create_empty();
        let mut w = d.writer(20);
        for i in 0..20 {
            w.push(i);
        }
        w.finish(&mut d, f); // flushes the partial block
        assert_eq!(d.contents(f), &(0..20).collect::<Vec<_>>()[..]);
        assert_eq!(d.stats().writes(), 3); // 8 + 8 + 4
    }

    #[test]
    fn readers_and_writer_coexist() {
        let mut d = Disk::new(2);
        let f1 = d.create_file(vec![1, 2, 3]);
        let f2 = d.create_file(vec![4, 5, 6]);
        let out = d.create_empty();
        let mut w = d.writer(3);
        {
            let mut r1 = d.reader(f1);
            let mut r2 = d.reader(f2);
            while let (Some(a), Some(b)) = (r1.next(), r2.next()) {
                w.push(a + b);
            }
        }
        w.finish(&mut d, out);
        assert_eq!(d.contents(out), &[5, 7, 9]);
    }

    #[test]
    fn read_chunk_stops_at_eof() {
        let mut d = Disk::new(4);
        let f = d.create_file(vec![1, 2, 3, 4, 5]);
        let mut r = d.reader(f);
        assert_eq!(r.read_chunk(3), vec![1, 2, 3]);
        assert_eq!(d.stats().reads(), 1);
        assert_eq!(r.read_chunk(10), vec![4, 5]);
        assert!(r.read_chunk(1).is_empty());
        // A chunk charges the blocks it touches, as `next` would.
        assert_eq!(d.stats().reads(), 2);
    }

    #[test]
    fn write_file_bulk_charges_blocks() {
        let mut d = Disk::new(16);
        let f = d.create_empty();
        let charged = d.write_file(f, (0..64).collect());
        assert_eq!(charged, 4);
        assert_eq!(d.stats().writes(), 4);
    }

    #[test]
    fn empty_file_reader_charges_nothing() {
        let mut d: Disk<u8> = Disk::new(4);
        let f = d.create_empty();
        assert!(d.reader(f).next().is_none());
        assert_eq!(d.stats().total(), 0);
        assert!(d.is_empty(f));
    }

    #[test]
    fn traced_disk_mirrors_ios_into_registry() {
        let session = TraceSession::new();
        let mut d = Disk::new(10);
        d.attach_trace(&session);
        let f = d.create_file((0..95).collect());
        let mut r = d.reader(f);
        while r.next().is_some() {}
        let out = d.create_empty();
        let mut w = d.writer(25);
        for i in 0..25 {
            w.push(i);
        }
        w.finish(&mut d, out);
        let snap = session.snapshot();
        assert_eq!(snap.get("io.reads"), d.stats().reads());
        assert_eq!(snap.get("io.writes"), d.stats().writes());
        assert_eq!(snap.get("io.reads"), 10);
        assert_eq!(snap.get("io.writes"), 3);
    }

    #[test]
    fn stats_shared_across_handles() {
        let mut d = Disk::new(2);
        let stats = d.stats();
        let f = d.create_file(vec![1, 2, 3, 4]);
        let mut r = d.reader(f);
        while r.next().is_some() {}
        assert_eq!(stats.reads(), 2);
    }
}

//! External merge sort: the unifying example of the CS41 models unit.
//!
//! The paper singles out merge sort "as a primary example, revisiting the
//! analysis of its complexity in the RAM and out-of-core contexts". This
//! module is the out-of-core version: run formation sorts memory-sized
//! chunks, then `k = M/B − 1` runs merge per pass until one remains. The
//! I/O count is measured by the [`crate::device::Disk`] and matches
//! [`crate::theory::sort_ios`] exactly for block-aligned inputs.
//!
//! The sort allocates per run and per merged file, never per block or
//! per record: run formation reads each chunk with one block-copying
//! [`crate::device::BlockReader::read_chunk`], a sorted chunk becomes
//! its run file as it is, the merge reads records in place from its
//! runs' block windows into a writer sized for the group, and the
//! merge heap's top is replaced in place for each record. Chunks sort
//! with `sort_unstable`: the sort promises no order among records that
//! compare equal.

use crate::device::{Disk, FileId};
use pdc_core::trace::record_steps;
use pdc_core::workspan::closed_form::ceil_log2;
use pdc_threads::pool::{pool_map, WorkStealingPool};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Comparison cost of an in-memory sort of `len` records, attributed
/// to whichever strand runs it (caller or pool worker) so the span
/// pass sees the CPU-bound phase: `n · ⌈log₂ n⌉`, floor one step.
fn chunk_sort_steps(len: usize) -> u64 {
    (len as u64 * ceil_log2(len as u64)).max(1)
}

/// Configuration: internal memory `m` records, fan-in derived as
/// `m / B − 1` (one block reserved for output buffering).
#[derive(Debug, Clone, Copy)]
pub struct SortConfig {
    /// Internal memory capacity in records.
    pub memory: usize,
}

/// Phase 1a: one sequential scan of the input, collecting the raw
/// (unsorted) memory-sized chunks.
fn read_chunks<T: Ord + Clone>(disk: &mut Disk<T>, input: FileId, m: usize) -> Vec<Vec<T>> {
    let mut chunks = Vec::with_capacity(disk.len(input).div_ceil(m));
    let mut reader = disk.reader(input);
    loop {
        let chunk = reader.read_chunk(m);
        if chunk.is_empty() {
            break;
        }
        chunks.push(chunk);
    }
    chunks
}

/// Phase 1b: write each sorted chunk out as a run file, one write I/O
/// per block; the chunk becomes the file's storage.
fn write_runs<T: Ord + Clone>(disk: &mut Disk<T>, sorted: Vec<Vec<T>>) -> Vec<FileId> {
    let mut runs = Vec::with_capacity(sorted.len());
    for buf in sorted {
        let f = disk.create_empty();
        disk.write_file(f, buf);
        runs.push(f);
    }
    runs
}

/// Phase 2: k-way merge passes until one run remains.
fn merge_runs<T: Ord + Clone>(disk: &mut Disk<T>, mut runs: Vec<FileId>, fan_in: usize) -> FileId {
    while runs.len() > 1 {
        let mut next_runs = Vec::with_capacity(runs.len().div_ceil(fan_in));
        for group in runs.chunks(fan_in) {
            let out = disk.create_empty();
            let mut w = disk.writer(group.iter().map(|&f| disk.len(f)).sum());
            {
                // k open readers + a tournament heap keyed by value. The
                // smallest record leaves through the top, and its run's
                // next record takes the top's place and sifts down: one
                // sift per record, where a pop and a push take two.
                let mut readers: Vec<_> = group.iter().map(|&f| disk.reader(f)).collect();
                let mut heap: BinaryHeap<Reverse<(T, usize)>> =
                    BinaryHeap::with_capacity(readers.len());
                for (i, r) in readers.iter_mut().enumerate() {
                    if let Some(v) = r.next() {
                        heap.push(Reverse((v, i)));
                    }
                }
                let mut merged = 0u64;
                while let Some(mut top) = heap.peek_mut() {
                    let Reverse((v, i)) = &mut *top;
                    let v = match readers[*i].next() {
                        Some(next) => std::mem::replace(v, next),
                        None => {
                            let Reverse((v, _)) = PeekMut::pop(top);
                            v
                        }
                    };
                    w.push(v);
                    merged += 1;
                }
                // Heap work: one ⌈log₂ k⌉-cost sift per merged record,
                // on the calling thread (the merge phase is serial).
                record_steps((merged * ceil_log2(group.len() as u64)).max(1));
            }
            w.finish(disk, out);
            next_runs.push(out);
        }
        runs = next_runs;
    }
    runs[0]
}

/// The shared skeleton: run formation (read chunks → `sort_chunks` →
/// write runs) followed by k-way merging. The I/O pattern — and
/// therefore the measured I/O count — is fixed here; the only latitude
/// a caller has is *how* the in-memory chunk sorts execute.
fn sort_with<T: Ord + Clone>(
    disk: &mut Disk<T>,
    input: FileId,
    config: SortConfig,
    sort_chunks: impl FnOnce(Vec<Vec<T>>) -> Vec<Vec<T>>,
) -> FileId {
    let b = disk.block_size();
    let m = config.memory;
    assert!(m >= 2 * b, "need at least two blocks of memory");
    let fan_in = (m / b - 1).max(2);
    let chunks = read_chunks(disk, input, m);
    let runs = write_runs(disk, sort_chunks(chunks));
    if runs.is_empty() {
        return disk.create_empty();
    }
    merge_runs(disk, runs, fan_in)
}

/// Sort file `input` on `disk`, returning the id of the sorted output
/// file. Only `config.memory` records are resident at any time during
/// run formation, and `fan_in + 1` blocks during merging.
///
/// # Panics
/// Panics if memory is smaller than two blocks (cannot merge).
pub fn external_merge_sort<T: Ord + Clone>(
    disk: &mut Disk<T>,
    input: FileId,
    config: SortConfig,
) -> FileId {
    sort_with(disk, input, config, |mut chunks| {
        for chunk in &mut chunks {
            chunk.sort_unstable(); // in-memory sort of <= M records
            record_steps(chunk_sort_steps(chunk.len()));
        }
        chunks
    })
}

/// [`external_merge_sort`] with the in-memory chunk sorts fanned out
/// over a work-stealing pool. The I/O schedule is untouched — the
/// [`Disk`] is single-threaded by construction (`Rc` stats), so every
/// read and write stays on the calling thread and the measured I/O
/// count is *identical* to the sequential sort; only the CPU-bound
/// phase parallelizes. That split — overlap-free I/O, parallel compute
/// — is itself the lesson, and the scenario gate asserts the I/O
/// equality.
///
/// Note: in-memory chunk residency temporarily exceeds `config.memory`
/// records while multiple chunks sort concurrently; the model's memory
/// bound applies per worker.
///
/// # Panics
/// Panics if memory is smaller than two blocks (cannot merge).
pub fn external_merge_sort_pooled<T: Ord + Clone + Send + 'static>(
    disk: &mut Disk<T>,
    input: FileId,
    config: SortConfig,
    pool: &WorkStealingPool,
) -> FileId {
    sort_with(disk, input, config, |chunks| {
        pool_map(pool, chunks, |mut chunk| {
            chunk.sort_unstable();
            record_steps(chunk_sort_steps(chunk.len()));
            chunk
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theory;
    use pdc_core::rng::Rng;

    fn check_sorted(disk: &Disk<u64>, f: FileId, expected_len: usize) {
        let data = disk.contents(f);
        assert_eq!(data.len(), expected_len);
        assert!(data.windows(2).all(|w| w[0] <= w[1]), "not sorted");
    }

    #[test]
    fn sorts_random_input() {
        let mut rng = Rng::new(42);
        let data = rng.u64_vec(10_000);
        let mut want = data.clone();
        want.sort_unstable();
        let mut disk = Disk::new(16);
        let input = disk.create_file(data);
        let out = external_merge_sort(&mut disk, input, SortConfig { memory: 128 });
        assert_eq!(disk.contents(out), &want[..]);
    }

    #[test]
    fn sorts_already_sorted_and_reverse() {
        for gen in [false, true] {
            let data: Vec<u64> = if gen {
                (0..5000).collect()
            } else {
                (0..5000).rev().collect()
            };
            let mut disk = Disk::new(8);
            let input = disk.create_file(data);
            let out = external_merge_sort(&mut disk, input, SortConfig { memory: 64 });
            check_sorted(&disk, out, 5000);
        }
    }

    #[test]
    fn handles_duplicates() {
        let data = vec![5u64; 1000];
        let mut disk = Disk::new(4);
        let input = disk.create_file(data.clone());
        let out = external_merge_sort(&mut disk, input, SortConfig { memory: 16 });
        assert_eq!(disk.contents(out), &data[..]);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let mut disk: Disk<u64> = Disk::new(4);
        let input = disk.create_file(vec![]);
        let out = external_merge_sort(&mut disk, input, SortConfig { memory: 8 });
        assert!(disk.is_empty(out));

        let input = disk.create_file(vec![3]);
        let out = external_merge_sort(&mut disk, input, SortConfig { memory: 8 });
        assert_eq!(disk.contents(out), &[3]);
    }

    #[test]
    fn io_count_matches_theory_block_aligned() {
        // n = 1000, M = 100, B = 10: theory says 600 I/Os.
        let mut rng = Rng::new(7);
        let n = 1000usize;
        let (m, b) = (100usize, 10usize);
        let mut disk = Disk::new(b);
        let input = disk.create_file(rng.u64_vec(n));
        let out = external_merge_sort(&mut disk, input, SortConfig { memory: m });
        check_sorted(&disk, out, n);
        assert_eq!(
            disk.stats().total(),
            theory::sort_ios(n as u64, m as u64, b as u64),
            "measured I/Os must equal the closed form"
        );
    }

    #[test]
    fn single_run_needs_no_merge_pass() {
        // Input fits in memory: run formation only (read n/B + write n/B).
        let mut disk = Disk::new(10);
        let input = disk.create_file((0..100u64).rev().collect());
        let out = external_merge_sort(&mut disk, input, SortConfig { memory: 200 });
        check_sorted(&disk, out, 100);
        assert_eq!(disk.stats().total(), 20);
    }

    #[test]
    fn more_memory_fewer_ios() {
        let mut rng = Rng::new(99);
        let data = rng.u64_vec(20_000);
        let measure = |memory: usize| {
            let mut disk = Disk::new(10);
            let input = disk.create_file(data.clone());
            let out = external_merge_sort(&mut disk, input, SortConfig { memory });
            check_sorted(&disk, out, data.len());
            disk.stats().total()
        };
        let small = measure(40); // fan-in 3
        let medium = measure(200); // fan-in 19
        let large = measure(2_000); // fan-in 199
        assert!(small > medium, "{small} vs {medium}");
        assert!(medium > large, "{medium} vs {large}");
    }

    #[test]
    #[should_panic(expected = "two blocks")]
    fn too_little_memory_rejected() {
        let mut disk: Disk<u64> = Disk::new(10);
        let input = disk.create_file(vec![1]);
        external_merge_sort(&mut disk, input, SortConfig { memory: 15 });
    }

    #[test]
    fn pooled_sort_matches_sequential_with_identical_ios() {
        let mut rng = Rng::new(123);
        let data = rng.u64_vec(12_000);
        let config = SortConfig { memory: 150 };

        let mut seq_disk = Disk::new(10);
        let seq_in = seq_disk.create_file(data.clone());
        let seq_out = external_merge_sort(&mut seq_disk, seq_in, config);

        let pool = WorkStealingPool::new(4);
        let mut pool_disk = Disk::new(10);
        let pool_in = pool_disk.create_file(data);
        let pool_out = external_merge_sort_pooled(&mut pool_disk, pool_in, config, &pool);

        assert_eq!(pool_disk.contents(pool_out), seq_disk.contents(seq_out));
        assert_eq!(
            pool_disk.stats().total(),
            seq_disk.stats().total(),
            "parallel chunk sorting must not change the I/O schedule"
        );
        assert!(pool.executed() > 0, "chunk sorts ran on the pool");
    }

    #[test]
    fn pooled_sort_empty_input() {
        let pool = WorkStealingPool::new(2);
        let mut disk: Disk<u64> = Disk::new(4);
        let input = disk.create_file(vec![]);
        let out = external_merge_sort_pooled(&mut disk, input, SortConfig { memory: 8 }, &pool);
        assert!(disk.is_empty(out));
    }

    #[test]
    fn traced_sort_attributes_sort_and_merge_steps() {
        use pdc_core::trace::{self, EventKind, TraceSession, MARK_STEPS};
        let session = TraceSession::with_capacity(1 << 12);
        let prev = trace::install_sync_trace(session.thread(700));
        let mut rng = Rng::new(17);
        let n = 1000usize;
        let mut disk = Disk::new(10);
        let input = disk.create_file(rng.u64_vec(n));
        let out = external_merge_sort(&mut disk, input, SortConfig { memory: 100 });
        match prev {
            Some(p) => {
                trace::install_sync_trace(p);
            }
            None => {
                trace::clear_sync_trace();
            }
        }
        check_sorted(&disk, out, n);
        let marks: Vec<_> = session
            .events()
            .into_iter()
            .filter(|e| e.kind == EventKind::Mark && e.a == MARK_STEPS)
            .collect();
        // 10 memory-sized chunks of 100 records + at least one merge
        // group mark.
        assert!(marks.len() > 10, "{} marks", marks.len());
        let total: u64 = marks.iter().map(|e| e.b).sum();
        // Run formation alone is 10 x 100·log2(100) = 7000 steps; the
        // merge passes add more on top.
        assert!(total > 7000, "attributed {total} steps");
    }

    #[test]
    fn stability_not_required_but_order_of_equal_keys_total() {
        // With (key, payload) pairs ordered by the full tuple, output is
        // the total order — exercises Ord on tuples through the merge.
        let mut disk = Disk::new(4);
        let data: Vec<(u64, u64)> = (0..500).map(|i| ((i * 7) % 13, i)).collect();
        let mut want = data.clone();
        want.sort();
        let input = disk.create_file(data);
        let out = external_merge_sort(&mut disk, input, SortConfig { memory: 32 });
        assert_eq!(disk.contents(out), &want[..]);
    }
}

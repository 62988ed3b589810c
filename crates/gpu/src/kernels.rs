//! GPU kernels: parallel reduction (three variants) and block scan.
//!
//! The CS40 lab is "parallel reductions on large arrays"; the three
//! reduction variants below reproduce the canonical CUDA optimization
//! ladder:
//!
//! 1. [`reduce_global`] — tree reduction directly in global memory:
//!    every level re-touches global, ~3× the memory traffic.
//! 2. [`reduce_shared_interleaved`] — stages into shared memory but uses
//!    interleaved (`tid % (2s) == 0`) addressing: low warp efficiency.
//! 3. [`reduce_shared_sequential`] — shared staging with sequential
//!    (`tid < s`) addressing: minimal traffic *and* minimal divergence.
//!
//! All three return the same sum; their [`KernelStats`] differ exactly
//! the way the CUDA docs say they should.

use crate::device::{Device, KernelStats, Phase, ThreadCtx};

fn ceil_div(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

/// Sum `input`, running the whole reduction in global memory.
/// Returns `(sum, stats)`.
pub fn reduce_global(input: &[i64], block_dim: usize) -> (i64, KernelStats) {
    assert!(!input.is_empty());
    let n = input.len();
    let mut dev = Device::new(n);
    dev.upload(0, input);
    let mut stats = KernelStats::default();
    let mut len = n;
    while len > 1 {
        let half = ceil_div(len, 2);
        let phases: Vec<Phase<'_>> = vec![Box::new(move |t: &mut ThreadCtx<'_>| {
            let i = t.gtid();
            if i < len / 2 {
                let a = t.read_global(i);
                let b = t.read_global(i + half);
                t.write_global(i, a + b);
            }
        })];
        let s = dev.launch(ceil_div(half, block_dim), block_dim, 0, &phases);
        accumulate(&mut stats, s);
        len = half;
    }
    (dev.global[0], stats)
}

/// Sum `input` with shared-memory staging and **interleaved** addressing
/// (`tid % (2*stride) == 0`) — correct but divergent.
pub fn reduce_shared_interleaved(input: &[i64], block_dim: usize) -> (i64, KernelStats) {
    reduce_shared(input, block_dim, false)
}

/// Sum `input` with shared-memory staging and **sequential** addressing
/// (`tid < stride`) — the optimized version.
pub fn reduce_shared_sequential(input: &[i64], block_dim: usize) -> (i64, KernelStats) {
    reduce_shared(input, block_dim, true)
}

fn reduce_shared(input: &[i64], block_dim: usize, sequential: bool) -> (i64, KernelStats) {
    assert!(!input.is_empty());
    assert!(block_dim.is_power_of_two(), "block size must be 2^k");
    let mut stats = KernelStats::default();
    let mut data = input.to_vec();
    while data.len() > 1 {
        let n = data.len();
        let blocks = ceil_div(n, block_dim);
        let mut dev = Device::new(n + blocks);
        dev.upload(0, &data);
        let mut phases: Vec<Phase<'_>> = Vec::new();
        // Load phase: coalesced read of each block's slice (zero-pad).
        phases.push(Box::new(move |t: &mut ThreadCtx<'_>| {
            let g = t.gtid();
            let tid = t.tid();
            let v = if g < n { t.read_global(g) } else { 0 };
            t.write_shared(tid, v);
        }));
        // Tree phases.
        if sequential {
            let mut stride = block_dim / 2;
            while stride >= 1 {
                let s = stride;
                phases.push(Box::new(move |t: &mut ThreadCtx<'_>| {
                    let tid = t.tid();
                    if tid < s {
                        let a = t.read_shared(tid);
                        let b = t.read_shared(tid + s);
                        t.write_shared(tid, a + b);
                    }
                }));
                if stride == 1 {
                    break;
                }
                stride /= 2;
            }
        } else {
            let mut stride = 1;
            while stride < block_dim {
                let s = stride;
                phases.push(Box::new(move |t: &mut ThreadCtx<'_>| {
                    let tid = t.tid();
                    if tid.is_multiple_of(2 * s) {
                        let a = t.read_shared(tid);
                        let b = t.read_shared(tid + s);
                        t.write_shared(tid, a + b);
                    }
                }));
                stride *= 2;
            }
        }
        // Write-out phase.
        phases.push(Box::new(move |t: &mut ThreadCtx<'_>| {
            if t.tid() == 0 {
                let v = t.read_shared(0);
                let b = t.bid();
                t.write_global(n + b, v);
            }
        }));
        let s = dev.launch(blocks, block_dim, block_dim, &phases);
        accumulate(&mut stats, s);
        data = dev.global[n..n + blocks].to_vec();
    }
    (data[0], stats)
}

fn accumulate(acc: &mut KernelStats, s: KernelStats) {
    acc.issue_cycles += s.issue_cycles;
    acc.executed_ops += s.executed_ops;
    acc.divergence_waste += s.divergence_waste;
    acc.global_transactions += s.global_transactions;
    acc.global_accesses += s.global_accesses;
    acc.shared_cycles += s.shared_cycles;
    acc.bank_conflict_cycles += s.bank_conflict_cycles;
}

/// Exclusive Blelloch scan of a single block-sized array in shared
/// memory (`n` = power of two ≤ block size). Returns `(scan, stats)`.
pub fn block_exclusive_scan(input: &[i64]) -> (Vec<i64>, KernelStats) {
    let n = input.len();
    assert!(n.is_power_of_two(), "scan length must be a power of two");
    let mut dev = Device::new(2 * n);
    dev.upload(0, input);
    let mut phases: Vec<Phase<'_>> = Vec::new();
    // Load.
    phases.push(Box::new(move |t: &mut ThreadCtx<'_>| {
        let tid = t.tid();
        if tid < n {
            let v = t.read_global(tid);
            t.write_shared(tid, v);
        }
    }));
    // Up-sweep.
    let mut stride = 1;
    while stride < n {
        let s = stride;
        phases.push(Box::new(move |t: &mut ThreadCtx<'_>| {
            let tid = t.tid();
            if tid < n / (2 * s) {
                let left = (2 * tid + 1) * s - 1;
                let right = (2 * tid + 2) * s - 1;
                let a = t.read_shared(left);
                let b = t.read_shared(right);
                t.write_shared(right, a + b);
            }
        }));
        stride *= 2;
    }
    // Clear root.
    phases.push(Box::new(move |t: &mut ThreadCtx<'_>| {
        if t.tid() == 0 {
            t.write_shared(n - 1, 0);
        }
    }));
    // Down-sweep.
    let mut stride = n / 2;
    while stride >= 1 {
        let s = stride;
        phases.push(Box::new(move |t: &mut ThreadCtx<'_>| {
            let tid = t.tid();
            if tid < n / (2 * s) {
                let left = (2 * tid + 1) * s - 1;
                let right = (2 * tid + 2) * s - 1;
                let l = t.read_shared(left);
                let r = t.read_shared(right);
                t.write_shared(left, r);
                t.write_shared(right, l + r);
            }
        }));
        if stride == 1 {
            break;
        }
        stride /= 2;
    }
    // Store.
    phases.push(Box::new(move |t: &mut ThreadCtx<'_>| {
        let tid = t.tid();
        if tid < n {
            let v = t.read_shared(tid);
            t.write_global(n + tid, v);
        }
    }));
    let stats = dev.launch(1, n, n, &phases);
    (dev.global[n..2 * n].to_vec(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_core::rng::Rng;

    fn workload(n: usize) -> Vec<i64> {
        let mut rng = Rng::new(1234);
        (0..n).map(|_| (rng.gen_range(1000) as i64) - 500).collect()
    }

    #[test]
    fn all_reductions_agree_with_serial() {
        for n in [1usize, 2, 31, 32, 100, 1024, 5000] {
            let input = workload(n);
            let want: i64 = input.iter().sum();
            let (a, _) = reduce_global(&input, 256);
            let (b, _) = reduce_shared_interleaved(&input, 256);
            let (c, _) = reduce_shared_sequential(&input, 256);
            assert_eq!(a, want, "global n={n}");
            assert_eq!(b, want, "interleaved n={n}");
            assert_eq!(c, want, "sequential n={n}");
        }
    }

    #[test]
    fn shared_staging_cuts_global_traffic() {
        let input = workload(1 << 16);
        let (_, g) = reduce_global(&input, 256);
        let (_, s) = reduce_shared_sequential(&input, 256);
        assert!(
            s.global_transactions * 2 < g.global_transactions,
            "shared {} vs global {}",
            s.global_transactions,
            g.global_transactions
        );
        let cfg = crate::device::GpuConfig::default();
        assert!(s.cycles(&cfg) < g.cycles(&cfg));
    }

    #[test]
    fn sequential_addressing_beats_interleaved_divergence() {
        let input = workload(1 << 14);
        let (_, inter) = reduce_shared_interleaved(&input, 256);
        let (_, seq) = reduce_shared_sequential(&input, 256);
        assert!(
            seq.warp_efficiency() > inter.warp_efficiency() + 0.1,
            "seq {} vs inter {}",
            seq.warp_efficiency(),
            inter.warp_efficiency()
        );
        // Interleaved also suffers bank conflicts at larger strides.
        assert!(inter.bank_conflict_cycles >= seq.bank_conflict_cycles);
    }

    #[test]
    fn block_scan_matches_serial() {
        for n in [2usize, 8, 64, 256, 1024] {
            let input = workload(n);
            let (scan, _) = block_exclusive_scan(&input);
            let mut acc = 0;
            for i in 0..n {
                assert_eq!(scan[i], acc, "n={n} i={i}");
                acc += input[i];
            }
        }
    }

    #[test]
    fn scan_issue_cycles_logarithmic_depth() {
        // Phases: load + log n up + clear + log n down + store.
        let n = 256;
        let input = workload(n);
        let (_, stats) = block_exclusive_scan(&input);
        // With n threads in n/32 warps, issue cycles stay modest (well
        // below the n·log n of a naive per-element serialization).
        assert!(stats.issue_cycles < (n as u64) * 4);
    }

    #[test]
    fn reduce_handles_non_power_of_two_sizes() {
        let input = workload(1000);
        let want: i64 = input.iter().sum();
        let (got, _) = reduce_shared_sequential(&input, 128);
        assert_eq!(got, want);
        let (got, _) = reduce_global(&input, 128);
        assert_eq!(got, want);
    }
}

/// Out-of-place matrix transpose kernels: the canonical coalescing demo.
///
/// * [`transpose_naive`](transpose::transpose_naive) — each thread reads `a[y][x]` and writes
///   `b[x][y]`: reads coalesce, writes stride by `n` and do not.
/// * [`transpose_tiled`](transpose::transpose_tiled) — a block stages a 32×32 tile through shared
///   memory so both the global read *and* the global write are
///   row-contiguous. `pad` adds the classic +1 column that breaks the
///   32-way shared-memory bank conflict of the transposed read.
pub mod transpose {
    use crate::device::{Device, KernelStats, Phase, ThreadCtx};

    const TILE: usize = 32;

    /// Naive transpose of an `n × n` matrix (`n` divisible by 32).
    /// Returns `(transposed, stats)`.
    pub fn transpose_naive(input: &[i64], n: usize) -> (Vec<i64>, KernelStats) {
        assert_eq!(input.len(), n * n);
        assert!(n.is_multiple_of(TILE), "n must be a multiple of {TILE}");
        let mut dev = Device::new(2 * n * n);
        dev.upload(0, input);
        let blocks = (n / TILE) * (n / TILE);
        let grid_w = n / TILE;
        let phases: Vec<Phase<'_>> = vec![Box::new(move |t: &mut ThreadCtx<'_>| {
            // Block = one tile; thread = one element, row-major in tile.
            let bx = t.bid() % grid_w;
            let by = t.bid() / grid_w;
            let tx = t.tid() % TILE;
            let ty = t.tid() / TILE;
            let (x, y) = (bx * TILE + tx, by * TILE + ty);
            let v = t.read_global(y * n + x); // coalesced read
            t.write_global(n * n + x * n + y, v); // strided write
        })];
        let stats = dev.launch(blocks, TILE * TILE, 0, &phases);
        (dev.global[n * n..].to_vec(), stats)
    }

    /// Tiled transpose through shared memory. With `pad = true` the tile
    /// is stored as 32×33, eliminating bank conflicts on the transposed
    /// read. Returns `(transposed, stats)`.
    pub fn transpose_tiled(input: &[i64], n: usize, pad: bool) -> (Vec<i64>, KernelStats) {
        assert_eq!(input.len(), n * n);
        assert!(n.is_multiple_of(TILE), "n must be a multiple of {TILE}");
        let stride = if pad { TILE + 1 } else { TILE };
        let mut dev = Device::new(2 * n * n);
        dev.upload(0, input);
        let blocks = (n / TILE) * (n / TILE);
        let grid_w = n / TILE;
        let phases: Vec<Phase<'_>> = vec![
            // Phase 1: coalesced load into the shared tile.
            Box::new(move |t: &mut ThreadCtx<'_>| {
                let bx = t.bid() % grid_w;
                let by = t.bid() / grid_w;
                let tx = t.tid() % TILE;
                let ty = t.tid() / TILE;
                let v = t.read_global((by * TILE + ty) * n + bx * TILE + tx);
                t.write_shared(ty * stride + tx, v);
            }),
            // Phase 2: transposed read from shared, coalesced store to the
            // mirrored tile position.
            Box::new(move |t: &mut ThreadCtx<'_>| {
                let bx = t.bid() % grid_w;
                let by = t.bid() / grid_w;
                let tx = t.tid() % TILE;
                let ty = t.tid() / TILE;
                let v = t.read_shared(tx * stride + ty); // column read
                t.write_global(n * n + (bx * TILE + ty) * n + by * TILE + tx, v);
            }),
        ];
        let stats = dev.launch(blocks, TILE * TILE, stride * TILE, &phases);
        (dev.global[n * n..].to_vec(), stats)
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::device::GpuConfig;

        fn reference(input: &[i64], n: usize) -> Vec<i64> {
            let mut out = vec![0; n * n];
            for y in 0..n {
                for x in 0..n {
                    out[x * n + y] = input[y * n + x];
                }
            }
            out
        }

        fn workload(n: usize) -> Vec<i64> {
            (0..(n * n) as i64).collect()
        }

        #[test]
        fn all_transposes_correct() {
            let n = 64;
            let input = workload(n);
            let want = reference(&input, n);
            assert_eq!(transpose_naive(&input, n).0, want);
            assert_eq!(transpose_tiled(&input, n, false).0, want);
            assert_eq!(transpose_tiled(&input, n, true).0, want);
        }

        #[test]
        fn tiled_fixes_write_coalescing() {
            let n = 128;
            let input = workload(n);
            let (_, naive) = transpose_naive(&input, n);
            let (_, tiled) = transpose_tiled(&input, n, true);
            assert!(
                tiled.global_transactions * 4 < naive.global_transactions,
                "tiled {} vs naive {}",
                tiled.global_transactions,
                naive.global_transactions
            );
            let cfg = GpuConfig::default();
            assert!(tiled.cycles(&cfg) < naive.cycles(&cfg));
        }

        #[test]
        fn padding_removes_bank_conflicts() {
            let n = 128;
            let input = workload(n);
            let (_, unpadded) = transpose_tiled(&input, n, false);
            let (_, padded) = transpose_tiled(&input, n, true);
            // Unpadded column reads hit one bank 32 ways.
            assert!(
                unpadded.bank_conflict_cycles > padded.bank_conflict_cycles * 8,
                "unpadded {} vs padded {}",
                unpadded.bank_conflict_cycles,
                padded.bank_conflict_cycles
            );
            // Same global traffic either way.
            assert_eq!(unpadded.global_transactions, padded.global_transactions);
        }
    }
}

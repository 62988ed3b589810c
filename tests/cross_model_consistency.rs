//! Cross-crate consistency: the same computation, implemented on
//! different substrates (sequential, fork-join threads, PRAM, GPU,
//! message passing, external memory), must produce identical results.
//! This is the repo-wide invariant that makes the "models of
//! computation" story trustworthy.

use pdc::algos::mergesort::{merge_sort, parallel_merge_sort, parallel_merge_sort_pmerge};
use pdc::algos::scanapps::radix_sort_u64;
use pdc::algos::sorting::{parallel_quicksort, quicksort, sample_sort};
use pdc::core::rng::Rng;
use pdc::extmem::device::Disk;
use pdc::extmem::extsort::{external_merge_sort, SortConfig};
use pdc::gpu::kernels::{
    block_exclusive_scan, reduce_global, reduce_shared_interleaved, reduce_shared_sequential,
};
use pdc::life::dist::dist_step_generations;
use pdc::life::{Boundary, Grid};
use pdc::mpi::coll;
use pdc::mpi::world::{Rank, World};
use pdc::pram::algos::{reduce_sum, scan_blelloch, scan_hillis_steele};
use pdc::threads::sliceops::{par_exclusive_scan, par_inclusive_scan, par_reduce};

#[test]
fn six_sorting_algorithms_agree() {
    let mut rng = Rng::new(0xBEEF);
    let data_u64 = rng.u64_vec(8_000);
    let data: Vec<i64> = data_u64.iter().map(|&x| (x % 100_000) as i64).collect();
    let small_u64: Vec<u64> = data.iter().map(|&x| x as u64).collect();

    let mut want = data.clone();
    want.sort();

    assert_eq!(merge_sort(&data), want);
    assert_eq!(parallel_merge_sort(&data, 4), want);
    assert_eq!(parallel_merge_sort_pmerge(&data, 4), want);
    let mut q = data.clone();
    quicksort(&mut q);
    assert_eq!(q, want);
    let mut pq = data.clone();
    parallel_quicksort(&mut pq, 4);
    assert_eq!(pq, want);
    let (ss, _) = sample_sort(&data, 8, 4, 1);
    assert_eq!(ss, want);

    // Radix (u64 view) and external sort agree too.
    let mut want_u = small_u64.clone();
    want_u.sort_unstable();
    assert_eq!(radix_sort_u64(&small_u64, 4), want_u);
    let mut disk = Disk::new(32);
    let f = disk.create_file(small_u64);
    let sorted = external_merge_sort(&mut disk, f, SortConfig { memory: 512 });
    assert_eq!(disk.contents(sorted), &want_u[..]);
}

#[test]
fn reduce_agrees_across_five_substrates() {
    let mut rng = Rng::new(7);
    let data: Vec<i64> = (0..4096)
        .map(|_| rng.gen_range(1000) as i64 - 500)
        .collect();
    let want: i64 = data.iter().sum();

    // Threads.
    assert_eq!(
        par_reduce(&data, 4, 0i64, |&x| x, |a, b| a + b),
        want,
        "threads"
    );
    // PRAM.
    let (pram_sum, _) = reduce_sum(&data).unwrap();
    assert_eq!(pram_sum, want, "pram");
    // GPU, all three kernel variants.
    assert_eq!(reduce_global(&data, 256).0, want, "gpu global");
    assert_eq!(reduce_shared_interleaved(&data, 256).0, want, "gpu inter");
    assert_eq!(reduce_shared_sequential(&data, 256).0, want, "gpu seq");
    // Message passing: scatter the data, allreduce partial sums.
    let chunks: Vec<Vec<i64>> = data.chunks(1024).map(<[i64]>::to_vec).collect();
    let p = chunks.len();
    let (results, _) = World::run(p, |r: &mut Rank<i64>| {
        let mine: i64 = chunks[r.id()].iter().sum();
        coll::allreduce(r, mine, |a, b| a + b)
    });
    assert!(results.iter().all(|&v| v == want), "mpi");
}

#[test]
fn scan_agrees_across_four_substrates() {
    let n = 256usize;
    let data: Vec<i64> = (0..n as i64).map(|i| (i * 13) % 29 - 14).collect();
    // Serial exclusive scan reference.
    let mut acc = 0;
    let want_ex: Vec<i64> = data
        .iter()
        .map(|&x| {
            let v = acc;
            acc += x;
            v
        })
        .collect();
    let want_in: Vec<i64> = data
        .iter()
        .scan(0i64, |s, &x| {
            *s += x;
            Some(*s)
        })
        .collect();

    // Threads.
    let (ex, total) = par_exclusive_scan(&data, 4, 0i64, |a, b| a + b);
    assert_eq!(ex, want_ex, "threads exclusive");
    assert_eq!(total, acc);
    assert_eq!(
        par_inclusive_scan(&data, 4, 0i64, |a, b| a + b),
        want_in,
        "threads inclusive"
    );
    // PRAM (both algorithms).
    let (hs, _) = scan_hillis_steele(&data).unwrap();
    assert_eq!(hs, want_in, "pram hillis-steele (inclusive)");
    let (bl, bl_total, _) = scan_blelloch(&data).unwrap();
    assert_eq!(bl, want_ex, "pram blelloch (exclusive)");
    assert_eq!(bl_total, acc);
    // GPU block scan.
    let (gpu, _) = block_exclusive_scan(&data);
    assert_eq!(gpu, want_ex, "gpu blelloch");
    // MPI exclusive scan over per-rank values.
    let (mpi_scan, _) = World::run(8, |r: &mut Rank<i64>| {
        coll::exclusive_scan(r, 0, (r.id() as i64 + 1) * 3, |a, b| a + b)
    });
    let want_mpi: Vec<i64> = (0..8).map(|i| (0..i).map(|j| (j + 1) * 3).sum()).collect();
    assert_eq!(mpi_scan, want_mpi, "mpi scan");
}

#[test]
fn life_agrees_across_three_engines() {
    let board = Grid::random(32, 24, Boundary::Torus, 0.4, 555);
    let gens = 12;
    let (seq, _) = pdc::life::engine::step_generations(&board, gens);
    for workers in [2usize, 5] {
        let (par, _) = pdc::life::parallel::parallel_step_generations(&board, gens, workers);
        assert_eq!(par, seq, "threads w={workers}");
    }
    for ranks in [2usize, 3, 8] {
        let (dist, _) = dist_step_generations(&board, gens, ranks);
        assert_eq!(dist, seq, "mpi ranks={ranks}");
    }
}

#[test]
fn alu_agrees_with_isa_vm_arithmetic() {
    // The word-level ALU and the PDC-1 VM implement the same arithmetic.
    use pdc::arch::alu::{Alu, AluOp};
    use pdc::arch::isa::{assemble, Vm};
    let alu = Alu::new(64);
    let prog = assemble("in\nin\nadd\nout\nin\nin\nmul\nout\nhalt").unwrap();
    let cases = [(3i64, 4i64, 10i64, -7i64), (-1, 1, i64::MAX, 2)];
    for (a, b, c, d) in cases {
        let mut vm = Vm::new(prog.clone(), 4).with_input([a, b, c, d]);
        vm.run(100).unwrap();
        let (sum_alu, _) = alu.exec(AluOp::Add, a as u64, b as u64);
        assert_eq!(vm.output[0], sum_alu as i64, "add {a}+{b}");
        assert_eq!(vm.output[1], c.wrapping_mul(d), "mul {c}*{d}");
    }
}

#[test]
fn histogram_threads_vs_mapreduce() {
    use pdc::mpi::mapreduce::run_ranks;
    use pdc::mpi::{Rank, World};
    use pdc::threads::sliceops::par_histogram;
    let mut rng = Rng::new(99);
    let data: Vec<u64> = (0..10_000).map(|_| rng.gen_range(32)).collect();
    let hist = par_histogram(&data, 4, 32, |&x| x as usize);
    // Same histogram via MapReduce: four ranks, each mapping every
    // fourth 500-value chunk.
    let (mut out, _) = World::run(4, |rank: &mut Rank<Vec<(u64, u64)>>| {
        let splits = data.chunks(500).skip(rank.id()).step_by(4);
        run_ranks(
            rank,
            splits,
            |chunk| chunk.iter().map(|&x| (x, 1u64)),
            |n, m| *n += m,
        )
    });
    let mr = out.swap_remove(0).expect("rank 0 is the gather's root");
    assert_eq!(mr.iter().map(|&(_, n)| n).sum::<u64>(), 10_000);
    for (k, count) in mr {
        assert_eq!(hist[k as usize], count, "bin {k}");
    }
}

//! # pdc-bench — the experiment harness
//!
//! Regenerates every table/figure reproduction listed in `DESIGN.md` and
//! `EXPERIMENTS.md`. The paper (an education paper) has three content
//! tables rather than measurement tables; each experiment here runs the
//! *quantitative phenomenon* a table row teaches and prints it in the
//! lab-report format students would produce.
//!
//! Run everything:
//!
//! ```text
//! cargo run -p pdc-bench --bin experiments --release
//! ```
//!
//! or one experiment: `... -- --exp t1-parlife`. The binary's other
//! modes are the self-gates ([`gates`]), `--trace` (the [`traced`]
//! workload, gated by `pdc-analyze`) and `--render` (an HTML timeline).
//! This is the workspace's one measurement harness: real-hardware
//! timings are registry tables too (`pdc_core::stats::time_op`), and the
//! end-to-end benchmark lives in `benchmark/`.

#![warn(missing_docs)]

pub mod exp_analyze;
pub mod exp_check;
pub mod exp_e;
pub mod exp_ext;
pub mod exp_scenario;
pub mod exp_serve;
pub mod exp_span;
pub mod exp_t1;
pub mod exp_t2;
pub mod exp_t3;
pub mod exp_wire;
pub mod traced;
pub mod verdict;

use verdict::{Registration, Verdicts};

/// Timed runs behind every real-hardware cell: each reports the median
/// of this many, after one warm-up (`pdc_core::stats::time_op`).
pub(crate) const WALL_REPS: usize = 5;

/// One runnable experiment: id, paper anchor, and the renderer.
pub struct Experiment {
    /// Short id (`t1-parlife`).
    pub id: &'static str,
    /// What part of the paper it reproduces.
    pub anchor: &'static str,
    /// Runs the experiment and renders its table(s).
    pub run: fn() -> String,
}

/// The registry of every experiment, in paper order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "t1-datarep",
            anchor: "Table I: Data Representation lab",
            run: exp_t1::datarep,
        },
        Experiment {
            id: "t1-alu",
            anchor: "Table I: Building an ALU lab",
            run: exp_t1::alu,
        },
        Experiment {
            id: "t1-bomb",
            anchor: "Table I: Binary Bomb lab",
            run: exp_t1::bomb,
        },
        Experiment {
            id: "t1-veclab",
            anchor: "Table I: Python lists in C lab",
            run: exp_t1::veclab,
        },
        Experiment {
            id: "t1-shell",
            anchor: "Table I: Unix Shell lab",
            run: exp_t1::shell,
        },
        Experiment {
            id: "t1-life",
            anchor: "Table I: Game of Life lab (timing)",
            run: exp_t1::life_seq,
        },
        Experiment {
            id: "t1-parlife",
            anchor: "Table I: Parallel Game of Life + scalability study",
            run: exp_t1::parlife,
        },
        Experiment {
            id: "t2-cache",
            anchor: "Table II: The Memory Hierarchy",
            run: exp_t2::cache,
        },
        Experiment {
            id: "t2-os",
            anchor: "Table II: Operating Systems (scheduling, paging)",
            run: exp_t2::os,
        },
        Experiment {
            id: "t2-sync",
            anchor: "Table II: Parallel Algorithms and Programming (sync)",
            run: exp_t2::sync,
        },
        Experiment {
            id: "t2-threads",
            anchor: "Table II: Multicore & threads (real threads)",
            run: exp_t2::threads,
        },
        Experiment {
            id: "t2-amdahl",
            anchor: "Table II: Amdahl's Law, Scalability, Speed-up",
            run: exp_t2::amdahl,
        },
        Experiment {
            id: "t2-pipeline",
            anchor: "Table II: Pipelining, Super-scalar (lecture topics)",
            run: exp_t2::pipeline,
        },
        Experiment {
            id: "t3-models",
            anchor: "Table III: PRAM, Work, Span, Scalability",
            run: exp_t3::models,
        },
        Experiment {
            id: "t3-mergesort",
            anchor: "Table III: merge sort across RAM/parallel/I-O models",
            run: exp_t3::mergesort,
        },
        Experiment {
            id: "t3-problems",
            anchor: "Table III: Sorting, Selection, Matrix Computation",
            run: exp_t3::problems,
        },
        Experiment {
            id: "e-gpu",
            anchor: "Sec III-A (CS40): CUDA reduction ladder",
            run: exp_e::gpu,
        },
        Experiment {
            id: "e-collectives",
            anchor: "Sec III-A (CS87): MPI collectives, alpha-beta",
            run: exp_e::collectives,
        },
        Experiment {
            id: "e-falsesharing",
            anchor: "Sec III-A (CS75/CS87): false sharing",
            run: exp_e::false_sharing,
        },
        Experiment {
            id: "e-mapreduce",
            anchor: "Sec III-A (CS87): Map-Reduce (Hadoop lab)",
            run: exp_e::mapreduce,
        },
        Experiment {
            id: "e-ft",
            anchor: "Sec III-A (CS87): fault tolerance (task farm + crossover)",
            run: || {
                let mut out = exp_e::fault_tolerance();
                out.push('\n');
                out.push_str(&exp_e::allreduce_crossover());
                out
            },
        },
        Experiment {
            id: "ext-ray",
            anchor: "Sec III-A (CS40): hybrid MPI/GPU-cluster ray tracer",
            run: exp_ext::ray,
        },
        Experiment {
            id: "ext-compilers",
            anchor: "Sec III-A (CS75): compiler optimization unit",
            run: exp_ext::compilers,
        },
        Experiment {
            id: "ext-db",
            anchor: "Sec III-A (CS44): joins, DHT, 2PC, banker",
            run: exp_ext::db,
        },
        Experiment {
            id: "e-kv",
            anchor: "Sec III-A (CS45/CS87): client-server KV store",
            run: exp_e::kv,
        },
        Experiment {
            id: "e-batch",
            anchor: "Sec III-A (CS87): alpha-beta message batching crossover",
            run: exp_e::batch,
        },
        Experiment {
            id: "e-check",
            anchor: "Table II (sync/races): schedule-count vs defect detection",
            run: exp_check::check,
        },
    ]
}

/// One self-gating experiment, run as `experiments --<name>`: it checks
/// its properties both ways and records each as a verdict.
pub struct Gate {
    /// The flag without `--`; also names `target/pdc-verdicts/<name>.json`.
    pub name: &'static str,
    /// Runs the gate, recording every registered verdict.
    pub run: fn(&mut Verdicts),
    /// Its verdict names and directions, computed without running it.
    pub registered: fn() -> Registration,
}

/// Every gate, in CI matrix order.
pub fn gates() -> Vec<Gate> {
    type Row = (&'static str, fn(&mut Verdicts), fn() -> Registration);
    let rows: [Row; 6] = [
        ("analyze", exp_analyze::gate, exp_analyze::registered),
        ("serve", exp_serve::gate, exp_serve::registered),
        ("wire", exp_wire::gate, exp_wire::registered),
        ("scenario", exp_scenario::gate, exp_scenario::registered),
        ("span", exp_span::gate, exp_span::registered),
        ("check", exp_check::gate, exp_check::registered),
    ];
    let gate = |(name, run, registered): Row| Gate {
        name,
        run,
        registered,
    };
    rows.into_iter().map(gate).collect()
}

/// Run one gate and finish its record: exits 1 on any problem. A stale
/// verdict file goes first, so a gate that dies leaves none.
pub fn run_gate(gate: &Gate) {
    let _ = std::fs::remove_file(Verdicts::path(gate.name));
    let mut v = Verdicts::new(gate.name, (gate.registered)());
    (gate.run)(&mut v);
    v.finish();
}

/// The `--list` output: every registry experiment, then every gate.
pub fn list() -> String {
    let mut out = String::new();
    for e in registry() {
        out.push_str(&format!("{:16} {}\n", e.id, e.anchor));
    }
    for g in gates() {
        let n = (g.registered)().len();
        out.push_str(&format!("--{:14} gate, {n} verdicts\n", g.name));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use verdict::Expect;

    #[test]
    fn registry_ids_unique() {
        let reg = registry();
        let mut ids: Vec<&str> = reg.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate experiment ids");
        assert!(before >= 19);
    }

    #[test]
    fn every_gate_is_listed_and_registers_both_directions() {
        let gates = gates();
        let names: Vec<&str> = gates.iter().map(|g| g.name).collect();
        assert_eq!(
            names,
            ["analyze", "serve", "wire", "scenario", "span", "check"]
        );
        let listing = list();
        for g in &gates {
            assert!(listing.contains(&format!("--{} ", g.name)), "{}", g.name);
            let reg = (g.registered)();
            let mut unique: Vec<&str> = reg.iter().map(|(n, _)| n.as_str()).collect();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(
                unique.len(),
                reg.len(),
                "{}: duplicate verdict names",
                g.name
            );
            if ["analyze", "check", "serve", "span"].contains(&g.name) {
                for dir in [Expect::Detects, Expect::Holds] {
                    assert!(
                        reg.iter().any(|&(_, e)| e == dir),
                        "{} registers no {dir:?} verdict",
                        g.name
                    );
                }
            }
        }
    }

    /// The word at the start of `s`: letters, digits, `-` and `_`.
    fn word(s: &str) -> &str {
        let end = s
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-' || c == '_'))
            .unwrap_or(s.len());
        &s[..end]
    }

    /// The `--<flag>`s that `line` passes to the experiments binary:
    /// the token after `experiments`, or after `experiments … --` when
    /// cargo runs it (`--bin experiments --release -- --list`).
    fn experiments_flags(line: &str) -> Vec<&str> {
        let mut flags = Vec::new();
        for (i, _) in line.match_indices("experiments ") {
            let mut tokens = line[i + "experiments ".len()..].split_whitespace();
            let token = if line[..i].ends_with("--bin ") {
                tokens.find(|&t| t == "--").and_then(|_| tokens.next())
            } else {
                tokens.next().and_then(|t| match t {
                    "--" => tokens.next(),
                    t => Some(t),
                })
            };
            if let Some(flag) = token.and_then(|t| t.strip_prefix("--")).map(word) {
                if !flag.is_empty() {
                    flags.push(flag);
                }
            }
        }
        flags
    }

    #[test]
    fn docs_cite_only_what_runs() {
        let ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
        let gates = gates();
        let mut flags: Vec<&str> = gates.iter().map(|g| g.name).collect();
        flags.extend(["list", "exp", "trace", "render"]);
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut stale = Vec::new();
        for doc in [
            "DESIGN.md",
            "README.md",
            "EXPERIMENTS.md",
            ".claude/skills/verify/SKILL.md",
        ] {
            let text = std::fs::read_to_string(root.join(doc)).expect(doc);
            for (n, line) in text.lines().enumerate() {
                let mut cite = |what: String| stale.push(format!("{doc}:{}: {what}", n + 1));
                if line.contains("cargo bench") {
                    cite("`cargo bench`".into());
                }
                for pat in ["`bench ", "--bench "] {
                    for (i, _) in line.match_indices(pat) {
                        cite(format!("bench target {}", word(&line[i + pat.len()..])));
                    }
                }
                for (i, _) in line.match_indices("--exp ") {
                    let id = word(&line[i + "--exp ".len()..]);
                    if !id.is_empty() && !ids.contains(&id) {
                        cite(format!("--exp {id}"));
                    }
                }
                for flag in experiments_flags(line) {
                    if !flags.contains(&flag) {
                        cite(format!("experiments --{flag}"));
                    }
                }
            }
        }
        assert!(
            stale.is_empty(),
            "docs cite what no longer runs:\n{}",
            stale.join("\n")
        );
    }

    #[test]
    fn every_experiment_runs_and_produces_a_table() {
        for e in registry() {
            let out = (e.run)();
            assert!(
                out.contains("##") && out.contains('\n'),
                "{} produced no table",
                e.id
            );
        }
    }
}

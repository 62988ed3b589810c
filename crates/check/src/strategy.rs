//! Scheduling strategies and the `pdc-check/1` schedule format.
//!
//! A strategy is consulted at every decision point with the *enabled*
//! task set (sorted by task id) and returns the index of the task to
//! grant. Three strategies cover the checker's three modes:
//!
//! * [`Dfs`] — prefix-then-first, the classic stateless-model-checking
//!   enumeration: follow a forced prefix of branch indices, then always
//!   take index 0. The explorer backtracks by extending the deepest
//!   prefix position that still has an untried sibling, which walks the
//!   schedule tree depth-first and can certify *completeness*.
//! * [`Pct`] — probabilistic concurrency testing (Burckhardt et al.):
//!   random per-task priorities plus `d` random priority-change points.
//!   Finds depth-`d` bugs with probability ≥ 1/(n·k^(d-1)) per run,
//!   which in practice beats naive random walks by orders of magnitude.
//! * [`Replay`] — follow a recorded [`Schedule`]'s task-id choices
//!   exactly; *lenient* (falls back to enabled index 0 when the wanted
//!   task is gone), which is what makes prefix/splice shrinking work.

use pdc_core::json;
use pdc_core::rng::Rng;
use pdc_sync::hooks::TaskId;
use std::collections::HashMap;

/// One decision point, as recorded by the controller: which tasks were
/// enabled (sorted by id) and which index the strategy picked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChoiceRecord {
    /// Enabled task ids at this point, ascending.
    pub enabled: Vec<TaskId>,
    /// Index into `enabled` that was granted.
    pub picked_index: usize,
}

impl ChoiceRecord {
    /// The task id that was granted.
    pub fn picked_task(&self) -> TaskId {
        self.enabled[self.picked_index]
    }
}

/// A scheduling strategy: picks one index into the enabled set at each
/// decision point. Implementations must be deterministic functions of
/// their own state and the arguments — that is the whole point.
pub trait Decide: Send {
    /// Choose `enabled[return]` at decision `decision_index` (0-based,
    /// global across the schedule). Out-of-range returns are clamped by
    /// the controller.
    fn pick(&mut self, decision_index: usize, enabled: &[TaskId]) -> usize;
}

/// Prefix-then-first enumeration for exhaustive DFS.
pub struct Dfs {
    prefix: Vec<usize>,
}

impl Dfs {
    /// Follow `prefix` (branch indices), then always take index 0.
    pub fn new(prefix: Vec<usize>) -> Self {
        Dfs { prefix }
    }
}

impl Decide for Dfs {
    fn pick(&mut self, decision_index: usize, _enabled: &[TaskId]) -> usize {
        self.prefix.get(decision_index).copied().unwrap_or(0)
    }
}

/// Probabilistic concurrency testing: random priorities, `d − 1`
/// random change points.
pub struct Pct {
    rng: Rng,
    prios: HashMap<TaskId, u64>,
    /// Decision indices at which the running task's priority drops.
    change_at: Vec<usize>,
    /// Decreasing counter for the dropped priorities, so later drops
    /// sink below earlier ones (the PCT priority ladder).
    next_low: u64,
}

impl Pct {
    /// `depth` is PCT's `d` (bug depth to target, ≥ 1); `len_estimate`
    /// is `k`, the expected number of decision points per schedule.
    pub fn new(seed: u64, depth: usize, len_estimate: usize) -> Self {
        let mut rng = Rng::new(seed);
        let mut change_at: Vec<usize> = (1..depth)
            .map(|_| rng.gen_range(len_estimate.max(1) as u64) as usize)
            .collect();
        change_at.sort_unstable();
        change_at.dedup();
        Pct {
            rng,
            prios: HashMap::new(),
            change_at,
            next_low: u64::MAX / 2,
        }
    }
}

impl Decide for Pct {
    fn pick(&mut self, decision_index: usize, enabled: &[TaskId]) -> usize {
        for &t in enabled {
            if !self.prios.contains_key(&t) {
                // High band, above every possible change-point value.
                let p = u64::MAX / 2 + 1 + self.rng.gen_range(u64::MAX / 4);
                self.prios.insert(t, p);
            }
        }
        let idx = enabled
            .iter()
            .enumerate()
            .max_by_key(|(_, t)| self.prios[t])
            .map(|(i, _)| i)
            .unwrap_or(0);
        if self.change_at.binary_search(&decision_index).is_ok() {
            self.next_low -= 1;
            self.prios.insert(enabled[idx], self.next_low);
        }
        idx
    }
}

/// Lenient replay of a recorded choice sequence (task ids).
pub struct Replay {
    choices: Vec<TaskId>,
}

impl Replay {
    /// Replay `choices`; past the end, or when a wanted task is not
    /// enabled, fall back to enabled index 0.
    pub fn new(choices: Vec<TaskId>) -> Self {
        Replay { choices }
    }
}

impl Decide for Replay {
    fn pick(&mut self, decision_index: usize, enabled: &[TaskId]) -> usize {
        match self.choices.get(decision_index) {
            Some(want) => enabled.iter().position(|t| t == want).unwrap_or(0),
            None => 0,
        }
    }
}

/// Why a schedule file could not be parsed or replayed.
///
/// A schedule is external input (a file on disk, possibly hand-edited
/// or from another run): every way it can be wrong must surface as a
/// typed error here, never as a panic mid-replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The `"schema"` tag is present but not `pdc-check/1`.
    UnsupportedSchema(String),
    /// Structurally broken JSON, a missing key, or a bad value.
    Malformed(String),
    /// The schedule names a task id the body never spawned: decision
    /// `decision` wants task `task`, but only `task_count` tasks exist.
    TaskOutOfRange {
        /// 0-based decision index within the schedule.
        decision: usize,
        /// The out-of-range task id the schedule asked for.
        task: TaskId,
        /// How many tasks the body actually spawned (valid ids are
        /// `0..task_count`).
        task_count: usize,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::UnsupportedSchema(s) => {
                write!(
                    f,
                    "unsupported schema {s:?} (expected {:?})",
                    Schedule::SCHEMA
                )
            }
            ScheduleError::Malformed(msg) => write!(f, "malformed schedule: {msg}"),
            ScheduleError::TaskOutOfRange {
                decision,
                task,
                task_count,
            } => write!(
                f,
                "schedule references task {task} at decision {decision}, \
                 but the body only spawned {task_count} tasks"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A recorded schedule: the task-id sequence that reproduces one
/// interleaving, serialised as `pdc-check/1` JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Strategy that produced it (`"dfs"`, `"pct"`, `"replay"`).
    pub strategy: String,
    /// Seed the strategy ran with (0 for deterministic strategies).
    pub seed: u64,
    /// Task id granted at each decision point.
    pub choices: Vec<TaskId>,
}

impl Schedule {
    /// Schema tag all schedule files carry.
    pub const SCHEMA: &'static str = "pdc-check/1";

    /// Build from the controller's decision log.
    pub fn from_records(strategy: &str, seed: u64, records: &[ChoiceRecord]) -> Self {
        Schedule {
            strategy: strategy.to_string(),
            seed,
            choices: records.iter().map(ChoiceRecord::picked_task).collect(),
        }
    }

    /// Render as a one-line `pdc-check/1` JSON object.
    pub fn to_json(&self) -> String {
        let choices: Vec<String> = self.choices.iter().map(|c| c.to_string()).collect();
        format!(
            "{{\"schema\":\"{}\",\"strategy\":\"{}\",\"seed\":{},\"choices\":[{}]}}",
            Self::SCHEMA,
            self.strategy,
            self.seed,
            choices.join(",")
        )
    }

    /// Parse a `pdc-check/1` JSON object (the inverse of
    /// [`Schedule::to_json`]; whitespace-tolerant, order-insensitive).
    pub fn parse(text: &str) -> Result<Schedule, ScheduleError> {
        let malformed = |msg: &str| ScheduleError::Malformed(msg.to_string());
        let doc = json::parse(text).map_err(ScheduleError::Malformed)?;
        let fields = doc.as_object().ok_or_else(|| malformed("not an object"))?;
        let known = |k: &&String| matches!(k.as_str(), "schema" | "strategy" | "seed" | "choices");
        if let Some(key) = fields.keys().find(|k| !known(k)) {
            return Err(malformed(&format!("unknown key {key:?}")));
        }
        let field = |key: &str| {
            let missing = || malformed(&format!("missing {key:?}"));
            fields.get(key).ok_or_else(missing)
        };
        match field("schema")?.as_str() {
            Some(s) if s == Self::SCHEMA => {}
            Some(s) => return Err(ScheduleError::UnsupportedSchema(s.to_string())),
            None => return Err(malformed("\"schema\" is not a string")),
        }
        let strategy = field("strategy")?
            .as_str()
            .ok_or_else(|| malformed("\"strategy\" is not a string"))?;
        let seed = field("seed")?
            .as_u64()
            .ok_or_else(|| malformed("\"seed\" is not a u64"))?;
        let choices = field("choices")?
            .as_array()
            .ok_or_else(|| malformed("\"choices\" is not an array"))?
            .iter()
            .map(|c| c.as_u64().and_then(|c| TaskId::try_from(c).ok()))
            .collect::<Option<Vec<TaskId>>>()
            .ok_or_else(|| malformed("a choice is not a u32 task id"))?;
        Ok(Schedule {
            strategy: strategy.to_string(),
            seed,
            choices,
        })
    }

    /// Check every choice against the number of tasks the body actually
    /// spawns. Replay itself is lenient (shrinking depends on that);
    /// this is the up-front validation external schedules go through.
    pub fn validate_tasks(&self, task_count: usize) -> Result<(), ScheduleError> {
        for (decision, &task) in self.choices.iter().enumerate() {
            if task as usize >= task_count {
                return Err(ScheduleError::TaskOutOfRange {
                    decision,
                    task,
                    task_count,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_json_round_trips() {
        let s = Schedule {
            strategy: "pct".into(),
            seed: 42,
            choices: vec![0, 1, 1, 0, 2],
        };
        let json = s.to_json();
        assert!(json.contains("\"schema\":\"pdc-check/1\""));
        assert_eq!(Schedule::parse(&json).unwrap(), s);
    }

    #[test]
    fn seeds_above_2_pow_53_round_trip_exactly() {
        for seed in [u64::MAX, u64::MAX - 1, (1 << 53) + 1] {
            let s = Schedule {
                strategy: "pct".into(),
                seed,
                choices: vec![1, u32::MAX],
            };
            assert_eq!(Schedule::parse(&s.to_json()).unwrap(), s);
        }
    }

    #[test]
    fn empty_choices_round_trip() {
        let s = Schedule {
            strategy: "dfs".into(),
            seed: 0,
            choices: vec![],
        };
        assert_eq!(Schedule::parse(&s.to_json()).unwrap(), s);
    }

    #[test]
    fn parse_tolerates_whitespace_and_reordering() {
        let text = "{ \"choices\" : [ 1 , 0 ] ,\n  \"seed\" : 7 , \"strategy\" : \"pct\" ,\n  \"schema\" : \"pdc-check/1\" }";
        let s = Schedule::parse(text).unwrap();
        assert_eq!(s.seed, 7);
        assert_eq!(s.choices, vec![1, 0]);
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        let err = Schedule::parse(
            "{\"schema\":\"pdc-check/9\",\"strategy\":\"pct\",\"seed\":0,\"choices\":[]}",
        )
        .unwrap_err();
        assert!(matches!(err, ScheduleError::UnsupportedSchema(_)), "{err}");
        assert!(err.to_string().contains("unsupported schema"), "{err}");
    }

    #[test]
    fn parse_rejects_malformed_fields() {
        let doc = |seed: &str, choices: &str| {
            format!("{{\"schema\":\"pdc-check/1\",\"strategy\":\"pct\",\"seed\":{seed},\"choices\":{choices}}}")
        };
        for bad in [
            doc("1.5", "[]"),
            doc("-1", "[]"),
            doc("18446744073709551616", "[]"),
            doc("\"7\"", "[]"),
            doc("7", "[0,4294967296]"),
            doc("7", "[0.5]"),
            doc("7", "{}"),
            doc("7", "[]").replace("\"strategy\"", "\"mode\""),
            doc("7", "[]").replace(",\"seed\":7", ""),
            "{\"schema\":\"pdc-check/1\"".to_string(),
            "[]".to_string(),
            "[".repeat(1 << 20),
        ] {
            let err = Schedule::parse(&bad).unwrap_err();
            assert!(matches!(err, ScheduleError::Malformed(_)), "{bad}: {err}");
        }
    }

    #[test]
    fn validate_tasks_rejects_out_of_range_ids() {
        let s = Schedule {
            strategy: "replay".into(),
            seed: 0,
            choices: vec![0, 1, 99],
        };
        let err = s.validate_tasks(3).unwrap_err();
        assert_eq!(
            err,
            ScheduleError::TaskOutOfRange {
                decision: 2,
                task: 99,
                task_count: 3
            }
        );
        assert!(err.to_string().contains("task 99"), "{err}");
        s.validate_tasks(100).unwrap();
    }

    #[test]
    fn dfs_follows_prefix_then_first() {
        let mut d = Dfs::new(vec![2, 1]);
        let en = [0u32, 1, 2];
        assert_eq!(d.pick(0, &en), 2);
        assert_eq!(d.pick(1, &en), 1);
        assert_eq!(d.pick(2, &en), 0);
        assert_eq!(d.pick(99, &en), 0);
    }

    #[test]
    fn replay_is_lenient() {
        let mut r = Replay::new(vec![5, 1]);
        assert_eq!(r.pick(0, &[0, 1]), 0, "missing task falls back to 0");
        assert_eq!(r.pick(1, &[0, 1]), 1);
        assert_eq!(r.pick(2, &[0, 1]), 0, "past the end falls back to 0");
    }

    #[test]
    fn pct_is_deterministic_per_seed() {
        let run = |seed| {
            let mut p = Pct::new(seed, 3, 16);
            (0..12).map(|i| p.pick(i, &[0, 1, 2])).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        // Not a hard guarantee, but with 3 tasks over 12 decisions two
        // seeds agreeing everywhere would be a broken generator.
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn pct_prefers_the_highest_priority_enabled_task() {
        let mut p = Pct::new(1, 1, 8); // depth 1: no change points
        let full = p.pick(0, &[0, 1, 2]);
        let winner = [0u32, 1, 2][full];
        // With the winner absent, some other task is picked; with the
        // winner present again, the same task wins (priorities are
        // stable without change points).
        let rest: Vec<TaskId> = [0u32, 1, 2]
            .iter()
            .copied()
            .filter(|t| *t != winner)
            .collect();
        let second = rest[p.pick(1, &rest)];
        assert_ne!(second, winner);
        assert_eq!([0u32, 1, 2][p.pick(2, &[0, 1, 2])], winner);
    }
}

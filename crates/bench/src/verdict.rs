//! One verdict recorder for the self-gating experiments.
//!
//! A gate registers its verdict names up front, without running, and
//! records each as it checks it; [`Verdicts::finish`] writes
//! `target/pdc-verdicts/<gate>.json` (`pdc-verdicts/1`), prints one
//! table, and exits 1 if a registered verdict is missing, recorded
//! twice, unregistered, or failed. A gate that dies first leaves no
//! file, so CI asks each gate one question: `"all_passed":true`?

use pdc_core::report::{json_escape, write_text_file, Align, Table};
use std::path::{Path, PathBuf};

/// Which direction a verdict checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A contract holds: the fixed code passes clean.
    Holds,
    /// A seeded bug or fault is caught.
    Detects,
}

/// What a recorded verdict came to; `Skip` means this host cannot show
/// it (wall-clock speedup needs two cores).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Pass,
    Fail,
    Skip,
}

/// A gate's registered verdicts: each name and its direction.
pub type Registration = Vec<(String, Expect)>;

/// Turn a static `(name, direction)` list into a registration.
pub fn named(list: &[(&str, Expect)]) -> Registration {
    list.iter().map(|&(n, e)| (n.to_string(), e)).collect()
}

/// The schema spelling of an [`Expect`] or [`Status`]: `holds`, `skip`.
fn lower(value: impl std::fmt::Debug) -> String {
    format!("{value:?}").to_lowercase()
}

/// Comma-joined JSON string literals.
fn json_strings<S: AsRef<str>>(items: &[S]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", json_escape(s.as_ref())))
        .collect();
    quoted.join(",")
}

/// One gate's verdicts: the registered names, then what was recorded.
pub struct Verdicts {
    gate: String,
    registered: Registration,
    /// `(name, status, observed)` in recording order.
    recorded: Vec<(String, Status, String)>,
    /// `(verdict name, artifact path)`.
    evidence: Vec<(String, String)>,
}

impl Verdicts {
    /// Start recording for `gate` (the flag without `--`), which must
    /// record exactly the `registered` names.
    pub fn new(gate: &str, registered: Registration) -> Verdicts {
        Verdicts {
            gate: gate.to_string(),
            registered,
            recorded: Vec::new(),
            evidence: Vec::new(),
        }
    }

    /// Record verdict `name` as passed when `ok`, failed otherwise, with
    /// what was measured. Returns `ok`.
    pub fn check(&mut self, name: &str, ok: bool, observed: impl Into<String>) -> bool {
        let status = if ok { Status::Pass } else { Status::Fail };
        self.recorded
            .push((name.to_string(), status, observed.into()));
        ok
    }

    /// Record verdict `name` as not checkable on this host, and why.
    pub fn skip(&mut self, name: &str, why: impl Into<String>) {
        self.recorded
            .push((name.to_string(), Status::Skip, why.into()));
    }

    /// Name `path` as an artifact verdict `name` read its fact from.
    pub fn evidence(&mut self, name: &str, path: &Path) {
        let path = path.display().to_string();
        self.evidence.push((name.to_string(), path));
    }

    /// Record verdict `name` from an artifact read back from disk: it
    /// passes when `path` contains every one of `needles`, and names the
    /// file as evidence.
    pub fn file_contains(&mut self, name: &str, path: &Path, needles: &[&str]) -> bool {
        self.evidence(name, path);
        let (ok, observed) = match std::fs::read_to_string(path) {
            Err(e) => (false, format!("unreadable: {e}")),
            Ok(text) => match needles.iter().find(|n| !text.contains(**n)) {
                Some(n) => (false, format!("no {n} in {} bytes", text.len())),
                None => (true, format!("has {}", needles.join(" "))),
            },
        };
        self.check(name, ok, observed)
    }

    /// Where `gate`'s verdicts land: `target/pdc-verdicts/<gate>.json`.
    pub fn path(gate: &str) -> PathBuf {
        Path::new("target/pdc-verdicts").join(format!("{gate}.json"))
    }

    fn expect_of(&self, name: &str) -> Option<Expect> {
        let found = self.registered.iter().find(|(n, _)| n == name);
        found.map(|&(_, e)| e)
    }

    /// Everything wrong with the record: a registered verdict missing or
    /// recorded twice, a verdict or evidence under an unregistered name,
    /// and every failed verdict. A skip is not a problem.
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (name, _) in &self.registered {
            match self.recorded.iter().filter(|(n, ..)| n == name).count() {
                0 => out.push(format!("{name}: registered but never recorded")),
                1 => {}
                n => out.push(format!("{name}: recorded {n} times")),
            }
        }
        for (name, status, observed) in &self.recorded {
            if self.expect_of(name).is_none() {
                out.push(format!("{name}: recorded but not registered"));
            }
            if *status == Status::Fail {
                out.push(format!("{name}: failed: {observed}"));
            }
        }
        for (name, path) in &self.evidence {
            if self.expect_of(name).is_none() {
                out.push(format!("{name}: unregistered evidence {path}"));
            }
        }
        out
    }

    /// The `pdc-verdicts/1` document.
    fn to_json(&self) -> String {
        // All passed: no problems, and no skip either.
        let skipped = self.recorded.iter().any(|(_, s, _)| *s == Status::Skip);
        let verdicts: Vec<String> = self
            .recorded
            .iter()
            .map(|(name, status, observed)| {
                let evidence: Vec<&str> = self
                    .evidence
                    .iter()
                    .filter(|(n, _)| n == name)
                    .map(|(_, p)| p.as_str())
                    .collect();
                format!(
                    "{{\"name\":\"{}\",\"expect\":{},\"observed\":\"{}\",\"status\":\"{}\",\"evidence\":[{}]}}",
                    json_escape(name),
                    self.expect_of(name)
                        .map_or("null".to_string(), |e| format!("\"{}\"", lower(e))),
                    json_escape(observed),
                    lower(status),
                    json_strings(&evidence)
                )
            })
            .collect();
        format!(
            "{{\"schema\":\"pdc-verdicts/1\",\"gate\":\"{}\",\"registered\":{},\"all_passed\":{},\"problems\":[{}],\"verdicts\":[{}]}}",
            json_escape(&self.gate),
            self.registered.len(),
            !skipped && self.problems().is_empty(),
            json_strings(&self.problems()),
            verdicts.join(",")
        )
    }

    /// Write `target/pdc-verdicts/<gate>.json`, print the verdicts as one
    /// table, and exit 1 if there is any problem.
    pub fn finish(self) {
        let path = Verdicts::path(&self.gate);
        write_text_file(&path, &self.to_json()).expect("write verdicts json");
        let title = format!("{} gate verdicts ({})", self.gate, path.display());
        let mut t = Table::new(title, &["verdict", "expect", "status", "observed"])
            .with_aligns(&[Align::Left; 4]);
        for (name, status, observed) in &self.recorded {
            let expect = self.expect_of(name).map_or("-".to_string(), lower);
            t.row(&[name.clone(), expect, lower(status), observed.clone()]);
        }
        print!("{}", t.render());
        let problems = self.problems();
        for p in &problems {
            eprintln!("{} gate FAILED: {p}", self.gate);
        }
        if !problems.is_empty() {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two() -> Registration {
        named(&[("bug_found", Expect::Detects), ("fix_clean", Expect::Holds)])
    }

    #[test]
    fn complete_passing_record_has_no_problems() {
        let mut v = Verdicts::new("demo", two());
        assert!(v.check("bug_found", true, "1 race"));
        v.check("fix_clean", true, "0 defects");
        assert!(v.problems().is_empty());
        assert!(v.to_json().contains("\"all_passed\":true"));
    }

    #[test]
    fn problems_flag_missing_duplicate_unregistered_and_failed() {
        let mut v = Verdicts::new("demo", two());
        v.check("bug_found", true, "first");
        v.check("bug_found", true, "second");
        v.check("typo", true, "stray");
        v.evidence("other_typo", Path::new("x.json"));
        let mut w = Verdicts::new("demo", two());
        w.check("bug_found", false, "missed");
        w.check("fix_clean", true, "ok");
        let p = v.problems();
        assert!(p.contains(&"fix_clean: registered but never recorded".to_string()));
        assert!(p.contains(&"bug_found: recorded 2 times".to_string()));
        assert!(p.contains(&"typo: recorded but not registered".to_string()));
        assert!(p.contains(&"other_typo: unregistered evidence x.json".to_string()));
        assert_eq!(p.len(), 4, "{p:?}");
        assert_eq!(w.problems(), ["bug_found: failed: missed"]);
    }

    #[test]
    fn a_body_that_returns_early_is_flagged() {
        fn body(v: &mut Verdicts, fixture_ok: bool) {
            if !v.check("bug_found", fixture_ok, "fixture") {
                return;
            }
            v.check("fix_clean", true, "0 defects");
        }
        let mut v = Verdicts::new("demo", two());
        body(&mut v, false);
        assert_eq!(
            v.problems(),
            [
                "fix_clean: registered but never recorded",
                "bug_found: failed: fixture"
            ]
        );
    }

    #[test]
    fn a_skip_is_no_problem_but_not_all_passed() {
        let mut v = Verdicts::new("demo", two());
        v.check("bug_found", true, "1 race");
        v.skip("fix_clean", "single-core host");
        assert!(v.problems().is_empty());
        assert!(v.to_json().contains("\"all_passed\":false"));
    }

    #[test]
    fn file_contains_reads_the_artifact_back() {
        let path = std::env::temp_dir().join(format!("pdc-verdict-{}.json", std::process::id()));
        std::fs::write(&path, "{\"clean\":true}").expect("write temp artifact");
        let mut v = Verdicts::new("demo", two());
        assert!(v.file_contains("fix_clean", &path, &["\"clean\":true"]));
        assert!(!v.file_contains("bug_found", &path, &["\"kind\":\"data_race\""]));
        std::fs::remove_file(&path).expect("remove temp artifact");
        assert!(!v.file_contains("fix_clean", &path, &[]));
        assert_eq!(v.problems().len(), 3, "{:?}", v.problems());
        assert!(v
            .to_json()
            .contains(&format!("\"evidence\":[\"{}\"]", path.display())));
    }

    #[test]
    fn json_matches_the_golden_document() {
        let mut v = Verdicts::new("demo", two());
        v.check("bug_found", true, "flagged \"data_race\"");
        v.evidence("bug_found", Path::new("target/x.json"));
        v.check("fix_clean", false, "2 defects");
        assert_eq!(
            v.to_json(),
            concat!(
                "{\"schema\":\"pdc-verdicts/1\",\"gate\":\"demo\",\"registered\":2,",
                "\"all_passed\":false,\"problems\":[\"fix_clean: failed: 2 defects\"],",
                "\"verdicts\":[{\"name\":\"bug_found\",\"expect\":\"detects\",",
                "\"observed\":\"flagged \\\"data_race\\\"\",\"status\":\"pass\",",
                "\"evidence\":[\"target/x.json\"]},{\"name\":\"fix_clean\",",
                "\"expect\":\"holds\",\"observed\":\"2 defects\",\"status\":\"fail\",",
                "\"evidence\":[]}]}"
            )
        );
    }
}

//! Aligned text tables for experiment reports.
//!
//! The `experiments` binary in `pdc-bench` regenerates every paper
//! table/figure as a text table; this module is the shared formatter. The
//! output style mirrors the paper's tables: a header row, a rule, and
//! column-aligned body rows.

use std::cell::RefCell;
use std::fmt::Write as _;

thread_local! {
    /// When installed by [`capture_tables`], every [`Table::render`]
    /// call on this thread also pushes its [`Table::to_json`] form here.
    static TABLE_SINK: RefCell<Option<Vec<String>>> = const { RefCell::new(None) };
}

/// Run `f` while capturing, as JSON, every table rendered on this
/// thread, and return `f`'s result alongside the captured tables.
///
/// This is how the `experiments` binary emits each printed table as
/// JSON next to the trace snapshot without threading a sink through
/// every experiment function. Captures nest: an inner capture takes
/// the tables rendered inside it and the outer capture resumes after.
pub fn capture_tables<R>(f: impl FnOnce() -> R) -> (R, Vec<String>) {
    let prev = TABLE_SINK.with(|s| s.borrow_mut().replace(Vec::new()));
    let result = f();
    let captured = TABLE_SINK.with(|s| {
        let mut slot = s.borrow_mut();
        let cur = slot.take().unwrap_or_default();
        *slot = prev;
        cur
    });
    (result, captured)
}

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Left-aligned (labels).
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// A simple text table builder.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a title and column headers. All columns default
    /// to right alignment except the first.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        let headers: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
        let aligns = headers
            .iter()
            .enumerate()
            .map(|(i, _)| if i == 0 { Align::Left } else { Align::Right })
            .collect();
        Table {
            title: title.into(),
            headers,
            aligns,
            rows: Vec::new(),
        }
    }

    /// Override column alignments.
    ///
    /// # Panics
    /// Panics if the count differs from the header count.
    pub fn with_aligns(mut self, aligns: &[Align]) -> Self {
        assert_eq!(aligns.len(), self.headers.len(), "alignment count mismatch");
        self.aligns = aligns.to_vec();
        self
    }

    /// Append a row of pre-formatted cells.
    ///
    /// # Panics
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "cell count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Append a row from displayable values.
    pub fn row_display(&mut self, cells: &[&dyn std::fmt::Display]) {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&cells);
    }

    /// Number of body rows so far.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Render the table as a `{"title", "headers", "rows"}` JSON
    /// object (all cells as strings, exactly as printed). Part of the
    /// `pdc-trace/2` snapshot format; see EXPERIMENTS.md.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"title\":\"{}\",\"headers\":[",
            json_escape(&self.title)
        );
        for (i, h) in self.headers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", json_escape(h));
        }
        out.push_str("],\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, cell) in row.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\"", json_escape(cell));
            }
            out.push(']');
        }
        out.push_str("]}");
        out
    }

    /// Render the table to a string.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "## {}", self.title);
        }
        let fmt_row = |cells: &[String], widths: &[usize], aligns: &[Align]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                if i > 0 {
                    line.push_str("  ");
                }
                let w = widths[i];
                match aligns[i] {
                    Align::Left => {
                        let _ = write!(line, "{:<w$}", cells[i], w = w);
                    }
                    Align::Right => {
                        let _ = write!(line, "{:>w$}", cells[i], w = w);
                    }
                }
            }
            line.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths, &self.aligns));
        let rule_len = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        let _ = writeln!(out, "{}", "-".repeat(rule_len));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths, &self.aligns));
        }
        TABLE_SINK.with(|s| {
            if let Some(sink) = s.borrow_mut().as_mut() {
                sink.push(self.to_json());
            }
        });
        out
    }
}

/// Escape a string for embedding in a JSON string literal.
///
/// Used by the pdc-trace export ([`crate::trace::TraceSession::to_json`]);
/// the build is offline so the JSON writer is hand-rolled, and this is
/// its single escaping point.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Write `contents` to `path`, creating parent directories as needed.
///
/// The experiment harness (`pdc-bench`) writes every artifact through
/// this: `pdc-trace/2` snapshots, `pdc-analyze/1` reports, tables JSON
/// and HTML timelines.
pub fn write_text_file(path: &std::path::Path, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, contents)
}

/// Format a float with `prec` decimals (helper for table rows).
pub fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// Format a speedup as `12.3x`.
pub fn speedup_fmt(v: f64) -> String {
    format!("{v:.2}x")
}

/// Format a large count with thousands separators (`1_234_567`).
pub fn count_fmt(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push('_');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("Demo", &["name", "n", "time"]);
        t.row(&["short".into(), "8".into(), "1.5".into()]);
        t.row(&["a-longer-name".into(), "1024".into(), "12.25".into()]);
        let s = t.render();
        assert!(s.contains("## Demo"));
        let lines: Vec<&str> = s.lines().collect();
        // header, rule, two body rows (+title).
        assert_eq!(lines.len(), 5);
        // Right-aligned numeric column: "8" and "1024" end at same offset.
        let h = lines[1];
        let r1 = lines[3];
        let r2 = lines[4];
        assert_eq!(h.len().max(r1.len()), r2.len().max(r1.len()));
    }

    #[test]
    #[should_panic(expected = "cell count mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn count_fmt_groups() {
        assert_eq!(count_fmt(0), "0");
        assert_eq!(count_fmt(999), "999");
        assert_eq!(count_fmt(1000), "1_000");
        assert_eq!(count_fmt(1234567), "1_234_567");
    }

    #[test]
    fn float_helpers() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(speedup_fmt(3.456), "3.46x");
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain.name"), "plain.name");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("line\nbreak\t"), "line\\nbreak\\t");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn table_to_json_matches_cells() {
        let mut t = Table::new("I/O \"sweep\"", &["order", "ios"]);
        t.row(&["row-major".into(), "256".into()]);
        assert_eq!(
            t.to_json(),
            "{\"title\":\"I/O \\\"sweep\\\"\",\"headers\":[\"order\",\"ios\"],\
             \"rows\":[[\"row-major\",\"256\"]]}"
        );
    }

    #[test]
    fn capture_tables_collects_rendered_tables() {
        let (text, tables) = capture_tables(|| {
            let mut a = Table::new("A", &["x"]);
            a.row(&["1".into()]);
            let b = Table::new("B", &["y"]);
            format!("{}{}", a.render(), b.render())
        });
        assert!(text.contains("## A"));
        assert_eq!(tables.len(), 2);
        assert!(tables[0].starts_with("{\"title\":\"A\""));
        assert!(tables[1].starts_with("{\"title\":\"B\""));
        // Outside a capture, rendering records nothing.
        let (_, empty) = capture_tables(|| ());
        assert!(empty.is_empty());
    }

    #[test]
    fn row_display_converts() {
        let mut t = Table::new("", &["p", "s"]);
        t.row_display(&[&4usize, &2.5f64]);
        assert_eq!(t.num_rows(), 1);
        assert!(t.render().contains("2.5"));
    }
}

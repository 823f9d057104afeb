//! Text-table and CSV rendering shared by the figure drivers.

use std::fmt::Write as _;

use crate::grid::GridResult;

/// A simple column-aligned text table with a title, built row by row —
/// the figures print in this form (one row per benchmark plus AMEAN).
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (first cell is usually the benchmark name).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Renders as CSV (comma-separated, title as a comment line).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
}

/// Formats a fraction with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a count/cycles value compactly.
pub fn fcycles(x: f64) -> String {
    if x >= 1e6 {
        format!("{:.2}M", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.1}K", x / 1e3)
    } else {
        format!("{x:.0}")
    }
}

/// Renders the in-flight request tracking summary of a grid run: per
/// configuration, the scaled fill count, merged-waiter count, merge rate,
/// cycles lost to a full MSHR file and the peak per-cluster occupancy.
pub fn mshr_table(result: &GridResult) -> Table {
    let mut t = Table::new(
        "In-flight request tracking (MSHR) summary",
        &[
            "config",
            "fills",
            "merged",
            "merge rate",
            "full-stall",
            "peak occ",
        ],
    );
    let mix = result.mshr_by_config();
    for (c, (label, _)) in result.configs().iter().enumerate() {
        let [fills, merged, full_stall] = mix[c];
        let rate = if fills + merged > 0.0 {
            merged / (fills + merged)
        } else {
            0.0
        };
        t.row(vec![
            label.clone(),
            fcycles(fills),
            fcycles(merged),
            f3(rate),
            fcycles(full_stall),
            result.mshr_peak_by_config(c).to_string(),
        ]);
    }
    t
}

/// Renders the schedule-quality summary of a grid run: per configuration,
/// how many loop schedules are heuristic, proven optimal, or limited by
/// an exact-search cutoff. The cutoff column is the report-level surface
/// of `SchedStats::cutoffs` — budget exhaustion is always visible, never
/// a silent fallback to the heuristic result.
pub fn backend_quality_table(result: &GridResult) -> Table {
    let mut t = Table::new(
        "Scheduler-backend quality summary",
        &["config", "loops", "heuristic", "proven", "cutoff"],
    );
    let quality = result.quality_by_config();
    for (c, (label, _)) in result.configs().iter().enumerate() {
        let [heuristic, proven, cutoff] = quality[c];
        t.row(vec![
            label.clone(),
            (heuristic + proven + cutoff).to_string(),
            heuristic.to_string(),
            proven.to_string(),
            cutoff.to_string(),
        ]);
    }
    t
}

/// Arithmetic mean of an iterator (NaN on empty).
pub fn amean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test assertions may unwrap
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["bench", "value"]);
        t.row(vec!["gsmdec".into(), "0.5".into()]);
        t.row(vec!["x".into(), "12.125".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("gsmdec"));
        let lines: Vec<&str> = s.lines().collect();
        // all data lines have equal length (alignment)
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn csv_roundtrip_shape() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.lines().nth(1).unwrap() == "a,b");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn amean_basics() {
        assert!((amean([1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!(amean([]).is_nan());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(fcycles(1_500_000.0), "1.50M");
        assert_eq!(fcycles(2_500.0), "2.5K");
        assert_eq!(fcycles(42.0), "42");
    }
}

//! Plain-text rendering of experiment results.
//!
//! The benchmark harness regenerates each paper table/figure as a text
//! table or data series printed to stdout and captured in `EXPERIMENTS.md`.
//! This module renders aligned tables and simple series blocks without any
//! external dependency.

use std::fmt::Write as _;

/// A plain-text table with a title, a header row, and data rows, rendered
/// with aligned columns.
///
/// # Example
///
/// ```
/// use xanadu_simcore::report::Table;
///
/// let mut t = Table::new("Figure 99: demo", &["chain len", "overhead (ms)"]);
/// t.row(&["1", "3012"]);
/// t.row(&["2", "6110"]);
/// let text = t.render();
/// assert!(text.contains("Figure 99: demo"));
/// assert!(text.contains("chain len"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row. Rows shorter than the header are padded with
    /// empty cells; longer rows are allowed and widen the table.
    pub fn row(&mut self, cells: &[&str]) -> &mut Self {
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Appends a row of already-owned cells.
    pub fn row_owned(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        let consider = |widths: &mut Vec<usize>, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        };
        consider(&mut widths, &self.header);
        for r in &self.rows {
            consider(&mut widths, r);
        }

        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("| ");
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let pad = w - cell.chars().count();
                line.push_str(cell);
                line.push_str(&" ".repeat(pad));
                line.push_str(" | ");
            }
            line.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&"-".repeat(w + 2));
            sep.push('|');
        }
        let _ = writeln!(out, "{sep}");
        for r in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(r, &widths));
        }
        out
    }
}

/// Formats a float with the given number of decimal places, trimming `-0`.
pub fn fmt_f64(x: f64, decimals: usize) -> String {
    let s = format!("{x:.decimals$}");
    if s.starts_with("-0.") && s[1..].parse::<f64>() == Ok(0.0) {
        s[1..].to_string()
    } else {
        s
    }
}

/// Renders an `(x, y)` data series as a labelled block, one point per line —
/// the textual equivalent of one curve on a paper figure.
///
/// # Example
///
/// ```
/// use xanadu_simcore::report::render_series;
///
/// let s = render_series("knative", &[(1.0, 7.6), (2.0, 15.2)], "len", "overhead_s");
/// assert!(s.contains("series knative"));
/// assert!(s.contains("len=1 overhead_s=7.600"));
/// ```
pub fn render_series(name: &str, points: &[(f64, f64)], x_label: &str, y_label: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "series {name} ({} points)", points.len());
    for (x, y) in points {
        let x_txt = if x.fract() == 0.0 {
            format!("{}", *x as i64)
        } else {
            fmt_f64(*x, 3)
        };
        let _ = writeln!(out, "  {x_label}={x_txt} {y_label}={}", fmt_f64(*y, 3));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_and_content() {
        let mut t = Table::new("T", &["a", "long-header"]);
        t.row(&["xxxxxx", "1"]);
        t.row(&["y", "22"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines[0], "## T");
        // All data lines have the same width.
        let widths: Vec<usize> = lines[1..].iter().map(|l| l.chars().count()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{r}");
        assert!(r.contains("xxxxxx"));
    }

    #[test]
    fn table_pads_short_rows() {
        let mut t = Table::new("T", &["a", "b", "c"]);
        t.row(&["1"]);
        let r = t.render();
        assert!(r.contains("| 1 |"));
    }

    #[test]
    fn table_len_and_empty() {
        let mut t = Table::new("T", &["a"]);
        assert!(t.is_empty());
        t.row(&["1"]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn row_owned_appends() {
        let mut t = Table::new("T", &["a"]);
        t.row_owned(vec!["zz".to_string()]);
        assert!(t.render().contains("zz"));
    }

    #[test]
    fn fmt_f64_basics() {
        assert_eq!(fmt_f64(1.23456, 2), "1.23");
        assert_eq!(fmt_f64(-0.0001, 2), "0.00");
        assert_eq!(fmt_f64(-1.5, 1), "-1.5");
    }

    #[test]
    fn series_renders_points() {
        let s = render_series("x", &[(1.0, 2.5)], "d", "v");
        assert!(s.contains("series x (1 points)"));
        assert!(s.contains("d=1 v=2.500"));
    }

    #[test]
    fn series_fractional_x() {
        let s = render_series("x", &[(0.5, 1.0)], "d", "v");
        assert!(s.contains("d=0.500"));
    }
}

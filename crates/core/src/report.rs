//! Plain-text table/series emitters for campaign results.
//!
//! The `repro` binary prints every reproduced table and figure through
//! these helpers; they also render to CSV for plotting.

use std::fmt::Write as _;

/// A simple column-aligned table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// A mismatched cell count is an emitter bug, so debug builds panic
    /// on it; release builds normalize the row instead — padding with
    /// empty cells or truncating — rather than abort a multi-hour
    /// campaign at print time.
    ///
    /// # Panics
    ///
    /// With debug assertions enabled, panics if the cell count does not
    /// match the header count.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        debug_assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        let mut row = cells.to_vec();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
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

    /// Renders as an aligned plain-text table.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let mut line = String::new();
        for (h, w) in self.headers.iter().zip(&widths) {
            let _ = write!(line, "{h:>w$}  ");
        }
        let _ = writeln!(out, "{}", line.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(line.trim_end().len()));
        for row in &self.rows {
            let mut line = String::new();
            for (cell, w) in row.iter().zip(&widths) {
                let _ = write!(line, "{cell:>w$}  ");
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }

    /// Renders as CSV (headers first).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
}

/// Formats a float with the given decimals.
pub fn fmt(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// Formats a normalized value (2 decimals, the paper's Table-2 style).
pub fn norm(v: f64) -> String {
    fmt(v, 2)
}

/// Formats an accuracy as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new("Demo", &["V (mV)", "Acc"]);
        t.row(&["850".to_string(), pct(0.86)]);
        t.row(&["540".to_string(), pct(0.07)]);
        t
    }

    #[test]
    fn text_render_is_aligned() {
        let text = table().to_text();
        assert!(text.contains("== Demo =="));
        assert!(text.contains("V (mV)"));
        assert!(text.contains("86.0%"));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn csv_render() {
        let csv = table().to_csv();
        assert_eq!(csv.lines().next().unwrap(), "V (mV),Acc");
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_checked_in_debug() {
        Table::new("t", &["a", "b"]).row(&["x".to_string()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(norm(1.256), "1.26");
        assert_eq!(pct(0.925), "92.5%");
        assert_eq!(fmt(12.589, 1), "12.6");
    }
}

//! Result-table rendering (markdown).

use std::fmt;

/// A simple column-labelled results table.
///
/// The benchmark harness uses one `Table` per reconstructed paper table or
/// figure series, rendered to markdown.
///
/// ```
/// use cpe_stats::Table;
///
/// let mut t = Table::new(["config", "IPC", "relative"]);
/// t.row(["1 port", "1.52", "0.78"]);
/// t.row(["2 ports", "1.95", "1.00"]);
/// assert_eq!(t.to_markdown().lines().count(), 4); // header, rule, two rows
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new<I, S>(header: I) -> Table
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row.
    ///
    /// # Panics
    ///
    /// Panics when the row's cell count differs from the header's.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Table
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.header.len(),
            "row has {} cells but the table has {} columns",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as a GitHub-flavoured markdown table with aligned columns.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let render_row = |cells: &[String]| -> String {
            let mut line = String::from("|");
            for (cell, width) in cells.iter().zip(&widths) {
                line.push_str(&format!(" {cell:<width$} |"));
            }
            line.push('\n');
            line
        };
        let mut out = render_row(&self.header);
        out.push('|');
        for width in &widths {
            out.push_str(&format!("{:-<w$}|", "", w = width + 2));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_markdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_aligns_columns() {
        let mut t = Table::new(["name", "x"]);
        t.row(["short", "1"]);
        t.row(["a-much-longer-name", "22"]);
        let md = t.to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 4);
        let widths: Vec<usize> = lines.iter().map(|l| l.len()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{md}");
        assert!(lines[1].starts_with("|-"));
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn mismatched_row_width_panics() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn len_and_emptiness() {
        let mut t = Table::new(["a"]);
        assert!(t.is_empty());
        t.row(["1"]).row(["2"]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn empty_table_renders_header_and_rule_only() {
        let t = Table::new(["alpha", "beta"]);
        let md = t.to_markdown();
        assert_eq!(md, "| alpha | beta |\n|-------|------|\n");
    }

    #[test]
    fn display_matches_markdown() {
        let mut t = Table::new(["a"]);
        t.row(["1"]);
        assert_eq!(t.to_string(), t.to_markdown());
    }
}

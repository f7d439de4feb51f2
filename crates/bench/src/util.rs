//! Result-table formatting and small statistics helpers.

use std::fmt;

/// A plain-text aligned table, the output format of every experiment.
/// Serializable: the run report carries every table under `tables`
/// (`target/run-reports/<name>.json`), next to the printed text.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table heading, printed as a markdown section title.
    pub title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

serde::impl_serialize!(Table {
    title,
    headers,
    rows,
    notes
});

impl Table {
    /// Create an empty table with the given column headers.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append one row; must match the header arity.
    pub fn row<S: ToString>(&mut self, cells: &[S]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Append a free-form footnote line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// All rows appended so far.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// The cell at (row, col) — for assertions in tests.
    pub fn cell(&self, row: usize, col: usize) -> &str {
        &self.rows[row][col]
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        writeln!(f, "## {}", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, w) in widths.iter().enumerate() {
                write!(
                    f,
                    " {:<w$} |",
                    cells.get(i).map(String::as_str).unwrap_or(""),
                    w = w
                )?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<w$}|", "", w = w + 2)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            line(f, row)?;
        }
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        Ok(())
    }
}

/// Mean of a slice (0 for empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Format microseconds as milliseconds with 2 decimals.
pub fn ms(us: u64) -> String {
    format!("{:.2}", us as f64 / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["mode", "hops"]);
        t.row(&["Out-IE", "5"]);
        t.row(&["Out-DH", "2"]);
        t.note("lower is better");
        let s = t.to_string();
        assert!(s.contains("## demo"));
        assert!(s.contains("| Out-IE | 5    |"));
        assert!(s.contains("note: lower is better"));
        assert_eq!(t.cell(1, 1), "2");
        assert_eq!(t.rows().len(), 2);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["only one"]);
    }

    #[test]
    fn stats() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(ms(1234), "1.23");
    }
}

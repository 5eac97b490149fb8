use serde::{Deserialize, Serialize};

/// A printable, serializable experiment result table (one per paper
/// figure / sub-figure).
///
/// # Examples
///
/// ```
/// use dpss_bench::FigureTable;
///
/// let mut t = FigureTable::new("Fig. X", &["V", "cost"]);
/// t.push_row(&["1", "34.5"]);
/// let shown = t.render();
/// assert!(shown.contains("Fig. X") && shown.contains("34.5"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FigureTable {
    /// Figure title (e.g. `"Fig. 6(a): time-average cost vs V"`).
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows, same arity as `columns`.
    pub rows: Vec<Vec<String>>,
}

impl FigureTable {
    /// Creates an empty table with the given title and column headers.
    #[must_use]
    pub fn new(title: &str, columns: &[&str]) -> Self {
        FigureTable {
            title: title.to_owned(),
            columns: columns.iter().map(|&c| c.to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row arity does not match the header.
    pub fn push_row(&mut self, row: &[&str]) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(row.iter().map(|&c| c.to_owned()).collect());
    }

    /// Appends a row of already-owned cells.
    ///
    /// # Panics
    ///
    /// Panics if the row arity does not match the header.
    pub fn push_owned(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Renders the table as aligned plain text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = format!("{}\n", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.columns, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = FigureTable::new("title", &["a", "long-header"]);
        t.push_row(&["1", "2"]);
        t.push_owned(vec!["333".into(), "4".into()]);
        let s = t.render();
        assert!(s.starts_with("title\n"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5); // title, header, rule, 2 rows
                                    // All data lines are equally wide.
        assert_eq!(lines[1].len(), lines[3].len());
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let mut t = FigureTable::new("t", &["a", "b"]);
        t.push_row(&["only-one"]);
    }

    #[test]
    fn json_round_trip() {
        let mut t = FigureTable::new("t", &["x"]);
        t.push_row(&["1"]);
        let json = serde_json::to_string(&t).unwrap();
        let back: FigureTable = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}

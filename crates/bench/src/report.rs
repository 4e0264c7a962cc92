//! Minimal aligned-table reporting (keeps the harness dependency-free).

/// A simple right-aligned text table.
#[derive(Debug, Clone)]
pub(crate) struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub(crate) fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub(crate) fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "cell count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table.
    pub(crate) fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
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

/// Formats a float in scientific notation like the paper's tables
/// (e.g. `9.30e-4`).
pub(crate) fn sci(value: f64) -> String {
    format!("{value:.3e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut table = Table::new("demo", &["a", "bbbb"]);
        table.row(&["1".into(), "2".into()]);
        table.row(&["333".into(), "4".into()]);
        let rendered = table.render();
        assert!(rendered.contains("## demo"));
        assert!(rendered.contains("  a  bbbb"));
        assert!(rendered.contains("333     4"));
    }

    #[test]
    #[should_panic(expected = "cell count mismatch")]
    fn wrong_arity_panics() {
        let mut table = Table::new("demo", &["a"]);
        table.row(&["1".into(), "2".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(sci(9.30e-4), "9.300e-4");
    }
}

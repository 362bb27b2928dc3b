//! Minimal aligned-text table rendering for the experiment binaries.

/// A text table with a title, column headers, and rows.
#[derive(Debug, Clone, Default)]
pub(crate) struct TextTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with a title and column headers.
    pub(crate) fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub(crate) fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Renders the table with aligned columns.
    pub(crate) fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a fraction as a percentage with one decimal.
pub(crate) fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a ratio normalised to a baseline (e.g. `1.73x`).
pub(crate) fn times(x: f64) -> String {
    format!("{x:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new("demo", &["name", "value"]);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["b".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("alpha"));
        // Both rows align on the same column width.
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.2215), "22.1%");
        assert_eq!(times(1.7349), "1.73x");
    }
}

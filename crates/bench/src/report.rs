//! Markdown table rendering.

/// Formats seconds the way the paper's tables do: 3 significant-ish digits,
/// `-` for timeouts.
pub fn fmt_seconds(seconds: Option<f64>) -> String {
    match seconds {
        None => "-".to_string(),
        Some(s) if s < 0.01 => format!("{:.4}", s),
        Some(s) if s < 1.0 => format!("{:.3}", s),
        Some(s) if s < 100.0 => format!("{:.2}", s),
        Some(s) => format!("{:.0}", s),
    }
}

/// A Markdown table builder.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders GitHub-flavoured Markdown.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |\n", padded.join(" | "))
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&fmt_row(&sep, &widths));
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_formatting() {
        assert_eq!(fmt_seconds(None), "-");
        assert_eq!(fmt_seconds(Some(0.001234)), "0.0012");
        assert_eq!(fmt_seconds(Some(0.123)), "0.123");
        assert_eq!(fmt_seconds(Some(3.456)), "3.46");
        assert_eq!(fmt_seconds(Some(217.4)), "217");
    }

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new(&["name", "t"]);
        t.row(vec!["abc".into(), "1.0".into()]);
        t.row(vec!["a".into(), "12.5".into()]);
        let r = t.render();
        assert!(r.starts_with("| name | t    |\n| ---- | ---- |\n"));
        assert!(r.contains("| abc  | 1.0  |\n"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_is_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x".into()]);
    }
}

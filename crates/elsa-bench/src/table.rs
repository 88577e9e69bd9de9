//! Plain-text aligned table rendering for benchmark output.

/// A simple column-aligned text table.
///
/// # Examples
///
/// ```
/// use elsa_bench::Table;
/// let mut t = Table::new(&["workload", "speedup"]);
/// t.row(&["BERT / SQuAD v1.1".into(), "43.9".into()]);
/// let s = t.render();
/// assert!(s.contains("BERT"));
/// assert!(s.contains("speedup"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(headers: &[&str]) -> Self {
        Self { headers: headers.iter().map(|s| (*s).to_string()).collect(), rows: Vec::new() }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header count.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders with aligned columns and a separator under the header.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = h.chars().count();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                let pad = width[i] - c.chars().count();
                line.push_str(c);
                line.push_str(&" ".repeat(pad));
                if i + 1 < cols {
                    line.push_str("  ");
                }
            }
            line.trim_end().to_string()
        };
        let mut out = fmt_row(&self.headers);
        out.push('\n');
        out.push_str(&"-".repeat(width.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float with the given number of decimal places (helper used by
/// the binaries).
#[must_use]
pub fn fmt(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// Formats a multiplicative factor like `43.9x`.
#[must_use]
pub fn fmt_factor(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}x")
    } else {
        format!("{v:.1}x")
    }
}

/// Geometric mean of a nonempty slice of positive values.
///
/// # Panics
///
/// Panics if `values` is empty or contains non-positive entries.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(&["xx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a "));
        assert!(lines[1].starts_with("---"));
    }

    #[test]
    fn geomean_known() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn rejects_bad_row() {
        let mut t = Table::new(&["a"]);
        t.row(&["x".into(), "y".into()]);
    }

    #[test]
    fn factor_formatting() {
        assert_eq!(fmt_factor(43.93), "43.9x");
        assert_eq!(fmt_factor(442.0), "442x");
        assert_eq!(fmt(0.1234, 2), "0.12");
    }
}

//! Plain-text table rendering for the harness binaries.

/// A simple right-aligned text table.
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new<S: Into<String>>(headers: Vec<S>) -> TextTable {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "ragged table row");
        self.rows.push(cells);
    }

    /// Render with a header separator; first column left-aligned, the rest
    /// right-aligned.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut width = vec![0usize; ncols];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = width[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            use std::fmt::Write;
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                if i == 0 {
                    let _ = write!(line, "{c:<w$}", w = width[i]);
                } else {
                    let _ = write!(line, "{c:>w$}", w = width[i]);
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &width));
        out.push('\n');
        let total: usize = width.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &width));
            out.push('\n');
        }
        out
    }
}

/// Format a count with thousands separators (readability of Table 1).
pub fn fmt_count(v: u64) -> String {
    let s = v.to_string();
    let mut out = String::new();
    for (i, ch) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

/// `now` against `base` as a signed percentage.
pub fn percent(now: u64, base: u64) -> String {
    let delta = now as f64 - base as f64;
    format!("{:+.1}%", delta / base.max(1) as f64 * 100.0)
}

/// A simple horizontal ASCII bar.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if !(value.is_finite() && max > 0.0) {
        return String::new();
    }
    let n = ((value / max) * width as f64)
        .round()
        .clamp(0.0, width as f64) as usize;
    "#".repeat(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["app", "x", "longcol"]);
        t.row(vec!["sor", "1", "2"]);
        t.row(vec!["jacobi", "100", "3"]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("app"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Right alignment: "100" ends at same column as "x" header's end.
        assert!(lines[3].contains("100"));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn count_formatting() {
        assert_eq!(fmt_count(5), "5");
        assert_eq!(fmt_count(1234), "1,234");
        assert_eq!(fmt_count(1_234_567), "1,234,567");
    }

    #[test]
    fn bars_scale() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(10.0, 10.0, 10), "##########");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(f64::NAN, 10.0, 10), "");
    }
}

//! Plain-text table rendering for experiment output.
//!
//! The `pcs` CLI prints the same rows/series the paper's tables and
//! figures report; this keeps the formatting in one place.

/// Renders a table: a header row plus data rows, columns padded to the
/// widest cell, separated by two spaces.
pub fn render(header: &[String], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    if cols == 0 {
        // A zero-column table renders as nothing (the separator width
        // `2 * (cols - 1)` would otherwise underflow).
        return String::new();
    }
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width must match header");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(header, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Convenience: formats a float with the given decimals.
pub fn f(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let table = render(
            &["name".into(), "ms".into()],
            &[
                vec!["Basic".into(), "12.3".into()],
                vec!["RED-5".into(), "1400.0".into()],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].ends_with("ms"));
        assert!(lines[2].ends_with("12.3"));
        assert!(lines[3].ends_with("1400.0"));
    }

    #[test]
    fn empty_header_renders_empty() {
        // Regression: `2 * (cols - 1)` underflowed usize when cols == 0.
        assert_eq!(render(&[], &[]), "");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_rows_panic() {
        let _ = render(&["a".into()], &[vec!["x".into(), "y".into()]]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(f(10.0, 0), "10");
    }
}

//! Small text-table rendering helpers shared by the experiment modules.

/// Renders rows as a fixed-width text table with a header rule.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize], out: &mut String| {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{cell:>width$}", width = widths[i]));
        }
        out.push('\n');
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    render_row(&header_cells, &widths, &mut out);
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        render_row(row, &widths, &mut out);
    }
    out
}

/// Formats a byte count with thousands separators, like the paper's
/// "6,278,929".
pub(crate) fn thousands(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// A section banner for experiment output.
pub fn banner(title: &str) -> String {
    format!("\n=== {title} ===\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousands_separators() {
        assert_eq!(thousands(0), "0");
        assert_eq!(thousands(999), "999");
        assert_eq!(thousands(1_000), "1,000");
        assert_eq!(thousands(6_278_929), "6,278,929");
    }

    #[test]
    fn table_aligns_columns() {
        let out = table(
            &["name", "n"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "100".into()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].ends_with("100"));
    }
}

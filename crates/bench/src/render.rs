//! Plain-text table rendering for experiment output.

/// Render rows under headers with per-column width alignment.
pub fn table(columns: &[String], rows: &[Vec<String>]) -> String {
    let ncols = columns.len();
    let mut widths: Vec<usize> = columns.iter().map(String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(columns, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1))));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Format seconds compactly (`12.3s` / `4.5m`).
pub fn secs(s: f64) -> String {
    if s >= 120.0 {
        format!("{:.1}m", s / 60.0)
    } else {
        format!("{s:.1}s")
    }
}

/// Format a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Format bytes as MB with one decimal.
pub fn mb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &s(&["sys", "time"]),
            &[s(&["DGL-KE", "12.0"]), s(&["PBG", "300.5"])],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("sys"));
        assert!(lines[2].contains("DGL-KE"));
        // widths: "DGL-KE"=6, "300.5"=5
        assert!(lines[3].starts_with("   PBG"));
    }

    #[test]
    fn formatters() {
        assert_eq!(secs(30.0), "30.0s");
        assert_eq!(secs(300.0), "5.0m");
        assert_eq!(pct(0.753), "75.3%");
        assert_eq!(mb(2_500_000), "2.5");
    }

    #[test]
    fn empty_table_is_safe() {
        let t = table(&s(&["x"]), &[]);
        assert!(t.contains('x'));
    }
}

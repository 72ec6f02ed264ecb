//! Plain-text report formatting used by the experiment harnesses.
//!
//! The bench binaries print the same rows/series the paper reports; this
//! module keeps the formatting in one place so tables look consistent across
//! experiments.

use crate::metrics::ErrorBreakdown;
use crate::spec::SpecificationSet;

/// Formats a fraction as a percentage with one decimal, e.g. `0.6%`.
pub fn percent(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// Renders a simple aligned table: a header row plus data rows.
///
/// Columns are sized to their widest cell; the output ends with a newline.
pub fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    let columns = header.len();
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(columns) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |row: &[String]| -> String {
        let cells: Vec<String> = row
            .iter()
            .enumerate()
            .take(columns)
            .map(|(i, cell)| format!("{:width$}", cell, width = widths[i]))
            .collect();
        cells.join("  ")
    };
    out.push_str(&render_row(header));
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * (columns.saturating_sub(1));
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row));
        out.push('\n');
    }
    out
}

/// Renders a specification table in the layout of the paper's Table 1/2:
/// name, unit, nominal value and acceptability range.
pub fn render_specification_table(specs: &SpecificationSet) -> String {
    let header = vec![
        "Specification".to_string(),
        "Unit".to_string(),
        "Nominal".to_string(),
        "Range".to_string(),
    ];
    let rows: Vec<Vec<String>> = specs
        .iter()
        .map(|s| {
            vec![
                s.name().to_string(),
                s.unit().to_string(),
                format_value(s.nominal()),
                format!("{} - {}", format_value(s.lower()), format_value(s.upper())),
            ]
        })
        .collect();
    render_table(&header, &rows)
}

/// Renders one error breakdown as a short single-line summary.
pub fn render_breakdown(label: &str, breakdown: &ErrorBreakdown) -> String {
    format!(
        "{label}: yield loss {}, defect escape {}, guard band {}, {} devices",
        percent(breakdown.yield_loss()),
        percent(breakdown.defect_escape()),
        percent(breakdown.guard_band_fraction()),
        breakdown.total
    )
}

/// Formats a number compactly: integers without decimals, small numbers in
/// scientific notation, everything else with three significant figures.
pub fn format_value(value: f64) -> String {
    if value == 0.0 {
        return "0".to_string();
    }
    let magnitude = value.abs();
    if !(1e-3..1e6).contains(&magnitude) {
        format!("{value:.2e}")
    } else if (value - value.round()).abs() < 1e-9 && magnitude < 1e6 {
        format!("{}", value.round() as i64)
    } else {
        format!("{value:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Specification;

    #[test]
    fn percent_formats_with_one_decimal() {
        assert_eq!(percent(0.006), "0.6%");
        assert_eq!(percent(0.0), "0.0%");
        assert_eq!(percent(0.5), "50.0%");
    }

    #[test]
    fn format_value_covers_magnitudes() {
        assert_eq!(format_value(0.0), "0");
        assert_eq!(format_value(14000.0), "14000");
        assert_eq!(format_value(0.44), "0.440");
        assert!(format_value(2.5e-7).contains('e'));
        assert!(format_value(2.1e9).contains('e'));
    }

    #[test]
    fn table_rendering_aligns_columns() {
        let header = vec!["a".to_string(), "bbbb".to_string()];
        let rows = vec![
            vec!["xxxxx".to_string(), "1".to_string()],
            vec!["y".to_string(), "22".to_string()],
        ];
        let table = render_table(&header, &rows);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        // The second column starts at the same offset in every data row.
        assert_eq!(lines[2].find('1'), lines[3].find("22"));
        assert_eq!(lines[0].find("bbbb"), lines[2].find('1'));
    }

    #[test]
    fn specification_table_contains_every_spec() {
        let specs = SpecificationSet::new(vec![
            Specification::new("gain", "V/V", 14_000.0, 10_000.0, 20_000.0).unwrap(),
            Specification::new("slew rate", "V/us", 0.44, 0.35, 0.55).unwrap(),
        ])
        .unwrap();
        let table = render_specification_table(&specs);
        assert!(table.contains("gain"));
        assert!(table.contains("slew rate"));
        assert!(table.contains("0.350 - 0.550"));
    }

    #[test]
    fn breakdown_summary_mentions_all_metrics() {
        let breakdown = ErrorBreakdown {
            total: 100,
            yield_loss_count: 1,
            defect_escape_count: 2,
            guard_band_count: 3,
            true_good: 70,
            true_bad: 24,
        };
        let line = render_breakdown("test", &breakdown);
        assert!(line.contains("yield loss 1.0%"));
        assert!(line.contains("defect escape 2.0%"));
        assert!(line.contains("guard band 3.0%"));
        assert!(line.contains("100 devices"));
    }
}

//! CSV/gnuplot output for experiment results.
//!
//! The benchmark harness regenerates every table and figure of the paper
//! as plain CSV files (plus gnuplot-ready `.dat`): one column per curve,
//! aligned on a shared time grid. No external serialisation crates are
//! needed for this — see DESIGN.md's dependency policy.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// A named curve sampled as `(x, y)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct Curve {
    /// Legend label (becomes the CSV column header).
    pub label: String,
    /// Samples in increasing `x`.
    pub points: Vec<(f64, f64)>,
}

impl Curve {
    /// Creates a curve.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Curve {
            label: label.into(),
            points,
        }
    }
}

/// Renders several curves that share an x-grid as a multi-column CSV.
/// Curves with differing grids are aligned by row index; shorter curves
/// leave blanks.
pub fn curves_to_csv(x_name: &str, curves: &[Curve]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{}", escape(x_name));
    for c in curves {
        let _ = write!(out, ",{}", escape(&c.label));
    }
    let _ = writeln!(out);
    let rows = curves.iter().map(|c| c.points.len()).max().unwrap_or(0);
    for r in 0..rows {
        let x = curves
            .iter()
            .find_map(|c| c.points.get(r).map(|p| p.0))
            .unwrap_or(f64::NAN);
        let _ = write!(out, "{x}");
        for c in curves {
            match c.points.get(r) {
                Some((_, y)) => {
                    let _ = write!(out, ",{y}");
                }
                None => {
                    let _ = write!(out, ",");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders a simple table (headers + string rows) as CSV.
pub fn table_to_csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}",
        headers
            .iter()
            .map(|h| escape(h))
            .collect::<Vec<_>>()
            .join(",")
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{}",
            row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
        );
    }
    out
}

/// Writes `content` to `path`, creating parent directories.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_file(path: &Path, content: &str) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, content)
}

/// Quotes a CSV field when it contains separators or quotes.
fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_curve_csv() {
        let c = Curve::new("p_empty", vec![(0.0, 0.0), (1.0, 0.5)]);
        let csv = curves_to_csv("t", &[c]);
        assert_eq!(csv, "t,p_empty\n0,0\n1,0.5\n");
    }

    #[test]
    fn multi_curve_alignment() {
        let a = Curve::new("delta=5", vec![(0.0, 0.1), (1.0, 0.2)]);
        let b = Curve::new("sim", vec![(0.0, 0.15)]);
        let csv = curves_to_csv("t", &[a, b]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "t,delta=5,sim");
        assert_eq!(lines[1], "0,0.1,0.15");
        assert_eq!(lines[2], "1,0.2,");
    }

    #[test]
    fn table_rendering_with_escapes() {
        let csv = table_to_csv(
            &["frequency", "lifetime, minutes"],
            &[
                vec!["continuous".into(), "91".into()],
                vec!["say \"1\" Hz".into(), "203".into()],
            ],
        );
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "frequency,\"lifetime, minutes\"");
        assert_eq!(lines[1], "continuous,91");
        assert_eq!(lines[2], "\"say \"\"1\"\" Hz\",203");
    }

    #[test]
    fn write_creates_directories() {
        let dir = std::env::temp_dir().join("kibamrm_report_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/out.csv");
        write_file(&path, "a,b\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn escaping_covers_every_special_character() {
        // Comma, quote and newline all force quoting; quotes double.
        assert_eq!(escape("a,b"), "\"a,b\"");
        assert_eq!(escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(escape("line\nbreak"), "\"line\nbreak\"");
        assert_eq!(escape("\""), "\"\"\"\"");
        // Plain fields — including empty and numeric-looking ones —
        // pass through unquoted.
        assert_eq!(escape(""), "");
        assert_eq!(escape("3.5e-2"), "3.5e-2");
        assert_eq!(escape("Delta=5"), "Delta=5");
    }

    #[test]
    fn curve_headers_are_escaped() {
        let c = Curve::new("lifetime, minutes", vec![(0.0, 1.0)]);
        let csv = curves_to_csv("t, s", std::slice::from_ref(&c));
        assert_eq!(
            csv.lines().next().unwrap(),
            "\"t, s\",\"lifetime, minutes\""
        );
        let multi = curves_to_csv("t", &[c]);
        assert_eq!(multi.lines().next().unwrap(), "t,\"lifetime, minutes\"");
    }

    #[test]
    fn table_cells_with_newlines_and_quotes() {
        let csv = table_to_csv(&["k", "v"], &[vec!["two\nlines".into(), "q\"q".into()]]);
        assert_eq!(csv, "k,v\n\"two\nlines\",\"q\"\"q\"\n");
    }

    #[test]
    fn empty_curves() {
        let csv = curves_to_csv("t", &[]);
        assert_eq!(csv, "t\n");
        let c = Curve::new("empty", vec![]);
        assert_eq!(curves_to_csv("t", &[c]), "t,empty\n");
    }
}

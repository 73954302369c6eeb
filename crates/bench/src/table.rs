//! A campaign's results as typed rows.
//!
//! A [`Table`] is the single record of what a campaign measured: columns
//! carry a machine key, a header and a format, cells carry the *value*.
//! Everything else is a rendering of those rows — the aligned text on
//! stdout ([`std::fmt::Display`]), `results/*.csv` ([`Table::to_csv`]),
//! the repo-root `BENCH_*.json` trajectories ([`trajectory_json`]) and
//! the keyed reads tests and the regression gate use ([`Table::num`]).

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use hyperprov_sim::json;

/// How a column renders its values as text. JSON always carries the raw
/// value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fmt {
    /// Integers and text as they are, floats in shortest round-trip form.
    Plain,
    /// A number with this many decimals, followed by a unit suffix
    /// (`Fixed(2, "x")` renders `1.27x`).
    Fixed(usize, &'static str),
    /// Like [`Fmt::Fixed`] with an explicit sign (`+10.7%`).
    Signed(usize, &'static str),
    /// A byte count with a binary-unit suffix ([`fmt_bytes`]).
    Bytes,
    /// A 0/1 integer as the given (zero, non-zero) words.
    Flag(&'static str, &'static str),
}

/// A column: machine key, header, format. A column with an empty header
/// is *hidden*: it appears in the JSON cells and keyed reads only, never
/// on stdout or in the CSV.
pub type Col = (&'static str, &'static str, Fmt);

/// One cell's value.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A float.
    Num(f64),
    /// An unsigned integer (counts, byte sizes, 0/1 flags).
    Int(u64),
    /// A label.
    Text(String),
    /// A pre-rendered JSON value, for hidden columns that carry a nested
    /// document (the host profiler's snapshot).
    Json(String),
    /// No value: renders as `-` and is left out of the JSON cell.
    Missing,
}

impl From<f64> for Cell {
    fn from(v: f64) -> Cell {
        Cell::Num(v)
    }
}
impl From<Option<f64>> for Cell {
    fn from(v: Option<f64>) -> Cell {
        v.map_or(Cell::Missing, Cell::Num)
    }
}
impl From<u64> for Cell {
    fn from(v: u64) -> Cell {
        Cell::Int(v)
    }
}
impl From<usize> for Cell {
    fn from(v: usize) -> Cell {
        Cell::Int(v as u64)
    }
}
impl From<u32> for Cell {
    fn from(v: u32) -> Cell {
        Cell::Int(u64::from(v))
    }
}
impl From<bool> for Cell {
    fn from(v: bool) -> Cell {
        Cell::Int(u64::from(v))
    }
}
impl From<&str> for Cell {
    fn from(v: &str) -> Cell {
        Cell::Text(v.to_owned())
    }
}
impl From<String> for Cell {
    fn from(v: String) -> Cell {
        Cell::Text(v)
    }
}

impl Cell {
    fn render(&self, fmt: Fmt) -> String {
        let value = match self {
            Cell::Text(s) | Cell::Json(s) => return s.clone(),
            Cell::Missing => return "-".to_owned(),
            Cell::Num(v) => *v,
            Cell::Int(v) => *v as f64,
        };
        match (fmt, self) {
            (Fmt::Fixed(decimals, unit), _) => format!("{value:.decimals$}{unit}"),
            (Fmt::Signed(decimals, unit), _) => format!("{value:+.decimals$}{unit}"),
            (Fmt::Bytes, Cell::Int(v)) => fmt_bytes(*v),
            (Fmt::Flag(zero, non_zero), Cell::Int(v)) => {
                (if *v == 0 { zero } else { non_zero }).to_owned()
            }
            (_, Cell::Int(v)) => v.to_string(),
            _ => json::fmt_f64(value),
        }
    }
}

/// Builds a table row from values of mixed type: `row!["desktop", 4u64,
/// 753.4]`.
#[macro_export]
macro_rules! row {
    ($($value:expr),* $(,)?) => {
        vec![$($crate::table::Cell::from($value)),*]
    };
}

/// Typed result rows under a title.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    cols: Vec<Col>,
    rows: Vec<Vec<Cell>>,
    transposed: bool,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, cols: &[Col]) -> Self {
        Table {
            title: title.into(),
            cols: cols.to_vec(),
            rows: Vec::new(),
            transposed: false,
        }
    }

    /// Creates an empty table whose text and CSV renderings list one
    /// `metric | value` line per column instead of one line per row —
    /// for profiles, which are a single row of many metrics.
    pub fn profile(title: impl Into<String>, cols: &[Col]) -> Self {
        Table {
            transposed: true,
            ..Table::new(title, cols)
        }
    }

    /// Appends a row (see [`row!`](crate::row)).
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the columns.
    pub fn push_row(&mut self, row: Vec<Cell>) {
        assert_eq!(
            row.len(),
            self.cols.len(),
            "row width mismatch in table {:?}",
            self.title
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn cell(&self, row: usize, key: &str) -> Option<(&Cell, Fmt)> {
        let col = self.cols.iter().position(|(k, ..)| *k == key)?;
        Some((self.rows.get(row)?.get(col)?, self.cols[col].2))
    }

    /// The numeric value of a cell by row and column key.
    pub fn num(&self, row: usize, key: &str) -> Option<f64> {
        match self.cell(row, key)?.0 {
            Cell::Num(v) => Some(*v),
            Cell::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// A cell as the text stdout and the CSV show, by row and column key.
    pub fn text(&self, row: usize, key: &str) -> Option<String> {
        let (cell, fmt) = self.cell(row, key)?;
        Some(cell.render(fmt))
    }

    /// The rows as JSON objects, `{key: value…}` over every column
    /// (hidden ones included) whose cell holds a value.
    pub fn cells_json(&self) -> Vec<String> {
        self.rows
            .iter()
            .map(|row| {
                let mut obj = json::Obj::new();
                for ((key, ..), cell) in self.cols.iter().zip(row) {
                    obj = match cell {
                        Cell::Num(v) => obj.f64(key, *v),
                        Cell::Int(v) => obj.u64(key, *v),
                        Cell::Text(s) => obj.str(key, s),
                        Cell::Json(s) => obj.raw(key, s),
                        Cell::Missing => obj,
                    };
                }
                obj.build()
            })
            .collect()
    }

    /// The text grid both renderings share: headers, then one line per
    /// row (or per column of the single row, when transposed).
    fn grid(&self) -> (Vec<String>, Vec<Vec<String>>) {
        let visible = |row: &[Cell]| -> Vec<(String, String)> {
            self.cols
                .iter()
                .zip(row)
                .filter(|((_, header, _), _)| !header.is_empty())
                .map(|((_, header, fmt), cell)| ((*header).to_owned(), cell.render(*fmt)))
                .collect()
        };
        if self.transposed {
            let lines = self.rows.first().map_or(Vec::new(), |row| {
                visible(row)
                    .into_iter()
                    .map(|(header, value)| vec![header, value])
                    .collect()
            });
            return (vec!["metric".to_owned(), "value".to_owned()], lines);
        }
        let headers = self
            .cols
            .iter()
            .filter(|(_, header, _)| !header.is_empty())
            .map(|(_, header, _)| (*header).to_owned())
            .collect();
        let lines = self
            .rows
            .iter()
            .map(|row| visible(row).into_iter().map(|(_, value)| value).collect())
            .collect();
        (headers, lines)
    }

    /// Renders CSV (headers + rows).
    pub fn to_csv(&self) -> String {
        let escape = |s: &String| {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let (headers, lines) = self.grid();
        let mut out = String::new();
        for line in std::iter::once(&headers).chain(&lines) {
            out.push_str(&line.iter().map(escape).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV as `<dir>/<name>.csv`.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the directory or file cannot be written.
    pub fn save_csv(&self, dir: &Path, name: &str) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (headers, lines) = self.grid();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        for line in &lines {
            for (i, cell) in line.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let write_line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let parts: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(cell, width)| format!("{cell:>width$}"))
                .collect();
            writeln!(f, "| {} |", parts.join(" | "))
        };
        write_line(f, &headers)?;
        let total: usize = widths.iter().sum::<usize>() + widths.len() * 3 + 1;
        writeln!(f, "{}", "-".repeat(total))?;
        for line in &lines {
            write_line(f, line)?;
        }
        Ok(())
    }
}

/// Renders a trajectory document — `{"campaign", "metric", "cells":
/// [{key: value…}]}` — from row objects ([`Table::cells_json`]), the
/// shape of every committed `BENCH_*.json` and of the regression gate's
/// fresh run.
pub fn trajectory_json(campaign: &str, metric: &str, cells: Vec<String>) -> String {
    json::pretty(
        &json::Obj::new()
            .str("campaign", campaign)
            .str("metric", metric)
            .raw("cells", &json::array(cells))
            .build(),
    )
}

/// Formats a byte count with a binary-unit suffix.
pub fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COLS: &[Col] = &[
        ("size_bytes", "size", Fmt::Bytes),
        ("tput", "tput", Fmt::Fixed(1, "")),
        ("platform", "", Fmt::Plain),
    ];

    fn sample() -> Table {
        let mut t = Table::new("demo", COLS);
        t.push_row(row![1024u64, 120.52, "desktop"]);
        t.push_row(row![1u64 << 20, 4.2, "desktop"]);
        t
    }

    #[test]
    fn display_aligns_columns() {
        let rendered = sample().to_string();
        assert!(rendered.contains("== demo =="));
        assert!(rendered.contains("1.0 KiB"));
        assert!(rendered.lines().count() >= 5);
        assert!(!rendered.contains("desktop"), "hidden columns stay hidden");
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new("x", &[("a", "a", Fmt::Plain), ("b", "b", Fmt::Plain)]);
        t.push_row(row!["1,5", "say \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"1,5\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn cell_accessors() {
        let t = sample();
        assert_eq!(t.text(0, "size_bytes").as_deref(), Some("1.0 KiB"));
        assert_eq!(t.num(0, "size_bytes"), Some(1024.0));
        assert_eq!(t.num(1, "tput"), Some(4.2));
        assert_eq!(t.text(0, "tput").as_deref(), Some("120.5"));
        assert_eq!(t.text(0, "platform").as_deref(), Some("desktop"));
        assert_eq!(t.num(0, "platform"), None);
        assert_eq!(t.num(5, "tput"), None);
        assert_eq!(t.num(0, "no_such_key"), None);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn one_row_four_renderings() {
        let mut t = Table::new(
            "x",
            &[
                ("speedup", "vs serial", Fmt::Fixed(2, "x")),
                ("delta_pct", "delta", Fmt::Signed(1, "%")),
                ("snapshots", "snapshots", Fmt::Flag("off", "on")),
                ("recover_s", "recover (s)", Fmt::Fixed(0, "")),
                ("profile", "", Fmt::Plain),
            ],
        );
        t.push_row(vec![
            1.2674966352624495.into(),
            10.72.into(),
            true.into(),
            None.into(),
            Cell::Json("{\"events\":3}".to_owned()),
        ]);
        assert_eq!(
            t.to_csv(),
            "vs serial,delta,snapshots,recover (s)\n1.27x,+10.7%,on,-\n"
        );
        assert_eq!(t.num(0, "speedup"), Some(1.2674966352624495));
        assert_eq!(t.num(0, "snapshots"), Some(1.0));
        let doc = trajectory_json("T-X", "m", t.cells_json());
        let doc = json::parse(&doc).unwrap();
        assert_eq!(doc.get("campaign").unwrap().as_str(), Some("T-X"));
        let cell = &doc.get("cells").unwrap().as_array().unwrap()[0];
        assert_eq!(
            cell.get("speedup").unwrap().as_f64(),
            Some(1.2674966352624495),
            "JSON carries the value, not its rendering"
        );
        assert_eq!(cell.get("snapshots").unwrap().as_f64(), Some(1.0));
        assert!(
            cell.get("recover_s").is_none(),
            "missing cells are left out"
        );
        let events = cell.get("profile").unwrap().get("events").unwrap();
        assert_eq!(events.as_f64(), Some(3.0));
    }

    #[test]
    fn profile_tables_list_one_metric_per_line() {
        let mut t = Table::profile(
            "p",
            &[
                ("workload", "", Fmt::Plain),
                ("model.ok", "model: completions ok", Fmt::Plain),
                ("host.wall_s", "host: wall (s)", Fmt::Fixed(3, "")),
            ],
        );
        t.push_row(row!["closed loop", 432u64, 0.0241]);
        assert_eq!(
            t.to_csv(),
            "metric,value\nmodel: completions ok,432\nhost: wall (s),0.024\n"
        );
        assert_eq!(t.num(0, "model.ok"), Some(432.0));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("x", &[("a", "a", Fmt::Plain), ("b", "b", Fmt::Plain)]);
        t.push_row(row!["only one"]);
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_bytes(16 * 1024 * 1024), "16.0 MiB");
    }

    #[test]
    fn save_csv_writes_file() {
        let dir = std::env::temp_dir().join(format!("hyperprov-table-{}", std::process::id()));
        let path = sample().save_csv(&dir, "demo").unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("size,tput"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

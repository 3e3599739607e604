//! What every experiment returns — a [`Report`] of [`Table`]s and
//! [`Claim`]s — and the one rendering each has: the console (`repro
//! <name>`), EXPERIMENTS.md (`repro doc`) and `results/<name>.json` all
//! come from the same cells.

use serde::Serialize;
use serde_json::Value;

/// A table cell is the JSON value it serializes to, so the artefact keeps
/// full precision and only the rendering rounds.
pub(crate) fn cell<T: Serialize>(value: T) -> Value {
    serde_json::to_value(&value).expect("cells serialize")
}

/// One table row of [`cell`]s: `row!["Pixel", 5.11, true]`.
macro_rules! row {
    ($($cell:expr),* $(,)?) => {
        vec![$($crate::report::cell(&$cell)),*]
    };
}
pub(crate) use row;

/// A titled grid; units belong in the title or the header.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Table {
    /// One line saying what the rows are.
    pub title: String,
    /// Column names.
    pub header: Vec<String>,
    /// Cells, one `Vec` per row, each as long as `header`.
    pub rows: Vec<Vec<Value>>,
}

/// How a cell reads: floats to three decimals, booleans as ✔/✘.
fn shown(cell: &Value) -> String {
    match cell {
        Value::Str(s) => s.clone(),
        Value::F64(x) => format!("{x:.3}"),
        Value::Bool(b) => if *b { "✔" } else { "✘" }.to_string(),
        other => serde_json::to_string(other).expect("cells serialize"),
    }
}

impl Table {
    /// `header` names the columns, separated by `" | "`.
    pub(crate) fn new(title: impl Into<String>, header: &str, rows: Vec<Vec<Value>>) -> Table {
        Table {
            title: title.into(),
            header: header.split(" | ").map(String::from).collect(),
            rows,
        }
    }

    /// The table as Markdown whose source is itself aligned — columns
    /// right-aligned and padded to a common width — so the console and
    /// EXPERIMENTS.md show the same text.
    pub fn render(&self) -> String {
        let body = self.rows.iter().map(|r| r.iter().map(shown).collect());
        let lines: Vec<Vec<String>> = std::iter::once(self.header.clone()).chain(body).collect();
        let width = |c: usize| {
            lines
                .iter()
                .map(|r| r[c].chars().count())
                .max()
                .unwrap_or(0)
        };
        let widths: Vec<usize> = (0..self.header.len()).map(width).collect();
        let rule: String = widths.iter().map(|w| "-".repeat(w + 1) + ":|").collect();
        let mut out = format!("{}\n\n", self.title);
        for (i, cells) in lines.iter().enumerate() {
            let pad = |(c, w): (&String, &usize)| format!(" {c:>w$} |", w = *w);
            let padded: String = cells.iter().zip(&widths).map(pad).collect();
            out += &format!("|{padded}\n");
            if i == 0 {
                out += &format!("|{rule}\n");
            }
        }
        out
    }
}

/// Whether a [`Claim`] is supposed to hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Expect {
    /// A shape the paper asserts and the reproduction keeps.
    Holds,
    /// A documented gap to the paper: the claim states the paper's figure
    /// as its band and is expected to *fail*, so closing the gap is noticed
    /// exactly like opening one.
    KnownDeviation,
}

/// One checkable statement about an experiment's numbers.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Claim {
    /// Stable identifier, `<experiment>.<what>`.
    pub id: &'static str,
    /// The band, in words.
    pub statement: String,
    /// What this run produced.
    pub observed: String,
    /// What the paper reports ("—" for extension experiments).
    pub paper: String,
    /// Whether `observed` is inside the band.
    pub holds: bool,
    /// Whether it should be.
    pub expect: Expect,
}

impl Claim {
    pub(crate) fn new(
        id: &'static str,
        statement: &str,
        observed: String,
        paper: &str,
        holds: bool,
    ) -> Claim {
        Claim {
            id,
            statement: statement.into(),
            observed,
            paper: paper.into(),
            holds,
            expect: Expect::Holds,
        }
    }

    pub(crate) fn known_deviation(self) -> Claim {
        Claim {
            expect: Expect::KnownDeviation,
            ..self
        }
    }

    /// `holds` is what `expect` says it should be.
    pub fn as_expected(&self) -> bool {
        self.holds == (self.expect == Expect::Holds)
    }

    /// The claim as one list item, marked ✔/✘.
    pub fn render(&self) -> String {
        let mark = match (self.holds, self.as_expected()) {
            (true, true) => "✔",
            (false, true) => "✘ (known deviation)",
            (true, false) => "✔ (UNEXPECTED: a known deviation disappeared)",
            (false, false) => "✘ (UNEXPECTED)",
        };
        format!(
            "- {mark} `{}` — {}: {} (paper: {})\n",
            self.id, self.statement, self.observed, self.paper
        )
    }
}

/// One experiment's complete output.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The exact bytes of `results/<name>.json`.
    pub json: String,
    /// The figure's data.
    pub tables: Vec<Table>,
    /// What the figure is supposed to show, checked.
    pub claims: Vec<Claim>,
}

impl Report {
    /// A report whose artefact is its own tables and claims as JSON.
    pub(crate) fn new(tables: Vec<Table>, claims: Vec<Claim>) -> Report {
        #[derive(Serialize)]
        struct Artefact {
            tables: Vec<Table>,
            claims: Vec<Claim>,
        }
        let own = Artefact { tables, claims };
        Report {
            json: serde_json::to_string_pretty(&own).expect("reports serialize") + "\n",
            tables: own.tables,
            claims: own.claims,
        }
    }

    /// Every table, then every claim, as Markdown.
    pub fn render(&self) -> String {
        let tables = self.tables.iter().map(|t| t.render() + "\n");
        let claims = self.claims.iter().map(Claim::render);
        tables.chain(claims).collect()
    }
}

/// Replaces what stands between `<!-- repro:tag -->` and
/// `<!-- /repro:tag -->` in `md` with `body`.
pub(crate) fn splice(md: &str, tag: &str, body: &str) -> Result<String, String> {
    let open = format!("<!-- repro:{tag} -->\n");
    let close = format!("<!-- /repro:{tag} -->");
    let missing = |marker: &str| format!("EXPERIMENTS.md: no `{}` marker", marker.trim_end());
    let start = md.find(&open).ok_or_else(|| missing(&open))? + open.len();
    let end = start + md[start..].find(&close).ok_or_else(|| missing(&close))?;
    Ok(format!("{}{body}{}", &md[..start], &md[end..]))
}

/// `None` when `committed` is what the code `produced`; otherwise the
/// first line where they part, as a message naming `path`.
pub fn first_diff(path: &str, committed: &str, produced: &str) -> Option<String> {
    if committed == produced {
        return None;
    }
    let same = committed.lines().zip(produced.lines());
    let line = same.take_while(|(have, want)| have == want).count();
    // Only the first 100 characters: a Chrome trace is one 35 kB line.
    let at = |text: &str| {
        let whole = text.lines().nth(line).unwrap_or("<end of file>");
        whole.chars().take(100).collect::<String>()
    };
    let (have, want) = (at(committed), at(produced));
    let line = line + 1;
    Some(format!(
        "{path}:{line}: committed `{have}`, the code produces `{want}` (run `repro all`)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let rows = vec![row!["Pixel", 5.1149, true], row!["LP", 1.2, false]];
        Table::new("speedups", "device | × | wins", rows)
    }

    #[test]
    fn table_renders_as_aligned_markdown() {
        assert_eq!(
            sample().render(),
            "speedups\n\n| device |     × | wins |\n|-------:|------:|-----:|\n\
             |  Pixel | 5.115 |    ✔ |\n|     LP | 1.200 |    ✘ |\n"
        );
    }

    #[test]
    fn the_artefact_keeps_full_precision_and_the_claims() {
        let claim = Claim::new("x.shape", "s", "o".into(), "p", true);
        let report = Report::new(vec![sample()], vec![claim]);
        assert!(report.json.contains("5.1149") && report.json.contains("\"x.shape\""));
        assert!(report.json.ends_with("}\n"));
    }

    #[test]
    fn a_deviation_that_disappears_is_as_unexpected_as_a_shape_that_breaks() {
        let shape = Claim::new("x.shape", "s", "o".into(), "p", true);
        assert!(shape.as_expected());
        assert!(shape
            .render()
            .starts_with("- ✔ `x.shape` — s: o (paper: p)"));
        let broken = Claim {
            holds: false,
            ..shape.clone()
        };
        assert!(!broken.as_expected() && broken.render().contains("UNEXPECTED"));
        let deviation = broken.clone().known_deviation();
        assert!(deviation.as_expected() && deviation.render().contains("known deviation"));
        let closed = shape.known_deviation();
        assert!(!closed.as_expected() && closed.render().contains("UNEXPECTED"));
    }

    #[test]
    fn splice_replaces_only_between_its_markers() {
        let md = "a\n<!-- repro:x -->\nold\n<!-- /repro:x -->\nb\n";
        assert_eq!(
            splice(md, "x", "new\n").unwrap(),
            "a\n<!-- repro:x -->\nnew\n<!-- /repro:x -->\nb\n"
        );
        assert!(splice(md, "y", "").unwrap_err().contains("repro:y"));
    }

    #[test]
    fn first_diff_names_the_first_differing_line() {
        assert_eq!(first_diff("f", "a\nb", "a\nb"), None);
        let msg = first_diff("f", "a\nb\nc", "a\nB\nc").unwrap();
        assert!(
            msg.starts_with("f:2: committed `b`, the code produces `B`"),
            "{msg}"
        );
        let msg = first_diff("f", "a", "a\nb").unwrap();
        assert!(msg.contains("f:2: committed `<end of file>`"), "{msg}");
    }
}

//! ASCII Gantt rendering of pipeline timelines — works for both the
//! discrete-event simulator's virtual timelines and the host runtime's
//! wall-clock ones.

use crate::TimelineSpan;

/// One span of a Gantt chart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GanttSpan {
    /// Row (chunk) index.
    pub chunk: usize,
    /// Task id (drawn as its last digit).
    pub task: u64,
    /// Start offset in µs.
    pub start: f64,
    /// End offset in µs.
    pub end: f64,
}

impl From<TimelineSpan> for GanttSpan {
    fn from(s: TimelineSpan) -> GanttSpan {
        GanttSpan {
            chunk: s.chunk,
            task: s.task,
            start: s.start_us,
            end: s.end_us,
        }
    }
}

/// Renders a timeline as an ASCII Gantt chart: one row per chunk,
/// `columns` characters wide, each task's executions drawn with the task's
/// digit (mod 10). Idle time renders as `·`.
///
/// ```
/// use bt_soc::gantt::{render_gantt, GanttSpan};
/// let spans = [
///     GanttSpan { chunk: 0, task: 0, start: 0.0, end: 50.0 },
///     GanttSpan { chunk: 1, task: 0, start: 50.0, end: 100.0 },
/// ];
/// let chart = render_gantt(&spans, &["cpu".into(), "gpu".into()], 20);
/// assert!(chart.lines().count() == 3);
/// ```
///
/// # Panics
///
/// Panics if `columns < 10`.
pub fn render_gantt<S: Into<GanttSpan> + Copy>(
    timeline: &[S],
    chunk_labels: &[String],
    columns: usize,
) -> String {
    assert!(columns >= 10, "gantt needs at least 10 columns");
    let spans: Vec<GanttSpan> = timeline.iter().map(|&e| e.into()).collect();
    if spans.is_empty() {
        return String::from("(empty timeline)\n");
    }
    let t0 = spans.iter().map(|e| e.start).fold(f64::MAX, f64::min);
    let t1 = spans.iter().map(|e| e.end).fold(f64::MIN, f64::max);
    let span = (t1 - t0).max(1e-9);
    let label_w = chunk_labels.iter().map(|l| l.len()).max().unwrap_or(0);

    let mut rows: Vec<Vec<char>> = vec![vec!['·'; columns]; chunk_labels.len()];
    for e in &spans {
        if e.chunk >= rows.len() {
            continue;
        }
        let a = (((e.start - t0) / span) * columns as f64).floor() as usize;
        let b = (((e.end - t0) / span) * columns as f64).ceil() as usize;
        let glyph = char::from_digit((e.task % 10) as u32, 10).expect("digit");
        for cell in rows[e.chunk]
            .iter_mut()
            .take(b.min(columns))
            .skip(a.min(columns.saturating_sub(1)))
        {
            *cell = glyph;
        }
    }

    let mut out = String::new();
    for (label, row) in chunk_labels.iter().zip(rows) {
        out.push_str(&format!("{label:>label_w$} |"));
        out.extend(row);
        out.push_str("|\n");
    }
    out.push_str(&format!(
        "{:>label_w$}  0{:>w$.1} ms\n",
        "",
        (t1 - t0) / 1e3,
        w = columns - 1
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_rows_and_scale() {
        let events = vec![
            GanttSpan {
                chunk: 0,
                task: 0,
                start: 0.0,
                end: 500.0,
            },
            GanttSpan {
                chunk: 1,
                task: 0,
                start: 500.0,
                end: 1000.0,
            },
            GanttSpan {
                chunk: 0,
                task: 1,
                start: 500.0,
                end: 1000.0,
            },
        ];
        let labels = vec!["cpu".to_string(), "gpu".to_string()];
        let chart = render_gantt(&events, &labels, 20);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 3, "two rows + axis");
        assert!(lines[0].contains('0') && lines[0].contains('1'));
        assert!(lines[1].starts_with("gpu |"));
        assert!(lines[1].contains('·'), "gpu row has idle time");
        assert!(lines[2].contains("1.0 ms"));
    }

    #[test]
    fn empty_timeline() {
        let spans: [GanttSpan; 0] = [];
        assert_eq!(
            render_gantt(&spans, &["x".into()], 20),
            "(empty timeline)\n"
        );
    }

    #[test]
    fn run_timeline_converts() {
        let e = TimelineSpan {
            chunk: 2,
            stage: Some(1),
            task: 13,
            start_us: 1.0,
            end_us: 2.0,
        };
        let s: GanttSpan = e.into();
        assert_eq!(s.chunk, 2);
        assert_eq!(s.task, 13);
    }
}

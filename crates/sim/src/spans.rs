//! Subtask span recording and export.
//!
//! When [`crate::SimConfig::record_spans`] is on, the driver records one
//! span per executed subtask — which job, which phase, which group, and
//! when it ran. The spans make the paper's schedule illustrations
//! (Figures 5 and 7) directly observable:
//!
//! - [`ascii_gantt`] renders a compact per-job timeline for terminals;
//! - [`to_chrome_trace`] emits the Chrome/Perfetto `chrome://tracing`
//!   JSON array format (open the file in `ui.perfetto.dev`), one track
//!   per job, so real runs can be inspected visually.

use std::sync::Arc;

use crate::runtime::Phase;

/// One executed subtask occurrence.
#[derive(Debug, Clone, PartialEq)]
pub struct SubtaskSpan {
    /// Driver-level job index.
    pub job: usize,
    /// Job display name: one allocation per job, shared by all of its
    /// spans.
    pub job_name: Arc<str>,
    /// Which subtask ran.
    pub phase: Phase,
    /// Group hosting the job at the time.
    pub group: usize,
    /// Dispatch time (seconds).
    pub start: f64,
    /// Completion time (seconds).
    pub end: f64,
    /// The job iteration the subtask belongs to (0-based).
    pub iteration: u64,
    /// How many runs of its iteration were lost before this one
    /// ([`crate::noise::DrawKey`]).
    pub attempt: u64,
    /// The uniform draw behind its straggler factor.
    pub draw: f64,
}

impl SubtaskSpan {
    /// Span duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

fn phase_label(phase: Phase) -> &'static str {
    match phase {
        Phase::Pull => "PULL",
        Phase::Comp => "COMP",
        Phase::Push => "PUSH",
    }
}

/// Renders spans as a Chrome trace-event JSON array (`[ {...}, ... ]`).
///
/// Timestamps are microseconds as the format requires; each job becomes
/// one "thread" so Perfetto lays jobs out as parallel tracks.
pub fn to_chrome_trace(spans: &[SubtaskSpan]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let cpu = s.phase == Phase::Comp;
        if i > 0 {
            out.push_str(",\n");
        }
        // Manual JSON: names are workload labels ([a-z0-9-] only), no
        // escaping hazards.
        out.push_str(&format!(
            "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \
             \"ts\": {:.0}, \"dur\": {:.0}, \"pid\": {}, \"tid\": {}, \
             \"args\": {{\"job\": \"{}\"}}}}",
            phase_label(s.phase),
            if cpu { "cpu" } else { "network" },
            s.start * 1e6,
            s.duration() * 1e6,
            s.group,
            s.job,
            s.job_name,
        ));
    }
    out.push_str("\n]\n");
    out
}

/// Renders spans as an ASCII Gantt chart, one row per job: `C` marks
/// COMP time, `n` marks PULL/PUSH time, `.` is idle. `width` is the
/// number of character columns the full time range maps onto.
///
/// # Panics
///
/// Panics if `width` is zero.
pub fn ascii_gantt(spans: &[SubtaskSpan], width: usize) -> String {
    assert!(width > 0, "gantt width must be non-zero");
    if spans.is_empty() {
        return String::new();
    }
    let t0 = spans.iter().map(|s| s.start).fold(f64::INFINITY, f64::min);
    let t1 = spans.iter().map(|s| s.end).fold(0.0f64, f64::max);
    let span = (t1 - t0).max(f64::MIN_POSITIVE);
    let col = |t: f64| (((t - t0) / span) * (width as f64 - 1.0)).round() as usize;

    let mut jobs: Vec<(usize, &str)> = spans.iter().map(|s| (s.job, &*s.job_name)).collect();
    jobs.sort_unstable();
    jobs.dedup();
    let label_w = jobs.iter().map(|(_, n)| n.len()).max().unwrap_or(0);

    let mut out = String::new();
    for (job, name) in jobs {
        let mut row = vec!['.'; width];
        for s in spans.iter().filter(|s| s.job == job) {
            let mark = if s.phase == Phase::Comp { 'C' } else { 'n' };
            for cell in row
                .iter_mut()
                .take(col(s.end).min(width - 1) + 1)
                .skip(col(s.start))
            {
                *cell = mark;
            }
        }
        out.push_str(&format!("{name:<label_w$} |"));
        out.extend(row);
        out.push_str("|\n");
    }
    out.push_str(&format!(
        "{:<label_w$}  {:<.1}s{}{:>.1}s\n",
        "",
        t0,
        " ".repeat(width.saturating_sub(8)),
        t1
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(job: usize, phase: Phase, start: f64, end: f64) -> SubtaskSpan {
        SubtaskSpan {
            job,
            job_name: format!("job{job}").into(),
            phase,
            group: 0,
            start,
            end,
            iteration: 0,
            attempt: 0,
            draw: 0.5,
        }
    }

    #[test]
    fn chrome_trace_is_wellformed_json_array() {
        let spans = vec![
            span(0, Phase::Pull, 0.0, 1.0),
            span(0, Phase::Comp, 1.0, 3.0),
            span(1, Phase::Push, 2.0, 2.5),
        ];
        let json = to_chrome_trace(&spans);
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 3);
        assert!(json.contains("\"cat\": \"cpu\""));
        assert!(json.contains("\"cat\": \"network\""));
        // Durations in microseconds.
        assert!(json.contains("\"dur\": 2000000"));
        // Balanced braces (crude well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn gantt_rows_cover_each_job() {
        let spans = vec![
            span(0, Phase::Comp, 0.0, 5.0),
            span(1, Phase::Pull, 5.0, 10.0),
        ];
        let g = ascii_gantt(&spans, 20);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 3); // two jobs + time axis
        assert!(lines[0].starts_with("job0"));
        assert!(lines[0].contains('C'));
        assert!(!lines[0].contains('n'));
        assert!(lines[1].contains('n'));
        assert!(!lines[1].contains('C'));
    }

    #[test]
    fn gantt_positions_reflect_time() {
        let spans = vec![
            span(0, Phase::Comp, 0.0, 1.0),
            span(0, Phase::Comp, 9.0, 10.0),
        ];
        let g = ascii_gantt(&spans, 42);
        let row = g.lines().next().expect("row");
        let bar: &str = &row[row.find('|').expect("bar") + 1..];
        assert!(bar.starts_with('C'), "{bar}");
        assert!(bar.trim_end_matches('|').ends_with('C'), "{bar}");
        assert!(bar.contains('.'), "{bar}");
    }

    #[test]
    fn empty_spans_render_empty() {
        assert!(ascii_gantt(&[], 10).is_empty());
        assert_eq!(to_chrome_trace(&[]), "[\n\n]\n");
    }

    #[test]
    fn duration_is_end_minus_start() {
        assert_eq!(span(0, Phase::Comp, 2.0, 5.0).duration(), 3.0);
    }
}

//! The harness's own spans: one per call into a layer, recorded from
//! outside (no crate under test gains a line), kept in memory and written
//! out once when the run ends. A disabled log records nothing, which is how
//! end-to-end runs stay untraced.

use crate::json;
use std::path::Path;
use std::time::Instant;

#[derive(Debug)]
struct HarnessSpan {
    name: String,
    start: f64,
    end: f64,
    parent: Option<usize>,
    round: Option<usize>,
}

/// Span recorder for the single driver thread. Parents come from nesting:
/// a span opened while another is open is its child.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    spans: Vec<HarnessSpan>,
    open: Vec<usize>,
    round: Option<usize>,
}

/// Handle returned by [`SpanLog::begin`]; give it back to [`SpanLog::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl SpanLog {
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: None,
        }
    }

    /// Spans opened from now on carry this round id.
    pub fn set_round(&mut self, round: Option<usize>) {
        self.round = round;
    }

    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(HarnessSpan {
            name: name.to_string(),
            start: self.epoch.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            round: self.round,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        assert_eq!(self.open.pop(), Some(id), "harness spans must nest");
        self.spans[id].end = self.epoch.elapsed().as_secs_f64();
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON document.
    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        assert!(self.open.is_empty(), "span log written with spans open");
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |x| x.to_string());
        let spans = self.spans.iter().enumerate().map(|(id, s)| {
            json::object([
                ("id", id.to_string()),
                ("name", json::string(&s.name)),
                ("start_s", json::number(s.start)),
                ("end_s", json::number(s.end)),
                ("parent", opt(s.parent)),
                ("round", opt(s.round)),
            ])
        });
        let doc = json::object([
            ("workload", json::string(workload)),
            ("spans", json::array(spans)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc)
    }
}

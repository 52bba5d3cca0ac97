//! Harness-side spans: recorded from the benchmark's own files around
//! the calls into each layer, kept in memory, written out as one
//! Chrome-trace document per workload when the traced run ends.

use obs::Event;

/// What the load generator was doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Submit → reply of one op; the parent of its `Submit`.
    Op,
    /// Drawing the op from the seeded stream and building its value.
    Gen,
    /// Inside `Session::submit` / the socket write.
    Submit,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Op => "op",
            SpanKind::Gen => "gen",
            SpanKind::Submit => "submit",
        }
    }

    /// The span that caused this one, within the same op id.
    pub fn parent(self) -> Option<SpanKind> {
        match self {
            SpanKind::Op | SpanKind::Gen => None,
            SpanKind::Submit => Some(SpanKind::Op),
        }
    }

    /// Numeric code the trace carries in `parent` args (0 = no parent).
    fn code(self) -> u64 {
        match self {
            SpanKind::Op => 1,
            SpanKind::Gen => 2,
            SpanKind::Submit => 3,
        }
    }
}

/// One span: name, start, end, parent and the op id every span of one
/// request shares (nanoseconds on the fabric's clock, so engine spans
/// of the same op line up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HarnessSpan {
    pub kind: SpanKind,
    pub op_id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl HarnessSpan {
    pub fn new(kind: SpanKind, op_id: u64, start_ns: u64, end_ns: u64) -> HarnessSpan {
        HarnessSpan {
            kind,
            op_id,
            start_ns,
            end_ns,
        }
    }
}

/// Lane of the load generator in the rendered trace (engine cores take
/// lanes 0..ncores, spans that never reached a shard the one after).
const HARNESS_TID: u32 = 100;

/// Renders harness spans plus the engine's sampled spans of the same
/// ops as one Chrome trace-event document.
pub fn chrome_trace(workload: &str, harness: &[HarnessSpan], engine: &[obs::Span]) -> String {
    let mut events: Vec<Event> = harness
        .iter()
        .map(|s| {
            Event::span(s.kind.name(), "harness", HARNESS_TID, s.start_ns, s.end_ns)
                .arg("op_id", s.op_id)
                .arg("kind", s.kind.code())
                .arg("parent", s.kind.parent().map_or(0, SpanKind::code))
        })
        .collect();
    let mut lanes = vec![(HARNESS_TID, "harness".to_string())];
    for s in engine {
        let tid = if s.core == u32::MAX { 99 } else { s.core };
        if !lanes.iter().any(|(t, _)| *t == tid) {
            lanes.push((
                tid,
                if tid == 99 {
                    "client".into()
                } else {
                    format!("core-{tid}")
                },
            ));
        }
        events.extend(s.chrome_events(tid));
    }
    obs::chrome_trace(&format!("perfmap:{workload}"), lanes, &events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_document_parses_and_names_the_harness_lane() {
        let spans = [
            HarnessSpan::new(SpanKind::Gen, 63, 100, 180),
            HarnessSpan::new(SpanKind::Op, 63, 180, 9_000),
            HarnessSpan::new(SpanKind::Submit, 63, 180, 400),
        ];
        let doc = chrome_trace("put64_hb", &spans, &[]);
        let json = obs::Json::parse(&doc).expect("valid JSON");
        let events = json
            .get("traceEvents")
            .and_then(obs::Json::as_arr)
            .expect("traceEvents array");
        // process name + one lane name + three spans
        assert_eq!(events.len(), 5);
        assert!(doc.contains("\"harness\""));
        assert!(doc.contains("\"submit\""));
        assert_eq!(SpanKind::Submit.parent(), Some(SpanKind::Op));
    }
}

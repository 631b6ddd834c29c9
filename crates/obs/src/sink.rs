//! The [`TraceSink`] trait: where recorded events go.
//!
//! The recorder shows each event to at most one installed custom sink,
//! by reference, and then moves it into the built-in flight-recorder
//! ring. A sink sees events *after* the envelope (sequence, trace, span
//! linkage) has been assigned, so it can reconstruct causality without
//! talking to the recorder.

use crate::event::TraceEvent;

/// A consumer of trace events.
///
/// Implementations must be cheap: sinks run inline on the instrumented
/// path (there is no background thread in this single-threaded model).
pub trait TraceSink {
    /// Receives one event. The recorder retains ownership; clone if the
    /// sink needs to keep it.
    fn record(&mut self, event: &TraceEvent);
}

/// A sink that appends every event to a `Vec` — useful in tests and for
/// one-shot capture from tools.
#[derive(Debug, Default)]
pub struct VecSink {
    /// The captured events, in recording order.
    pub events: Vec<TraceEvent>,
}

impl TraceSink for VecSink {
    fn record(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind};

    #[test]
    fn vec_sink_captures_in_order() {
        let mut sink = VecSink::default();
        for seq in 0..3 {
            sink.record(&TraceEvent {
                event: Event {
                    seq,
                    trace: 0,
                    span: 0,
                    parent: 0,
                    at_us: 0,
                },
                kind: EventKind::ScriptRun {
                    fuel_used: 0,
                    host_calls: 0,
                },
            });
        }
        let seqs: Vec<u64> = sink.events.iter().map(|t| t.event.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }
}

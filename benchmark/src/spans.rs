//! Spans recorded by the harness around public calls into each layer.
//!
//! The traced run replays one request down a *ladder* of entry points,
//! outermost first. The replays run one after another, so a rung does
//! not contain the next one in time; the parent relation below is the
//! logical one — the rung a call would be issued from inside the
//! stack. A layer's self time is its span minus its children's spans.

use std::collections::BTreeMap;
use std::time::Instant;

use jsonlite::{ObjectBuilder, Value};

/// One rung of the ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// `ShardRouter::query`.
    RouterQuery,
    /// `SpectralService::submit` + `Ticket::wait`.
    ServiceSubmitWait,
    /// `Engine::submit` of the request's `IonJob`s, receive all, `assemble`.
    EngineFanout,
    /// `Engine::compute_inline` per ion: the CPU-fallback path, serial.
    ComputeInline,
    /// `SerialCalculator` fold: the plain single-threaded baseline.
    SpectralSerial,
    /// `FusedBinKernel::execute` per ion, called directly, serial.
    GpusimKernel,
    /// `integrate_bins_sampled_mode` per level on prepared integrands.
    QuadratureBins,
    /// `rrc_service::assemble` of the request's partials.
    ServiceAssemble,
}

impl Rung {
    #[cfg(test)]
    pub const ALL: [Rung; 8] = [
        Rung::RouterQuery,
        Rung::ServiceSubmitWait,
        Rung::EngineFanout,
        Rung::ComputeInline,
        Rung::SpectralSerial,
        Rung::GpusimKernel,
        Rung::QuadratureBins,
        Rung::ServiceAssemble,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Rung::RouterQuery => "router.query",
            Rung::ServiceSubmitWait => "service.submit_wait",
            Rung::EngineFanout => "core.engine_fanout",
            Rung::ComputeInline => "core.compute_inline",
            Rung::SpectralSerial => "spectral.serial",
            Rung::GpusimKernel => "gpusim.kernel",
            Rung::QuadratureBins => "quadrature.bins",
            Rung::ServiceAssemble => "service.assemble",
        }
    }

    /// The rung this one is called from inside the stack. The two CPU
    /// baselines (`compute_inline`, `serial`) are alternatives to the
    /// device path, not parts of it: they have no parent and no child.
    pub fn parent(self) -> Option<Rung> {
        match self {
            Rung::RouterQuery | Rung::ComputeInline | Rung::SpectralSerial => None,
            Rung::ServiceSubmitWait => Some(Rung::RouterQuery),
            Rung::EngineFanout | Rung::ServiceAssemble => Some(Rung::ServiceSubmitWait),
            Rung::GpusimKernel => Some(Rung::EngineFanout),
            Rung::QuadratureBins => Some(Rung::GpusimKernel),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Shared by every span of one request.
    pub request: u64,
    pub rung: Rung,
    /// Seconds since the recorder was created.
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// In-memory span log; written out once, when the run ends.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span of `rung` for `request`.
    pub fn span<T>(&mut self, request: u64, rung: Rung, f: impl FnOnce() -> T) -> T {
        let start_s = self.origin.elapsed().as_secs_f64();
        let out = f();
        let end_s = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            request,
            rung,
            start_s,
            end_s,
        });
        out
    }

    #[cfg(test)]
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per request, each recorded rung's duration in seconds.
    pub fn by_request(&self) -> BTreeMap<u64, BTreeMap<Rung, f64>> {
        let mut out: BTreeMap<u64, BTreeMap<Rung, f64>> = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.request).or_default().entry(s.rung).or_default() += s.duration_s();
        }
        out
    }

    /// Chrome trace-event rendering (`chrome://tracing`, Perfetto):
    /// complete events in microseconds, the request id and the logical
    /// parent in `args`.
    pub fn to_chrome_trace(&self, workload: &str) -> Value {
        let events: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                ObjectBuilder::new()
                    .field("name", s.rung.name())
                    .field("cat", workload)
                    .field("ph", "X")
                    .field("ts", 1e6 * s.start_s)
                    .field("dur", 1e6 * s.duration_s())
                    .field("pid", 1u64)
                    .field("tid", 1u64)
                    .field(
                        "args",
                        ObjectBuilder::new()
                            .field("request", s.request)
                            .field("parent", s.rung.parent().map_or("", Rung::name))
                            .build(),
                    )
                    .build()
            })
            .collect();
        ObjectBuilder::new()
            .field("displayTimeUnit", "ms")
            .field("traceEvents", events)
            .build()
    }
}

/// Self time of every rung of one request: its duration minus the
/// durations of the rungs whose parent it is. A rung that was not
/// replayed contributes nothing; a negative self time means the
/// children, replayed serially, took longer than the parent that runs
/// them in parallel.
pub fn self_times(durations: &BTreeMap<Rung, f64>) -> BTreeMap<Rung, f64> {
    durations
        .iter()
        .map(|(&rung, &d)| {
            let children: f64 = durations
                .iter()
                .filter(|(c, _)| c.parent() == Some(rung))
                .map(|(_, cd)| cd)
                .sum();
            (rung, d - children)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(request: u64, rung: Rung, start_s: f64, dur: f64) -> Span {
        Span {
            request,
            rung,
            start_s,
            end_s: start_s + dur,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut rec = Recorder::new();
        // One cold request: every rung replayed.
        rec.push(span(7, Rung::RouterQuery, 0.0, 11.0));
        rec.push(span(7, Rung::ServiceSubmitWait, 11.0, 10.5));
        rec.push(span(7, Rung::EngineFanout, 21.5, 10.0));
        rec.push(span(7, Rung::ComputeInline, 31.5, 15.0));
        rec.push(span(7, Rung::SpectralSerial, 46.5, 15.5));
        rec.push(span(7, Rung::GpusimKernel, 62.0, 14.0));
        rec.push(span(7, Rung::QuadratureBins, 76.0, 12.0));
        rec.push(span(7, Rung::ServiceAssemble, 88.0, 0.25));
        // One warm request: only the top rungs.
        rec.push(span(8, Rung::RouterQuery, 90.0, 0.001));
        rec.push(span(8, Rung::ServiceSubmitWait, 90.001, 0.05));

        let by_request = rec.by_request();
        let cold = self_times(&by_request[&7]);
        assert_eq!(cold[&Rung::RouterQuery], 0.5);
        assert_eq!(cold[&Rung::ServiceSubmitWait], 0.25); // 10.5 - 10 - 0.25
        assert_eq!(cold[&Rung::EngineFanout], -4.0); // two devices beat the serial replay
        assert_eq!(cold[&Rung::GpusimKernel], 2.0);
        assert_eq!(cold[&Rung::QuadratureBins], 12.0);
        assert_eq!(cold[&Rung::ServiceAssemble], 0.25);
        // Baselines stand alone.
        assert_eq!(cold[&Rung::ComputeInline], 15.0);
        assert_eq!(cold[&Rung::SpectralSerial], 15.5);
        // The device chain telescopes back to the top rung.
        let chain = [
            Rung::RouterQuery,
            Rung::ServiceSubmitWait,
            Rung::EngineFanout,
            Rung::GpusimKernel,
            Rung::QuadratureBins,
            Rung::ServiceAssemble,
        ];
        let total: f64 = chain.iter().map(|r| cold[r]).sum();
        assert!((total - 11.0).abs() < 1e-12);

        let warm = self_times(&by_request[&8]);
        assert!((warm[&Rung::RouterQuery] - (0.001 - 0.05)).abs() < 1e-12);
        assert_eq!(warm.len(), 2);
    }

    #[test]
    fn parents_form_a_tree_rooted_at_the_router() {
        for rung in Rung::ALL {
            let mut at = rung;
            let mut hops = 0;
            while let Some(p) = at.parent() {
                at = p;
                hops += 1;
                assert!(hops < Rung::ALL.len(), "cycle at {rung:?}");
            }
            assert!(matches!(
                at,
                Rung::RouterQuery | Rung::ComputeInline | Rung::SpectralSerial
            ));
        }
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let mut rec = Recorder::new();
        let got = rec.span(3, Rung::ServiceAssemble, || 41 + 1);
        assert_eq!(got, 42);
        let doc = rec.to_chrome_trace("cold_sweep");
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(
            e.get("name").and_then(Value::as_str),
            Some("service.assemble")
        );
        let args = e.get("args").unwrap();
        assert_eq!(args.get("request").and_then(Value::as_u64), Some(3));
        assert_eq!(
            args.get("parent").and_then(Value::as_str),
            Some("service.submit_wait")
        );
        assert!(e.get("dur").and_then(Value::as_f64).unwrap() >= 0.0);
        // Round-trips through the parser.
        assert!(Value::parse(&doc.to_compact()).is_ok());
    }
}

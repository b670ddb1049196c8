// Package edge implements the inference half of the paper's Figure 1: the
// trained AF-detection model "is then deployed and used for inference at
// the edge" — a wearable device classifies the incoming ECG stream in
// sliding windows and raises an alarm when an AF episode is detected. The
// paper leaves this part as future work; this package builds its
// single-stream state machines — windowing, debounced alarms and
// detection-latency measurement on synthetic paroxysmal episodes — and
// internal/serve composes them into the always-on multi-stream service.
//
// # Public surface
//
// NewMonitor wires a Featurizer and a Classifier behind a sliding-window
// Config; Push feeds samples and returns the events raised so far. Run is
// the one-shot convenience over a full signal; DetectionLatency scores an
// alarm against a known episode onset.
//
// The two halves of the monitor are exported separately for callers that
// score windows asynchronously: a Windower cuts sliding windows
// incrementally (Push / Peek / Advance), and a Debouncer turns the ordered
// label sequence back into events and alarms (Apply). Monitor ≡ Windower +
// synchronous featurize/classify + Debouncer, which is the contract that
// keeps internal/serve's micro-batched scoring bit-identical to the batch
// Run path: same windows in, same labels applied in stream order, same
// debounce state machine. A window that is never scored (serve's overload
// shedding) is simply not Applied — a gap neither extends nor resets the
// consecutive-positive chain.
//
// # Concurrency and ownership
//
// Every type here is a single-stream state machine with no internal
// locking: one goroutine pushes samples, events are returned (not
// delivered asynchronously), and the injected Featurizer/Classifier are
// called synchronously from Monitor.Push. Windower.Peek returns a view
// into the internal buffer valid until the next Push — copy it to retain
// it (internal/serve does, since its windows outlive the ingest call): the
// Windower compacts its one backing array in place, so a Push may move the
// samples a view points at, and a stream holds at most one window and one
// push of samples however long it runs. Use
// one Monitor (or Windower/Debouncer pair) per stream; distinct instances
// are independent.
package edge

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
// A Windower cuts sliding windows from an incrementally pushed stream
// (Push / Peek / Advance), and a Debouncer turns the ordered label sequence
// back into events and alarms (Apply). Run is the reference loop over a
// whole signal: every complete window, featurized by a Featurizer,
// labelled by a Classifier and applied to a Debouncer in stream order.
// DetectionLatency scores an alarm against a known episode onset.
//
// internal/serve composes a Windower and a Debouncer around asynchronous
// micro-batched scoring; its parity tests require the served events to
// equal Run's on the same signal — same windows in, same labels applied in
// stream order, same debounce state machine. A window that is never scored
// (serve's overload shedding) is simply not Applied — a gap neither
// extends nor resets the consecutive-positive chain.
//
// # Concurrency and ownership
//
// Every type here is a single-stream state machine with no internal
// locking: one goroutine pushes samples and applies labels, and events are
// returned, not delivered asynchronously. Run calls the Featurizer and
// Classifier synchronously, the Featurizer on a view into the caller's
// signal that it must not modify. Windower.Peek returns a view into the
// internal buffer valid until the next Push — copy it to retain it
// (internal/serve does, since its windows outlive the ingest call): the
// Windower compacts its one backing array in place, so a Push may move the
// samples a view points at, and a stream holds at most one window and one
// push of samples however long it runs. Use one Windower/Debouncer pair
// per stream; distinct instances are independent.
package edge

// Package serve is the always-on inference service over the deployment
// half of the paper's Figure 1: where internal/edge simulates one wearable
// monitoring one patient, a serve.Server multiplexes thousands of
// concurrent ECG streams onto a single task runtime, so continuous
// inference rides the same work-stealing executor, data plane and worker
// fleet that trained the model (the hybrid task/dataflow shape from
// PAPERS.md, with Compass-style per-request latency targets).
//
// # Public surface
//
// New builds a Server from a compss.Runtime and a Config holding the
// window geometry (edge.Config), a Scorer that submits one micro-batch of
// windows as a task and resolves to their labels, the latency SLO and the
// batcher/buffer bounds. Admit opens a Stream or returns a *CapacityError;
// Stream.Push feeds raw samples; alarms surface through Config.OnAlarm
// (and Stream.Events under RecordEvents). Flush, WaitIdle and Close drain;
// Metrics and Stream.Stats expose the accounting; Config.Hook streams
// Samples to the trace layer.
//
// # Data path
//
// Each stream owns the two halves of an edge.Monitor: an edge.Windower
// cuts analysis windows on Push, and an edge.Debouncer applies scored
// labels in stream order. Between them sits the cross-stream micro-batcher:
// ready windows from all streams join one FIFO queue, flushed into a
// scoring task when MaxBatch accumulate (size path) or when the oldest has
// waited MaxDelay (deadline path). Batches complete in any order; a
// per-stream reorder buffer holds results until every earlier window of
// that stream is terminal, so the Debouncer sees exactly the label
// sequence the synchronous Monitor would — which is what makes served
// alarms bit-identical to batch edge.Run on the same signal.
//
// # Overload behaviour
//
// Load is refused, never silently degraded, at two points. Admission:
// Admit projects the p99 serving latency with the candidate stream's
// steady-state load added (measured latency histogram scaled by M/M/1
// waiting-time growth over the EWMA per-window service time) and rejects
// with a *CapacityError when the projection exceeds the SLO or utilisation
// would cross Headroom. Backpressure: each stream's ingress buffer holds
// at most StreamBuffer unflushed windows; a newer window sheds the oldest,
// counted on the stream and the server and reported through Hook. A shed
// window is a gap to the Debouncer — skipped, neither extending nor
// resetting the consecutive-positive alarm chain.
//
// # Memory
//
// A long-lived server holds what is still live, not what it has served: per
// admitted stream, one window of samples in its Windower (which compacts in
// place) plus the windows cut and not yet scored. A window's samples go when
// its batch is delivered, or when it is shed; the scoring task's argument goes
// when the task completes (the runtime drops a completed task's inputs).
//
// # Concurrency and ownership
//
// One mutex guards all mutable server and stream state; scoring itself
// runs outside it in per-batch goroutines, and OnAlarm/Hook callbacks fire
// outside it too (possibly concurrently — they must be thread-safe).
// Exactly one goroutine may Push to a given Stream; distinct streams push
// concurrently. Window data is copied out of the Windower at cut time and
// owned by the server; Scorer implementations must treat it read-only.
// With Config.Now nil a background goroutine drives the deadline flush;
// tests inject a virtual clock via Now and call Flush explicitly.
package serve

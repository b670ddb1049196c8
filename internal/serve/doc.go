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
// batch/buffer bounds. Admit opens a Stream or returns a *CapacityError;
// Stream.Push feeds raw samples; alarms surface through Config.OnAlarm
// (and Stream.Events under RecordEvents). WaitIdle and Close drain (Flush,
// like Config.MaxDelay, is deprecated and does nothing);
// Metrics and Stream.Stats expose the accounting; Config.Hook streams
// Samples to the trace layer.
//
// # Data path
//
// Each stream composes an edge.Windower, which cuts analysis windows on
// Push, and an edge.Debouncer, which applies scored labels in stream order.
// Between them sit the scorer loops, one per runtime slot
// (compss.Runtime.Slots: its worker count or, over a fleet with more, the
// fleet's slot total): ready windows from all streams join one FIFO queue,
// and a loop that is free takes up to MaxBatch of the oldest at once into
// one scoring task, submitted through the runtime's Detached context. An
// idle server scores a window the moment it is cut; under load a batch is
// whatever waited while every loop was busy. No timer is involved. Batches
// complete in any order; a per-stream reorder buffer holds results until
// every earlier window of that stream is terminal, so the Debouncer sees
// exactly the label sequence edge.Run's reference loop applies — which is
// what makes served alarms bit-identical to edge.Run on the same signal.
//
// # Overload behaviour
//
// Load is refused, never silently degraded, at two points. Admission:
// Admit projects the p99 serving latency with the candidate stream's
// steady-state load added (measured latency histogram scaled by M/M/1
// waiting-time growth over the measured cost of a window in a full batch) and rejects
// with a *CapacityError when the projection exceeds the SLO or utilisation
// would cross a fixed headroom of 0.85. Backpressure: each stream's ingress
// buffer holds at most StreamBuffer waiting windows; a newer window sheds
// the oldest, counted on the stream and the server and reported through
// Hook. A shed window is a gap to the Debouncer — skipped, neither
// extending nor resetting the consecutive-positive alarm chain.
//
// # Memory
//
// A long-lived server holds what is still live, not what it has served: per
// admitted stream, one window of samples in its Windower (which compacts in
// place) plus the windows cut and not yet scored. A window's samples go when
// its batch is delivered, or when it is shed. The scoring task is detached
// (compss.Runtime.Detached): no graph node, no entry in a context, nothing on
// a worker, so once the loop drops its future the task, its argument and its
// labels are garbage, and the runtime's graph does not grow with traffic.
//
// # Concurrency and ownership
//
// One mutex guards all mutable server and stream state. New starts the
// scorer loops, which hold it only to take and to deliver a batch; scoring
// runs outside it, and so do the OnAlarm/Hook callbacks (possibly
// concurrently — they must be thread-safe). Close drains the server and the
// loops return; none outlives it.
// Exactly one goroutine may Push to a given Stream; distinct streams push
// concurrently. Window data is copied out of the Windower at cut time and
// owned by the server; Scorer implementations must treat it read-only.
package serve

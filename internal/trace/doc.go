// Package trace turns the runtime's Observer event stream (internal/compss)
// into Chrome trace-event JSON, the format chrome://tracing and Perfetto
// (https://ui.perfetto.dev) open directly — the same built-in-profiler idea
// Taskflow ships for its task graphs.
//
// Two producers emit the format:
//
//   - Collector.Chrome (this package) renders a *real* execution: per-lane
//     B/E duration slices for every attempt, instant markers for retries
//     and failures, and counter tracks for worker-pool
//     occupancy and the ready queue;
//   - Schedule.ChromeTrace (internal/cluster) renders a *replayed* virtual
//     schedule into the same format, so a run and its replay open
//     side-by-side in Perfetto.
//
// # Public surface
//
// Collector is a compss.Observer whose Observe buffers events (and exec fleet
// events and serving samples via AddExecEvent / AddServeSample); its Chrome
// method builds a Trace, which Add/WriteJSON/WriteFile assemble and emit.
// PackLanes is the greedy interval-packing helper both producers share.
// In-process attempts pack into "worker N" lanes; attempts executed by a
// remote backend (internal/exec) are pinned to per-worker-id lanes instead,
// so a distributed run shows one swimlane per worker process.
//
// # Concurrency and ownership
//
// Collector's observer callbacks are called from runtime goroutines and
// append under a lock; call Events or Chrome only after the observed
// runtime has quiesced. A built Trace is a plain value owned by the caller.
package trace

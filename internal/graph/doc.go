// Package graph holds the task dependency graph captured while a workflow
// executes on the internal/compss runtime.
//
// The graph is the bridge between the programming model and the performance
// model: internal/compss appends one node per submitted task (in program
// order, with data dependencies, nesting parentage and resource demands) and
// internal/cluster replays the captured graph against a virtual cluster
// description to obtain the schedule the paper's figures are derived from.
// A single captured graph can be replayed on any number of cluster
// configurations, which is how the core-count sweeps of Figures 11a-c and 12
// are produced from one workflow run.
//
// # Public surface
//
// Graph records tasks (Add) and failure events, and answers
// structural queries (CriticalPath, TotalCost, MaxWidth, CountByName,
// Occurrence, Validate); DOT and Export render it as Graphviz and as a provenance
// record. Scaled returns a cost-scaled copy for paper-scale replays.
// ProgramOrder ranks tasks by the program that submitted them, not by the
// thread timing that numbered nested ones: the replay releases ready tasks
// in that order and DOT numbers its nodes by it.
//
// # Concurrency and ownership
//
// Add, Append and the event recorders are safe for concurrent
// use (the runtime appends from many worker goroutines); IDs are dense and
// assigned in submission order. An append is O(1) under the graph's lock:
// records live in fixed-size chunks and are written once, never copied as
// the graph grows. Readers should query after the producing runtime has
// quiesced — queries take the same lock but see a consistent snapshot only
// once no more tasks are being added. Tasks returns a copy, which later
// appends do not touch.
package graph

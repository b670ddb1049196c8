// Package par is the intra-task parallelism layer under the numeric kernels
// (internal/mat, internal/sigproc, internal/knn, internal/eddl, the forest's
// rank build): two primitives, For (chunked parallel loops, ForScratch with
// per-goroutine scratch) and Do (parallel thunks), whose helpers borrow idle
// slots from the task runtime instead of running on a pool of their own.
//
// # Helpers borrow idle slots
//
// Kernel parallelism must compose with the task-level parallelism of
// internal/compss: a runtime with Config.Workers = W runs W task bodies, and
// a kernel inside one of them must not add goroutines the runtime did not
// budget for. So a parallel region's helpers borrow their slots from a
// Lender — a compss runtime's own slots, or an exec worker's request slots —
// and give them back when the region drains:
//
//   - compss registers a runtime (Lend) while it has a live carrier; an exec
//     worker registers its request slots while it serves a coordinator.
//     Only those transitions register: the attempt path takes its slot as
//     before and pays nothing for the lending.
//   - A region takes at most chunks−1 helpers, one per slot TryBorrow hands
//     it, lender by lender. Borrowing never blocks: a region that finds
//     every slot taken is one serial call on its caller. Inside W bodies
//     the kernels thus run at most W goroutines in all, and a lone body
//     (PCA's eigh, a fold's last tree) gets the slots the others left idle.
//   - With no lender registered — code outside any runtime, such as dataset
//     construction — a region takes up to GOMAXPROCS−1 helpers, one a spare
//     core.
//
// There is no limit to set: SetLimit survives as a no-op only because the
// frozen benchmark module still calls it.
//
// # Public surface and concurrency
//
// For, ForScratch and Do are safe to call from any number of goroutines,
// including nested (a region inside a helper borrows only what is still
// free). Lend and the withdraw function it returns are safe for concurrent
// use; a region reads the lender list with one atomic load. Slots is the
// Lender over a counting semaphore (a buffered channel) that exec's worker
// and tests use. A panic in a chunk is re-raised on the region's caller.
package par

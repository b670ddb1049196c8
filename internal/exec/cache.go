package exec

import (
	"container/list"
	"slices"
	"sync"
	"sync/atomic"
)

// The worker-side future cache: task outputs (and RefValue replicas) kept
// resident on the worker that produced or last received them, so a
// co-located consumer receives a ValueRef instead of the serialized value.
//
// Correctness does not depend on the cache: a reference the worker cannot
// resolve produces a Miss response and the coordinator re-sends the values
// (remote.go). The cache is therefore free to evict under its byte bound
// (plain LRU) and to vanish entirely with a crashed worker.
//
// # Ownership
//
// A resident value is immutable. Task outputs are moved into the cache —
// the body that produced them is done with them — and RefValue replicas are
// kept as decoded; nothing is copied on the way in, and a hit returns the
// resident value itself, which later consumers, the response encoder and a
// pull all only read. That is what makes Miss/resend, retries and pulls
// safe without copies: no registered body writes to an argument. Only
// values with a known size are cached at all: the size their codec row
// gives (sizeOfValue).

// sessionCounter backs NextSession. Session 0 is reserved as "no session"
// (requests with Store=false).
var sessionCounter atomic.Uint64

// NextSession returns a fresh session token. Each compss runtime draws one
// at construction and stamps it into every request, so task ids from
// sequential or concurrent runtimes sharing one backend can never alias in
// a worker's cache.
func NextSession() uint64 { return sessionCounter.Add(1) }

// cacheEntry is one resident future output.
type cacheEntry struct {
	ref   ValueRef
	val   any
	bytes int64
	elem  *list.Element
}

// futureCache is a byte-bounded LRU map from ValueRef to value. One cache
// serves one coordinator connection (serveConn): the task-id namespace is
// per-coordinator, so sharing a cache across connections would need
// coordinated sessions for no benefit on this topology.
//
// All methods are safe for concurrent use by the Slots body goroutines of
// the owning connection.
type futureCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	entries  map[ValueRef]*cacheEntry
	lru      *list.List // front = most recent; values are *cacheEntry
	evicted  []ValueRef // drained into the next response (exactly once)
}

func newFutureCache(maxBytes int64) *futureCache {
	return &futureCache{
		maxBytes: maxBytes,
		entries:  map[ValueRef]*cacheEntry{},
		lru:      list.New(),
	}
}

// get returns the resident value for ref — the value itself, which the
// caller must not write to — or (nil, false) on miss. Every get is a use and
// refreshes LRU recency, a pull's as much as a local body's.
func (c *futureCache) get(ref ValueRef) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[ref]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(e.elem)
	return e.val, true
}

// put makes val itself resident under ref — ownership moves to the cache,
// and the caller may keep reading val but must never write to it again —
// and returns its accounted size, evicting LRU entries as needed. Values
// that cannot be sized, and values larger than the whole cache, are
// rejected (returns 0, false) — the caller simply doesn't report a
// StoredRef and the coordinator never records residency.
func (c *futureCache) put(ref ValueRef, val any) (int64, bool) {
	if c.maxBytes <= 0 {
		return 0, false
	}
	n := sizeOfValue(val)
	if n <= 0 || n > c.maxBytes {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[ref]; ok {
		// Re-insert (replay of a resent request): refresh recency, keep the
		// existing copy. Sizes are equal by determinism; keep the old
		// accounting either way.
		c.lru.MoveToFront(old.elem)
		return old.bytes, true
	}
	for c.bytes+n > c.maxBytes {
		back := c.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.entries, e.ref)
		c.bytes -= e.bytes
		c.evicted = append(c.evicted, e.ref)
	}
	e := &cacheEntry{ref: ref, val: val, bytes: n}
	e.elem = c.lru.PushFront(e)
	c.entries[ref] = e
	c.bytes += n
	return n, true
}

// forget drops every entry of sessions, replicas included, in one walk of the
// LRU list, and reports none of them as evicted: the coordinator forgot them
// first.
func (c *futureCache) forget(sessions []uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; {
		e, next := el.Value.(*cacheEntry), el.Next()
		if slices.Contains(sessions, e.ref.Session) {
			c.lru.Remove(el)
			delete(c.entries, e.ref)
			c.bytes -= e.bytes
		}
		el = next
	}
}

// drainEvicted returns the refs evicted since the last call, for
// piggybacking on the next response. Each eviction is reported exactly
// once.
func (c *futureCache) drainEvicted() []ValueRef {
	c.mu.Lock()
	defer c.mu.Unlock()
	ev := c.evicted
	c.evicted = nil
	return ev
}

// occupancy returns the current resident byte count.
func (c *futureCache) occupancy() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// sizeOfValue estimates the resident size of a value in bytes, for the
// cache bound and for placement scoring: its row's size (codec.go). 0 means
// "unknown" and the value is not cached. The estimate covers the payload
// (the float data of a matrix, the elements of a slice), not Go object
// headers — placement only needs relative magnitudes.
func sizeOfValue(v any) int64 {
	if r := rowOf(v); r != nil && r.size != nil {
		return r.size(v)
	}
	return 0
}

package graph

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// rec is a record whose every field follows from k, so a test can tell
// which append a stored record came from.
func rec(k int) Task {
	return Task{
		Name: fmt.Sprintf("n%d", k%3), Parent: -1, Deps: []Dep{{Task: k}},
		Cost: float64(k), Cores: 1 + k%4, OutBytes: int64(k) * 8, Retries: k % 5,
	}
}

// sameRecord reports whether got is rec(k) stored under id.
func sameRecord(got Task, id, k int) bool {
	want := rec(k)
	want.ID = id
	return reflect.DeepEqual(got, want)
}

// TestChunkBoundaries appends past the first chunks and reads every record
// back, by Task and by Tasks, at and around each boundary.
func TestChunkBoundaries(t *testing.T) {
	const n = 2*chunkLen + 1
	t.Run("Append", func(t *testing.T) {
		g := New()
		for k := 0; k < n; k++ {
			if id := g.Add(rec(k)); id != k {
				t.Fatalf("append %d got id %d", k, id)
			}
			if g.Len() != k+1 {
				t.Fatalf("Len = %d after %d appends", g.Len(), k+1)
			}
		}
		for _, id := range []int{0, 1, chunkLen - 1, chunkLen, chunkLen + 1, 2*chunkLen - 1, 2 * chunkLen} {
			if got, ok := g.Task(id); !ok || !sameRecord(got, id, id) {
				t.Fatalf("Task(%d) = %+v, %v", id, got, ok)
			}
		}
		for _, id := range []int{-1, g.Len()} {
			if got, ok := g.Task(id); ok {
				t.Fatalf("Task(%d) = %+v, want none", id, got)
			}
		}
		tasks := g.Tasks()
		if len(tasks) != n {
			t.Fatalf("Tasks has %d records, want %d", len(tasks), n)
		}
		for id, got := range tasks {
			if !sameRecord(got, id, id) {
				t.Fatalf("Tasks()[%d] = %+v", id, got)
			}
		}
	})
}

// TestTasksSnapshotDoesNotAlias: a snapshot taken mid-chunk is the caller's
// own, so neither later appends nor the caller's writes reach across.
func TestTasksSnapshotDoesNotAlias(t *testing.T) {
	g := New()
	for k := 0; k < chunkLen+3; k++ {
		g.Add(rec(k))
	}
	snap := g.Tasks()
	for k := chunkLen + 3; k < 3*chunkLen; k++ {
		g.Add(rec(k))
	}
	if len(snap) != chunkLen+3 {
		t.Fatalf("snapshot grew to %d records", len(snap))
	}
	for id, got := range snap {
		if !sameRecord(got, id, id) {
			t.Fatalf("snapshot[%d] = %+v after more appends", id, got)
		}
	}
	snap[chunkLen].Name, snap[chunkLen+2].Cost = "scribbled", -1
	if got, _ := g.Task(chunkLen); got.Name != rec(chunkLen).Name {
		t.Fatalf("a write to the snapshot reached the graph: %+v", got)
	}
	if got, _ := g.Task(chunkLen + 2); got.Cost != rec(chunkLen+2).Cost {
		t.Fatalf("a write to the snapshot reached the graph: %+v", got)
	}
}

// TestConcurrentAppendKeepsEveryRecord: appends from many goroutines take
// dense ids, each once, and each id holds the record its append carried.
func TestConcurrentAppendKeepsEveryRecord(t *testing.T) {
	const workers, per = 8, 1000
	g := New()
	ids := make([][]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r := rec(w*per + i)
				ids[w] = append(ids[w], g.Append(&r))
			}
		}(w)
	}
	wg.Wait()
	if g.Len() != workers*per {
		t.Fatalf("Len = %d, want %d", g.Len(), workers*per)
	}
	seen := make([]bool, workers*per)
	for w := range ids {
		for i, id := range ids[w] {
			if id < 0 || id >= len(seen) || seen[id] {
				t.Fatalf("id %d handed out twice or out of range", id)
			}
			seen[id] = true
			if got, _ := g.Task(id); !sameRecord(got, id, w*per+i) {
				t.Fatalf("id %d holds %+v, want the record of append %d", id, got, w*per+i)
			}
		}
	}
}

// TestConcurrentAppendOccurrencesFollowIDs: whatever the interleaving,
// the k-th task of a name by id is that name's occurrence k — the order
// fault plans match against.
func TestConcurrentAppendOccurrencesFollowIDs(t *testing.T) {
	const workers, per = 8, 2 * chunkLen
	g := New()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				g.Add(rec(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	next := map[string]int{}
	for id, tk := range g.Tasks() {
		if occ := g.Occurrence(id); occ != next[tk.Name] {
			t.Fatalf("task %d (%s) has occurrence %d, want %d", id, tk.Name, occ, next[tk.Name])
		}
		next[tk.Name]++
	}
}

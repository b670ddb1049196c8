package trace_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"taskml/internal/exec"
	"taskml/internal/trace"
)

// TestExecTraceRows pins the "exec data plane" process: a hit and a miss on
// w0, a pull and a recompute on w1, then a join and a death must land on the
// per-worker cache lanes and the fleet lane, with the "resident bytes"
// counter re-emitting every worker's occupancy and the "fleet size" counter
// the totals after each transition. Timestamps are stripped as in the
// golden test.
func TestExecTraceRows(t *testing.T) {
	col := trace.NewCollector()
	col.AddExecEvent(exec.Event{Kind: exec.EventCache, Worker: "w0", Task: 3, Hits: 2, CacheBytes: 100})
	col.AddExecEvent(exec.Event{Kind: exec.EventCache, Worker: "w0", Task: 4, Hits: 1, Misses: 1, CacheBytes: 300})
	col.AddExecEvent(exec.Event{Kind: exec.EventCache, Worker: "w1", Task: -1, Pulled: 2})
	col.AddExecEvent(exec.Event{Kind: exec.EventCache, Worker: "w1", Task: 5, CacheBytes: 50, Redo: true})
	col.AddExecEvent(exec.Event{Kind: exec.EventJoin, Worker: "w2", Workers: 3, Slots: 6})
	col.AddExecEvent(exec.Event{Kind: exec.EventDead, Worker: "w0", Reason: "connection lost: EOF", Workers: 2, Slots: 4})

	var buf bytes.Buffer
	if err := col.Chrome().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(normalize(t, buf.Bytes()), &doc); err != nil {
		t.Fatal(err)
	}
	var got []map[string]any
	for _, ev := range doc.TraceEvents {
		if ev["pid"] == 1.0 {
			got = append(got, ev)
		}
	}
	var want []map[string]any
	if err := json.Unmarshal([]byte(`[
		{"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "exec data plane"}},
		{"name": "thread_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "w0 cache"}},
		{"name": "thread_name", "ph": "M", "pid": 1, "tid": 1, "args": {"name": "w1 cache"}},
		{"name": "cache hit", "cat": "cache", "ph": "i", "pid": 1, "tid": 0, "s": "t", "args": {"task": 3, "hits": 2, "misses": 0}},
		{"name": "resident bytes", "cat": "cache", "ph": "C", "pid": 1, "tid": 0, "args": {"w0": 100}},
		{"name": "cache miss", "cat": "cache", "ph": "i", "pid": 1, "tid": 0, "s": "t", "args": {"task": 4, "hits": 1, "misses": 1}},
		{"name": "resident bytes", "cat": "cache", "ph": "C", "pid": 1, "tid": 0, "args": {"w0": 300}},
		{"name": "pull", "cat": "cache", "ph": "i", "pid": 1, "tid": 1, "s": "t", "args": {"values": 2}},
		{"name": "recompute", "cat": "cache", "ph": "i", "pid": 1, "tid": 1, "s": "t", "args": {"task": 5}},
		{"name": "resident bytes", "cat": "cache", "ph": "C", "pid": 1, "tid": 0, "args": {"w0": 300, "w1": 50}},
		{"name": "thread_name", "ph": "M", "pid": 1, "tid": 2, "args": {"name": "fleet"}},
		{"name": "join", "cat": "fleet", "ph": "i", "pid": 1, "tid": 2, "s": "t", "args": {"worker": "w2", "workers": 3, "slots": 6}},
		{"name": "fleet size", "cat": "fleet", "ph": "C", "pid": 1, "tid": 0, "args": {"workers": 3, "slots": 6}},
		{"name": "dead", "cat": "fleet", "ph": "i", "pid": 1, "tid": 2, "s": "t", "args": {"worker": "w0", "reason": "connection lost: EOF", "workers": 2, "slots": 4}},
		{"name": "fleet size", "cat": "fleet", "ph": "C", "pid": 1, "tid": 0, "args": {"workers": 2, "slots": 4}}
	]`), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		g, _ := json.MarshalIndent(got, "", " ")
		w, _ := json.MarshalIndent(want, "", " ")
		t.Fatalf("exec data plane rows:\n%s\nwant:\n%s", g, w)
	}
}

package cluster

import (
	"fmt"
	"sort"
	"strings"

	"taskml/internal/graph"
)

// PhaseBreakdown aggregates, per task name, how much virtual busy time the
// schedule spends and where its last instance finishes — the tool used to
// show which phase limits a workflow (e.g. that the CSVM cascade's merge
// phase dominates the tail, the paper's explanation for Figure 11a's
// saturation).
type PhaseBreakdown struct {
	Name       string
	Count      int
	BusySec    float64 // sum of task durations
	LastEnd    float64 // completion time of the phase's last task
	FirstStart float64
}

// Breakdown computes per-name phase statistics of a schedule against its
// graph.
func (s *Schedule) Breakdown(g *graph.Graph) []PhaseBreakdown {
	byName := map[string]*PhaseBreakdown{}
	for _, p := range s.Placements {
		t, ok := g.Task(p.Task)
		if !ok {
			continue
		}
		b, ok := byName[t.Name]
		if !ok {
			b = &PhaseBreakdown{Name: t.Name, FirstStart: p.Start}
			byName[t.Name] = b
		}
		b.Count++
		b.BusySec += p.End - p.Start
		if p.End > b.LastEnd {
			b.LastEnd = p.End
		}
		if p.Start < b.FirstStart {
			b.FirstStart = p.Start
		}
	}
	out := make([]PhaseBreakdown, 0, len(byName))
	for _, b := range byName {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].BusySec > out[j].BusySec })
	return out
}

// BreakdownTable renders the phase breakdown for reports.
func (s *Schedule) BreakdownTable(g *graph.Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %8s %12s %12s %12s\n", "phase", "tasks", "busy (s)", "starts (s)", "ends (s)")
	for _, p := range s.Breakdown(g) {
		fmt.Fprintf(&b, "%-20s %8d %12.3f %12.3f %12.3f\n", p.Name, p.Count, p.BusySec, p.FirstStart, p.LastEnd)
	}
	return b.String()
}

// GanttCSV exports the schedule as CSV (task, name, node, start, end) for
// external plotting — a poor man's Paraver trace, in the spirit of the
// execution traces the paper's artifact uploads to Zenodo. Replayed failed
// attempts follow the final placements, with the name suffixed "!k" for
// attempt k, so fault-injected traces show the wasted intervals.
func (s *Schedule) GanttCSV(g *graph.Graph) string {
	var b strings.Builder
	b.WriteString("task,name,node,start,end\n")
	for _, p := range s.Placements {
		name := ""
		if t, ok := g.Task(p.Task); ok {
			name = t.Name
		}
		fmt.Fprintf(&b, "%d,%s,%d,%.6f,%.6f\n", p.Task, name, p.Node, p.Start, p.End)
	}
	for _, fa := range s.FailedAttempts {
		name := ""
		if t, ok := g.Task(fa.Task); ok {
			name = t.Name
		}
		fmt.Fprintf(&b, "%d,%s!%d,%d,%.6f,%.6f\n", fa.Task, name, fa.Attempt, fa.Node, fa.Start, fa.End)
	}
	return b.String()
}

// RecoverySummary describes the replayed failure cost: how many attempts
// were lost, on how many tasks, and how much core time they wasted — the
// per-kind table shows where the retries concentrated.
func (s *Schedule) RecoverySummary(g *graph.Graph) string {
	if len(s.FailedAttempts) == 0 {
		return "recovery: no failures replayed\n"
	}
	perName := map[string]int{}
	tasks := map[int]bool{}
	for _, fa := range s.FailedAttempts {
		tasks[fa.Task] = true
		name := "?"
		if t, ok := g.Task(fa.Task); ok {
			name = t.Name
		}
		perName[name]++
	}
	var b strings.Builder
	pct := 0.0
	if s.BusyCoreSeconds > 0 {
		pct = 100 * s.WastedCoreSeconds / s.BusyCoreSeconds
	}
	fmt.Fprintf(&b, "recovery: %d failed attempts across %d tasks, %.3f core-s wasted (%.1f%% of busy)\n",
		len(s.FailedAttempts), len(tasks), s.WastedCoreSeconds, pct)
	names := make([]string, 0, len(perName))
	for n := range perName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  %-20s %4d lost attempt(s)\n", n, perName[n])
	}
	return b.String()
}

// CriticalTail returns the fraction of the makespan during which fewer than
// `threshold` tasks run concurrently — a serialisation indicator (a high
// tail fraction means a reduction phase dominates).
func (s *Schedule) CriticalTail(threshold int) float64 {
	if s.Makespan <= 0 || len(s.Placements) == 0 {
		return 0
	}
	type event struct {
		t     float64
		delta int
	}
	events := make([]event, 0, 2*len(s.Placements))
	for _, p := range s.Placements {
		events = append(events, event{p.Start, 1}, event{p.End, -1})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].t != events[j].t {
			return events[i].t < events[j].t
		}
		return events[i].delta < events[j].delta
	})
	var thin float64
	running := 0
	prev := 0.0
	for _, e := range events {
		if running < threshold {
			thin += e.t - prev
		}
		running += e.delta
		prev = e.t
	}
	if prev < s.Makespan && running < threshold {
		thin += s.Makespan - prev
	}
	return thin / s.Makespan
}

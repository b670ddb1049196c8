package cluster

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"taskml/internal/graph"
)

// zeroOverhead strips latency/overhead so schedules are exact arithmetic.
// Free transfers are spelled with infinite bandwidth; zero bandwidth is a
// validation error.
func zeroOverhead(c Cluster) Cluster {
	c.LatencySec = 0
	c.BandwidthBps = math.Inf(1)
	c.TaskOverheadSec = 0
	return c
}

func mustSchedule(t *testing.T, g *graph.Graph, c Cluster) *Schedule {
	t.Helper()
	s, err := ScheduleGraph(g, c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestChainIsSequential(t *testing.T) {
	g := graph.New()
	prev := -1
	for i := 0; i < 5; i++ {
		tk := graph.Task{Name: "s", Parent: -1, Cost: 2, Cores: 1}
		if prev >= 0 {
			tk.Deps = []graph.Dep{{Task: prev}}
		}
		prev = g.Add(tk)
	}
	s := mustSchedule(t, g, zeroOverhead(Homogeneous("c", 1, 4, 0)))
	if math.Abs(s.Makespan-10) > 1e-9 {
		t.Fatalf("Makespan = %v, want 10", s.Makespan)
	}
}

func TestFanOutUsesAllCores(t *testing.T) {
	g := graph.New()
	for i := 0; i < 8; i++ {
		g.Add(graph.Task{Name: "w", Parent: -1, Cost: 1, Cores: 1})
	}
	// 4 cores → two waves of 4.
	s := mustSchedule(t, g, zeroOverhead(Homogeneous("c", 1, 4, 0)))
	if math.Abs(s.Makespan-2) > 1e-9 {
		t.Fatalf("Makespan = %v, want 2", s.Makespan)
	}
	// 8 cores → one wave.
	s = mustSchedule(t, g, zeroOverhead(Homogeneous("c", 1, 8, 0)))
	if math.Abs(s.Makespan-1) > 1e-9 {
		t.Fatalf("Makespan = %v, want 1", s.Makespan)
	}
}

func TestMakespanAtLeastCriticalPath(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New()
		n := 2 + rng.Intn(25)
		for i := 0; i < n; i++ {
			tk := graph.Task{Name: "t", Parent: -1, Cost: rng.Float64() * 5, Cores: 1}
			for d := 0; d < i; d++ {
				if rng.Float64() < 0.15 {
					tk.Deps = append(tk.Deps, graph.Dep{Task: d})
				}
			}
			g.Add(tk)
		}
		c := zeroOverhead(Homogeneous("c", 1+rng.Intn(3), 1+rng.Intn(8), 0))
		s, err := ScheduleGraph(g, c)
		if err != nil {
			return false
		}
		return s.Makespan >= g.CriticalPath()-1e-9 &&
			s.Makespan <= g.TotalCost()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTransferChargedAcrossNodes(t *testing.T) {
	// Two 1-core nodes force the two parallel producers apart; the consumer
	// must pull one output across the interconnect.
	g := graph.New()
	a := g.Add(graph.Task{Name: "p", Parent: -1, Cost: 1, Cores: 1, OutBytes: 1000})
	b := g.Add(graph.Task{Name: "p", Parent: -1, Cost: 1, Cores: 1, OutBytes: 1000})
	g.Add(graph.Task{Name: "c", Parent: -1, Cost: 1, Cores: 1, Deps: []graph.Dep{{Task: a}, {Task: b}}})

	c := Homogeneous("c", 2, 1, 0)
	c.TaskOverheadSec = 0
	c.LatencySec = 0.5
	c.BandwidthBps = 1000 // 1 s to move 1000 bytes

	s := mustSchedule(t, g, c)
	// Producers run in parallel (end t=1); consumer lands on one of their
	// nodes, pays 0 for the local dep and 0.5+1.0 for the remote one.
	if math.Abs(s.Makespan-3.5) > 1e-9 {
		t.Fatalf("Makespan = %v, want 3.5", s.Makespan)
	}
	if s.BytesMoved != 1000 {
		t.Fatalf("BytesMoved = %d, want 1000", s.BytesMoved)
	}
}

func TestNoTransferOnSameNode(t *testing.T) {
	g := graph.New()
	a := g.Add(graph.Task{Name: "p", Parent: -1, Cost: 1, Cores: 1, OutBytes: 1 << 20})
	g.Add(graph.Task{Name: "c", Parent: -1, Cost: 1, Cores: 1, Deps: []graph.Dep{{Task: a}}})
	c := Homogeneous("c", 1, 2, 0)
	c.TaskOverheadSec = 0
	c.LatencySec = 10
	c.BandwidthBps = 1
	s := mustSchedule(t, g, c)
	if math.Abs(s.Makespan-2) > 1e-9 {
		t.Fatalf("Makespan = %v, want 2 (locality must be free)", s.Makespan)
	}
	if s.BytesMoved != 0 {
		t.Fatalf("BytesMoved = %d, want 0", s.BytesMoved)
	}
}

func TestViaMasterPaysTwoHopsEvenLocally(t *testing.T) {
	g := graph.New()
	a := g.Add(graph.Task{Name: "p", Parent: -1, Cost: 1, Cores: 1, OutBytes: 0})
	g.Add(graph.Task{Name: "c", Parent: -1, Cost: 1, Cores: 1, Deps: []graph.Dep{{Task: a, ViaMaster: true}}})
	c := Homogeneous("c", 1, 2, 0)
	c.TaskOverheadSec = 0
	c.LatencySec = 0.25
	c.BandwidthBps = math.Inf(1)
	s := mustSchedule(t, g, c)
	if math.Abs(s.Makespan-2.5) > 1e-9 {
		t.Fatalf("Makespan = %v, want 2.5 (two master hops)", s.Makespan)
	}
}

func TestNestingChildAfterParentStartAndParentFinalizedAfterChildren(t *testing.T) {
	g := graph.New()
	p := g.Add(graph.Task{Name: "fold", Parent: -1, Cost: 1, Cores: 1})
	c1 := g.Add(graph.Task{Name: "epoch", Parent: p, Cost: 4, Cores: 1})
	g.Add(graph.Task{Name: "epoch", Parent: p, Cost: 4, Cores: 1, Deps: []graph.Dep{{Task: c1}}})
	g.Add(graph.Task{Name: "score", Parent: -1, Cost: 1, Cores: 1, Deps: []graph.Dep{{Task: p}}})
	s := mustSchedule(t, g, zeroOverhead(Homogeneous("c", 1, 4, 0)))
	// parent starts at 0; children chain 0→4→8; score waits for subtree: 8→9.
	if math.Abs(s.Makespan-9) > 1e-9 {
		t.Fatalf("Makespan = %v, want 9", s.Makespan)
	}
	if s.Placements[3].Start < 8-1e-9 {
		t.Fatalf("dependent of parent started at %v, before children finished", s.Placements[3].Start)
	}
}

func TestMultiCoreTasksSerializeOnSmallNode(t *testing.T) {
	g := graph.New()
	g.Add(graph.Task{Name: "big", Parent: -1, Cost: 1, Cores: 8})
	g.Add(graph.Task{Name: "big", Parent: -1, Cost: 1, Cores: 8})
	s := mustSchedule(t, g, zeroOverhead(Homogeneous("c", 1, 8, 0)))
	if math.Abs(s.Makespan-2) > 1e-9 {
		t.Fatalf("Makespan = %v, want 2 on one 8-core node", s.Makespan)
	}
	s = mustSchedule(t, g, zeroOverhead(Homogeneous("c", 2, 8, 0)))
	if math.Abs(s.Makespan-1) > 1e-9 {
		t.Fatalf("Makespan = %v, want 1 on two 8-core nodes", s.Makespan)
	}
}

func TestGPUTasksNeedGPUNodes(t *testing.T) {
	g := graph.New()
	g.Add(graph.Task{Name: "train", Parent: -1, Cost: 1, Cores: 1, GPUs: 1})
	if _, err := ScheduleGraph(g, Homogeneous("cpuonly", 2, 8, 0)); err == nil {
		t.Fatal("want error: GPU task on CPU-only cluster")
	}
	s := mustSchedule(t, g, zeroOverhead(CTEPower(1)))
	if s.Makespan <= 0 {
		t.Fatal("GPU task did not schedule on CTE-Power")
	}
}

func TestGPUContention(t *testing.T) {
	g := graph.New()
	for i := 0; i < 8; i++ {
		g.Add(graph.Task{Name: "train", Parent: -1, Cost: 1, Cores: 1, GPUs: 1})
	}
	// One CTE-Power node has 4 GPUs → two waves.
	s := mustSchedule(t, g, zeroOverhead(CTEPower(1)))
	if math.Abs(s.Makespan-2) > 1e-9 {
		t.Fatalf("Makespan = %v, want 2 (4 GPUs, 8 tasks)", s.Makespan)
	}
}

func TestGPUSpeedScalesDuration(t *testing.T) {
	g := graph.New()
	g.Add(graph.Task{Name: "train", Parent: -1, Cost: 10, Cores: 1, GPUs: 1})
	c := zeroOverhead(CTEPower(1))
	for i := range c.Nodes {
		c.Nodes[i].GPUSpeed = 5
	}
	s := mustSchedule(t, g, c)
	if math.Abs(s.Makespan-2) > 1e-9 {
		t.Fatalf("Makespan = %v, want 2 with GPUSpeed 5", s.Makespan)
	}
}

func TestEmptyClusterErrors(t *testing.T) {
	g := graph.New()
	g.Add(graph.Task{Name: "t", Parent: -1, Cost: 1, Cores: 1})
	if _, err := ScheduleGraph(g, Cluster{Name: "empty"}); err == nil {
		t.Fatal("want error for empty cluster")
	}
}

func TestOversizedTaskErrors(t *testing.T) {
	g := graph.New()
	g.Add(graph.Task{Name: "t", Parent: -1, Cost: 1, Cores: 64})
	if _, err := ScheduleGraph(g, Homogeneous("c", 4, 8, 0)); err == nil {
		t.Fatal("want error for 64-core task on 8-core nodes")
	}
}

func TestInvalidGraphRejected(t *testing.T) {
	g := graph.New()
	g.Add(graph.Task{Name: "t", Parent: 5, Cost: 1, Cores: 1})
	if _, err := ScheduleGraph(g, Homogeneous("c", 1, 1, 0)); err == nil {
		t.Fatal("want validation error")
	}
}

func TestTaskOverheadAdds(t *testing.T) {
	g := graph.New()
	g.Add(graph.Task{Name: "t", Parent: -1, Cost: 1, Cores: 1})
	c := Homogeneous("c", 1, 1, 0)
	c.TaskOverheadSec = 0.5
	c.LatencySec = 0
	s := mustSchedule(t, g, c)
	if math.Abs(s.Makespan-1.5) > 1e-9 {
		t.Fatalf("Makespan = %v, want 1.5", s.Makespan)
	}
}

func TestUtilizationPerfectOnEmbarrassinglyParallel(t *testing.T) {
	g := graph.New()
	for i := 0; i < 16; i++ {
		g.Add(graph.Task{Name: "t", Parent: -1, Cost: 1, Cores: 1})
	}
	s := mustSchedule(t, g, zeroOverhead(Homogeneous("c", 2, 8, 0)))
	if math.Abs(s.Utilization-1) > 1e-9 {
		t.Fatalf("Utilization = %v, want 1", s.Utilization)
	}
}

func TestCoreSpeedScalesDuration(t *testing.T) {
	g := graph.New()
	g.Add(graph.Task{Name: "t", Parent: -1, Cost: 4, Cores: 1})
	c := zeroOverhead(Homogeneous("c", 1, 1, 0))
	c.Nodes[0].CoreSpeed = 2
	s := mustSchedule(t, g, c)
	if math.Abs(s.Makespan-2) > 1e-9 {
		t.Fatalf("Makespan = %v, want 2 with CoreSpeed 2", s.Makespan)
	}
}

func TestSweepMonotoneOnFanOut(t *testing.T) {
	g := graph.New()
	for i := 0; i < 96; i++ {
		g.Add(graph.Task{Name: "t", Parent: -1, Cost: 1, Cores: 1})
	}
	var configs []Cluster
	for _, nodes := range []int{1, 2, 4, 8} {
		configs = append(configs, zeroOverhead(Homogeneous("c", nodes, 12, 0)))
	}
	times := make([]float64, len(configs))
	for i, c := range configs {
		s, err := ScheduleGraph(g, c)
		if err != nil {
			t.Fatal(err)
		}
		times[i] = s.Makespan
	}
	for i := 1; i < len(times); i++ {
		if times[i] > times[i-1]+1e-9 {
			t.Fatalf("fan-out sweep not monotone: %v", times)
		}
	}
	if math.Abs(times[0]-8) > 1e-9 || math.Abs(times[3]-1) > 1e-9 {
		t.Fatalf("sweep = %v, want [8 4 2 1]", times)
	}
}

func TestPresets(t *testing.T) {
	mn := MareNostrum4(3)
	if mn.TotalCores() != 144 || mn.TotalGPUs() != 0 {
		t.Fatalf("MareNostrum4(3): %d cores %d gpus", mn.TotalCores(), mn.TotalGPUs())
	}
	cte := CTEPower(2)
	if cte.TotalCores() != 80 || cte.TotalGPUs() != 8 {
		t.Fatalf("CTEPower(2): %d cores %d gpus", cte.TotalCores(), cte.TotalGPUs())
	}
}

func TestPlacementsCoverAllTasks(t *testing.T) {
	g := graph.New()
	a := g.Add(graph.Task{Name: "a", Parent: -1, Cost: 1, Cores: 1})
	g.Add(graph.Task{Name: "b", Parent: -1, Cost: 1, Cores: 1, Deps: []graph.Dep{{Task: a}}})
	s := mustSchedule(t, g, Homogeneous("c", 1, 2, 0))
	if len(s.Placements) != 2 {
		t.Fatalf("Placements = %d, want 2", len(s.Placements))
	}
	for id, p := range s.Placements {
		if p.Task != id || p.End < p.Start {
			t.Fatalf("bad placement %+v", p)
		}
	}
}

func TestEgressSerializesFanOut(t *testing.T) {
	// One producer with a large output feeding two consumers that must run
	// on other nodes (the producer's only core is occupied by a long
	// blocker): the producer's egress link serializes the two sends.
	g := graph.New()
	src := g.Add(graph.Task{Name: "gather", Parent: -1, Cost: 1, Cores: 1, OutBytes: 1000})
	g.Add(graph.Task{Name: "blocker", Parent: -1, Cost: 10, Cores: 1, Deps: []graph.Dep{{Task: src}}})
	for i := 0; i < 2; i++ {
		g.Add(graph.Task{Name: "use", Parent: -1, Cost: 1, Cores: 1, Deps: []graph.Dep{{Task: src}}})
	}
	c := Homogeneous("c", 3, 1, 0) // 1 core per node
	c.TaskOverheadSec = 0
	c.LatencySec = 0
	c.BandwidthBps = 1000 // 1 s per send
	s := mustSchedule(t, g, c)
	// Producer ends at 1 and its node stays busy until 11. The consumers go
	// remote: the first receives at 2 and ends at 3; the second's transfer
	// waits for the egress link (2→3) and it ends at 4.
	if math.Abs(s.Makespan-11) > 1e-9 || s.Placements[3].End != 4 && s.Placements[2].End != 4 {
		t.Fatalf("placements = %+v", s.Placements)
	}
	later := math.Max(s.Placements[2].End, s.Placements[3].End)
	earlier := math.Min(s.Placements[2].End, s.Placements[3].End)
	if math.Abs(earlier-3) > 1e-9 || math.Abs(later-4) > 1e-9 {
		t.Fatalf("consumer ends = %v, %v; want 3 and 4 (serialized egress)", earlier, later)
	}
}

func TestDeserializationChargesTaskInput(t *testing.T) {
	g := graph.New()
	a := g.Add(graph.Task{Name: "p", Parent: -1, Cost: 1, Cores: 1, OutBytes: 1000})
	g.Add(graph.Task{Name: "c", Parent: -1, Cost: 1, Cores: 1, Deps: []graph.Dep{{Task: a}}})
	c := zeroOverhead(Homogeneous("c", 1, 2, 0))
	c.DeserializeBps = 500 // 2 s to unmarshal 1000 bytes
	s := mustSchedule(t, g, c)
	// Local dependency: no transfer, but the consumer still pays 2 s of
	// deserialization → 1 + (1 + 2) = 4.
	if math.Abs(s.Makespan-4) > 1e-9 {
		t.Fatalf("Makespan = %v, want 4 with deserialization charge", s.Makespan)
	}
}

func TestMasterEgressSerializesSyncs(t *testing.T) {
	// Two via-master deps with big payloads from distinct producers: the
	// master link carries both, one after the other.
	g := graph.New()
	a := g.Add(graph.Task{Name: "p", Parent: -1, Cost: 1, Cores: 1, OutBytes: 1000})
	b := g.Add(graph.Task{Name: "p", Parent: -1, Cost: 1, Cores: 1, OutBytes: 1000})
	g.Add(graph.Task{Name: "c", Parent: -1, Cost: 0, Cores: 1,
		Deps: []graph.Dep{{Task: a, ViaMaster: true}, {Task: b, ViaMaster: true}}})
	c := zeroOverhead(Homogeneous("c", 1, 2, 0))
	c.BandwidthBps = 1000 // 1 s per hop, 2 s per via-master transfer
	s := mustSchedule(t, g, c)
	// Producers end at 1; master sends take 2 s each, serialized: 1+2+2 = 5.
	if math.Abs(s.Makespan-5) > 1e-9 {
		t.Fatalf("Makespan = %v, want 5 with serialized master egress", s.Makespan)
	}
}

func TestValidateRejectsBadClusters(t *testing.T) {
	base := func() Cluster { return Homogeneous("c", 1, 4, 0) }
	cases := []struct {
		name string
		mut  func(*Cluster)
	}{
		{"no nodes", func(c *Cluster) { c.Nodes = nil }},
		{"zero bandwidth", func(c *Cluster) { c.BandwidthBps = 0 }},
		{"NaN bandwidth", func(c *Cluster) { c.BandwidthBps = math.NaN() }},
		{"negative latency", func(c *Cluster) { c.LatencySec = -1 }},
		{"negative overhead", func(c *Cluster) { c.TaskOverheadSec = -0.5 }},
		{"negative deserialize", func(c *Cluster) { c.DeserializeBps = -1 }},
		{"node with no resources", func(c *Cluster) { c.Nodes[0] = NodeSpec{} }},
		{"cores without speed", func(c *Cluster) { c.Nodes[0].CoreSpeed = 0 }},
		{"negative cores", func(c *Cluster) { c.Nodes[0].Cores = -2 }},
	}
	for _, tc := range cases {
		c := base()
		tc.mut(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted the cluster", tc.name)
		}
		g := graph.New()
		g.Add(graph.Task{Name: "a", Parent: -1, Cost: 1, Cores: 1})
		if _, err := ScheduleGraph(g, c); err == nil {
			t.Fatalf("%s: ScheduleGraph accepted the cluster", tc.name)
		}
	}
	// The two spellings that must stay legal: infinite bandwidth (free
	// transfers) and zero DeserializeBps (deserialization model disabled).
	c := base()
	c.BandwidthBps = math.Inf(1)
	c.DeserializeBps = 0
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate rejected a legal cluster: %v", err)
	}
}

// Replay arithmetic on one single-core node: a task of cost 4 fails its
// first attempt at fraction 0.5 (t=2), backs off 1 virtual second, reruns
// at t=3, and finishes at t=7. The lost attempt is 2 wasted core-seconds.
func TestReplaySingleNodeRetryArithmetic(t *testing.T) {
	g := graph.New()
	id := g.Add(graph.Task{Name: "a", Parent: -1, Cost: 4, Cores: 1, Retries: 1, BackoffSec: 1})
	g.RecordFailure(graph.FailureEvent{Task: id, Attempt: 0, Mode: "error", CostFraction: 0.5})
	s := mustSchedule(t, g, zeroOverhead(Homogeneous("c", 1, 1, 0)))
	if len(s.FailedAttempts) != 1 {
		t.Fatalf("replayed %d failed attempts, want 1", len(s.FailedAttempts))
	}
	fa := s.FailedAttempts[0]
	if math.Abs(fa.Start-0) > 1e-9 || math.Abs(fa.End-2) > 1e-9 {
		t.Fatalf("failed attempt ran [%v, %v], want [0, 2]", fa.Start, fa.End)
	}
	p := s.Placements[id]
	if math.Abs(p.Start-3) > 1e-9 || math.Abs(p.End-7) > 1e-9 {
		t.Fatalf("final attempt ran [%v, %v], want [3, 7] after backoff", p.Start, p.End)
	}
	if math.Abs(s.Makespan-7) > 1e-9 {
		t.Fatalf("Makespan = %v, want 7", s.Makespan)
	}
	if math.Abs(s.WastedCoreSeconds-2) > 1e-9 {
		t.Fatalf("WastedCoreSeconds = %v, want 2", s.WastedCoreSeconds)
	}
	if math.Abs(s.BusyCoreSeconds-6) > 1e-9 {
		t.Fatalf("BusyCoreSeconds = %v, want 6 (includes the lost attempt)", s.BusyCoreSeconds)
	}
}

// Exponential backoff: two failures at full cost with base 1 give floors
// end+1 (2^0) then end+2 (2^1).
func TestReplayBackoffDoubles(t *testing.T) {
	g := graph.New()
	id := g.Add(graph.Task{Name: "a", Parent: -1, Cost: 2, Cores: 1, Retries: 2, BackoffSec: 1})
	g.RecordFailure(graph.FailureEvent{Task: id, Attempt: 0, Mode: "error", CostFraction: 1})
	g.RecordFailure(graph.FailureEvent{Task: id, Attempt: 1, Mode: "error", CostFraction: 1})
	s := mustSchedule(t, g, zeroOverhead(Homogeneous("c", 1, 1, 0)))
	// Attempt 0: [0,2]; floor 3; attempt 1: [3,5]; floor 7; final: [7,9].
	p := s.Placements[id]
	if math.Abs(p.Start-7) > 1e-9 || math.Abs(p.End-9) > 1e-9 {
		t.Fatalf("final attempt ran [%v, %v], want [7, 9]", p.Start, p.End)
	}
}

// Replaying the same failed graph twice yields the identical schedule, and
// the fault-free replay of WithoutFailures() is never slower than the
// faulty one.
func TestReplayDeterministicAndOverheadNonNegative(t *testing.T) {
	g := graph.New()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		tk := graph.Task{Name: "w", Parent: -1, Cost: 1 + rng.Float64()*3, Cores: 1,
			OutBytes: 1 << 16, Retries: 2, BackoffSec: 0.5}
		if i > 0 {
			tk.Deps = []graph.Dep{{Task: rng.Intn(i)}}
		}
		id := g.Add(tk)
		if i%5 == 0 {
			g.RecordFailure(graph.FailureEvent{Task: id, Attempt: 0, Mode: "error", CostFraction: 0.5})
		}
	}
	c := MareNostrum4(2)
	s1 := mustSchedule(t, g, c)
	s2 := mustSchedule(t, g, c)
	if s1.Makespan != s2.Makespan || s1.BytesMoved != s2.BytesMoved ||
		s1.WastedCoreSeconds != s2.WastedCoreSeconds {
		t.Fatalf("replay not deterministic: %+v vs %+v", s1, s2)
	}
	clean := mustSchedule(t, g.WithoutFailures(), c)
	if clean.Makespan > s1.Makespan+1e-9 {
		t.Fatalf("fault-free makespan %v exceeds faulty %v", clean.Makespan, s1.Makespan)
	}
	if s1.WastedCoreSeconds <= 0 || math.IsNaN(s1.Makespan) || math.IsInf(s1.Makespan, 0) {
		t.Fatalf("recovery metrics not finite/positive: %+v", s1)
	}
}

// GanttCSV rows for lost attempts are labelled name!attempt so plots can
// distinguish them from the surviving execution.
func TestGanttCSVMarksFailedAttempts(t *testing.T) {
	g := graph.New()
	id := g.Add(graph.Task{Name: "a", Parent: -1, Cost: 2, Cores: 1, Retries: 1, BackoffSec: 1})
	g.RecordFailure(graph.FailureEvent{Task: id, Attempt: 0, Mode: "error", CostFraction: 1})
	s := mustSchedule(t, g, zeroOverhead(Homogeneous("c", 1, 1, 0)))
	csv := s.GanttCSV(g)
	if !strings.Contains(csv, "a!0") {
		t.Fatalf("GanttCSV misses the a!0 lost-attempt row:\n%s", csv)
	}
	if sum := s.RecoverySummary(g); !strings.Contains(sum, "1 failed attempt") {
		t.Fatalf("RecoverySummary = %q", sum)
	}
}

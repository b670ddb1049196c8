package cluster

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"taskml/internal/graph"
)

// NodeSpec describes one compute node.
type NodeSpec struct {
	// Cores is the number of CPU cores.
	Cores int
	// GPUs is the number of accelerators.
	GPUs int
	// CoreSpeed scales CPU task durations: duration = cost / CoreSpeed.
	// 1.0 is the reference core the task costs are expressed in.
	CoreSpeed float64
	// GPUSpeed scales GPU task durations the same way.
	GPUSpeed float64
}

// Cluster describes the virtual machine a graph is scheduled on.
type Cluster struct {
	// Name labels the configuration in reports.
	Name string
	// Nodes lists the compute nodes.
	Nodes []NodeSpec
	// LatencySec is the one-way interconnect latency per transfer.
	LatencySec float64
	// BandwidthBps is the interconnect bandwidth in bytes per second.
	BandwidthBps float64
	// TaskOverheadSec is the runtime's per-task dispatch overhead
	// (scheduling, bookkeeping); PyCOMPSs-class runtimes pay a few
	// milliseconds to a few tens of milliseconds per task.
	TaskOverheadSec float64
	// DeserializeBps, when non-zero, charges every task for unmarshalling
	// its input objects (Σ dependency bytes / DeserializeBps), regardless
	// of locality — PyCOMPSs-class runtimes move task data as serialized
	// (pickled) objects even between co-located tasks. 0 disables the
	// charge.
	DeserializeBps float64
}

// Defaults used by the preset constructors; exported so experiments can
// reference the exact model parameters.
const (
	// DefaultLatencySec approximates a 100 Gb-class HPC interconnect.
	DefaultLatencySec = 20e-6
	// DefaultBandwidthBps is the *effective per-flow object-transfer*
	// throughput (1.25 GB/s): PyCOMPSs-class runtimes move serialized
	// objects over TCP with endpoint (de)serialization, which sustains an
	// order of magnitude below the 100 Gb/s link peak.
	DefaultBandwidthBps = 1.25e9
	// DefaultTaskOverheadSec is the per-task runtime overhead.
	DefaultTaskOverheadSec = 10e-3
)

// Homogeneous builds a cluster of identical nodes with default interconnect
// parameters.
func Homogeneous(name string, nodes, coresPerNode, gpusPerNode int) Cluster {
	specs := make([]NodeSpec, nodes)
	for i := range specs {
		specs[i] = NodeSpec{Cores: coresPerNode, GPUs: gpusPerNode, CoreSpeed: 1, GPUSpeed: 1}
	}
	return Cluster{
		Name:            name,
		Nodes:           specs,
		LatencySec:      DefaultLatencySec,
		BandwidthBps:    DefaultBandwidthBps,
		TaskOverheadSec: DefaultTaskOverheadSec,
	}
}

// DefaultDeserializeBps is the object-deserialization throughput assumed
// for the cluster presets (pickle-class serialization of numerical data).
const DefaultDeserializeBps = 100e6

// MareNostrum4 models n general-purpose nodes of MareNostrum IV: two
// 24-core Intel Xeon Platinum 8160 per node (48 cores), no GPUs — the
// testbed of the paper's Figure 11 experiments.
func MareNostrum4(n int) Cluster {
	c := Homogeneous(fmt.Sprintf("MareNostrum4-%dn", n), n, 48, 0)
	c.DeserializeBps = DefaultDeserializeBps
	return c
}

// CTEPower models n nodes of the CTE-Power cluster: 2× Power9 (40 cores
// visible) and 4× NVIDIA V100 per node — the testbed of the paper's
// Figure 12 CNN experiments.
func CTEPower(n int) Cluster {
	c := Homogeneous(fmt.Sprintf("CTE-Power-%dn", n), n, 40, 4)
	c.DeserializeBps = DefaultDeserializeBps
	return c
}

// Validate checks the cluster description for parameters that would poison
// the virtual times with NaN or Inf instead of failing loudly: an empty node
// list, non-positive interconnect bandwidth (zero used to silently mean
// "free transfers"; say math.Inf(1) to mean that), negative or NaN latency,
// overhead or deserialization throughput, and nodes advertising cores or
// GPUs without a positive speed (cost/speed would be Inf or NaN).
// ScheduleGraph validates before scheduling.
func (c Cluster) Validate() error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("cluster %q: no nodes", c.Name)
	}
	if !(c.BandwidthBps > 0) {
		return fmt.Errorf("cluster %q: BandwidthBps must be positive, got %v (use math.Inf(1) for free transfers)",
			c.Name, c.BandwidthBps)
	}
	if c.LatencySec < 0 || math.IsNaN(c.LatencySec) {
		return fmt.Errorf("cluster %q: invalid LatencySec %v", c.Name, c.LatencySec)
	}
	if c.TaskOverheadSec < 0 || math.IsNaN(c.TaskOverheadSec) {
		return fmt.Errorf("cluster %q: invalid TaskOverheadSec %v", c.Name, c.TaskOverheadSec)
	}
	if c.DeserializeBps < 0 || math.IsNaN(c.DeserializeBps) {
		return fmt.Errorf("cluster %q: invalid DeserializeBps %v (0 disables the charge)", c.Name, c.DeserializeBps)
	}
	for i, n := range c.Nodes {
		if n.Cores < 0 || n.GPUs < 0 {
			return fmt.Errorf("cluster %q: node %d has negative resources", c.Name, i)
		}
		if n.Cores == 0 && n.GPUs == 0 {
			return fmt.Errorf("cluster %q: node %d provides no cores and no GPUs", c.Name, i)
		}
		if n.Cores > 0 && !(n.CoreSpeed > 0) {
			return fmt.Errorf("cluster %q: node %d has %d cores but CoreSpeed %v", c.Name, i, n.Cores, n.CoreSpeed)
		}
		if n.GPUs > 0 && !(n.GPUSpeed > 0) {
			return fmt.Errorf("cluster %q: node %d has %d GPUs but GPUSpeed %v", c.Name, i, n.GPUs, n.GPUSpeed)
		}
	}
	return nil
}

// TotalCores returns the core count across all nodes.
func (c Cluster) TotalCores() int {
	t := 0
	for _, n := range c.Nodes {
		t += n.Cores
	}
	return t
}

// TotalGPUs returns the GPU count across all nodes.
func (c Cluster) TotalGPUs() int {
	t := 0
	for _, n := range c.Nodes {
		t += n.GPUs
	}
	return t
}

// Placement records where and when one task ran in the virtual schedule.
// For a task with failed attempts it describes the final attempt.
type Placement struct {
	Task  int
	Node  int
	Start float64
	End   float64
}

// AttemptPlacement records one *failed* attempt replayed in virtual time:
// the attempt occupied Node from Start until the failure instant End, after
// which the task re-queued (backoff permitting) and possibly landed on a
// different node.
type AttemptPlacement struct {
	Task    int
	Attempt int
	Node    int
	Start   float64
	End     float64
}

// Schedule is the result of replaying a graph on a cluster.
type Schedule struct {
	// Makespan is the virtual completion time of the whole graph, the
	// quantity the paper's time axes report.
	Makespan float64
	// Placements is indexed by task ID.
	Placements []Placement
	// BytesMoved is the total data moved across the interconnect, including
	// re-transfers of inputs for retried attempts.
	BytesMoved int64
	// BusyCoreSeconds sums cores×duration over all attempts, failed ones
	// included (they held their cores until the failure instant).
	BusyCoreSeconds float64
	// Utilization is BusyCoreSeconds / (Makespan × TotalCores); 0 when the
	// makespan is 0.
	Utilization float64
	// FailedAttempts lists every replayed failed attempt, in schedule order.
	FailedAttempts []AttemptPlacement
	// WastedCoreSeconds is the share of BusyCoreSeconds consumed by failed
	// attempts — the recovery cost the -faults sweeps quantify.
	WastedCoreSeconds float64
}

// taskHeap orders ready tasks by their graph.ProgramOrder rank, the order
// PyCOMPSs releases tasks in.
type taskHeap struct {
	ids  []int
	rank []int
}

func (h taskHeap) Len() int           { return len(h.ids) }
func (h taskHeap) Less(i, j int) bool { return h.rank[h.ids[i]] < h.rank[h.ids[j]] }
func (h taskHeap) Swap(i, j int)      { h.ids[i], h.ids[j] = h.ids[j], h.ids[i] }
func (h *taskHeap) Push(x any)        { h.ids = append(h.ids, x.(int)) }
func (h *taskHeap) Pop() any {
	n := len(h.ids)
	x := h.ids[n-1]
	h.ids = h.ids[:n-1]
	return x
}

// ScheduleGraph replays g on c with a greedy earliest-start list scheduler.
//
// Semantics:
//   - a task starts no earlier than: its parent task's start (nesting), all
//     its dependencies' *finalized* ends plus transfer time, and the
//     availability of the demanded cores/GPUs on the chosen node;
//   - a dependency's finalized end includes all of its nested descendants
//     (a parent task is not "done" for consumers until its subtasks are);
//   - transfers cost latency + bytes/bandwidth when producer and consumer
//     nodes differ, twice that for ViaMaster dependencies (the data bounces
//     through the master process), and zero for node-local reuse;
//   - node choice minimises the task's start time, ties broken by the
//     lowest node index;
//   - failure events recorded in the graph are replayed: each failed attempt
//     occupies its chosen node (and re-pulls its inputs) until the failure
//     instant — CostFraction of the task's duration — then the task
//     re-queues BackoffSec·2^k later (k being the failed attempt's 0-based
//     index, so the first retry waits the base) and is placed afresh,
//     possibly on a different node.
func ScheduleGraph(g *graph.Graph, c Cluster) (*Schedule, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	tasks := g.Tasks()
	n := len(tasks)
	failures := g.FailuresByTask()

	for _, t := range tasks {
		if !fits(t, c) {
			return nil, fmt.Errorf("cluster: task %d (%s) demands %d cores / %d GPUs; no node in %q is large enough",
				t.ID, t.Name, t.Cores, t.GPUs, c.Name)
		}
	}

	// Per-node resource availability times, plus one egress link per node
	// and one for the master: a producer sending its output to many
	// consumers serializes on its own link, which is what makes
	// "distribute one big object to everyone" stages scale poorly (the
	// paper's RandomForest transfer observation).
	coreAvail := make([][]float64, len(c.Nodes))
	gpuAvail := make([][]float64, len(c.Nodes))
	for i, spec := range c.Nodes {
		coreAvail[i] = make([]float64, spec.Cores)
		gpuAvail[i] = make([]float64, spec.GPUs)
	}
	egress := make([]float64, len(c.Nodes))
	masterEgress := 0.0

	children := make([][]int, n)
	dependents := make([][]int, n)
	pendingDeps := make([]int, n)
	pendingChildren := make([]int, n)
	for _, t := range tasks {
		if t.Parent >= 0 {
			children[t.Parent] = append(children[t.Parent], t.ID)
			pendingChildren[t.Parent]++
		}
		pendingDeps[t.ID] = len(t.Deps)
		for _, d := range t.Deps {
			dependents[d.Task] = append(dependents[d.Task], t.ID)
		}
	}

	scheduled := make([]bool, n)
	finalized := make([]bool, n)
	fin := make([]float64, n) // finalized end (incl. descendants)
	place := make([]Placement, n)

	ready := &taskHeap{rank: graph.ProgramOrder(tasks)}
	isReady := func(id int) bool {
		t := tasks[id]
		if pendingDeps[id] > 0 {
			return false
		}
		return t.Parent < 0 || scheduled[t.Parent]
	}
	for id := range tasks {
		if isReady(id) {
			heap.Push(ready, id)
		}
	}

	var sched *Schedule = &Schedule{Placements: place}
	var finalize func(id int)
	finalize = func(id int) {
		if finalized[id] {
			return
		}
		finalized[id] = true
		if fin[id] < place[id].End {
			fin[id] = place[id].End
		}
		for _, dep := range dependents[id] {
			pendingDeps[dep]--
			if isReady(dep) && !scheduled[dep] {
				heap.Push(ready, dep)
			}
		}
		p := tasks[id].Parent
		if p >= 0 {
			if fin[id] > fin[p] {
				fin[p] = fin[id]
			}
			pendingChildren[p]--
			if pendingChildren[p] == 0 && scheduled[p] {
				finalize(p)
			}
		}
	}

	done := 0
	for ready.Len() > 0 {
		id := heap.Pop(ready).(int)
		if scheduled[id] {
			continue
		}
		t := tasks[id]

		floor := 0.0
		if t.Parent >= 0 {
			floor = place[t.Parent].Start
		}

		// planTransfers computes when t's inputs are ready on node ni given
		// an earliest-start lower bound, reserving egress link time on the
		// producers when commit is set. Each attempt re-pulls its inputs, so
		// retried tasks re-charge their transfers.
		planTransfers := func(ni int, lower float64, commit bool) (ready float64, inBytes int64) {
			tentNode := map[int]float64{}
			tentMaster := masterEgress
			ready = lower
			for _, d := range t.Deps {
				bytes := tasks[d.Task].OutBytes
				r := fin[d.Task]
				src := place[d.Task].Node
				if d.OrderOnly {
					// Pure synchronisation ordering: the consumer waits for
					// the producer's value to have reached the master, but
					// no data is (re-)sent for this edge.
					if r += c.hopTime(bytes); r > ready {
						ready = r
					}
					continue
				}
				inBytes += bytes
				switch {
				case d.ViaMaster:
					start := math.Max(r, tentMaster)
					end := start + 2*c.hopTime(bytes)
					tentMaster = end
					r = end
					if commit {
						sched.BytesMoved += bytes
					}
				case src != ni:
					av, ok := tentNode[src]
					if !ok {
						av = egress[src]
					}
					start := math.Max(r, av)
					end := start + c.hopTime(bytes)
					tentNode[src] = end
					r = end
					if commit {
						sched.BytesMoved += bytes
					}
				}
				if r > ready {
					ready = r
				}
			}
			if commit {
				masterEgress = tentMaster
				for src, av := range tentNode {
					egress[src] = av
				}
			}
			return ready, inBytes
		}

		// Replay the task's attempts: every recorded failure occupies a node
		// until its failure instant and pushes the next attempt past the
		// backoff; the final attempt runs to completion.
		evs := failures[id]
		nAttempts := len(evs) + 1
		attemptFloor := floor
		for k := 0; k < nAttempts; k++ {
			failed := k < len(evs)
			isFinal := k == nAttempts-1

			bestNode, bestStart := -1, math.Inf(1)
			var bestIn int64
			for ni, spec := range c.Nodes {
				if spec.Cores < t.Cores || spec.GPUs < t.GPUs {
					continue
				}
				est, inBytes := planTransfers(ni, attemptFloor, false)
				if ra := resourceAvail(coreAvail[ni], t.Cores); ra > est {
					est = ra
				}
				if ra := resourceAvail(gpuAvail[ni], t.GPUs); ra > est {
					est = ra
				}
				if est < bestStart {
					bestStart, bestNode, bestIn = est, ni, inBytes
				}
			}
			if bestNode < 0 {
				return nil, fmt.Errorf("cluster: task %d unschedulable", id)
			}
			planTransfers(bestNode, attemptFloor, true)

			spec := c.Nodes[bestNode]
			speed := spec.CoreSpeed
			if t.GPUs > 0 {
				speed = spec.GPUSpeed
			}
			work := t.Cost / speed
			if failed {
				work *= evs[k].CostFraction
			}
			dur := c.TaskOverheadSec + work
			if c.DeserializeBps > 0 {
				dur += float64(bestIn) / c.DeserializeBps
			}
			end := bestStart + dur
			claim(coreAvail[bestNode], t.Cores, end)
			claim(gpuAvail[bestNode], t.GPUs, end)
			busy := float64(dur * float64(max(t.Cores, 1)))
			sched.BusyCoreSeconds += busy

			if failed {
				sched.FailedAttempts = append(sched.FailedAttempts, AttemptPlacement{
					Task: id, Attempt: evs[k].Attempt, Node: bestNode, Start: bestStart, End: end,
				})
				sched.WastedCoreSeconds += busy
			}
			if isFinal {
				place[id] = Placement{Task: id, Node: bestNode, Start: bestStart, End: end}
			} else {
				attemptFloor = end + float64(t.BackoffSec*math.Pow(2, float64(k)))
			}
		}
		scheduled[id] = true
		done++
		// Children become eligible now that the parent's start is known.
		for _, ch := range children[id] {
			if isReady(ch) && !scheduled[ch] {
				heap.Push(ready, ch)
			}
		}
		if pendingChildren[id] == 0 {
			finalize(id)
		}
	}
	if done != n {
		return nil, fmt.Errorf("cluster: deadlock — scheduled %d of %d tasks (cyclic or malformed graph)", done, n)
	}

	for id := range tasks {
		if fin[id] > sched.Makespan {
			sched.Makespan = fin[id]
		}
	}
	if sched.Makespan > 0 && c.TotalCores() > 0 {
		sched.Utilization = sched.BusyCoreSeconds / (sched.Makespan * float64(c.TotalCores()))
	}
	return sched, nil
}

// hopTime is the interconnect cost of one transfer hop of the given size.
// Node-local dependencies never reach this path; ViaMaster dependencies pay
// two hops (producer → master → consumer).
func (c Cluster) hopTime(bytes int64) float64 {
	hop := c.LatencySec
	if c.BandwidthBps > 0 {
		hop += float64(bytes) / c.BandwidthBps
	}
	return hop
}

// resourceAvail returns the earliest time at which `count` units from avail
// are simultaneously free (the count-th smallest availability time), or 0
// when count is 0.
func resourceAvail(avail []float64, count int) float64 {
	if count <= 0 {
		return 0
	}
	tmp := make([]float64, len(avail))
	copy(tmp, avail)
	sort.Float64s(tmp)
	return tmp[count-1]
}

// claim marks `count` units busy until end, choosing the earliest-available
// units (the same ones resourceAvail inspected).
func claim(avail []float64, count int, end float64) {
	if count <= 0 {
		return
	}
	// Select indices of the `count` smallest availability times.
	idx := make([]int, len(avail))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return avail[idx[i]] < avail[idx[j]] })
	for i := 0; i < count; i++ {
		avail[idx[i]] = end
	}
}

func fits(t graph.Task, c Cluster) bool {
	for _, spec := range c.Nodes {
		if spec.Cores >= t.Cores && spec.GPUs >= t.GPUs {
			return true
		}
	}
	return false
}

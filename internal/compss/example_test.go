package compss_test

import (
	"fmt"
	"log"

	"taskml/internal/cluster"
	"taskml/internal/compss"
)

// The task-based programming model in one page. A plain Go program becomes
// a distributed workflow by submitting functions as tasks: any
// *compss.Future argument is a dependency the runtime resolves before the
// task runs, exactly like PyCOMPSs infers dependencies from task arguments.
// The runtime records the task graph while it executes, and the
// virtual-cluster scheduler replays that graph on any machine description
// to predict its makespan.
func Example() {
	rt := compss.New(compss.Config{})

	// A fan-out of independent tasks: each one squares a number. Cost is
	// the task's virtual duration in reference-core seconds.
	var squares []*compss.Future
	for i := 1; i <= 8; i++ {
		squares = append(squares, rt.Submit(compss.Opts{Name: "square", Cost: 1},
			func(_ *compss.TaskCtx, _ []any) (any, error) {
				return i * i, nil
			}))
	}

	// A reduction depending on all of them: passing the []*compss.Future
	// makes every square task a dependency.
	sum := rt.Submit(compss.Opts{Name: "sum", Cost: 0.5},
		func(_ *compss.TaskCtx, args []any) (any, error) {
			total := 0
			for _, v := range args[0].([]any) {
				total += v.(int)
			}
			return total, nil
		}, squares)

	// Get synchronises: it blocks until the value is available.
	v, err := rt.Get(sum)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sum of squares 1..8 = %d\n", v)

	// The same captured graph, replayed on two virtual clusters.
	g := rt.Graph()
	fmt.Printf("captured %d tasks, critical path %.1f s, total work %.1f s\n",
		g.Len(), g.CriticalPath(), g.TotalCost())
	for _, c := range []cluster.Cluster{
		cluster.Homogeneous("1 node × 2 cores", 1, 2, 0),
		cluster.Homogeneous("2 nodes × 4 cores", 2, 4, 0),
	} {
		s, err := cluster.ScheduleGraph(g, c)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("on %-18s makespan %.2f s, utilization %.0f%%\n",
			c.Name, s.Makespan, 100*s.Utilization)
	}
	// Output:
	// sum of squares 1..8 = 204
	// captured 9 tasks, critical path 1.5 s, total work 8.5 s
	// on 1 node × 2 cores   makespan 4.55 s, utilization 94%
	// on 2 nodes × 4 cores  makespan 1.52 s, utilization 71%
}

// Command bench is taskml's benchmark: six pinned workloads, each run from
// one seed, checked against a reference and reported as the end-to-end and
// per-layer metrics BENCHMARK.json names. README.md describes them.
//
//	sh bench/run.sh --workload cv_local --seed 1 --seconds 10 --trace 0
//	sh bench/run.sh                  # every workload, untraced
//	sh bench/run.sh -trace 1         # every workload, traced: the per-layer table
//	sh bench/run.sh -selfcheck       # every workload twice; fails on a metric that does not repeat
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"strings"
	"time"

	"taskml/internal/exec"
)

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	traced    bool
	traceOut  string
	quick     bool
	corrupt   bool
	selfcheck bool
}

func main() {
	exec.MaybeWorkerMain() // loopback workers are re-execs of this binary

	var o options
	trace := 0
	spec := false
	flag.StringVar(&o.workload, "workload", "", "run this one workload and end with its result line (default: every workload in turn)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics in place of the end-to-end ones")
	flag.StringVar(&o.traceOut, "trace-out", "", "where a traced run writes its spans (default .bench_build/trace-<workload>.json)")
	flag.BoolVar(&o.quick, "quick", false, "shrunken sizes, under 2 s a workload: a smoke run whose numbers mean nothing")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run every workload twice and fail if an end-to-end metric differs by more than its bound")
	flag.BoolVar(&o.corrupt, "corrupt-reference", false, "test only: corrupt every reference, so the output checks must fail the run")
	flag.BoolVar(&spec, "spec", false, "print BENCHMARK.json and exit")
	flag.Parse()
	o.traced = trace != 0

	switch {
	case spec:
		out, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
	case o.workload != "":
		res, err := runWorkload(o, os.Stdout)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	default:
		if !runAll(o) {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runChild runs one workload in a process of its own, so that peak memory,
// reaped-children accounting and pool counters start from zero, and returns
// its result line.
func runChild(o options, w string) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"-workload", w, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds)}
	if o.traced {
		args = append(args, "-trace", "1")
	}
	if o.traceOut != "" {
		args = append(args, "-trace-out", o.traceOut+"."+w)
	}
	if o.quick {
		args = append(args, "-quick")
	}
	if o.corrupt {
		args = append(args, "-corrupt-reference")
	}
	cmd := osexec.Command(exe, args...)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return result{}, fmt.Errorf("%s: %w", w, runErr)
		}
		return result{}, fmt.Errorf("%s: no result line: %w", w, err)
	}
	return res, nil
}

// runAll runs every workload in turn (twice under -selfcheck) and prints one
// table. It reports whether every run was correct and, under -selfcheck,
// every end-to-end metric repeated within its bound.
func runAll(o options) bool {
	start := time.Now()
	fmt.Println(envLine(environment(o.seed)))
	ok := true
	specs := endToEnd
	if o.traced {
		specs = perLayer
	}
	rounds := 1
	if o.selfcheck {
		rounds = 2
	}
	results := make([]map[string]result, rounds)
	for i := range results {
		results[i] = map[string]result{}
		for _, w := range workloads {
			res, err := runChild(o, w.Name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return false
			}
			ok = ok && res.Correct
			results[i][w.Name] = res
		}
	}

	fmt.Printf("\n%-36s %-8s", "metric", "unit")
	for _, w := range workloads {
		fmt.Printf(" %14s", w.Name)
	}
	fmt.Println()
	for _, m := range specs {
		fmt.Printf("%-36s %-8s", m.Name, m.Unit)
		for _, w := range workloads {
			fmt.Printf(" %14.6g", results[0][w.Name].Metrics[m.Name].Value)
		}
		fmt.Println()
	}
	fmt.Printf("%-36s %-8s", "failed / attempted", "count")
	for _, w := range workloads {
		r := results[0][w.Name]
		fmt.Printf(" %14s", fmt.Sprintf("%d/%d", r.Failed, r.Attempted))
	}
	fmt.Println()

	if o.selfcheck && !o.traced {
		for _, m := range endToEnd {
			for _, w := range workloads {
				a, b := results[0][w.Name].Metrics[m.Name].Value, results[1][w.Name].Metrics[m.Name].Value
				if d := ratio(max(a, b)-min(a, b), min(a, b)); d > m.Bound {
					fmt.Printf("selfcheck: %s on %s read %.6g then %.6g: %.1f%% apart, bound %.0f%%\n",
						m.Name, w.Name, a, b, 100*d, 100*m.Bound)
					ok = false
				}
			}
		}
	}
	fmt.Printf("\n%d runs in %.1f s; correct and repeatable: %v\n", rounds*len(workloads), time.Since(start).Seconds(), ok)
	return ok
}

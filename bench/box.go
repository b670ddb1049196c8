package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuSeconds returns the user+system CPU time of this process and of the
// children it has reaped so far.
func cpuSeconds() (self, children float64) {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		self = tv(ru.Utime) + tv(ru.Stime)
	}
	if syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru) == nil {
		children = tv(ru.Utime) + tv(ru.Stime)
	}
	return
}

// peakRSSMB is this process's resident high-water mark (VmHWM) plus the
// largest resident size among reaped children, in MB. Call it after the
// worker fleet is closed, or the workers are not counted.
func peakRSSMB() float64 {
	kb := 0.0
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					kb, _ = strconv.ParseFloat(f[0], 64)
				}
			}
		}
	}
	var ru syscall.Rusage
	if kb == 0 && syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		kb = float64(ru.Maxrss)
	}
	if syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru) == nil {
		kb += float64(ru.Maxrss)
	}
	return kb / 1024
}

var spinSink uint64

// spin and walk are the benchmark's own two units of single-thread work, a
// few milliseconds each and none of it the repository's code: spin mixes
// integers in registers, walk streams four times over 8 MB. How long they
// take says how fast this box is right now.
func spin() time.Duration {
	start := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 3_000_000; i++ {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
	}
	spinSink += x
	return time.Since(start)
}

var walkArea = make([]float64, 1<<20)

func walk() time.Duration {
	start := time.Now()
	s := 0.0
	for pass := 0; pass < 4; pass++ {
		for i := range walkArea {
			s += walkArea[i]*1.0000001 + 0.5
			walkArea[i] = s
		}
	}
	spinSink += uint64(s)
	return time.Since(start)
}

// spinUsualMS and walkUsualMS are what the two take on this box at its usual
// speed.
const (
	spinUsualMS = 6.5
	walkUsualMS = 4.8
)

// boxProbe samples the box's speed over a run: between set-ups, between
// repetitions, between the tour's stops.
//
// The box is shared, and for minutes at a time everything on it runs up to a
// fifth slower. Over ten seeds of cv_local the pass wall spread 15.6% (IQR
// over median); divided by the probe's reading of the same run, 4.9%. So the
// CPU-bound walls a run reports — set-up, passes, storm rounds — are divided
// by factor: they read as they would at the box's usual speed.
type boxProbe struct{ spinMS, walkMS []float64 }

func (b *boxProbe) sample() {
	b.spinMS = append(b.spinMS, toMS(spin()))
	b.walkMS = append(b.walkMS, toMS(walk()))
}

// factor is how much slower than usual the box ran during this run: the
// geometric mean of the two probes' medians over their usual values.
func (b *boxProbe) factor() float64 {
	if len(b.spinMS) == 0 {
		return 1
	}
	return math.Sqrt(median(b.spinMS) / spinUsualMS * median(b.walkMS) / walkUsualMS)
}

// slowShare is the share of spin samples more than a quarter slower than the
// fastest one of the run.
func (b *boxProbe) slowShare() float64 {
	if len(b.spinMS) == 0 {
		return 0
	}
	asc := sorted(b.spinMS)
	slow := 0
	for _, v := range asc {
		if v > 1.25*asc[0] {
			slow++
		}
	}
	return float64(slow) / float64(len(asc))
}

// dumpStacks writes every goroutine's stack to stderr under a heading.
func dumpStacks(why string) {
	buf := make([]byte, 1<<20)
	fmt.Fprintf(os.Stderr, "bench: %s; goroutines:\n%s\n", why, buf[:runtime.Stack(buf, true)])
}

// environment describes the box and the build for the run's header.
func environment(seed int64) map[string]any {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     "unknown",
		"seed":       seed,
		"loadavg":    "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env["commit"] = s.Value
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) >= 3 {
			env["loadavg"] = strings.Join(f[:3], " ")
		}
	}
	return env
}

func envLine(env map[string]any) string {
	return fmt.Sprintf("nproc=%v GOMAXPROCS=%v %v commit=%v seed=%v loadavg=%v",
		env["nproc"], env["gomaxprocs"], env["go"], env["commit"], env["seed"], env["loadavg"])
}

// Command worker serves the library's registered task functions to a
// remote coordinator (see internal/exec). It has two modes:
//
// Listen mode (default): bind a TCP address, handshake with protocol
// version and slot count, and execute framed task requests until
// killed. Start one per machine (or per core set), then point a cmd tool at
// the fleet:
//
//	worker -listen :7077 &
//	worker -listen :7078 &
//	afclass -model rf -backend remote -peers 127.0.0.1:7077,127.0.0.1:7078
//
// Join mode (-join): dial a coordinator's fleet listen address (a cmd tool
// started with -fleet-listen) and register as a new member mid-run,
// presenting the coordinator's join token. This is how a restarted worker
// re-admits itself — it comes back as a brand-new member with a fresh id —
// and how extra machines absorb load without the coordinator knowing their
// addresses up front. One process is one fleet member with one cache; -slots
// sets how much it runs at once:
//
//	afclass -backend remote -fleet-listen :7070 ...   # prints the worker -join line on stderr
//	worker -join coordinator:7070 -token <JoinToken> -slots 4
//
// In both modes the worker opens a peer-transfer listener (-peer-listen,
// default an ephemeral port) so other workers can pull its resident values
// directly instead of routing them through the coordinator; pass
// -peer-listen off to force all traffic onto the coordinator link. On a
// multi-homed machine bind it to the interface the other workers route to.
//
// The worker caps the shared kernel layer at one goroutine per task body
// (internal/par): its parallelism budget is -slots concurrent bodies, and
// cluster-level parallelism comes from running many workers.
//
// The binary links internal/core, so it carries every registered function
// of the library — dsarray block ops, the random-forest tasks, the
// preprocessing tasks — and can serve any coordinator built from this
// module at the same protocol version.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	// Imported for its transitive task registrations (dsarray, forest,
	// preproc, ...): linking core populates the exec registry.
	_ "taskml/internal/core"

	"taskml/internal/exec"
)

func main() {
	exec.MaybeWorkerMain() // also usable as a loopback re-exec target
	listen := flag.String("listen", ":7077", "TCP address to serve task requests on")
	join := flag.String("join", "", "coordinator fleet address to dial into instead of listening (see -fleet-listen on the cmd tools)")
	token := flag.String("token", "", "join credential for -join (the coordinator's JoinToken)")
	slots := flag.Int("slots", 1, "concurrent task bodies this worker runs")
	cacheMB := flag.Int("cache-mb", 0, "future-cache bound in MiB (0 = default, negative disables caching)")
	peerListen := flag.String("peer-listen", ":0", "TCP address for direct worker-to-worker transfers (\"off\" disables the peer plane)")
	flag.Parse()

	cfg := exec.WorkerConfig{Slots: *slots, CacheBytes: int64(*cacheMB) << 20, PeerListen: *peerListen, Log: os.Stderr}

	if *join != "" {
		if err := exec.JoinCoordinator(*join, *token, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		return // coordinator closed the connection: clean retirement
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
	if err := exec.Serve(l, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
}

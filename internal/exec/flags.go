package exec

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

// Config is the one-stop backend configuration shared by the cmd tools: a
// single struct covering backend selection, fleet sizing and membership,
// with Flags binding the standard flag set and Open interpreting the result.
type Config struct {
	// Backend selects the execution backend: "" or "local" → nil
	// (in-process), "remote" → Dial Peers, or SpawnLoopback when Peers is
	// empty.
	Backend string
	// Peers is a comma-separated worker address list for Backend "remote".
	Peers string
	// Workers is how many loopback workers SpawnLoopback starts when Peers
	// is empty (default 2).
	Workers int
	// Slots is the per-worker concurrent-body count for spawned workers.
	Slots int
	// CacheMB bounds each spawned worker's future cache in MiB; 0 keeps the
	// worker default (DefaultCacheBytes), <0 disables worker caching.
	CacheMB int
	// Refs and P2P are inert: Open ignores them. They are still here only
	// because bench/harness.go, frozen while the code it measures changes,
	// sets them; a bench-only PR drops them from both sides.
	Refs, P2P bool

	// Listen, when non-empty, opens the coordinator's fleet listen address
	// (Remote.ListenForWorkers) so restarted or brand-new workers can dial
	// in mid-run. Use host:0 for an ephemeral port; Open prints the bound
	// address and the join token on stderr.
	Listen string
}

// Flags binds the standard backend flags onto fs, writing into cfg. The
// flag names are shared by every cmd tool:
//
//	-backend local|remote     -peers host:port,...
//	-loopback-workers N       -slots N
//	-exec-cache-mb N          -fleet-listen host:port
func (cfg *Config) Flags(fs *flag.FlagSet) {
	fs.StringVar(&cfg.Backend, "backend", "local", "execution backend: local | remote")
	fs.StringVar(&cfg.Peers, "peers", "", "comma-separated worker addresses for -backend=remote (empty spawns loopback workers)")
	fs.IntVar(&cfg.Workers, "loopback-workers", 2, "loopback worker processes when -backend=remote without -peers")
	fs.IntVar(&cfg.Slots, "slots", 1, "task slots per loopback worker")
	fs.IntVar(&cfg.CacheMB, "exec-cache-mb", 0, "per-worker future-cache bound in MiB (0 = default, negative disables)")
	fs.StringVar(&cfg.Listen, "fleet-listen", "", "coordinator listen address for mid-run worker registration (host:0 for ephemeral)")
}

// Open builds the backend cfg describes:
//
//	Backend "local" (or "")  → nil: the runtime executes everything in-process.
//	Backend "remote", Peers  → Dial the comma-separated worker addresses.
//	Backend "remote", no Peers → SpawnLoopback: the tool re-execs itself as
//	    Workers worker processes on 127.0.0.1.
//
// With Listen set, the coordinator's fleet listen port opens before Open
// returns. The caller owns the returned backend (Close it after Barrier); a
// nil Backend needs no Close.
func Open(cfg Config) (Backend, error) {
	switch cfg.Backend {
	case "", "local":
		return nil, nil
	case "remote":
	default:
		return nil, fmt.Errorf("exec: unknown backend %q (want local or remote)", cfg.Backend)
	}

	var r *Remote
	var err error
	if cfg.Peers != "" {
		var addrs []string
		for _, a := range strings.Split(cfg.Peers, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		r, err = Dial(RemoteConfig{Peers: addrs})
	} else {
		n := cfg.Workers
		if n < 1 {
			n = 2
		}
		r, err = SpawnLoopback(LoopbackConfig{Workers: n, Slots: cfg.Slots, CacheMB: cfg.CacheMB})
	}
	if err != nil {
		return nil, err
	}

	if cfg.Listen != "" {
		addr, err := r.ListenForWorkers(cfg.Listen)
		if err != nil {
			r.Close()
			return nil, err
		}
		// The operator needs both to start a dial-in worker; stderr keeps
		// the announcement out of piped experiment output.
		fmt.Fprintf(os.Stderr, "exec: fleet registration open on %s (worker -join %s -token %s)\n",
			addr, addr, r.JoinToken())
	}
	return r, nil
}

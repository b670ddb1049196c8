package exec

import (
	"bufio"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"strings"
	"time"
)

// LoopbackConfig configures SpawnLoopback.
type LoopbackConfig struct {
	// Workers is how many worker processes to start (required, ≥ 1).
	Workers int
	// Slots is each worker's concurrent-body count (default 1).
	Slots int
	// CacheMB bounds each worker's future cache in MiB; 0 keeps the worker
	// default (DefaultCacheBytes), <0 disables worker caching.
	CacheMB int
}

// spawnConfig is how a loopback fleet re-execs one more worker: stored on
// the Remote at SpawnLoopback so SpawnWorker can add identically-configured
// children mid-run.
type spawnConfig struct {
	exe     string
	slots   int
	cacheMB int
}

// SpawnLoopback starts cfg.Workers copies of the current binary as worker
// processes on 127.0.0.1 (each with the given slot count and cache bound),
// dials them, and returns the connected coordinator. It is the zero-setup
// distributed mode behind `-backend=remote` without `-peers`: real
// processes, real sockets, real serialization — only the network is
// loopback.
//
// The children are re-execs of os.Executable() with TASKML_EXEC_WORKER set,
// so they carry exactly the same registered-function table as the
// coordinator (see MaybeWorkerMain, which every spawnable binary calls
// first thing in main). Membership stays open: SpawnWorker adds one more
// child and KillWorker crashes one. Close kills and reaps whatever is left.
func SpawnLoopback(cfg LoopbackConfig) (*Remote, error) {
	n := cfg.Workers
	if n < 1 {
		return nil, fmt.Errorf("exec: SpawnLoopback needs at least 1 worker")
	}
	slots := cfg.Slots
	if slots < 1 {
		slots = 1
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("exec: resolving own binary: %w", err)
	}

	r := newRemote(0)
	r.spawn = &spawnConfig{exe: exe, slots: slots, cacheMB: cfg.CacheMB}
	for i := 0; i < n; i++ {
		if _, err := r.SpawnWorker(); err != nil {
			r.Close()
			return nil, fmt.Errorf("exec: worker %d: %w", i, err)
		}
	}
	return r, nil
}

// SpawnWorker re-execs one more loopback child, waits for it to bind, dials
// it, and admits it into the fleet with a fresh id (which it returns). Only
// fleets created by SpawnLoopback can spawn — a dialed fleet has no
// executable to run. This is the crash-recovery hook: kill a worker,
// SpawnWorker, and the replacement is a brand-new member absorbing retried
// attempts.
func (r *Remote) SpawnWorker() (string, error) {
	r.mu.Lock()
	sc := r.spawn
	closed := r.closed
	r.mu.Unlock()
	if closed {
		return "", fmt.Errorf("exec: backend is closed")
	}
	if sc == nil {
		return "", fmt.Errorf("exec: fleet was not spawned by SpawnLoopback")
	}

	cmd := osexec.Command(sc.exe)
	cmd.Env = append(os.Environ(),
		workerEnvListen+"=127.0.0.1:0",
		fmt.Sprintf("%s=%d", workerEnvSlots, sc.slots),
	)
	if sc.cacheMB != 0 {
		cmd.Env = append(cmd.Env, fmt.Sprintf("%s=%d", workerEnvCacheMB, sc.cacheMB))
	}
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return "", fmt.Errorf("exec: worker stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return "", fmt.Errorf("exec: spawning worker: %w", err)
	}
	fail := func(err error) (string, error) {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
		return "", err
	}
	addr, err := readReadyLine(stdout, 10*time.Second)
	if err != nil {
		return fail(fmt.Errorf("exec: worker (pid %d) did not come up: %w", cmd.Process.Pid, err))
	}
	// Keep draining the child's stdout so it can never block on a full
	// pipe; everything after the ready line is informational.
	go func() { _, _ = io.Copy(io.Discard, stdout) }()

	w, err := dialWorker(addr, r.dialTimeout)
	if err != nil {
		return fail(err)
	}
	id, err := r.admit(w, cmd.Process)
	if err != nil {
		return fail(err) // admit already killed on its closed path; harmless double-kill
	}
	return id, nil
}

// readReadyLine waits for the worker's TASKML_WORKER_LISTENING line and
// returns the address it bound. The deadline guards against a child that
// exits or hangs before binding.
func readReadyLine(stdout io.Reader, timeout time.Duration) (string, error) {
	type result struct {
		addr string
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, workerReadyPrefix) {
				ch <- result{addr: strings.TrimSpace(strings.TrimPrefix(line, workerReadyPrefix))}
				return
			}
		}
		err := sc.Err()
		if err == nil {
			err = fmt.Errorf("stdout closed before ready line")
		}
		ch <- result{err: err}
	}()
	select {
	case res := <-ch:
		return res.addr, res.err
	case <-time.After(timeout):
		return "", fmt.Errorf("timed out after %v waiting for ready line", timeout)
	}
}

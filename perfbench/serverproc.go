package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverProc is one running `turbohom serve` child.
type serverProc struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	done   chan struct{} // closed once Wait has returned
}

// live tracks every child still running, so any exit path can stop them.
var live struct {
	sync.Mutex
	procs map[*serverProc]bool
}

// startServer spawns `bin serve args...` on a free loopback port and returns
// once /healthz answers 200, with the time that took (process start to
// first 200).
func startServer(ctx context.Context, bin string, args ...string) (*serverProc, time.Duration, error) {
	p := &serverProc{done: make(chan struct{})}
	p.cmd = exec.Command(bin, append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)...)
	p.cmd.Stderr = &p.stderr
	out, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, 0, err
	}
	live.Lock()
	if live.procs == nil {
		live.procs = map[*serverProc]bool{}
	}
	live.procs[p] = true
	live.Unlock()

	addrc := make(chan string, 1)
	go func() {
		// The server prints its endpoint once the store is loaded; keep
		// draining stdout afterwards so it never blocks on a full pipe.
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "SPARQL endpoint: http://"); ok {
				addrc <- a[:strings.IndexByte(a, '/')]
			}
		}
		io.Copy(io.Discard, out) //nolint:errcheck // draining only
		p.cmd.Wait()             //nolint:errcheck // exit status is not the benchmark's concern
		close(p.done)
	}()

	select {
	case p.addr = <-addrc:
	case <-p.done:
		p.forget()
		return nil, 0, fmt.Errorf("server exited during start: %s", strings.TrimSpace(p.stderr.String()))
	case <-ctx.Done():
		p.kill()
		return nil, 0, ctx.Err()
	}
	c := newClient(p.addr, 1)
	defer c.close()
	for {
		if _, err := c.get(ctx, "/healthz"); err == nil {
			return p, time.Since(start), nil
		}
		select {
		case <-p.done:
			p.forget()
			return nil, 0, fmt.Errorf("server exited during start: %s", strings.TrimSpace(p.stderr.String()))
		case <-ctx.Done():
			p.kill()
			return nil, 0, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (p *serverProc) forget() {
	live.Lock()
	delete(live.procs, p)
	live.Unlock()
}

// kill sends SIGKILL and waits for the process to be reaped.
func (p *serverProc) kill() {
	p.cmd.Process.Signal(syscall.SIGKILL) //nolint:errcheck // already gone is fine
	<-p.done
	p.forget()
}

// stopAll kills every child still running.
func stopAll() {
	live.Lock()
	ps := make([]*serverProc, 0, len(live.procs))
	for p := range live.procs {
		ps = append(ps, p)
	}
	live.Unlock()
	for _, p := range ps {
		p.kill()
	}
}

// peakRSSMB reads the child's VmHWM (peak resident set) in MB.
func (p *serverProc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// health is the part of the server's /healthz document the benchmark reads.
type health struct {
	HeapAlloc   uint64 `json:"heap_alloc"`
	ResultCache struct {
		Bytes         int64 `json:"bytes"`
		Evictions     int64 `json:"evictions"`
		CarryForwards int64 `json:"carry_forwards"`
		Invalidated   int64 `json:"invalidated"`
	} `json:"result_cache"`
	Metrics struct {
		QueriesFailed    int64 `json:"queries_failed"`
		QueriesCancelled int64 `json:"queries_cancelled"`
		PreparedHits     int64 `json:"prepared_hits"`
		PreparedMisses   int64 `json:"prepared_misses"`
		CacheHits        int64 `json:"cache_hits"`
		CacheMisses      int64 `json:"cache_misses"`
	} `json:"metrics"`
}

func fetchHealth(ctx context.Context, c *client) (health, error) {
	var h health
	b, err := c.get(ctx, "/healthz")
	if err != nil {
		return h, err
	}
	return h, json.Unmarshal(b, &h)
}

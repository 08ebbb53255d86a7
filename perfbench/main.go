// Command perfbench is the repository's end-to-end benchmark: it generates
// seeded inputs, starts the real `turbohom serve` binary, drives it over
// loopback HTTP, checks every answer against the BitMat baseline, and
// prints the end-to-end metrics; with -trace 1 it also replays a prefix of
// the workload through an in-process ladder of spans and prints per-layer
// metrics. The last line of standard output is one JSON object.
//
//	perfbench -workload lubm-hot -seed 1 -seconds 10 -trace 0
//
// run.sh builds this command and the server and then runs it; see
// README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	cfg := config{}
	flag.StringVar(&cfg.workload, "workload", "", "bsbm-explore, lubm-hot or lubm-rw")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the request sequence")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&cfg.trace, "trace", 0, "1 = also run the traced ladder and report per-layer metrics")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/turbohom", "turbohom binary to serve with")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "working directory for generated data")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit the binaries were built from, for the header")
	flag.BoolVar(&cfg.capacity, "capacity", false, "drive the workload's mix closed-loop over the connections and print its capacity instead of measuring")
	flag.Parse()

	switch cfg.workload {
	case "bsbm-explore", "lubm-hot", "lubm-rw":
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	if cfg.seconds < 1 || (cfg.trace != 0 && cfg.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, cfg)
	stop()
	stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if res == nil { // capacity probe: nothing to report
		return
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	bin      string
	work     string
	commit   string
	capacity bool
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

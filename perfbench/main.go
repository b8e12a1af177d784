// Command perfbench is the simulator's benchmark. It builds one workload
// through the public constructors, simulates a fixed virtual window again
// and again for a host-time budget, checks every run's outputs, and prints
// its metrics by name with their units. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload clos_write --seed 30 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones,
// from untraced runs alternating with runs under a CPU profile. See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	name := flag.String("workload", "clos_write", "workload: clos_write, lossy_rw or incast_read")
	seed := flag.Int64("seed", 30, "simulation seed; the workload's inputs derive from it")
	seconds := flag.Float64("seconds", 10, "host seconds to keep repeating the workload")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from profiled runs; 0 end-to-end metrics")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// The simulator runs on one goroutine. With one P the GC shares its
	// CPU, so run_s counts GC work in full and does not swing with
	// whether a second CPU happens to be free.
	runtime.GOMAXPROCS(1)

	set, err := runSet(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	var ms []metric
	if *trace == 1 {
		ms = set.perLayer()
	} else {
		ms = set.endToEnd()
	}

	fmt.Printf("workload %s seed %d: %d untraced and %d traced runs over %d seeds, %v of virtual time each\n",
		w.name, *seed, len(set.untraced), len(set.traced), len(set.digests), set.window)
	fmt.Printf("digest %s (seed %d)\n", set.digest, *seed)
	for _, e := range set.errs {
		fmt.Printf("check failed: %s\n", e)
	}
	out := result{Correct: len(set.errs) == 0, Attempted: set.attempted, Failed: set.failed, Metrics: map[string]value{}}
	for _, m := range ms {
		fmt.Printf("%-22s %16.6g %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = value{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metric struct {
	name  string
	value float64
	unit  string
}

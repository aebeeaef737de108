// Command perfbench is the steady-state loopback benchmark of the
// Starlink runtime. One process hosts a dispatcher on real loopback
// sockets, the zero-delay legacy services it bridges to, and a
// single-goroutine legacy-client load generator; every bridged reply
// is verified before it counts.
//
// Usage (normally through run.py, which builds this program):
//
//	perfbench --workload translate-steady --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 they are the
// per-layer ones, measured in a traced run whose spans are written to
// --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "translate-steady | session-hold | deploy-churn")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated load")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_out", "directory for the traced run's span file")
	flag.Parse()
	o.trace = traceFlag != 0
	w, ok := workloads[o.workload]
	if !ok || o.seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", o.workload)
		os.Exit(2)
	}
	r := newRun(o)
	start := time.Now()
	err := w(r)
	r.teardown()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := r.result()
	r.logf("run took %.1fs; correct=%v attempted=%d failed=%d", time.Since(start).Seconds(), res.Correct, res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// Command perfbench is the repository's end-to-end benchmark. One process
// and one driver goroutine run a closed loop — every call waits for the
// previous one, like an operator's controller — over one of three
// workloads:
//
//	plan-paper     cold plans and fast failover on the four paper topologies (Table V path)
//	admit-fattree  online class admission and probe forwarding on FatTree-16
//	react-diurnal  warm re-optimization per diurnal snapshot
//
// A fourth, react-failover, is react-diurnal with fast failover between
// the commits. It reproduces a known enforcement defect (README.md) and
// reports correct: false, so it is not a measured workload.
//
// It times each layer from outside, around calls into the layer's public
// functions, checks every output it can (placement verification, table
// audits, enforcement probes, handler invariants), and prints the result
// as one JSON line on standard output: end-to-end metrics with -trace 0,
// per-layer metrics from in-memory spans with -trace 1. See README.md.
//
// Usage:
//
//	perfbench -workload plan-paper -seed 1 -seconds 25 -trace 0
//	perfbench -workload admit-fattree -trace 1 -spans spans.jsonl -cpuprofile cpu.out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// workload is one benchmark input set, run as a sequence of episodes.
// Each episode builds its own inputs and state from the seed and the
// episode index (timed as one set-up sample), then runs a fixed unit of
// closed-loop work whose composition never depends on how fast the
// program is.
type workload interface {
	prepare(r *runner, k int) error
	run(r *runner, k int) error
	// done reports whether enough episodes and samples exist for every
	// reported metric.
	done(r *runner) bool
	// sizes describes the workload's inputs for the environment header.
	sizes() map[string]int
}

var workloads = map[string]func() workload{
	"plan-paper":     func() workload { return &planPaper{} },
	"admit-fattree":  func() workload { return &admitFattree{} },
	"react-diurnal":  func() workload { return &reactDiurnal{} },
	"react-failover": func() workload { return &reactDiurnal{failover: true} },
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		name       = flag.String("workload", "plan-paper", "workload: plan-paper, admit-fattree, react-diurnal or react-failover")
		seed       = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds    = flag.Float64("seconds", 25, "how long to measure (extended until every percentile has enough samples)")
		traced     = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from spans")
		spansPath  = flag.String("spans", "", "with -trace 1, write the spans as JSON lines to this file")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the measured loop to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *traced < 0 || *traced > 1 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %v)\n", *name, *traced, *seconds)
		return 2
	}
	w := mk()
	r := newRunner(*seed, *traced == 1)

	if err := r.prepare(w, 0); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s setup: %v\n", *name, err)
		return 1
	}
	env := environment(*name, *seed, w.sizes())
	if data, err := json.Marshal(map[string]any{"env": env}); err == nil {
		fmt.Println(string(data))
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			}
		}()
	}

	if err := r.measure(w, time.Duration(*seconds*float64(time.Second))); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res := r.result()
	if *memprofile != "" {
		if err := writeHeapProfile(*memprofile); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	if *spansPath != "" && r.tr != nil {
		if err := writeSpans(*spansPath, r.tr.spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	r.report(os.Stderr)
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

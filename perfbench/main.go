// Command perfbench is the repository's benchmark: four workloads that
// together cover every layer of the simulator — the pipelined-memory
// switch, the sharded fabric engine, the checkpointable session and the
// HTTP session server — each run in its own process, timed from outside
// through the layers' public functions, with the program's outputs
// checked on every step. See README.md.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it first:
//
//	bash perfbench/run.sh --workload switch-burst --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics (end-to-end with --trace 0, per
// layer with --trace 1). --workload all runs every workload, one process
// each; --steady N repeats a workload N times on consecutive seeds and
// prints each end-to-end metric's median and quartiles against its bound
// in BENCHMARK.json, then reruns the checks on a held-out seed.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workloads maps each name to its workload.
var workloads = map[string]workload{
	"switch-burst": switchBurst(),
	"fabric-sat":   &fabricSat{warm: 1024, batch: 256, steps: 32, every: 8},
	"serve-fleet":  &serveFleet{clients: 2, warm: 1 << 16, batch: 4096, steps: 64, every: 4},
	"fault-ecc":    faultECC(),
}

// order is the order --workload all runs them in.
var order = []string{"switch-burst", "fabric-sat", "serve-fleet", "fault-ecc"}

func main() {
	name := flag.String("workload", "", "workload to run: switch-burst, fabric-sat, serve-fleet, fault-ecc or all")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span log instead of end-to-end metrics")
	steady := flag.Int("steady", 0, "repeat the workload this many times on consecutive seeds and report the spread of every end-to-end metric")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload NAME --seed N --seconds S --trace 0|1 [--steady N]")
		os.Exit(2)
	}
	names := []string{*name}
	if *name == "all" {
		names = order
	} else if workloads[*name] == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (switch-burst, fabric-sat, serve-fleet, fault-ecc, all)\n", *name)
		os.Exit(2)
	}
	var err error
	switch {
	case *steady > 0:
		err = steadiness(names, *seed, *seconds, *steady)
	case len(names) > 1:
		for _, n := range names {
			if _, err = runChild(n, *seed, *seconds, *trace, os.Stdout); err != nil {
				break
			}
		}
	default:
		err = runOne(names[0], *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its result.
func runOne(name string, seed uint64, seconds float64, trace bool) error {
	out := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := runConfig{name: name, seed: seed, seconds: seconds, trace: trace, out: out, dir: dir}
	t0 := time.Now()
	rep := runWorkload(workloads[name], cfg)
	rep.summary(os.Stdout, name)
	fmt.Printf("%s: wall %.1fs\n", name, time.Since(t0).Seconds())
	res := result{
		Correct:   !rep.checkFailed,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.endToEnd(),
	}
	if trace {
		res.Metrics = rep.layers.metrics()
	}
	return writeResult(os.Stdout, res)
}

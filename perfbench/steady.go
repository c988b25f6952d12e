package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runChild runs one workload in a child process of this binary, copies
// its output to w and returns the parsed result line.
func runChild(name string, seed uint64, seconds float64, trace int, w io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	var out bytes.Buffer
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	cmd.Stdout = io.MultiWriter(&out, w)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	var last []byte
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
	}
	return res, nil
}

// quartiles returns Python's statistics.quantiles(values, n=4), the
// default "exclusive" method, so the spreads printed here are the ones
// the bounds in BENCHMARK.json are judged by.
func quartiles(v []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	m := len(d) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// benchSpec is the part of BENCHMARK.json the steadiness mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadiness runs each workload reps times on seeds seed, seed+1, …,
// prints every end-to-end metric's median and quartiles with its spread
// (q3-q1)/median against the metric's bound, and reruns the workload on
// a held-out seed, which must pass every check with no failed operation.
func steadiness(names []string, seed uint64, seconds float64, reps int) error {
	if reps < 2 {
		return fmt.Errorf("--steady needs at least 2 runs")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	ok := true
	for _, name := range names {
		vals := map[string][]float64{}
		var shares []float64
		for i := 0; i < reps; i++ {
			res, err := runChild(name, seed+uint64(i), seconds, 0, io.Discard)
			if err != nil {
				return err
			}
			if !res.Correct {
				ok = false
				fmt.Printf("%s seed %d: checks failed\n", name, seed+uint64(i))
			}
			shares = append(shares, float64(res.Failed)/float64(res.Attempted))
			for k, m := range res.Metrics {
				vals[k] = append(vals[k], m.Value)
			}
		}
		fmt.Printf("%s: %d runs, seeds %d..%d, failed share %v\n", name, reps, seed, seed+uint64(reps-1), shares)
		fmt.Printf("  %-14s %14s %14s %14s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, m := range spec.EndToEnd {
			q1, q2, q3 := quartiles(vals[m.Name])
			spread := (q3 - q1) / q2
			flag := ""
			if m.Name != "setup_s" && spread > m.Bound {
				flag, ok = "  OVER", false
			} else if spread > m.Bound/3 {
				flag = "  >bound/3"
			}
			fmt.Printf("  %-14s %14.6g %14.6g %14.6g %8.4f %6.2f%s\n", m.Name, q1, q2, q3, spread, m.Bound, flag)
		}
		held := seed + 1_000_003
		res, err := runChild(name, held, seconds, 0, io.Discard)
		if err != nil {
			return err
		}
		fmt.Printf("  held-out seed %d: correct=%v attempted=%d failed=%d\n", held, res.Correct, res.Attempted, res.Failed)
		if !res.Correct || res.Failed != 0 {
			ok = false
		}
	}
	if !ok {
		return fmt.Errorf("not steady or not correct (see above)")
	}
	return nil
}

package main

import (
	"path/filepath"
	"testing"

	"pipemem/internal/ckpt"
	"pipemem/internal/core"
	"pipemem/internal/obs"
	"pipemem/internal/traffic"
)

// Every check must pass on a correct result and reject the same result
// perturbed in the property it guards.

func TestCheckConservation(t *testing.T) {
	if err := checkConservation(100, 90, 6, 4, 0); err != nil {
		t.Fatal(err)
	}
	if checkConservation(101, 90, 6, 4, 0) == nil {
		t.Error("a lost cell passed")
	}
	if checkConservation(100, 90, 6, 4, 1) == nil {
		t.Error("a corrupt cell passed")
	}
	if checkIntegrity(2) == nil {
		t.Error("corrupt cells passed the integrity check")
	}
}

func TestCheckCutThrough(t *testing.T) {
	res := core.RunResult{MinCutLatency: 2, MaxBuffered: 256}
	if err := checkCutThrough(res, 256); err != nil {
		t.Fatal(err)
	}
	slow := res
	slow.MinCutLatency = 3
	if checkCutThrough(slow, 256) == nil {
		t.Error("a 3-cycle minimum latency passed")
	}
	over := res
	over.MaxBuffered = 257
	if checkCutThrough(over, 256) == nil {
		t.Error("occupancy above capacity passed")
	}
}

func TestCheckECC(t *testing.T) {
	if err := checkECC(12, 0, 12); err != nil {
		t.Fatal(err)
	}
	if checkECC(11, 0, 12) == nil {
		t.Error("a missed correction passed")
	}
	if checkECC(12, 1, 12) == nil {
		t.Error("an uncorrectable error passed")
	}
}

func TestCheckInitDelay(t *testing.T) {
	// (p/4)(n-1)/n at p=0.3, n=16 is 0.0703.
	if err := checkInitDelay(0.13, 0.3, 16, true); err != nil {
		t.Fatal(err)
	}
	if checkInitDelay(0.03, 0.3, 16, true) == nil {
		t.Error("a delay below half the closed form passed")
	}
	if checkInitDelay(0.3, 0.3, 16, true) == nil {
		t.Error("a delay above a quarter cycle passed where §3.4 calls it negligible")
	}
	if err := checkInitDelay(2.2, 0.8, 16, false); err != nil {
		t.Errorf("the lower bound alone rejected a heavy-load delay: %v", err)
	}
	if checkInitDelay(0.05, 0.8, 16, false) == nil {
		t.Error("a heavy-load delay below half the closed form passed")
	}
}

func smallSpec(seed uint64) ckpt.Spec {
	return ckpt.Spec{
		Switch:  core.Config{Ports: 8, WordBits: 16, Cells: 64, CutThrough: true},
		Traffic: traffic.Config{Kind: traffic.Bursty, N: 8, Load: 0.9, BurstLen: 8, Seed: seed},
		Cycles:  6000,
		Policy:  "dt:alpha=2",
	}
}

func replayResult(t *testing.T, spec ckpt.Spec) core.RunResult {
	t.Helper()
	r, err := newReplay(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.drive(spec.Cycles, newTracer(false), -1)
	return replayFields(r.finish())
}

func TestReplayMatchesSession(t *testing.T) {
	spec := smallSpec(3)
	if err := checkReplay(spec, ckpt.Options{}); err != nil {
		t.Fatal(err)
	}
	s, err := ckpt.New(spec, ckpt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sameResult("replay", replayResult(t, smallSpec(4)), replayFields(want)) == nil {
		t.Error("a replay of other inputs matched the session")
	}
	perturbed := replayFields(want)
	perturbed.Delivered--
	if sameResult("replay", replayResult(t, spec), perturbed) == nil {
		t.Error("a result with one cell fewer matched")
	}
}

func TestRestoreContinuesIdentically(t *testing.T) {
	options := func(reg *obs.Registry, ports int) ckpt.Options {
		return ckpt.Options{Observer: core.NewObserver(reg, ports)}
	}
	spec := faultECC().spec(5, 20000)
	if err := checkRestore(spec, options, 7000, filepath.Join(t.TempDir(), "r.ckpt")); err != nil {
		t.Fatal(err)
	}
}

func TestShardingIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a 256-terminal fabric twice")
	}
	if err := checkSharding(9, 600); err != nil {
		t.Fatal(err)
	}
	a := fabricOutcome{Injected: 5, Delivered: 4, Dropped: 1, Credits: []int32{1, 2}}
	b := a
	b.Credits = []int32{1, 3}
	if sameResult("fabric", a, b) == nil {
		t.Error("differing credit state matched")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Fatalf("quartiles = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

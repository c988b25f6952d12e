package main

import (
	"fmt"
	"reflect"

	"pipemem/internal/analytic"
	"pipemem/internal/core"
	"pipemem/internal/stats"
)

// The checks compare the program's outputs with properties the paper or
// the model guarantees, or with an independent computation of the same
// quantity. None of them compares against stored output. Each returns
// nil when the property holds.

// checkConservation: every offered cell is delivered, dropped or still
// inside the switch (or fabric), and none was corrupted.
func checkConservation(offered, delivered, dropped, resident, corrupt int64) error {
	if offered != delivered+dropped+resident {
		return fmt.Errorf("conservation: offered %d != delivered %d + dropped %d + resident %d",
			offered, delivered, dropped, resident)
	}
	return checkIntegrity(corrupt)
}

// checkIntegrity: every delivered cell left the switch bit for bit as
// it was injected.
func checkIntegrity(corrupt int64) error {
	if corrupt != 0 {
		return fmt.Errorf("integrity: %d corrupt cells", corrupt)
	}
	return nil
}

// checkCutThrough: with automatic cut-through (§3.3) the fastest head
// crosses the switch in 2 cycles, one into the input register and one
// through M0; and the buffer never holds more cells than it has
// addresses.
func checkCutThrough(res core.RunResult, cells int) error {
	if res.MinCutLatency != 2 {
		return fmt.Errorf("cut-through: minimum head latency %d cycles, want 2", res.MinCutLatency)
	}
	if res.MaxBuffered > cells {
		return fmt.Errorf("occupancy: peak %d cells in a %d-cell buffer", res.MaxBuffered, cells)
	}
	return nil
}

// checkECC: SEC-DED corrects every single-bit upset the fault engine
// applied to a live word exactly once (the read scrubs it), and no
// single-bit plan may produce an uncorrectable word.
func checkECC(corrected, uncorrectable, applied int64) error {
	if uncorrectable != 0 {
		return fmt.Errorf("ecc: %d uncorrectable errors from single-bit upsets", uncorrectable)
	}
	if corrected != applied {
		return fmt.Errorf("ecc: corrected %d != applied memory upsets %d", corrected, applied)
	}
	return nil
}

// checkInitDelay compares the measured staggered-initiation delay with
// §3.4's closed form (p/4)(n-1)/n. The closed form counts head-versus-
// head collisions only; the switch also queues writes behind read waves,
// which have priority, so the measurement may exceed it but never fall
// far below it. §3.4 calls the delay negligible — under a quarter cycle —
// at light and moderate load, so the upper bound applies only there
// (upper=false above it, where read-priority queueing dominates).
func checkInitDelay(measured, p float64, n int, upper bool) error {
	want := analytic.StaggeredInitiationDelay(p, n)
	if measured < want/2 {
		return fmt.Errorf("§3.4: initiation delay %.4f below half the closed form %.4f", measured, want)
	}
	if upper && measured > 0.25 {
		return fmt.Errorf("§3.4: initiation delay %.4f cycles is not negligible (> 0.25) at load %.2f", measured, p)
	}
	return nil
}

// sameResult is the differential check between two runs that must be
// bit-identical.
func sameResult(what string, got, want any) error {
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s differs:\n  got  %+v\n  want %+v", what, got, want)
	}
	return nil
}

// fabricOutcome is what the sequential-versus-sharded check compares:
// the delivered counts and the whole latency histogram.
type fabricOutcome struct {
	Injected, Delivered, Dropped int64
	Latency                      stats.HistState
	Credits                      []int32
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"time"

	"pipemem/internal/ckpt"
	"pipemem/internal/core"
	"pipemem/internal/fault"
	"pipemem/internal/obs"
	"pipemem/internal/traffic"
)

// roundSeed derives the inputs of one round from the run's seed
// (splitmix64), so the same seed always gives the same rounds.
func roundSeed(seed uint64, round int) uint64 {
	z := seed + uint64(round+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// switchWorkload is a single switch driven through ckpt.Session.StepN in
// fixed batches. A round builds a fresh session, warms it up (the
// round's set-up), takes `steps` timed batches with a metrics scrape and
// a checkpoint every `every` batches, then drains and checks the result.
type switchWorkload struct {
	spec  func(seed uint64, cycles int64) ckpt.Spec
	audit int64 // online auditor cadence in cycles (0 = off)
	warm  int64
	batch int64
	steps int
	every int
	// endChecks checks a finished round.
	endChecks func(s *ckpt.Session, res core.RunResult) []error
}

// cycles is a round's driven window.
func (w *switchWorkload) cycles() int64 { return w.warm + int64(w.steps)*w.batch }

func (w *switchWorkload) options(reg *obs.Registry, ports int) ckpt.Options {
	return ckpt.Options{Observer: core.NewObserver(reg, ports), AuditEvery: w.audit}
}

// differential checks a prefix of the first round's inputs.
func (w *switchWorkload) differential(cfg runConfig, rep *report) {
	spec := w.spec(roundSeed(cfg.seed, 0), w.warm+4*w.batch)
	rep.check(checkReplay(spec, w.options(obs.NewRegistry(), spec.Switch.Ports)))
	rep.check(checkRestore(spec, w.options, w.warm+2*w.batch, filepath.Join(cfg.dir, "restore.ckpt")))
}

// ledger measures the layers of switchLayers and the observer's
// exposition.
func (w *switchWorkload) ledger(cfg runConfig, rep *report, tr *tracer, seed uint64) layerSet {
	l := layerSet{}
	if reg := switchLayers(cfg, rep, tr, l, w.spec(seed, w.cycles()), w.options, w.warm, w.batch, w.steps); reg != nil {
		l.scrape(rep, func(b *bytes.Buffer) error { return reg.WritePrometheus(b) })
	}
	return l
}

func (w *switchWorkload) round(cfg runConfig, rep *report, tr *tracer, round int) {
	t0 := time.Now()
	spec := w.spec(roundSeed(cfg.seed, round), w.cycles())
	reg := obs.NewRegistry()
	s, err := ckpt.New(spec, w.options(reg, spec.Switch.Ports))
	if !rep.op(err) {
		return
	}
	if _, _, err := s.StepN(w.warm); !rep.op(err) {
		return
	}
	rep.setups = append(rep.setups, time.Since(t0).Seconds())

	sw := s.Switch()
	path := filepath.Join(cfg.dir, "round.ckpt")
	var buf bytes.Buffer
	root := tr.begin("round", -1, int64(round))
	prev := s.Runner().State().Delivered
	var delivered int64
	var timed time.Duration
	defer func() { rep.addRound(delivered, timed.Seconds()) }()
	for i := 0; i < w.steps; i++ {
		req := int64(round)<<32 | int64(i)
		t := time.Now()
		_, _, err := s.StepN(w.batch)
		d := time.Since(t)
		tr.record("ckpt.StepN", root, req, t, t.Add(d))
		if !rep.op(err) {
			return
		}
		rep.steps = append(rep.steps, ms(d))
		timed += d
		st := s.Runner().State()
		delivered += st.Delivered - prev
		prev = st.Delivered
		rep.check(checkConservation(st.Offered, st.Delivered, sw.DroppedCells(), int64(sw.Resident()), st.Corrupt))
		if (i+1)%w.every != 0 {
			continue
		}
		buf.Reset()
		t = time.Now()
		err = reg.WritePrometheus(&buf)
		d = time.Since(t)
		tr.record("obs.WritePrometheus", root, req, t, t.Add(d))
		if rep.op(err) {
			rep.scrapes = append(rep.scrapes, ms(d))
		}
		t = time.Now()
		err = s.CheckpointTo(path)
		d = time.Since(t)
		tr.record("ckpt.CheckpointTo", root, req, t, t.Add(d))
		if rep.op(err) {
			rep.ckpts = append(rep.ckpts, ms(d))
		}
	}
	tr.end(root)
	res, err := s.Finish()
	if !rep.check(err) {
		return
	}
	for _, e := range w.endChecks(s, res) {
		rep.check(e)
	}
}

// checkRestore runs spec uninterrupted and again with a checkpoint file
// written at cycle cut and restored into a fresh session; both must end
// with the same result and the same fault-engine tallies.
func checkRestore(spec ckpt.Spec, options func(*obs.Registry, int) ckpt.Options, cut int64, path string) error {
	whole, err := ckpt.New(spec, options(obs.NewRegistry(), spec.Switch.Ports))
	if err != nil {
		return err
	}
	want, err := whole.Run()
	if err != nil {
		return err
	}
	first, err := ckpt.New(spec, options(obs.NewRegistry(), spec.Switch.Ports))
	if err != nil {
		return err
	}
	if _, _, err := first.StepN(cut); err != nil {
		return err
	}
	if err := first.CheckpointTo(path); err != nil {
		return err
	}
	defer os.Remove(path)
	resumed, err := ckpt.Resume(path, options(obs.NewRegistry(), spec.Switch.Ports))
	if err != nil {
		return err
	}
	got, err := resumed.Run()
	if err != nil {
		return err
	}
	if err := sameResult("checkpoint-restored result", got, want); err != nil {
		return err
	}
	if whole.Engine() != nil {
		return sameResult("checkpoint-restored fault tallies",
			resumed.Engine().Counters().Snapshot(), whole.Engine().Counters().Snapshot())
	}
	return nil
}

// switchBurst: one 32×32 switch (64 stages, the widest the occupancy
// masks cover) under bursty load 0.9 with mean bursts of 8 cells and the
// dynamic-threshold admission policy. Arbitration and buffer management
// dominate; no server is involved.
func switchBurst() *switchWorkload {
	const cells = 256
	return &switchWorkload{
		spec: func(seed uint64, cycles int64) ckpt.Spec {
			return ckpt.Spec{
				Switch:  core.Config{Ports: 32, WordBits: 16, Cells: cells, CutThrough: true},
				Traffic: traffic.Config{Kind: traffic.Bursty, N: 32, Load: 0.9, BurstLen: 8, Seed: seed},
				Cycles:  cycles,
				Policy:  "dt:alpha=2",
			}
		},
		warm: 1 << 16, batch: 4096, steps: 64, every: 8,
		endChecks: func(_ *ckpt.Session, res core.RunResult) []error {
			return []error{checkCutThrough(res, cells)}
		},
	}
}

// faultECC: a 16×16 store-and-forward switch with SEC-DED memory under
// Bernoulli load 0.8, a random plan of single-bit memory upsets (one per
// 1024 cycles) and the online invariant auditor every 1024 cycles. ECC
// forces the exact per-stage engine.
func faultECC() *switchWorkload {
	const load, ports = 0.8, 16
	return &switchWorkload{
		spec: func(seed uint64, cycles int64) ckpt.Spec {
			return ckpt.Spec{
				Switch:  core.Config{Ports: ports, WordBits: 16, Cells: 256, ECC: true},
				Traffic: traffic.Config{Kind: traffic.Bernoulli, N: ports, Load: load, Seed: seed},
				Cycles:  cycles,
				Plan: fault.Random(seed, fault.RandomOptions{
					Cycles: cycles, Events: int(cycles / 1024), Stages: 2 * ports, WordBits: 16, Inputs: ports,
				}),
				FaultSeed: seed ^ 0x5bd1e995,
			}
		},
		audit: 1024,
		warm:  1 << 13, batch: 4096, steps: 24, every: 8,
		endChecks: func(s *ckpt.Session, res core.RunResult) []error {
			h := s.Switch().Health()
			return []error{
				checkECC(h.ECCCorrected, h.ECCUncorrectable, s.Engine().Applied(fault.Mem)),
				checkInitDelay(res.MeanInitDelay, load, ports, false),
			}
		},
	}
}

package main

import (
	"fmt"
	"time"

	"pipemem/internal/bufmgr"
	"pipemem/internal/cell"
	"pipemem/internal/ckpt"
	"pipemem/internal/core"
	"pipemem/internal/fault"
	"pipemem/internal/traffic"
)

// replay drives a core.Switch with a ckpt.Spec's traffic and fault plan
// directly, without the session layer: the benchmark's own copy of the
// run loop, so the cost of core and of traffic generation can be timed
// apart and the session's cost stated as a ratio to them. It works in
// chunks of `chunk` cycles: it generates the chunk's arrival rows (traffic
// time), then ticks the switch through them (core time). The chunk is
// small enough for the rows to stay in cache. The loop follows
// core.Runner cycle for cycle, which the differential check holds it to.
type replay struct {
	sw     *core.Switch
	cs     *traffic.CellStream
	eng    *fault.Engine
	pool   *cell.Pool
	rows   [][]int
	counts []int
	hcells []*cell.Cell

	seq       uint64
	driven    int64
	drained   int64
	minLat    int64
	busyWords int64
	occSum    float64
	res       core.RunResult

	trafficNS, coreNS int64
}

const chunk = 256

func newReplay(spec ckpt.Spec, obsv *core.Observer) (*replay, error) {
	sw, err := core.New(spec.Switch)
	if err != nil {
		return nil, err
	}
	if spec.Policy != "" {
		p, err := bufmgr.Parse(spec.Policy)
		if err != nil {
			return nil, err
		}
		sw.SetBufferPolicy(p)
	}
	if obsv != nil {
		sw.SetObserver(obsv)
	}
	cs, err := traffic.NewCellStream(spec.Traffic, sw.Config().Stages)
	if err != nil {
		return nil, err
	}
	n := sw.Config().Ports
	r := &replay{
		sw: sw, cs: cs,
		pool:   cell.NewPool(sw.Config().Stages),
		rows:   make([][]int, chunk),
		counts: make([]int, chunk),
		hcells: make([]*cell.Cell, n),
		minLat: -1,
	}
	for i := range r.rows {
		r.rows[i] = make([]int, n)
	}
	if spec.Plan != nil {
		r.eng = fault.NewEngine(spec.Plan, spec.FaultSeed)
	}
	sw.SetDrainRecycle(true)
	return r, nil
}

// collect books the departures of the last tick.
func (r *replay) collect() {
	k := int64(r.sw.Config().Stages)
	for _, d := range r.sw.Drain() {
		r.res.Delivered++
		r.busyWords += k
		if !d.Cell.Equal(d.Expected) {
			r.res.Corrupt++
		}
		if lat := d.HeadOut - d.HeadIn; r.minLat < 0 || lat < r.minLat {
			r.minLat = lat
		}
		r.pool.Put(d.Expected)
	}
	if b := r.sw.Buffered(); b > r.res.MaxBuffered {
		r.res.MaxBuffered = b
	}
}

func (r *replay) preTick() {
	if r.eng != nil {
		r.eng.Step(fault.Target{Switch: r.sw}, r.sw.Cycle())
	}
}

// drive advances n driven cycles, recording a traffic span and a core
// span per chunk under parent.
func (r *replay) drive(n int64, tr *tracer, parent int) {
	width := r.sw.Config().WordBits
	for n > 0 {
		m := min(n, chunk)
		t0 := time.Now()
		for i := int64(0); i < m; i++ {
			r.counts[i] = r.cs.Heads(r.rows[i])
		}
		t1 := time.Now()
		for i := int64(0); i < m; i++ {
			r.preTick()
			if r.counts[i] == 0 {
				r.sw.Tick(nil)
			} else {
				for p, dst := range r.rows[i] {
					r.hcells[p] = nil
					if dst != traffic.NoArrival {
						r.seq++
						r.hcells[p] = r.pool.New(r.seq, p, dst, width)
						r.res.Offered++
					}
				}
				r.sw.Tick(r.hcells)
			}
			r.collect()
			r.occSum += float64(r.sw.Buffered())
		}
		t2 := time.Now()
		r.trafficNS += t1.Sub(t0).Nanoseconds()
		r.coreNS += t2.Sub(t1).Nanoseconds()
		tr.record("traffic.Heads", parent, r.driven, t0, t1)
		tr.record("core.Tick", parent, r.driven, t1, t2)
		r.driven += m
		n -= m
	}
}

// finish drains the switch (bounded like core.Runner's drain) and
// returns the run's result.
func (r *replay) finish() core.RunResult {
	cfg := r.sw.Config()
	bound := int64((cfg.Cells + 2) * cfg.Stages * 2)
	for r.drained < bound && r.sw.Resident() > 0 {
		r.preTick()
		r.sw.Tick(nil)
		r.collect()
		r.drained++
	}
	res := r.res
	res.Cycles = r.sw.Cycle()
	ctr := r.sw.Counters()
	res.DropOverrun = ctr.Get("drop-overrun")
	res.DropPolicy = ctr.Get("drop-policy")
	res.DropPushOut = ctr.Get("drop-pushout")
	res.Dropped = r.sw.DroppedCells()
	res.MeanBuffered = r.occSum / float64(r.driven)
	res.MeanCutLatency = r.sw.CutLatency().Mean()
	res.MinCutLatency = r.minLat
	res.MeanInitDelay = r.sw.InitDelay().Mean()
	res.CutLatencyOverflow = r.sw.CutLatency().Overflow()
	res.Utilization = float64(r.busyWords) / float64((r.driven+r.drained)*int64(cfg.Ports))
	return res
}

// replayFields keeps the RunResult fields the replay computes itself;
// the per-port stall and drop vectors are internal to the switch.
func replayFields(r core.RunResult) core.RunResult {
	r.InputStalls, r.InputDrops, r.OutputDrops = nil, nil, nil
	return r
}

// checkReplay runs the spec through the core-direct replay and through a
// ckpt.Session and requires the same result, so the layer ratios compare
// the same simulated work.
func checkReplay(spec ckpt.Spec, opts ckpt.Options) error {
	r, err := newReplay(spec, nil)
	if err != nil {
		return err
	}
	r.drive(spec.Cycles, newTracer(false), -1)
	got := r.finish()
	s, err := ckpt.New(spec, opts)
	if err != nil {
		return err
	}
	want, err := s.Run()
	if err != nil {
		return fmt.Errorf("session run: %w", err)
	}
	return sameResult("core replay vs ckpt.Session result", replayFields(got), replayFields(want))
}

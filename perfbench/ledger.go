package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pipemem/internal/ckpt"
	"pipemem/internal/core"
	"pipemem/internal/obs"
)

// perLayer lists every per-layer metric with its unit. A traced run
// prints all of them; a metric of a layer the workload does not exercise
// (the fabric engine on a single switch, the server off serve-fleet)
// reads 0.
var perLayer = []struct{ name, unit string }{
	{"core.ns_per_cycle", "ns"},
	{"traffic.ns_per_cycle", "ns"},
	{"core.arb_share", "ratio"},
	{"core.read_scans_per_call", "count"},
	{"core.write_scans_per_call", "count"},
	{"core.read_hit_ratio", "ratio"},
	{"core.allocs_per_cycle", "count"},
	{"core.audit_us", "us"},
	{"engine.allocs_per_cycle", "count"},
	{"engine.inject_ns_per_cycle", "ns"},
	{"engine.step_ns_per_cycle", "ns"},
	{"engine.nodestep_share", "ratio"},
	{"engine.merge_share", "ratio"},
	{"ckpt.over_core", "ratio"},
	{"ckpt.checkpoint_ms", "ms"},
	{"ckpt.checkpoint_kb", "KB"},
	{"srv.over_ckpt", "ratio"},
	{"srv.http_ms", "ms"},
	{"srv.response_bytes", "bytes"},
	{"obs.scrape_ms", "ms"},
	{"obs.scrape_kb", "KB"},
	{"runtime.gc_count", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// layerSet holds a traced run's per-layer figures by name.
type layerSet map[string]float64

func (l layerSet) metrics() map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{l[m.name], m.unit}
	}
	return out
}

// arbitration fills the core.PhaseProf-derived metrics. coreNS is the
// profiled core time the counters were taken over; both it and ArbNS
// carry two clock reads per arbitrate call, which are subtracted.
func (l layerSet) arbitration(p *core.PhaseProf, coreNS int64) {
	timer := 2 * float64(p.ArbCalls) * core.TimerCostNS()
	if d := float64(coreNS) - timer; d > 0 {
		l["core.arb_share"] = max(float64(p.ArbNS)-timer, 0) / d
	}
	if p.ReadCalls > 0 {
		l["core.read_scans_per_call"] = float64(p.ReadScans) / float64(p.ReadCalls)
		l["core.read_hit_ratio"] = float64(p.ReadHits) / float64(p.ReadCalls)
	}
	if p.WriteCalls > 0 {
		l["core.write_scans_per_call"] = float64(p.WriteScans) / float64(p.WriteCalls)
	}
}

// runtimeLayers fills the GC metrics over the measured rounds and the
// tracing overhead: the median step of the traced rounds against that of
// the untraced rounds of the same process.
func (l layerSet) runtimeLayers(m0, m1 memCounters, traced, plain samples) {
	l["runtime.gc_count"] = float64(m1.numGC - m0.numGC)
	l["runtime.gc_pause_ms"] = float64(m1.pauseNS-m0.pauseNS) / 1e6
	if p := plain.quantile(0.5); p > 0 && len(traced) > 0 {
		l["trace.overhead_pct"] = 100 * (traced.quantile(0.5)/p - 1)
	}
}

// medianOf times f reps times and returns the median in ms.
func medianOf(reps int, f func() error) (float64, error) {
	var s samples
	for i := 0; i < reps; i++ {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		s = append(s, ms(time.Since(t)))
	}
	return s.quantile(0.5), nil
}

// layer is one layer of a ledger: step advances the layer's own
// instance, built on the same inputs as the others, by n cycles, with
// parent the span of the call.
type layer struct {
	name string
	step func(n int64, parent int) error
	ms   samples
}

// nsPerCycle is the layer's mean host time per simulated cycle.
func (u *layer) nsPerCycle(cycles float64) float64 { return u.ms.sum() * 1e6 / cycles }

// switchLayers measures the single-switch stack on one spec, bottom up,
// every layer doing the same simulated work: the core-direct replay
// (traffic generation and core timed apart), ckpt.Session.StepN, and the
// given layers above it. The layers advance batch by batch in turn,
// starting each batch one layer further along, so a change in the host's
// speed, or garbage left by the layer before, falls on all of them
// alike and cancels from their ratios. It returns the ckpt session's
// registry, for the exposition.
func switchLayers(cfg runConfig, rep *report, tr *tracer, l layerSet, spec ckpt.Spec,
	options func(*obs.Registry, int) ckpt.Options, warm, batch int64, steps int, above ...*layer) *obs.Registry {
	ports := spec.Switch.Ports
	cycles := float64(int64(steps) * batch)
	off := newTracer(false)

	r, err := newReplay(spec, core.NewObserver(obs.NewRegistry(), ports))
	if !rep.op(err) {
		return nil
	}
	reg := obs.NewRegistry()
	s, err := ckpt.New(spec, options(reg, ports))
	if !rep.op(err) {
		return nil
	}
	replay := &layer{name: "ledger.replay", step: func(n int64, parent int) error {
		r.drive(n, tr, parent)
		return nil
	}}
	session := &layer{name: "ckpt.StepN", step: func(n int64, _ int) error {
		_, _, err := s.StepN(n)
		return err
	}}
	layers := append([]*layer{replay, session}, above...)
	for _, u := range layers {
		if !rep.op(u.step(warm, -1)) {
			return nil
		}
	}
	r.trafficNS, r.coreNS = 0, 0
	root := tr.begin("ledger", -1, 0)
	for i := 0; i < steps; i++ {
		for j := range layers {
			u := layers[(i+j)%len(layers)]
			t := time.Now()
			id := tr.begin(u.name, root, int64(i))
			err := u.step(batch, id)
			tr.end(id)
			if !rep.op(err) {
				return nil
			}
			u.ms = append(u.ms, ms(time.Since(t)))
		}
	}
	tr.end(root)
	l["core.ns_per_cycle"] = float64(r.coreNS) / cycles
	l["traffic.ns_per_cycle"] = float64(r.trafficNS) / cycles
	below := l["core.ns_per_cycle"] + l["traffic.ns_per_cycle"]
	l["ckpt.over_core"] = session.nsPerCycle(cycles) / below
	rep.ledger = append(rep.ledger,
		ledgerRow{Layer: "traffic", NSPerCycle: l["traffic.ns_per_cycle"], SelfNS: l["traffic.ns_per_cycle"]},
		ledgerRow{Layer: "core", NSPerCycle: l["core.ns_per_cycle"], SelfNS: l["core.ns_per_cycle"]})
	prevName, prevNS := "core+traffic", below
	for _, u := range layers[1:] {
		ns := u.nsPerCycle(cycles)
		rep.ledger = append(rep.ledger, ledgerRow{Layer: u.name, NSPerCycle: ns, SelfNS: ns - prevNS,
			Beneath: prevName, OverBeneath: ns / prevNS})
		prevName, prevNS = u.name, ns
	}

	// The replay's allocations, measured apart from the other layers'.
	m0 := readMem()
	r.drive(batch, off, -1)
	m1 := readMem()
	l["core.allocs_per_cycle"] = float64(m1.mallocs-m0.mallocs) / float64(batch)

	// A second replay with the arbitration profiler attached: it adds
	// two clock reads per arbitrate call, so it runs apart from the
	// timing above.
	r, err = newReplay(spec, core.NewObserver(obs.NewRegistry(), ports))
	if !rep.op(err) {
		return nil
	}
	r.drive(warm, off, -1)
	prof := &core.PhaseProf{}
	r.sw.SetPhaseProf(prof)
	r.coreNS = 0
	r.drive(int64(steps/4+1)*batch, off, -1)
	l.arbitration(prof, r.coreNS)

	path := filepath.Join(cfg.dir, "ledger.ckpt")
	ckptFileMS, err := medianOf(9, func() error { return s.CheckpointTo(path) })
	if rep.op(err) {
		l["ckpt.checkpoint_ms"] = ckptFileMS
		if fi, err := os.Stat(path); rep.op(err) {
			l["ckpt.checkpoint_kb"] = float64(fi.Size()) / 1024
		}
	}
	auditMS, err := medianOf(65, s.Switch().AuditInvariants)
	if rep.check(err) {
		l["core.audit_us"] = auditMS * 1000
	}
	return reg
}

// scrape fills obs.scrape_ms and obs.scrape_kb from one exposition
// writer.
func (l layerSet) scrape(rep *report, write func(*bytes.Buffer) error) {
	var buf bytes.Buffer
	d, err := medianOf(33, func() error { buf.Reset(); return write(&buf) })
	if rep.op(err) {
		l["obs.scrape_ms"] = d
		l["obs.scrape_kb"] = float64(buf.Len()) / 1024
	}
}

// writeTrace writes the traced run's spans and ledger as JSONL and
// prints the per-layer table and the span self times.
func writeTrace(cfg runConfig, tr *tracer, rep *report) {
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-%d.jsonl", cfg.name, cfg.seed))
	if !rep.op(tr.writeJSONL(path, rep.ledger)) {
		return
	}
	fmt.Printf("%s: %d spans written to %s\n", cfg.name, len(tr.spans), path)
	fmt.Printf("%s: per-layer cost of the same simulated work:\n", cfg.name)
	printLedger(os.Stdout, rep.ledger)
	fmt.Printf("%s: span self time by name:\n", cfg.name)
	self := tr.selfTimes()
	for _, name := range sortedKeys(self) {
		fmt.Printf("  %-22s %12.3f ms\n", name, float64(self[name])/1e6)
	}
}

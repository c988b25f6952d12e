package main

import (
	"bytes"
	"encoding/json"
	"time"

	"pipemem/internal/core"
	"pipemem/internal/fabric"
	"pipemem/internal/fabric/engine"
	"pipemem/internal/obs"
	"pipemem/internal/traffic"
)

// fabricSat: a 256-terminal radix-4 butterfly (4 stages of 64 4×4
// switches) at saturation, sharded over two engine workers, with credit
// flow control on every inter-stage link. It is the only workload that
// runs inject → node-step → barrier merge and credits.
//
// A round builds the fabric, warms it up, takes `steps` timed batches of
// `batch` cycles with a metrics scrape and a snapshot of every node every
// `every` batches, then audits the fabric. Fabric runs cannot be
// checkpointed yet, so the "checkpoint" timed here is the part a fabric
// checkpoint would start from: core.Switch.Snapshot of every node,
// JSON-encoded as ckpt files are.
type fabricSat struct {
	warm, batch int64
	steps       int
	every       int
}

const fabricTerminals = 256

func fabricConfig(workers int) fabric.Config {
	return fabric.Config{
		Terminals: fabricTerminals, Radix: 4, WordBits: 16, SwitchCells: 32,
		Credits: 8, CutThrough: true, Workers: workers,
	}
}

// fabricDriver feeds a fabric from a saturation cell stream.
type fabricDriver struct {
	f     *fabric.Net
	cs    *traffic.CellStream
	heads []int
	seq   uint64
}

func newFabricDriver(workers int, seed uint64) (*fabricDriver, error) {
	f, err := fabric.New(fabricConfig(workers))
	if err != nil {
		return nil, err
	}
	cs, err := traffic.NewCellStream(traffic.Config{Kind: traffic.Saturation, N: fabricTerminals, Seed: seed}, f.CellWords())
	if err != nil {
		f.Close()
		return nil, err
	}
	return &fabricDriver{f: f, cs: cs, heads: make([]int, fabricTerminals)}, nil
}

// inject offers this cycle's arrivals.
func (d *fabricDriver) inject() {
	for term, dst := range d.heads {
		if dst != traffic.NoArrival {
			d.seq++
			d.f.Inject(term, dst, d.seq)
		}
	}
}

// drive advances n cycles.
func (d *fabricDriver) drive(n int64) error {
	for i := int64(0); i < n; i++ {
		d.cs.Heads(d.heads)
		d.inject()
		if err := d.f.Step(); err != nil {
			return err
		}
	}
	return nil
}

// conservation checks injected = delivered + dropped + in flight and the
// integrity of every node and ejection.
func (d *fabricDriver) conservation() error {
	e := d.f.Engine()
	return checkConservation(e.Injected(), e.Delivered(), e.Dropped(), int64(e.InFlight()), d.f.Corrupt())
}

// snapshot JSON-encodes the state of every node.
func (d *fabricDriver) snapshot(buf *bytes.Buffer) error {
	e := d.f.Engine()
	states := make([]*core.SwitchState, 0, d.f.Stages()*fabricTerminals/4)
	for st := 0; st < d.f.Stages(); st++ {
		for i := 0; i < fabricTerminals/4; i++ {
			s, err := e.NodeAt(st, i).Snapshot()
			if err != nil {
				return err
			}
			states = append(states, s)
		}
	}
	return json.NewEncoder(buf).Encode(states)
}

// differential checks sharding on a prefix of the first round's inputs.
func (w *fabricSat) differential(cfg runConfig, rep *report) {
	rep.check(checkSharding(roundSeed(cfg.seed, 0), w.warm+4*w.batch))
}

func (w *fabricSat) round(cfg runConfig, rep *report, tr *tracer, round int) {
	t0 := time.Now()
	d, err := newFabricDriver(2, roundSeed(cfg.seed, round))
	if !rep.op(err) {
		return
	}
	defer d.f.Close()
	reg := obs.NewRegistry()
	d.f.RegisterMetrics(reg, "fabric")
	if !rep.op(d.drive(w.warm)) {
		return
	}
	rep.setups = append(rep.setups, time.Since(t0).Seconds())

	var buf bytes.Buffer
	root := tr.begin("round", -1, int64(round))
	prev := d.f.Delivered()
	var timed time.Duration
	defer func() { rep.addRound(d.f.Delivered()-prev, timed.Seconds()) }()
	for i := 0; i < w.steps; i++ {
		req := int64(round)<<32 | int64(i)
		t := time.Now()
		err := d.drive(w.batch)
		dt := time.Since(t)
		tr.record("fabric.Step", root, req, t, t.Add(dt))
		if !rep.op(err) {
			return
		}
		rep.steps = append(rep.steps, ms(dt))
		timed += dt
		rep.check(d.conservation())
		if (i+1)%w.every != 0 {
			continue
		}
		buf.Reset()
		t = time.Now()
		d.f.SyncMetrics()
		err = reg.WritePrometheus(&buf)
		dt = time.Since(t)
		tr.record("obs.WritePrometheus", root, req, t, t.Add(dt))
		if rep.op(err) {
			rep.scrapes = append(rep.scrapes, ms(dt))
		}
		buf.Reset()
		t = time.Now()
		err = d.snapshot(&buf)
		dt = time.Since(t)
		tr.record("core.Snapshot", root, req, t, t.Add(dt))
		if rep.op(err) {
			rep.ckpts = append(rep.ckpts, ms(dt))
		}
	}
	tr.end(root)
	rep.check(checkIntegrity(d.f.Engine().BadEjects()))
	rep.check(d.f.Audit())
}

// checkSharding runs the same inputs on one worker and on two; the
// barrier merge must make them bit-identical.
func checkSharding(seed uint64, cycles int64) error {
	var out [2]fabricOutcome
	for i, workers := range []int{1, 2} {
		d, err := newFabricDriver(workers, seed)
		if err != nil {
			return err
		}
		err = d.drive(cycles)
		e := d.f.Engine()
		out[i] = fabricOutcome{e.Injected(), e.Delivered(), e.Dropped(), d.f.Latency().State(), e.CreditState()}
		d.f.Close()
		if err != nil {
			return err
		}
	}
	return sameResult("fabric at two workers vs one", out[1], out[0])
}

// ledger measures the fabric's layers on one round's inputs: the
// traffic source, the Inject path and the engine's Step, timed per cycle
// at the workload's two workers; then, at one worker so the shares are
// plain fractions, engine.StepProf and every node's core.PhaseProf.
func (w *fabricSat) ledger(_ runConfig, rep *report, tr *tracer, seed uint64) layerSet {
	l := layerSet{}
	d, err := newFabricDriver(2, seed)
	if !rep.op(err) {
		return l
	}
	defer d.f.Close()
	if !rep.op(d.drive(w.warm)) {
		return l
	}
	cycles := int64(w.steps/4+1) * w.batch
	var trafficNS, injectNS, stepNS int64
	root := tr.begin("ledger.fabric", -1, 0)
	m0 := readMem()
	for c := int64(0); c < cycles; c++ {
		t0 := time.Now()
		d.cs.Heads(d.heads)
		t1 := time.Now()
		d.inject()
		t2 := time.Now()
		err := d.f.Step()
		t3 := time.Now()
		if !rep.op(err) {
			return l
		}
		b := tr.record("ledger.cycle", root, c, t0, t3)
		tr.record("traffic.Heads", b, c, t0, t1)
		tr.record("engine.Inject", b, c, t1, t2)
		tr.record("engine.Step", b, c, t2, t3)
		trafficNS += t1.Sub(t0).Nanoseconds()
		injectNS += t2.Sub(t1).Nanoseconds()
		stepNS += t3.Sub(t2).Nanoseconds()
	}
	m1 := readMem()
	tr.end(root)
	nodes := float64(d.f.Stages() * fabricTerminals / 4)
	l["traffic.ns_per_cycle"] = float64(trafficNS) / float64(cycles)
	l["engine.inject_ns_per_cycle"] = float64(injectNS) / float64(cycles)
	l["engine.step_ns_per_cycle"] = float64(stepNS) / float64(cycles)
	l["engine.allocs_per_cycle"] = float64(m1.mallocs-m0.mallocs) / float64(cycles)
	l["core.allocs_per_cycle"] = l["engine.allocs_per_cycle"] / nodes

	var buf bytes.Buffer
	reg := obs.NewRegistry()
	d.f.RegisterMetrics(reg, "fabric")
	l.scrape(rep, func(b *bytes.Buffer) error { d.f.SyncMetrics(); return reg.WritePrometheus(b) })
	snapMS, err := medianOf(9, func() error { buf.Reset(); return d.snapshot(&buf) })
	if rep.op(err) {
		l["ckpt.checkpoint_ms"] = snapMS
		l["ckpt.checkpoint_kb"] = float64(buf.Len()) / 1024
	}
	node := d.f.Engine().NodeAt(0, 0)
	auditMS, err := medianOf(65, node.AuditInvariants)
	if rep.check(err) {
		l["core.audit_us"] = auditMS * 1000
	}

	seq, err := newFabricDriver(1, seed)
	if !rep.op(err) {
		return l
	}
	defer seq.f.Close()
	if !rep.op(seq.drive(w.warm)) {
		return l
	}
	var sp engine.StepProf
	seq.f.Engine().SetStepProf(&sp)
	profs := seq.f.Engine().AttachPhaseProfs()
	if !rep.op(seq.drive(cycles)) {
		return l
	}
	var arb core.PhaseProf
	for _, p := range profs {
		arb.Add(p)
	}
	total := float64(sp.NodeStepNS + sp.MergeNS + sp.InjectNS)
	l["engine.nodestep_share"] = float64(sp.NodeStepNS) / total
	l["engine.merge_share"] = float64(sp.MergeNS) / total
	l.arbitration(&arb, sp.NodeStepNS)
	timer := 2 * float64(arb.ArbCalls) * core.TimerCostNS()
	l["core.ns_per_cycle"] = (float64(sp.NodeStepNS) - timer) / (float64(cycles) * nodes)

	rep.ledger = append(rep.ledger,
		ledgerRow{Layer: "traffic", NSPerCycle: l["traffic.ns_per_cycle"], SelfNS: l["traffic.ns_per_cycle"]},
		ledgerRow{Layer: "core (per node)", NSPerCycle: l["core.ns_per_cycle"], SelfNS: l["core.ns_per_cycle"]},
		ledgerRow{Layer: "engine.Inject", NSPerCycle: l["engine.inject_ns_per_cycle"], SelfNS: l["engine.inject_ns_per_cycle"]},
		ledgerRow{Layer: "engine.Step", NSPerCycle: l["engine.step_ns_per_cycle"],
			SelfNS:  l["engine.step_ns_per_cycle"] - l["core.ns_per_cycle"]*nodes,
			Beneath: "core x nodes", OverBeneath: l["engine.step_ns_per_cycle"] / (l["core.ns_per_cycle"] * nodes)})
	return l
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported figure, printed as {"value": v, "unit": u}.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what one workload process is asked to do.
type runConfig struct {
	name    string
	seed    uint64
	seconds float64
	trace   bool
	// out is the build-output directory inside the checkout, where a
	// traced run leaves its span log; dir is a scratch directory under it
	// for checkpoint files, removed before the process exits.
	out, dir string
}

// samples holds timings of one kind of operation, in milliseconds.
type samples []float64

// quantile returns the q-quantile by linear interpolation between the
// closest ranks of the sorted samples (0 for an empty set).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

func (s samples) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ms converts a duration to milliseconds with full precision.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// tally counts operations and their failures. A failure is an operation
// that returned an error, an HTTP response outside 2xx, or a correctness
// or differential check that rejected the program's output.
type tally struct {
	attempted, failed int64
	checkFailed       bool
	msgs              []string
}

// op books one operation and reports whether it succeeded.
func (t *tally) op(err error) bool {
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	t.note(err)
	return false
}

// check books one correctness check; a rejection also marks the run
// incorrect.
func (t *tally) check(err error) bool {
	if t.op(err) {
		return true
	}
	t.checkFailed = true
	return false
}

func (t *tally) note(err error) {
	if len(t.msgs) < 20 {
		t.msgs = append(t.msgs, err.Error())
	}
}

// report is what a workload hands back to main.
type report struct {
	tally
	// setups are the set-up times of every round (seconds).
	setups samples
	// steps, scrapes and ckpts are the timed operations (ms).
	steps, scrapes, ckpts samples
	// delivered cells over timedSec host seconds of timed operations,
	// in total and per round (rates).
	delivered int64
	timedSec  float64
	rates     samples
	// peakRSS is the process's peak resident set right after the timed
	// region, before any differential check runs.
	peakRSS float64
	// layers are the per-layer metrics of a traced run, and ledger the
	// derived per-layer table.
	layers layerSet
	ledger []ledgerRow
}

// endToEnd renders the end-to-end metrics.
func (r *report) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":       {r.setups.quantile(0.5), "s"},
		"cells_per_s":   {r.rates.quantile(0.5), "1/s"},
		"step_p50_ms":   {r.steps.quantile(0.5), "ms"},
		"step_p90_ms":   {r.steps.quantile(0.9), "ms"},
		"peak_rss_mb":   {r.peakRSS, "MB"},
		"scrape_p50_ms": {r.scrapes.quantile(0.5), "ms"},
		"ckpt_p50_ms":   {r.ckpts.quantile(0.5), "ms"},
	}
}

// addRound books the cells a round delivered in its timed operations
// and the host seconds they took.
func (r *report) addRound(delivered int64, sec float64) {
	r.delivered += delivered
	r.timedSec += sec
	if sec > 0 {
		r.rates = append(r.rates, float64(delivered)/sec)
	}
}

// workload is one of the benchmark's workloads.
type workload interface {
	// round runs one whole round: set-up, timed operations, end checks.
	round(cfg runConfig, rep *report, tr *tracer, round int)
	// differential runs the differential checks, outside the timing.
	differential(cfg runConfig, rep *report)
	// ledger measures the layers of a traced run on the inputs of seed.
	ledger(cfg runConfig, rep *report, tr *tracer, seed uint64) layerSet
}

// runWorkload runs whole rounds until the run's seconds have passed, then
// the differential checks, then, in a traced run, the ledger. Each round
// starts from a collected heap, so garbage collection falls at the same
// points of every round. A traced run traces every other round, so the
// same process also measures what tracing costs.
func runWorkload(w workload, cfg runConfig) *report {
	rep := &report{}
	tr := newTracer(cfg.trace)
	var traced, plain samples
	m0 := readMem()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < cfg.seconds; i++ {
		tr.on = cfg.trace && i%2 == 1
		n := len(rep.steps)
		runtime.GC()
		w.round(cfg, rep, tr, i)
		if tr.on {
			traced = append(traced, rep.steps[n:]...)
		} else {
			plain = append(plain, rep.steps[n:]...)
		}
	}
	m1 := readMem()
	rep.peakRSS = peakRSSMB()

	w.differential(cfg, rep)
	if cfg.trace {
		tr.on = true
		rep.layers = w.ledger(cfg, rep, tr, roundSeed(cfg.seed, 1<<20))
		rep.layers.runtimeLayers(m0, m1, traced, plain)
		writeTrace(cfg, tr, rep)
	}
	return rep
}

// summary prints the sample counts behind every figure, ahead of the
// result line.
func (r *report) summary(w io.Writer, name string) {
	fmt.Fprintf(w, "%s: samples: setups=%d rounds=%d steps=%d scrapes=%d checkpoints=%d; delivered=%d in %.3fs timed; attempted=%d failed=%d\n",
		name, len(r.setups), len(r.rates), len(r.steps), len(r.scrapes), len(r.ckpts), r.delivered, r.timedSec, r.attempted, r.failed)
	for _, m := range r.msgs {
		fmt.Fprintf(w, "%s: FAILED %s\n", name, m)
	}
}

// peakRSSMB returns the process's peak resident set size in MB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// memCounters is the slice of runtime.MemStats the per-layer metrics use.
type memCounters struct {
	mallocs uint64
	numGC   uint32
	pauseNS uint64
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{m.Mallocs, m.NumGC, m.PauseTotalNs}
}

// writeResult prints the result object as the last line of stdout.
func writeResult(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// span is one traced call into a layer of the program: its name, start
// and end (ns since the tracer's epoch), the span that caused it, and the
// request it belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. A disabled tracer records nothing and
// costs one branch per call.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// begin opens a span and returns its id (-1 when disabled).
func (t *tracer) begin(name string, parent int, req int64) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name,
		Start: time.Since(t.epoch).Nanoseconds()})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = time.Since(t.epoch).Nanoseconds()
	}
}

// record adds a finished span measured by the caller.
func (t *tracer) record(name string, parent int, req int64, start, end time.Time) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return len(t.spans) - 1
}

// selfTimes sums, per span name, the span durations minus the parts of
// them their child spans cover (children of one parent do not overlap
// here: every traced call is sequential within its parent).
func (t *tracer) selfTimes() map[string]int64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]int64{}
	for i, s := range t.spans {
		self[s.Name] += s.End - s.Start - child[i]
	}
	return self
}

// writeJSONL writes every span, one JSON object per line, followed by
// the per-layer summary lines.
func (t *tracer) writeJSONL(path string, summary []ledgerRow) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, r := range summary {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// ledgerRow is one layer of the derived per-layer table: its self time
// per simulated cycle and its ratio to the layer beneath.
type ledgerRow struct {
	Layer       string  `json:"layer"`
	NSPerCycle  float64 `json:"ns_per_cycle"`
	SelfNS      float64 `json:"self_ns_per_cycle"`
	Beneath     string  `json:"beneath,omitempty"`
	OverBeneath float64 `json:"over_beneath,omitempty"`
}

// printLedger renders the per-layer table for humans.
func printLedger(w io.Writer, rows []ledgerRow) {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-16s %10.1f ns/cycle  self %10.1f", r.Layer, r.NSPerCycle, r.SelfNS)
		if r.Beneath != "" {
			fmt.Fprintf(&b, "  = %.3f x %s", r.OverBeneath, r.Beneath)
		}
		b.WriteByte('\n')
	}
	fmt.Fprint(w, b.String())
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"pipemem/internal/ckpt"
	"pipemem/internal/core"
	"pipemem/internal/obs"
	"pipemem/internal/srv"
)

// serveFleet: the real srv.Manager handler on a loopback httptest
// server, driven by a closed loop of two clients (one per CPU of the
// reference host). Each client owns one 16×16 session at Bernoulli load
// 0.3 and repeats POST /step with a fixed cycle count followed by GET
// /result; every `every` steps it also scrapes GET /metrics and writes
// POST /checkpoint. At light load the tick is cheap, so HTTP, JSON, the
// session lock, telemetry, the exposition and checkpoint encoding
// dominate.
//
// A round starts a server, creates and warms up both sessions (the
// round's set-up), runs the closed loop, steps both sessions to the end
// and checks the final results against in-process runs.
type serveFleet struct {
	clients     int
	warm, batch int64
	steps       int
	every       int
}

const serveLoad, servePorts = 0.3, 16

func (w *serveFleet) sessionConfig(name string, seed uint64) srv.SessionConfig {
	return srv.SessionConfig{
		Name: name, Ports: servePorts, Buf: 256, Load: serveLoad, Seed: seed,
		Cycles: w.warm + int64(w.steps)*w.batch,
	}
}

// httpClient issues the workload's requests and decodes their bodies.
type httpClient struct {
	base string
	c    *http.Client
}

// do sends one request and reads the whole body. A status outside 2xx is
// an error.
func (h *httpClient) do(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, h.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return b, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// stepBody is the part of a POST /step response the checks read.
type stepBody struct {
	Offered   int64 `json:"offered"`
	Delivered int64 `json:"delivered"`
	Dropped   int64 `json:"dropped"`
	Resident  int64 `json:"resident"`
}

// resultBody is a GET /result response.
type resultBody struct {
	State   string         `json:"state"`
	Partial bool           `json:"partial"`
	Result  core.RunResult `json:"result"`
}

// clientRun is one client's share of a round; merged after the round.
type clientRun struct {
	tally
	steps, scrapes, ckpts samples
	delivered             int64
}

// differential checks the core-direct replay against ckpt.Session on a
// prefix of the first round's inputs; the served results are checked in
// every round.
func (w *serveFleet) differential(cfg runConfig, rep *report) {
	spec, err := w.sessionConfig("", roundSeed(cfg.seed, 0)).Spec()
	if rep.op(err) {
		spec.Cycles = w.warm + 4*w.batch
		rep.check(checkReplay(spec, ckpt.Options{}))
	}
}

func (w *serveFleet) round(cfg runConfig, rep *report, tr *tracer, round int) {
	t0 := time.Now()
	m := srv.NewManager(srv.Options{CkptDir: cfg.dir})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()
	h := &httpClient{base: ts.URL, c: ts.Client()}
	cfgs := make([]srv.SessionConfig, w.clients)
	warmDelivered := make([]int64, w.clients)
	for c := range cfgs {
		cfgs[c] = w.sessionConfig(fmt.Sprintf("c%d", c), roundSeed(cfg.seed, round*w.clients+c))
		body, err := json.Marshal(cfgs[c])
		if !rep.op(err) {
			return
		}
		if _, err := h.do("POST", "/sessions", body); !rep.op(err) {
			return
		}
		b, err := h.do("POST", fmt.Sprintf("/sessions/%s/step?cycles=%d", cfgs[c].Name, w.warm), nil)
		if !rep.op(err) {
			return
		}
		var st stepBody
		if !rep.op(json.Unmarshal(b, &st)) {
			return
		}
		warmDelivered[c] = st.Delivered
	}
	rep.setups = append(rep.setups, time.Since(t0).Seconds())

	// Each client keeps its own samples and calls; they are merged, and
	// the calls recorded as spans, once both have finished.
	runs := make([]clientRun, w.clients)
	spans := make([][]timedCall, w.clients)
	var wg sync.WaitGroup
	loop := time.Now()
	for c := range runs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			spans[c] = w.client(h, c, cfgs[c].Name, warmDelivered[c], &runs[c], tr.on)
		}(c)
	}
	wg.Wait()
	root := tr.record("round", -1, int64(round), loop, time.Now())
	for c, calls := range spans {
		for _, sc := range calls {
			tr.record(sc.name, root, int64(round)<<32|int64(c)<<16|int64(sc.i), sc.start, sc.end)
		}
	}

	// The round's throughput is the sum of the clients' step rates: the
	// cells each client's POST /step requests delivered over the host time
	// of those requests.
	var rate float64
	for _, r := range runs {
		rep.delivered += r.delivered
		rep.timedSec += r.steps.sum() / 1e3
		rate += float64(r.delivered) / (r.steps.sum() / 1e3)
	}
	rep.rates = append(rep.rates, rate)
	for c := range runs {
		r := &runs[c]
		rep.attempted += r.attempted
		rep.failed += r.failed
		rep.checkFailed = rep.checkFailed || r.checkFailed
		rep.msgs = append(rep.msgs, r.msgs...)
		rep.steps = append(rep.steps, r.steps...)
		rep.scrapes = append(rep.scrapes, r.scrapes...)
		rep.ckpts = append(rep.ckpts, r.ckpts...)
		if r.failed > 0 {
			return
		}
		w.finish(h, cfg.dir, cfgs[c], rep)
	}
}

// timedCall is one client request, recorded as a span after the round.
type timedCall struct {
	name       string
	i          int
	start, end time.Time
}

// client runs one closed loop: each request is sent when the previous
// one has completed. Client c scrapes and checkpoints every `every` steps
// like the others, offset by its share of that cadence, so two clients'
// checkpoints do not queue for the same directory sync.
func (w *serveFleet) client(h *httpClient, c int, id string, prev int64, r *clientRun, traced bool) []timedCall {
	offset := c * w.every / w.clients
	var calls []timedCall
	timed := func(name string, i int, method, path string) ([]byte, time.Duration, error) {
		t := time.Now()
		b, err := h.do(method, path, nil)
		d := time.Since(t)
		if traced {
			calls = append(calls, timedCall{name, i, t, t.Add(d)})
		}
		return b, d, err
	}
	for i := 0; i < w.steps; i++ {
		b, d, err := timed("http.POST/step", i, "POST", fmt.Sprintf("/sessions/%s/step?cycles=%d", id, w.batch))
		if !r.op(err) {
			return calls
		}
		r.steps = append(r.steps, ms(d))
		var st stepBody
		if !r.op(json.Unmarshal(b, &st)) {
			return calls
		}
		r.delivered += st.Delivered - prev
		prev = st.Delivered
		r.check(checkConservation(st.Offered, st.Delivered, st.Dropped, st.Resident, 0))

		b, _, err = timed("http.GET/result", i, "GET", "/sessions/"+id+"/result")
		if !r.op(err) {
			return calls
		}
		var res resultBody
		if r.op(json.Unmarshal(b, &res)) {
			r.check(checkIntegrity(res.Result.Corrupt))
		}
		if (i+1+offset)%w.every != 0 {
			continue
		}
		if _, d, err = timed("http.GET/metrics", i, "GET", "/metrics"); r.op(err) {
			r.scrapes = append(r.scrapes, ms(d))
		}
		if _, d, err = timed("http.POST/checkpoint", i, "POST", "/sessions/"+id+"/checkpoint"); r.op(err) {
			r.ckpts = append(r.ckpts, ms(d))
		}
	}
	return calls
}

// finish steps a session past its drain and checks the final result: the
// §3.4 bound at this light load, the same spec run in-process through
// ckpt.Session, and the run continued from the session's last
// checkpoint file.
func (w *serveFleet) finish(h *httpClient, dir string, sc srv.SessionConfig, rep *report) {
	// The drain is bounded by (cells+2)·2·stages cycles, well inside
	// one 65536-cycle step.
	if _, err := h.do("POST", fmt.Sprintf("/sessions/%s/step?cycles=%d", sc.Name, 1<<16), nil); !rep.op(err) {
		return
	}
	b, err := h.do("GET", "/sessions/"+sc.Name+"/result", nil)
	if !rep.op(err) {
		return
	}
	var res resultBody
	if !rep.op(json.Unmarshal(b, &res)) {
		return
	}
	if res.State != "done" || res.Partial {
		rep.check(fmt.Errorf("session %s ended %s (partial=%v)", sc.Name, res.State, res.Partial))
		return
	}
	rep.check(checkConservation(res.Result.Offered, res.Result.Delivered, res.Result.Dropped, 0, res.Result.Corrupt))
	rep.check(checkInitDelay(res.Result.MeanInitDelay, serveLoad, servePorts, true))

	spec, err := sc.Spec()
	if !rep.op(err) {
		return
	}
	s, err := ckpt.New(spec, ckpt.Options{})
	if !rep.op(err) {
		return
	}
	want, err := s.Run()
	if !rep.check(err) {
		return
	}
	rep.check(sameResult("served result vs in-process ckpt.Session", res.Result, want))

	resumed, err := ckpt.Resume(filepath.Join(dir, sc.Name+".ckpt"), ckpt.Options{})
	if !rep.op(err) {
		return
	}
	got, err := resumed.Run()
	if rep.check(err) {
		rep.check(sameResult("run continued from the served checkpoint", got, want))
	}
}

// ledger measures the serving stack on one spec: the single-switch
// layers (core, traffic, ckpt.StepN), srv.Session.Step called directly,
// and the same step as a POST /step round trip, each on its own session
// with identical inputs, so every layer does the same simulated work.
func (w *serveFleet) ledger(cfg runConfig, rep *report, tr *tracer, seed uint64) layerSet {
	l := layerSet{}
	sc := w.sessionConfig("direct", seed)
	spec, err := sc.Spec()
	if !rep.op(err) {
		return l
	}
	m := srv.NewManager(srv.Options{CkptDir: cfg.dir})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()
	h := &httpClient{base: ts.URL, c: ts.Client()}
	direct, err := m.Create(sc)
	if !rep.op(err) {
		return l
	}
	sc.Name = "http"
	body, err := json.Marshal(sc)
	if !rep.op(err) {
		return l
	}
	if _, err := h.do("POST", "/sessions", body); !rep.op(err) {
		return l
	}
	var bytesOut, posts int
	srvLayer := &layer{name: "srv.Session.Step", step: func(n int64, _ int) error {
		_, err := direct.Step(n)
		return err
	}}
	httpLayer := &layer{name: "http.POST/step", step: func(n int64, _ int) error {
		b, err := h.do("POST", fmt.Sprintf("/sessions/http/step?cycles=%d", n), nil)
		bytesOut += len(b)
		posts++
		return err
	}}
	// Served sessions carry an observer; so do the ckpt sessions they are
	// compared with.
	options := func(reg *obs.Registry, ports int) ckpt.Options {
		return ckpt.Options{Observer: core.NewObserver(reg, ports)}
	}
	if switchLayers(cfg, rep, tr, l, spec, options, w.warm, w.batch, w.steps, srvLayer, httpLayer) == nil {
		return l
	}
	ckptNS := l["ckpt.over_core"] * (l["core.ns_per_cycle"] + l["traffic.ns_per_cycle"])
	l["srv.over_ckpt"] = srvLayer.nsPerCycle(float64(int64(w.steps)*w.batch)) / ckptNS
	l["srv.http_ms"] = httpLayer.ms.quantile(0.5) - srvLayer.ms.quantile(0.5)
	l["srv.response_bytes"] = float64(bytesOut) / float64(posts)

	regs := []obs.NamedRegistry{{Name: "server", Reg: m.Registry()}}
	for _, s := range m.List() {
		regs = append(regs, obs.NamedRegistry{Name: s.ID(), Reg: s.Registry()})
	}
	l.scrape(rep, func(b *bytes.Buffer) error { return obs.WritePrometheusSet(b, "session", regs) })
	return l
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// tracer keeps a traced run's spans and per-layer call counters in memory.
// Phase and run spans are recorded individually; the millions of calls a
// sweep makes into a layer (Generator.Next, Submitter.Submit, ...) are
// aggregated per layer instead. Both are timed from the benchmark's own
// code, around calls into each layer's public functions.
//
// A tracer is not safe for concurrent use: every traced phase runs on one
// goroutine.
type tracer struct {
	epoch  time.Time
	spans  []span
	open   []int // stack of open spans
	layers map[string]*layerStat
	frames []frame // stack of open per-call frames
}

// span is one run- or phase-level interval; Parent is -1 for the root.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// layerStat aggregates the calls into one layer. SelfNs excludes the time
// spent in nested calls into other traced layers.
type layerStat struct {
	Calls   uint64 `json:"calls"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

type frame struct {
	st      *layerStat
	start   int64
	childNs int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), layers: map[string]*layerStat{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span nested in the innermost open span.
func (t *tracer) begin(name string) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, StartNs: t.now(), Parent: parent})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].EndNs = t.now()
	return time.Duration(t.spans[i].EndNs - t.spans[i].StartNs)
}

// layer returns the counter of the named layer, creating it.
func (t *tracer) layer(name string) *layerStat {
	st := t.layers[name]
	if st == nil {
		st = &layerStat{}
		t.layers[name] = st
	}
	return st
}

// enter starts one call into a layer; exit ends the innermost one.
func (t *tracer) enter(st *layerStat) {
	t.frames = append(t.frames, frame{st: st, start: t.now()})
}

func (t *tracer) exit() {
	n := len(t.frames) - 1
	f := t.frames[n]
	t.frames = t.frames[:n]
	d := t.now() - f.start
	f.st.Calls++
	f.st.TotalNs += d
	f.st.SelfNs += d - f.childNs
	if n > 0 {
		t.frames[n-1].childNs += d
	}
}

// resetLayers zeroes every layer counter, so that they cover only what
// follows.
func (t *tracer) resetLayers() {
	for _, st := range t.layers {
		*st = layerStat{}
	}
}

// meanNs is the mean inclusive time per call of a layer, 0 when uncalled.
func (st *layerStat) meanNs() float64 {
	if st == nil || st.Calls == 0 {
		return 0
	}
	return float64(st.TotalNs) / float64(st.Calls)
}

// selfSeconds lists every layer's self time, for the human-readable output.
func (t *tracer) selfSeconds() []string {
	names := make([]string, 0, len(t.layers))
	for n := range t.layers {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, n := range names {
		st := t.layers[n]
		out[i] = fmt.Sprintf("layer %s: calls=%d self_s=%.6f total_s=%.6f", n, st.Calls, float64(st.SelfNs)/1e9, float64(st.TotalNs)/1e9)
	}
	return out
}

// writeFile writes the spans and layer counters as JSON.
func (t *tracer) writeFile(path string, h host, workload string, seed uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Host     host                  `json:"host"`
		Workload string                `json:"workload"`
		Seed     uint64                `json:"seed"`
		Spans    []span                `json:"spans"`
		Layers   map[string]*layerStat `json:"layers"`
	}{h, workload, seed, t.spans, t.layers}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Command bench is the repository's end-to-end benchmark. It runs one named
// workload at a given seed for a given number of seconds, checks the
// program's outputs, and prints every metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (measured with no
// tracing); with --trace 1 the same workload runs again with spans and
// per-call counters around each layer's public functions, and the metrics
// are the per-layer ones plus the tracing overhead. Spans are kept in
// memory and written to .bench_build/trace/ at exit.
//
// Run it through run.sh, which builds it from source:
//
//	bash _bench/run.sh --workload sweep --seed 1 --seconds 45 --trace 0
//
// README.md in this directory records why each workload was chosen and
// which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// defaultSeed is the seed whose sweep digest is pinned by the golden file.
const defaultSeed = 1

// runners are a workload's untraced and traced runs.
type runners struct {
	run, traced func(seed uint64, seconds float64) *report
}

var workloads = map[string]runners{
	"sweep":        {runSweep, traceSweep},
	"image-stream": imageRunners(streamImage),
}

func main() {
	name := flag.String("workload", "", "workload: sweep or image-stream")
	seed := flag.Uint64("seed", defaultSeed, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 45, "how long the timed phase measures")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: need --workload sweep|image-stream, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	h := hostInfo()
	hb, _ := json.Marshal(h) // a struct of strings and ints always marshals
	fmt.Printf("host %s\n", hb)

	var r *report
	if *trace == 1 {
		r = w.traced(*seed, *seconds)
	} else {
		r = w.run(*seed, *seconds)
	}
	r.print()
	if r.trace != nil {
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := r.trace.writeFile(path, h, *name, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "bench: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s\n", path)
	}
	if err := r.emit(os.Stdout); err != nil {
		os.Exit(1)
	}
}

// host identifies the machine a result was measured on, so that a run at
// GOMAXPROCS=1 is labelled rather than mistaken for a parallel one.
type host struct {
	CPU          string `json:"cpu"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	SweepWorkers int    `json:"sweep_workers"`
}

func hostInfo() host {
	h := host{
		CPU:          runtime.GOARCH,
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		SweepWorkers: sweepWorkers(),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one benchmark run.
type report struct {
	attempted, failed uint64
	metrics           map[string]metric
	// notes are human-readable lines (sample counts, digests, per-scheme
	// means) printed before the result line.
	notes []string
	trace *tracer
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check counts one output check as an attempted operation, and as a failed
// one when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.note("CHECK FAILED: "+format, args...)
	}
}

func (r *report) print() {
	for _, n := range r.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %16.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
}

// emit writes the result line: correct, attempted, failed and metrics.
func (r *report) emit(f *os.File) error {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, r.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", b)
	return err
}

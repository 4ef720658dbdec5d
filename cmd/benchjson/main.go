// Command benchjson converts `go test -bench` output on stdin into the
// machine-readable smoke-benchmark record BENCH_smoke.json, so perf
// regressions across the scale-out arc are diffable by tooling instead of
// eyeballed from CI logs:
//
//	go test -bench 'BenchmarkSweepWorkers' -benchtime 1x -benchmem . \
//	    | go run ./cmd/benchjson -sha "$(git rev-parse HEAD)" -o BENCH_smoke.json
//
// Each benchmark result line becomes one record carrying the parsed name
// (worker count for the SweepWorkers pair, plus the scheme set those
// benchmarks sweep), iterations, ns/op, and the -benchmem allocation
// counters; the envelope stamps the git SHA, the toolchain version and
// the host identity `go test` prints (cpu, goos, goarch), so records from
// different machines are not compared as if they were one.
//
// With -mutation <mgmutate-report.json> the envelope also carries a
// mutation_score record distilled from the mgmutate report (seed, sample
// size, total and per-package kill percentages), so the committed
// BENCH_*.json trajectory tracks test-suite adequacy alongside raw
// performance.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Record is one benchmark result line.
type Record struct {
	// Name is the benchmark name without the Benchmark prefix and -procs
	// suffix (e.g. "SweepWorkers1").
	Name string `json:"name"`
	// Scheme names the protection scheme set the benchmark sweeps, when
	// the name implies one ("" otherwise).
	Scheme string `json:"scheme,omitempty"`
	// Workers is the sweep worker-pool size the name encodes (0 when the
	// benchmark has no worker dimension).
	Workers int `json:"workers,omitempty"`
	// Procs is GOMAXPROCS at run time (the -N name suffix).
	Procs       int     `json:"procs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// MutationScore summarizes one mgmutate run (see internal/mutate): the
// sampled mutation-kill percentages that measure how adequate the test
// suite is, not how fast the code is. Packages maps import path to score;
// encoding/json emits map keys sorted, keeping the envelope diffable.
type MutationScore struct {
	Seed     uint64             `json:"seed"`
	Sample   int                `json:"sample"`
	Total    float64            `json:"total"`
	Packages map[string]float64 `json:"packages"`
}

// Host identifies the machine the benchmarks ran on, from the header
// lines `go test -bench` prints.
type Host struct {
	CPU    string `json:"cpu"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
}

// File is the BENCH_smoke.json envelope.
type File struct {
	GitSHA        string         `json:"git_sha"`
	GoVersion     string         `json:"go_version"`
	Host          Host           `json:"host"`
	Results       []Record       `json:"results"`
	MutationScore *MutationScore `json:"mutation_score,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stderr))
}

func run(args []string, stdin io.Reader, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sha := fs.String("sha", "", "git commit SHA to stamp into the record")
	out := fs.String("o", "BENCH_smoke.json", "output file")
	mutation := fs.String("mutation", "", "fold this mgmutate report into a mutation_score record")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	f, err := Parse(stdin)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	if len(f.Results) == 0 {
		fmt.Fprintln(stderr, "benchjson: no benchmark result lines on stdin")
		return 1
	}
	if *mutation != "" {
		ms, err := readMutation(*mutation)
		if err != nil {
			fmt.Fprintln(stderr, "benchjson:", err)
			return 1
		}
		f.MutationScore = ms
	}
	f.GitSHA = *sha
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	return 0
}

// readMutation distills an mgmutate JSON report into the envelope's
// mutation_score record. Only the fields benchjson needs are decoded, so
// the report schema can grow without touching this tool.
func readMutation(path string) (*MutationScore, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep struct {
		Seed     uint64 `json:"seed"`
		Sample   int    `json:"sample"`
		Packages []struct {
			Path  string  `json:"path"`
			Score float64 `json:"score"`
		} `json:"packages"`
		Total struct {
			Score float64 `json:"score"`
		} `json:"total"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	ms := &MutationScore{
		Seed: rep.Seed, Sample: rep.Sample, Total: rep.Total.Score,
		Packages: map[string]float64{},
	}
	for _, p := range rep.Packages {
		ms.Packages[p.Path] = p.Score
	}
	return ms, nil
}

// Parse extracts benchmark result lines from `go test -bench` output,
// preserving input order, and the host identity from its header lines.
func Parse(r io.Reader) (*File, error) {
	f := &File{GoVersion: runtime.Version()}
	header := map[string]*string{"cpu": &f.Host.CPU, "goos": &f.Host.GOOS, "goarch": &f.Host.GOARCH}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ": "); ok && header[k] != nil {
			*header[k] = strings.TrimSpace(v)
			continue
		}
		rec, ok := parseLine(sc.Text())
		if ok {
			f.Results = append(f.Results, rec)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return f, nil
}

// parseLine parses one `BenchmarkName-P  N  X ns/op ... B/op ... allocs/op`
// line; non-result lines return ok=false.
func parseLine(line string) (Record, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Record{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Record{}, false
	}
	rec := Record{Iterations: iters}
	rec.Name, rec.Procs = splitProcs(strings.TrimPrefix(fields[0], "Benchmark"))
	rec.Scheme, rec.Workers = nameDimensions(rec.Name, rec.Procs)
	// The rest of the line is (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Record{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			rec.NsPerOp = v
		case "B/op":
			rec.BytesPerOp = v
		case "allocs/op":
			rec.AllocsPerOp = v
		}
	}
	if rec.NsPerOp == 0 && rec.Iterations == 0 {
		return Record{}, false
	}
	return rec, true
}

// splitProcs splits the trailing -GOMAXPROCS suffix off a benchmark name.
func splitProcs(name string) (string, int) {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name, 1
	}
	p, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return name, 1
	}
	return name[:i], p
}

// nameDimensions recovers the scheme set and worker count a benchmark name
// encodes. The SweepWorkers pair (bench_test.go) sweeps Conventional and
// Ours; "Max" means one worker per CPU.
func nameDimensions(name string, procs int) (string, int) {
	rest, ok := strings.CutPrefix(name, "SweepWorkers")
	if !ok {
		return "", 0
	}
	if rest == "Max" {
		return "conventional+ours", procs
	}
	if w, err := strconv.Atoi(rest); err == nil {
		return "conventional+ours", w
	}
	return "conventional+ours", 0
}

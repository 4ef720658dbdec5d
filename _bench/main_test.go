package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"unimem"
	"unimem/internal/core"
	"unimem/internal/hetero"
	"unimem/internal/meta"
)

// tinySweep is a one-scenario sweep at a very small scale.
func tinySweep(t *testing.T, seed uint64) []hetero.SweepResult {
	t.Helper()
	cfg := sweepConfig(seed, 0)
	cfg.Scale = 0.005
	rs, _, lat, err := timedSweep(hetero.SampleScenarios(sweepScenarios)[:1], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + len(sweepSchemes); len(lat) != want {
		t.Fatalf("timed %d runs, want %d", len(lat), want)
	}
	return rs
}

func TestDigestCheckTripsOnWrongGolden(t *testing.T) {
	rs := tinySweep(t, 7)
	r := newReport()
	checkDigest(r, defaultSeed, rs, sweepDigest(rs))
	if r.failed != 0 || r.attempted != 1 {
		t.Fatalf("matching golden: attempted=%d failed=%d", r.attempted, r.failed)
	}
	r = newReport()
	checkDigest(r, defaultSeed, rs, "0123456789abcdef0123456789abcdef")
	if r.failed != 1 {
		t.Fatalf("wrong golden: failed=%d, want 1", r.failed)
	}
	r = newReport()
	checkDigest(r, defaultSeed+1, rs, "0123456789abcdef0123456789abcdef")
	if r.attempted != 0 {
		t.Fatal("a seed other than the default must only print its digest")
	}
}

func TestIdenticalSeedsGiveIdenticalDigestsAndCounts(t *testing.T) {
	if a, b := sweepDigest(tinySweep(t, 11)), sweepDigest(tinySweep(t, 11)); a != b {
		t.Fatalf("digests differ: %s vs %s", a, b)
	}
	if a, b := sweepDigest(tinySweep(t, 11)), sweepDigest(tinySweep(t, 12)); a == b {
		t.Fatal("different seeds gave the same digest")
	}
	sc := hetero.SampleScenarios(sweepScenarios)[0]
	cfg := sweepConfig(3, 0)
	cfg.Scale = 0.005
	var c1, c2 simCounts
	reconstruct(newTracer(), sc, core.Ours, cfg, &c1)
	reconstruct(newTracer(), sc, core.Ours, cfg, &c2)
	if c1 != c2 || c1.events == 0 {
		t.Fatalf("simulated counts differ or are empty: %+v vs %+v", c1, c2)
	}
}

func TestReconstructionMatchesRunAndTripsOnMismatch(t *testing.T) {
	sc := hetero.SampleScenarios(sweepScenarios)[5]
	cfg := sweepConfig(5, 0)
	cfg.Scale = 0.005
	for _, s := range append([]core.Scheme{core.Unsecure}, sweepSchemes...) {
		var c simCounts
		got := reconstruct(newTracer(), sc, s, cfg, &c)
		want := hetero.Run(sc, s, cfg)
		if d := runDiff(got, want); d != "" {
			t.Fatalf("%v: rebuilt run differs from hetero.Run: %s", s, d)
		}
		want.Devices[1].FinishPs++
		if runDiff(got, want) == "" {
			t.Fatalf("%v: a changed finish time went unnoticed", s)
		}
		want.Devices[1].FinishPs--
		want.MetaBytes += 64
		if runDiff(got, want) == "" {
			t.Fatalf("%v: changed metadata traffic went unnoticed", s)
		}
	}
	other := cfg
	other.Seed++
	var c simCounts
	if runDiff(reconstruct(newTracer(), sc, core.Ours, other, &c), hetero.Run(sc, core.Ours, cfg)) == "" {
		t.Fatal("a run rebuilt with another seed matched")
	}
}

// randomOps yields cycles of two reads and one write at uniform random
// blocks.
type randomOps struct {
	r      *rng
	blocks int
}

func (s *randomOps) cycle() []op {
	ops := []op{{write: false}, {write: false}, {write: true}}
	shuffle(s.r, ops)
	for i := range ops {
		ops[i].addr = uint64(s.r.intn(s.blocks)) * meta.BlockSize
	}
	return ops
}

// tinyImage is a two-chunk image written sequentially and accessed at
// random blocks.
var tinyImage = imageSpec{
	name: "tiny",
	size: 2 * meta.ChunkSize,
	setup: func(x *imageRun, seed uint64) {
		for a := uint64(0); a < 2*meta.ChunkSize; a += meta.BlockSize {
			x.write(a)
		}
	},
	ops:     func(seed uint64) opSource { return &randomOps{r: newRNG(seed), blocks: 2 * meta.BlocksPerChunk} },
	targets: []meta.Gran{meta.Gran32K},
}

func TestReadCheckTripsOnTamperedImage(t *testing.T) {
	p, x := setupProtected(tinyImage, 3)
	x.timed(tinyImage.ops(3), 0, 20)
	if x.failed != 0 {
		t.Fatalf("clean image: %v", x.firstErr)
	}
	p.TamperData(64 * 7)
	x.read(64 * 7)
	if x.failed != 1 {
		t.Fatalf("tampered image: %d failures, want 1", x.failed)
	}
	// A plaintext that differs from the shadow copy is a failure too.
	_, x = setupProtected(tinyImage, 3)
	x.shadow[64*9] ^= 1
	x.read(64 * 9)
	if x.failed != 1 {
		t.Fatalf("shadow mismatch: %d failures, want 1", x.failed)
	}
}

// lazyVerify is a Protected whose Verify skips verification.
type lazyVerify struct{ *unimem.Protected }

func (lazyVerify) Verify(uint64) error { return nil }

func TestTamperChecksTripWhenVerificationIsSkipped(t *testing.T) {
	p, _ := setupProtected(tinyImage, 4)
	r := newReport()
	tamperChecks(r, p, tinyImage.size, 4)
	if r.attempted == 0 || r.failed != 0 {
		t.Fatalf("honest image: attempted=%d failed=%d %v", r.attempted, r.failed, r.notes)
	}
	r = newReport()
	tamperChecks(r, lazyVerify{p}, tinyImage.size, 4)
	if r.failed == 0 {
		t.Fatal("skipped verification went unnoticed")
	}
}

func TestTracedImageMatchesProtected(t *testing.T) {
	r := traceImage(tinyImage, 6, 0.05)
	if r.failed != 0 || r.attempted == 0 {
		t.Fatalf("attempted=%d failed=%d: %v", r.attempted, r.failed, r.notes)
	}
	if r.metrics["secmem.ops.g32k"].Value == 0 || r.metrics["crypto.block_mac_ns"].Value == 0 {
		t.Fatalf("per-layer metrics missing: %v", r.metrics)
	}
	for _, m := range perLayer {
		if _, ok := r.metrics[m.name]; !ok {
			t.Errorf("traced run lacks %s", m.name)
		}
	}
}

func TestSaveDigestTripsOnDifferentOps(t *testing.T) {
	p, _ := setupProtected(tinyImage, 8)
	q, y := setupProtected(tinyImage, 8)
	a, _ := saveDigest(p)
	b, _ := saveDigest(q)
	if a != b {
		t.Fatal("identical set-ups saved different images")
	}
	y.write(0)
	if c, _ := saveDigest(q); c == a {
		t.Fatal("a write did not change the saved image")
	}
}

func TestStreamWorkloadLandsOnItsGranularities(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up the full image-stream image")
	}
	ti := newTracedImage(streamImage.size, imageKey(2), newTracer())
	x := newImageRun(ti, streamImage.size, 2)
	streamImage.setup(x, 2)
	ti.FlushDetection()
	for c := 0; c < streamA; c++ {
		if g := ti.mem.GranOf(uint64(c) * meta.ChunkSize); g != meta.Gran32K {
			t.Fatalf("32KB-region chunk %d at %v after set-up", c, g)
		}
	}
	src := newStreamOps(2)
	for c := 0; c < streamB; c++ {
		if g := ti.mem.GranOf(src.spanBase(c, src.hot[c])); g != meta.Gran4K {
			t.Fatalf("hot span of chunk %d at %v after set-up", c, g)
		}
	}
	ti.ops = [4]uint64{}
	x.timed(src, 0, 2)
	if x.failed != 0 || ti.ops[meta.Gran4K] == 0 || ti.ops[meta.Gran32K] == 0 || ti.switches == 0 {
		t.Fatalf("failed=%d ops=%v switches=%d", x.failed, ti.ops, ti.switches)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables in step with the
// BENCHMARK.json the runs are judged against.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside this directory")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	type nu = struct{ name, unit string }
	var e2e, layers []nu
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, nu{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, nu{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, benchmark reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer %v, benchmark reports %v", layers, perLayer)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
}

// TestLatHistQuantiles checks the histogram's percentiles against exact
// ones, on a two-mode sample like the image workloads' latencies.
func TestLatHistQuantiles(t *testing.T) {
	var h latHist
	if h.quantile(0.5) != 0 {
		t.Fatal("an empty histogram must read 0")
	}
	var xs []float64
	r := newRNG(9)
	for i := 0; i < 20000; i++ {
		us := 10 + float64(r.intn(1000))/100 // 10-20 us
		if i%3 == 0 {
			us = 1000 + float64(r.intn(100000))/100 // 1-2 ms
		}
		xs = append(xs, us)
		h.add(us)
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		want := xs[int(q*float64(len(xs)))]
		if got := h.quantile(q); math.Abs(got-want) > 0.006*want {
			t.Errorf("q=%g: got %g us, want %g us within 0.6%%", q, got, want)
		}
	}
}

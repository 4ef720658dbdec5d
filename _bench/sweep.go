package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"unimem/internal/cache"
	"unimem/internal/core"
	"unimem/internal/cpu"
	"unimem/internal/device"
	"unimem/internal/gpu"
	"unimem/internal/hetero"
	"unimem/internal/mem"
	"unimem/internal/npu"
	"unimem/internal/probe"
	"unimem/internal/sim"
	"unimem/internal/workload"
)

const (
	// sweepScale multiplies trace lengths. At 0.1 one 24-scenario sweep
	// (192 scenario-runs) takes about 4 s on one worker of a 2-vCPU Xeon,
	// so a 45 s run measures about ten sweeps and reports their median.
	sweepScale     = 0.1
	sweepScenarios = 24
)

// sweepSchemes are the schemes of the Fig. 15 comparison; SweepParallel
// adds each scenario's Unsecure baseline.
var sweepSchemes = []core.Scheme{
	core.Conventional, core.StaticDeviceBest, core.Adaptive, core.CommonCTR,
	core.Ours, core.BMFUnused, core.BMFUnusedOurs,
}

// goldenDigest pins the simulated results of the first sweep at the
// default seed. Regenerate it from the digest a --seed 1 run prints.
//
//go:embed testdata/sweep-seed1.digest
var goldenDigest string

// sweepWorkers is one: a second worker on a 2-vCPU shared host competes
// with the first and with the garbage collector for cores, caches and
// memory bandwidth, which made runs of the same code spread by 17-21%.
func sweepWorkers() int { return 1 }

// sweepConfig is the configuration of sweep j of a run. Each sweep gets its
// own simulation seed, so each starts with a cold warmup memo, as every
// mgbench invocation does.
func sweepConfig(seed uint64, j int) hetero.Config {
	return hetero.Config{Scale: sweepScale, Seed: mix(seed) + uint64(j), RegionBytes: 4 << 30}
}

// timedSweep runs one parallel sweep and returns its results, its wall time
// and the host time of each scenario-run in microseconds. A run's time
// starts when SweepParallel asks for its probe (after any Static-device-
// best warmup) and ends at its progress report; both happen on the worker
// goroutine executing the run. The probe itself stays nil, so the
// simulation runs exactly as untraced.
func timedSweep(scs []hetero.Scenario, cfg hetero.Config) ([]hetero.SweepResult, time.Duration, []float64, error) {
	var mu sync.Mutex
	starts := map[uint64]time.Time{}
	var lat []float64
	cfg.NewProbe = func(hetero.Scenario, core.Scheme) probe.Probe {
		id, now := goid(), time.Now()
		mu.Lock()
		starts[id] = now
		mu.Unlock()
		return nil
	}
	opts := hetero.SweepOptions{Workers: sweepWorkers(), Progress: func(hetero.SweepProgress) {
		now, id := time.Now(), goid()
		mu.Lock()
		if s, ok := starts[id]; ok {
			lat = append(lat, micros(now.Sub(s)))
			delete(starts, id)
		}
		mu.Unlock()
	}}
	t0 := time.Now()
	rs, err := hetero.SweepParallel(context.Background(), scs, sweepSchemes, cfg, opts)
	return rs, time.Since(t0), lat, err
}

// runSweep is the untraced sweep workload.
func runSweep(seed uint64, seconds float64) *report {
	r := newReport()
	var scs []hetero.Scenario
	// Set-up builds the inputs and runs one single-scenario sweep, which
	// brings the heap and the memo to steady state. It takes about 0.1 s,
	// so it is repeated nine times, each with its own seed and each after a
	// collection, so that none starts with the last one's garbage, and the
	// median reported.
	var setups []float64
	for k := 1; k <= 9; k++ {
		runtime.GC()
		t0 := time.Now()
		scs = hetero.SampleScenarios(sweepScenarios)
		_, _, _, err := timedSweep(scs[:1], sweepConfig(seed, -k))
		r.check(err == nil, "set-up sweep: %v", err)
		setups = append(setups, time.Since(t0).Seconds())
	}

	alloc0 := totalAlloc()
	var ws []window
	var hist latHist
	var wall time.Duration
	runs := 0
	for j := 0; j == 0 || wall.Seconds() < seconds; j++ {
		rs, d, lat, err := timedSweep(scs, sweepConfig(seed, j))
		n := len(scs) * (1 + len(sweepSchemes)) // baselines included
		r.attempted += uint64(n)
		wall += d
		if err != nil {
			r.failed += uint64(n)
			r.note("CHECK FAILED: sweep %d: %v", j, err)
			continue
		}
		runs += n
		ws = append(ws, window{ops: n, wall: d})
		for _, us := range lat {
			hist.add(us)
		}
		if j == 0 {
			checkDigest(r, seed, rs, goldenDigest)
		}
	}
	allocs := totalAlloc() - alloc0

	r.note("sweep: scale=%g scenarios=%d runs=%d sweeps=%d workers=%d wall_s=%.3f", sweepScale, len(scs), runs, len(ws), sweepWorkers(), wall.Seconds())
	setEndToEnd(r, ws, &hist, float64(allocs)/float64(max(runs, 1)), median(setups))
	r.note("runs_per_s=%.4f (1/s, median over %d sweeps)", r.metrics["ops_per_s"].Value, len(ws))
	return r
}

// checkDigest prints the digest of a sweep and the mean normalized time of
// each scheme, and at the default seed checks the digest against golden.
func checkDigest(r *report, seed uint64, rs []hetero.SweepResult, golden string) {
	d := sweepDigest(rs)
	r.note("sweep digest (first sweep, seed %d): %s", seed, d)
	var means []string
	for _, s := range sweepSchemes {
		means = append(means, fmt.Sprintf("%v=%.4f", s, hetero.MeanAcross(rs, s)))
	}
	r.note("mean normalized time: %s", strings.Join(means, " "))
	if seed == defaultSeed {
		g := strings.TrimSpace(golden)
		r.check(d == g, "sweep digest %s differs from golden %s", d, g)
	}
}

// sweepDigest hashes every simulated result of a sweep: device finish
// times and issue counts, traffic, cache misses, switches, walk lengths and
// detections. Host timing never enters it.
func sweepDigest(rs []hetero.SweepResult) string {
	h := sha256.New()
	for _, sr := range rs {
		writeRun(h, sr.Unsecure)
		for _, s := range sweepSchemes {
			writeRun(h, sr.ByScheme[s].Raw)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

func writeRun(w io.Writer, r hetero.RunResult) {
	fmt.Fprintf(w, "%s|%v|", r.Scenario.ID, r.Scheme)
	for _, d := range r.Devices {
		fmt.Fprintf(w, "%s,%d,%d;", d.Name, d.FinishPs, d.Issued)
	}
	fmt.Fprintf(w, "|%d|%d|%d|%d|%+v|%x|%d\n", r.TotalBytes, r.DataBytes, r.MetaBytes,
		r.SecCacheMisses, r.Switches, math.Float64bits(r.MeanWalk), r.Detections)
}

// runDiff describes the first difference between two run results, or
// returns "" when they agree on every simulated quantity.
func runDiff(got, want hetero.RunResult) string {
	if got.Err != nil || want.Err != nil {
		return fmt.Sprintf("errors: got %v, want %v", got.Err, want.Err)
	}
	if len(got.Devices) != len(want.Devices) {
		return fmt.Sprintf("%d devices, want %d", len(got.Devices), len(want.Devices))
	}
	for i := range got.Devices {
		if got.Devices[i] != want.Devices[i] {
			return fmt.Sprintf("device %d: %+v, want %+v", i, got.Devices[i], want.Devices[i])
		}
	}
	var a, b strings.Builder
	writeRun(&a, got)
	writeRun(&b, want)
	if a.String() != b.String() {
		return fmt.Sprintf("%q, want %q", a.String(), b.String())
	}
	return ""
}

// simCounts aggregates the simulated per-layer counts of rebuilt runs.
type simCounts struct {
	events               uint64
	walkLevels, walks    uint64
	hits, misses         [3]uint64 // metadata, MAC, granularity-table caches
	dataBytes, metaBytes uint64
	rowHitSum            float64
	runs                 uint64
	switches, detections uint64
	requests             uint64
}

// tracedGen times each Next call of a workload generator.
type tracedGen struct {
	workload.Generator
	t  *tracer
	st *layerStat
	n  *uint64
}

func (g *tracedGen) Next() (workload.Request, bool) {
	g.t.enter(g.st)
	r, ok := g.Generator.Next()
	g.t.exit()
	if ok {
		*g.n++
	}
	return r, ok
}

// tracedSubmitter times each Submit into the protection engine and each
// completion callback the engine later invokes.
type tracedSubmitter struct {
	en               *core.Engine
	t                *tracer
	submit, complete *layerStat
}

func (s *tracedSubmitter) Submit(r core.Request, done func(sim.Time)) {
	s.t.enter(s.submit)
	s.en.Submit(r, func(at sim.Time) {
		s.t.enter(s.complete)
		done(at)
		s.t.exit()
	})
	s.t.exit()
}

// reconstruct rebuilds hetero.Run's simulation of (sc, scheme) from public
// constructors, with the generators and the engine wrapped, and drives the
// event loop itself. It must reproduce hetero.Run exactly; the caller
// compares the two.
func reconstruct(t *tracer, sc hetero.Scenario, scheme core.Scheme, cfg hetero.Config, c *simCounts) hetero.RunResult {
	specs := sc.Devices()
	opts := cfg.Engine
	opts.Devices = len(specs)
	if scheme == core.StaticDeviceBest {
		opts.StaticGran = hetero.BestStaticGrans(sc, cfg)
	}
	eng := sim.NewEngine()
	mm := mem.New(eng, cfg.FilledMem())
	en := core.New(eng, mm, cfg.RegionBytes, scheme, opts)
	sub := &tracedSubmitter{en: en, t: t, submit: t.layer("core.Submit"), complete: t.layer("device.complete")}

	res := hetero.RunResult{Scenario: sc, Scheme: scheme, Devices: make([]hetero.DeviceResult, len(specs))}
	devs := make([]*device.Issuer, len(specs))
	for i, spec := range specs {
		g, err := workload.ByName(spec.Workload, cfg.Scale, cfg.Seed+uint64(i)*7919)
		if err != nil {
			res.Err = err
			return res
		}
		gen := &tracedGen{Generator: g, t: t, st: t.layer("workload.Next"), n: &c.requests}
		base := uint64(i) << 30 // each device owns a 1GB quadrant
		switch spec.Class {
		case workload.CPU:
			devs[i] = cpu.New(eng, sub, gen, i, base).Issuer
		case workload.GPU:
			devs[i] = gpu.New(eng, sub, gen, i, base).Issuer
		default:
			devs[i] = npu.New(eng, sub, gen, i, base).Issuer
		}
	}
	for _, d := range devs {
		d.Start()
	}
	t.enter(t.layer("sim.loop"))
	for eng.Step() {
	}
	t.exit()
	en.Finish()

	for i, d := range devs {
		if !d.Done() && res.Err == nil {
			res.Err = fmt.Errorf("device %s never drained", d.Name())
		}
		res.Devices[i] = hetero.DeviceResult{Name: d.Name(), Class: specs[i].Class, FinishPs: d.FinishTime(), Issued: d.Stats.Issued}
	}
	res.TotalBytes = mm.Stats.Bytes()
	res.DataBytes = mm.Stats.BytesKind(mem.Data)
	res.MetaBytes = mm.Stats.MetadataBytes()
	res.SecCacheMisses = en.SecurityCacheMisses()
	res.Switches = en.Stats.Switches
	res.MeanWalk = en.MeanWalkLevels()
	res.Detections = en.Stats.Detections

	c.runs++
	c.events += eng.Executed
	c.walkLevels += en.Stats.WalkLevels
	c.walks += en.Stats.Reads + en.Stats.Writes
	metaC, macC, gtC := en.CacheStats()
	for k, st := range []*cache.Stats{metaC, macC, gtC} {
		if st != nil {
			c.hits[k] += st.Hits
			c.misses[k] += st.Misses
		}
	}
	c.dataBytes += res.DataBytes
	c.metaBytes += res.MetaBytes
	c.rowHitSum += mm.RowHitRate()
	sw := en.Stats.Switches
	c.switches += sw.DownAll + sw.UpWAR + sw.UpWAW + sw.UpRAR + sw.UpRAW + sw.MACDownRO + sw.MACDownRW + sw.MACUpLazy
	c.detections += en.Stats.Detections
	return res
}

// traceSweep is the traced sweep workload: a cold warmup phase, one
// untraced reference sweep, a traced rebuild of a subset of its runs
// (checked against the reference), and a Collect on/off comparison.
func traceSweep(seed uint64, seconds float64) *report {
	r := newReport()
	t := newTracer()
	r.trace = t
	setPerLayerZero(r)
	scs := hetero.SampleScenarios(sweepScenarios)
	cfg := sweepConfig(seed, 0)
	t.begin("run")
	defer t.end()

	t.begin("warmup")
	for _, sc := range scs {
		hetero.BestStaticGrans(sc, cfg)
	}
	r.set("hetero.warmup_s", t.end().Seconds(), "s")

	t.begin("reference-sweep")
	rs, wall, lat, err := timedSweep(scs, cfg)
	t.end()
	r.check(err == nil, "reference sweep: %v", err)
	if err != nil {
		return r
	}
	checkDigest(r, seed, rs, goldenDigest)
	busy := 0.0
	for _, l := range lat {
		busy += l / 1e6
	}
	r.set("hetero.pool_utilization", busy/(float64(sweepWorkers())*wall.Seconds()), "ratio")

	ref := map[string]hetero.RunResult{}
	for _, sr := range rs {
		ref[sr.Scenario.ID+"/"+core.Unsecure.String()] = sr.Unsecure
		for _, s := range sweepSchemes {
			ref[sr.Scenario.ID+"/"+s.String()] = sr.ByScheme[s].Raw
		}
	}
	t.begin("reconstruct")
	var c simCounts
	var traced, plain time.Duration
	schemes := append([]core.Scheme{core.Unsecure}, sweepSchemes...)
	for _, sc := range scs {
		for _, s := range schemes {
			key := sc.ID + "/" + s.String()
			t0 := time.Now()
			hetero.Run(sc, s, cfg)
			plain += time.Since(t0)
			t.begin(key)
			got := reconstruct(t, sc, s, cfg, &c)
			traced += t.end()
			diff := runDiff(got, ref[key])
			r.check(diff == "", "rebuilt run %s differs from hetero.Run: %s", key, diff)
		}
	}
	t.end()
	r.note("rebuilt %d runs from public constructors; all compared with hetero.Run", c.runs)

	t.begin("collect-on-off")
	var on, off time.Duration
	for rep := 0; rep < 2; rep++ {
		for _, s := range schemes {
			for _, collect := range []bool{false, true} {
				cc := cfg
				cc.Collect = collect
				t0 := time.Now()
				hetero.Run(scs[0], s, cc)
				if collect {
					on += time.Since(t0)
				} else {
					off += time.Since(t0)
				}
			}
		}
	}
	t.end()

	loop := t.layer("sim.loop")
	r.set("sim.events", float64(c.events), "count")
	r.set("sim.ns_per_event", float64(loop.TotalNs)/float64(max(c.events, 1)), "ns")
	r.set("sim.loop_self_s", float64(loop.SelfNs)/1e9, "s")
	r.set("workload.next_ns", t.layer("workload.Next").meanNs(), "ns")
	r.set("workload.requests", float64(c.requests), "count")
	r.set("core.submit_ns", t.layer("core.Submit").meanNs(), "ns")
	r.set("device.complete_ns", t.layer("device.complete").meanNs(), "ns")
	r.set("probe.collect_overhead_ratio", on.Seconds()/off.Seconds(), "ratio")
	r.set("tree.walk_levels_mean", float64(c.walkLevels)/float64(max(c.walks, 1)), "levels")
	for k, name := range []string{"cache.meta_hit_ratio", "cache.mac_hit_ratio", "cache.gt_hit_ratio"} {
		r.set(name, float64(c.hits[k])/float64(max(c.hits[k]+c.misses[k], 1)), "ratio")
	}
	r.set("mem.data_bytes", float64(c.dataBytes), "B")
	r.set("mem.meta_bytes", float64(c.metaBytes), "B")
	r.set("mem.row_hit_rate", c.rowHitSum/float64(max(c.runs, 1)), "ratio")
	r.set("core.switches", float64(c.switches), "count")
	r.set("core.detections", float64(c.detections), "count")
	r.set("trace_overhead_ratio", traced.Seconds()/plain.Seconds(), "ratio")
	r.notes = append(r.notes, t.selfSeconds()...)
	return r
}

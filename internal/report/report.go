// Package report regenerates every table and figure of the paper's
// evaluation section from the simulator, as printable tables. It is shared
// by cmd/mgbench (which prints them) and the root bench suite (which
// reports their headline metrics). The per-experiment index lives in
// DESIGN.md; paper-versus-measured results live in EXPERIMENTS.md.
package report

import (
	"context"
	"fmt"
	"sync"

	"unimem/internal/core"
	"unimem/internal/hetero"
	"unimem/internal/meta"
	"unimem/internal/probe"
	"unimem/internal/stats"
	"unimem/internal/workload"
)

// Options scales the experiments.
type Options struct {
	// Scale is the trace-length multiplier (1.0 = nominal).
	Scale float64
	// Seed selects the deterministic trace family.
	Seed uint64
	// SampleN caps the scenario sweep (0 = all 250).
	SampleN int
	// Workers caps sweep parallelism (0 = GOMAXPROCS). Results are
	// identical at any worker count.
	Workers int
	// Progress, when set, receives per-run sweep progress updates.
	Progress func(hetero.SweepProgress)
}

func (o Options) fill() Options {
	if o.Scale <= 0 {
		o.Scale = 0.12
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o Options) cfg() hetero.Config {
	return hetero.Config{Scale: o.Scale, Seed: o.Seed}
}

func (o Options) scenarios() []hetero.Scenario {
	return hetero.SampleScenarios(o.SampleN)
}

// Figure is one regenerated experiment.
type Figure struct {
	// ID matches the paper ("fig04", "table2", ...).
	ID string
	// Title describes what the paper's figure shows.
	Title string
	// Table holds the regenerated rows.
	Table *stats.Table
	// Notes carries headline observations (deltas the paper quotes).
	Notes []string
}

// String renders the figure.
func (f Figure) String() string {
	s := fmt.Sprintf("== %s: %s ==\n%s", f.ID, f.Title, f.Table)
	for _, n := range f.Notes {
		s += "note: " + n + "\n"
	}
	return s
}

// Fig04 measures the stream-chunk ratio of every Table 4 workload run
// standalone (the Fig. 4 methodology: a chunk is a stream chunk when all
// its blocks are touched within a 16K-cycle window).
func Fig04(o Options) Figure {
	o = o.fill()
	t := stats.NewTable("workload", "class", "64B", "512B", "4KB", "32KB", "coarse")
	order := append(append(append([]string{}, workload.CPUNames...), workload.GPUNames...), workload.NPUNames...)
	var npuCoarse []float64
	for _, name := range order {
		g, err := workload.ByName(name, o.Scale, o.Seed)
		if err != nil {
			panic(err)
		}
		m := workload.AnalyzeStreamChunks(g, 0)
		t.Row(name, workload.Profiles[name].Class.String(),
			m.Frac[meta.Gran64], m.Frac[meta.Gran512], m.Frac[meta.Gran4K], m.Frac[meta.Gran32K], m.Coarse())
		if workload.Profiles[name].Class == workload.NPU {
			npuCoarse = append(npuCoarse, m.Frac[meta.Gran32K])
		}
	}
	return Figure{
		ID:    "fig04",
		Title: "ratio of stream chunks per workload (single processing unit)",
		Table: t,
		Notes: []string{fmt.Sprintf("NPU mean 32KB-chunk ratio = %.1f%% (paper: 64.5%%)", 100*stats.Mean(npuCoarse))},
	}
}

// Fig05 breaks the conventional protection overhead into the MAC part and
// the counter/tree part, per device class and for the heterogeneous mix.
func Fig05(o Options) Figure {
	o = o.fill()
	cfg := o.cfg()
	t := stats.NewTable("unit", "+Cost(MAC)", "+Cost(counter)", "total overhead")

	classNames := map[workload.Class][]string{
		workload.CPU: workload.CPUNames,
		workload.GPU: workload.GPUNames,
		workload.NPU: workload.NPUNames,
	}
	for _, cl := range []workload.Class{workload.CPU, workload.GPU, workload.NPU} {
		var macs, ctrs, totals []float64
		for _, name := range classNames[cl] {
			un := hetero.RunStandalone(name, core.Unsecure, cfg)
			mo := hetero.RunStandalone(name, core.MACOnly, cfg)
			cv := hetero.RunStandalone(name, core.Conventional, cfg)
			base := float64(un.FinishPs)
			macs = append(macs, float64(mo.FinishPs)/base-1)
			ctrs = append(ctrs, (float64(cv.FinishPs)-float64(mo.FinishPs))/base)
			totals = append(totals, float64(cv.FinishPs)/base-1)
		}
		t.Row(cl.String(), stats.Mean(macs), stats.Mean(ctrs), stats.Mean(totals))
	}

	// Heterogeneous mix over the selected scenarios.
	var macs, ctrs, totals []float64
	for _, sc := range hetero.SelectedScenarios() {
		base := hetero.Run(sc, core.Unsecure, cfg)
		mo := hetero.Normalize(hetero.Run(sc, core.MACOnly, cfg), base)
		cv := hetero.Normalize(hetero.Run(sc, core.Conventional, cfg), base)
		macs = append(macs, mo.Mean-1)
		ctrs = append(ctrs, cv.Mean-mo.Mean)
		totals = append(totals, cv.Mean-1)
	}
	t.Row("Hetero", stats.Mean(macs), stats.Mean(ctrs), stats.Mean(totals))
	return Figure{
		ID:    "fig05",
		Title: "conventional-protection overhead breakdown (paper: CPU 26.3%+40.7%, GPU 5.4%+4.4%, NPU 9.9%+11.3%, hetero 14.3%+19.5%)",
		Table: t,
	}
}

// Fig06 contrasts per-device static granularity with per-partition
// granularity on the two workloads the paper analyses (alex, sfrnn).
func Fig06(o Options) Figure {
	o = o.fill()
	cfg := o.cfg()
	t := stats.NewTable("workload", "scheme", "norm exec", "norm traffic")
	for _, name := range []string{"alex", "sfrnn"} {
		un := hetero.RunStandalone(name, core.Unsecure, cfg)
		cv := hetero.RunStandalone(name, core.Conventional, cfg)
		st := hetero.RunStandalone(name, core.StaticDeviceBest, cfg)
		pp := hetero.RunStandalone(name, core.PerPartitionOracle, cfg)
		for _, r := range []hetero.StandaloneResult{cv, st, pp} {
			t.Row(name, r.Scheme.String(),
				float64(r.FinishPs)/float64(un.FinishPs),
				float64(r.TotalBytes)/float64(un.TotalBytes))
		}
	}
	return Figure{
		ID:    "fig06",
		Title: "per-device vs per-partition granularity on alex and sfrnn (paper: per-device-best degrades 13.6%/16.3%, per-partition-best improves 15.6%/14.4% vs conventional)",
		Table: t,
	}
}

// Table02 classifies granularity switches by the Table 2 taxonomy over the
// scenario sweep under Ours.
func Table02(o Options) Figure {
	o = o.fill()
	cfg := o.cfg()
	var agg [probe.NumSwitchClasses]uint64
	var correct, total uint64
	for _, sc := range o.scenarios() {
		s := hetero.Run(sc, core.Ours, cfg).Switches
		for c := range agg {
			agg[c] += s.Of(probe.SwitchClass(c))
		}
		correct += s.Correct
		total += s.Total()
	}
	pct := func(v uint64) float64 { return 100 * float64(v) / float64(total) }
	t := stats.NewTable("row (counter & tree)", "cost", "ratio %", "paper %")
	t.Row("Coarse->Fine all", "zero (lazy)", pct(agg[probe.SwDownAll]), 4.4)
	t.Row("Fine->Coarse WAR", "zero (lazy)", pct(agg[probe.SwUpWAR]), 5.1)
	t.Row("Fine->Coarse WAW", "zero (lazy)", pct(agg[probe.SwUpWAW]), 3.0)
	t.Row("Fine->Coarse RAR", "fetch parent..root", pct(agg[probe.SwUpRAR]), 8.8)
	t.Row("Fine->Coarse RAW", "negligible (cache)", pct(agg[probe.SwUpRAW]), 5.2)
	t.Row("Correct prediction", "-", pct(correct), 73.5)
	t.Row("MAC Coarse->Fine R/O", "fetch fine MACs", pct(agg[probe.SwMACDownRO]), 1.6)
	t.Row("MAC Coarse->Fine R/W", "fetch data chunk", pct(agg[probe.SwMACDownRW]), 2.8)
	t.Row("MAC Fine->Coarse", "zero (lazy)", pct(agg[probe.SwMACUpLazy]), 22.1)
	return Figure{
		ID:    "table2",
		Title: "granularity-switch classification and cost (Ours)",
		Table: t,
	}
}

// sweep runs (and memoizes) a scheme sweep: Fig. 15/16 and Fig. 17/18
// share their scenario sweeps, so regenerating all experiments does each
// expensive sweep once. Sweeps run on the parallel engine; Workers and
// Progress stay out of the memo key because they cannot change results.
func sweep(o Options, schemes []core.Scheme) []hetero.SweepResult {
	key := fmt.Sprintf("scale=%g seed=%d n=%d|%v", o.Scale, o.Seed, o.SampleN, schemes)
	sweepMu.Lock()
	defer sweepMu.Unlock()
	if rs, ok := sweepMemo[key]; ok {
		return rs
	}
	rs, err := hetero.SweepParallel(context.Background(), o.scenarios(), schemes, o.cfg(),
		hetero.SweepOptions{Workers: o.Workers, Progress: o.Progress})
	if err != nil {
		panic(err) // background context: only a panicking run lands here
	}
	sweepMemo[key] = rs
	return rs
}

var (
	sweepMu   sync.Mutex
	sweepMemo = map[string][]hetero.SweepResult{}
)

func cdfTable(rs []hetero.SweepResult, schemes []core.Scheme) *stats.Table {
	t := stats.NewTable("scheme", "p10", "p25", "p50", "p75", "p90", "mean")
	for _, s := range schemes {
		xs := hetero.MeansOf(rs, s)
		t.Row(s.String(),
			stats.Percentile(xs, 10), stats.Percentile(xs, 25), stats.Percentile(xs, 50),
			stats.Percentile(xs, 75), stats.Percentile(xs, 90), stats.Mean(xs))
	}
	return t
}

// Fig15 compares the normalized-execution-time distribution against the
// prior dual-granularity and subtree schemes.
func Fig15(o Options) Figure {
	o = o.fill()
	schemes := []core.Scheme{core.Adaptive, core.CommonCTR, core.Ours, core.BMFUnused, core.BMFUnusedOurs}
	rs := sweep(o, schemes)
	ours := hetero.MeanAcross(rs, core.Ours)
	adv := hetero.MeanAcross(rs, core.Adaptive)
	cc := hetero.MeanAcross(rs, core.CommonCTR)
	return Figure{
		ID:    "fig15",
		Title: "normalized execution time CDF vs prior studies",
		Table: cdfTable(rs, schemes),
		Notes: []string{
			fmt.Sprintf("Ours vs Adaptive: %+.1f%% (paper: Ours 8.5%% better)", 100*(adv-ours)/adv),
			fmt.Sprintf("Ours vs CommonCTR: %+.1f%% (paper: Ours 7.7%% better)", 100*(cc-ours)/cc),
		},
	}
}

// Fig16 reports mean execution time, traffic and security-cache misses of
// the prior-study comparison, normalized as in the paper.
func Fig16(o Options) Figure {
	o = o.fill()
	schemes := []core.Scheme{core.Adaptive, core.CommonCTR, core.Ours, core.BMFUnused, core.BMFUnusedOurs}
	rs := sweep(o, schemes)
	t := stats.NewTable("scheme", "norm exec", "traffic vs Ours", "misses vs Ours")
	for _, s := range schemes {
		t.Row(s.String(),
			hetero.MeanAcross(rs, s),
			hetero.TrafficRatioAcross(rs, s)/hetero.TrafficRatioAcross(rs, core.Ours),
			hetero.MissRatioAcross(rs, s, core.Ours))
	}
	return Figure{
		ID:    "fig16",
		Title: "execution time, traffic and security-cache misses vs prior studies",
		Table: t,
	}
}

// Fig17 is the CDF of the performance-breakdown scheme set.
func Fig17(o Options) Figure {
	o = o.fill()
	schemes := []core.Scheme{core.Conventional, core.StaticDeviceBest, core.MultiCTROnly, core.Ours, core.BMFUnusedOurs}
	rs := sweep(o, schemes)
	conv := hetero.MeanAcross(rs, core.Conventional)
	ours := hetero.MeanAcross(rs, core.Ours)
	bmf := hetero.MeanAcross(rs, core.BMFUnusedOurs)
	return Figure{
		ID:    "fig17",
		Title: "performance-breakdown CDF (conventional -> ours -> +subtree)",
		Table: cdfTable(rs, schemes),
		Notes: []string{
			fmt.Sprintf("Ours reduces conventional overhead %.1f%% -> %.1f%% (paper: 33.9%% -> 19.6%%)", 100*(conv-1), 100*(ours-1)),
			fmt.Sprintf("BMF&Unused+Ours reduces it to %.1f%% (paper: 12.7%%)", 100*(bmf-1)),
		},
	}
}

// Fig18 reports the per-optimization means of exec time, traffic and
// misses.
func Fig18(o Options) Figure {
	o = o.fill()
	schemes := []core.Scheme{core.Conventional, core.StaticDeviceBest, core.MultiCTROnly, core.Ours, core.BMFUnusedOurs}
	rs := sweep(o, schemes)
	t := stats.NewTable("scheme", "norm exec", "norm traffic", "misses vs conventional")
	for _, s := range schemes {
		t.Row(s.String(),
			hetero.MeanAcross(rs, s),
			hetero.TrafficRatioAcross(rs, s),
			hetero.MissRatioAcross(rs, s, core.Conventional))
	}
	return Figure{
		ID:    "fig18",
		Title: "performance, traffic, and cache-miss breakdown per optimization",
		Table: t,
	}
}

// Fig19 analyses the 11 selected scenarios: normalized execution time per
// scheme, the stream-chunk mix, and per-device execution times under Ours.
func Fig19(o Options) Figure {
	o = o.fill()
	cfg := o.cfg()
	t := stats.NewTable("scenario", "conv", "ours", "bmf+ours", "64B%", "32KB%", "cpu", "gpu", "npu1", "npu2")
	var fine, coarse []float64
	sel := hetero.SelectedScenarios()
	for i, sc := range sel {
		base := hetero.Run(sc, core.Unsecure, cfg)
		cv := hetero.Normalize(hetero.Run(sc, core.Conventional, cfg), base)
		ours := hetero.Normalize(hetero.Run(sc, core.Ours, cfg), base)
		bmf := hetero.Normalize(hetero.Run(sc, core.BMFUnusedOurs, cfg), base)
		mix := hetero.ScenarioChunkMix(sc, o.Scale, o.Seed)
		t.Row(sc.ID, cv.Mean, ours.Mean, bmf.Mean,
			100*mix.Frac[meta.Gran64], 100*mix.Frac[meta.Gran32K],
			ours.PerDevice[0], ours.PerDevice[1], ours.PerDevice[2], ours.PerDevice[3])
		gain := (cv.Mean - ours.Mean) / cv.Mean
		if i < 5 {
			fine = append(fine, gain)
		} else {
			coarse = append(coarse, gain)
		}
	}
	return Figure{
		ID:    "fig19",
		Title: "selected scenarios: exec time per scheme, chunk mix, per-device times",
		Table: t,
		Notes: []string{
			fmt.Sprintf("mean gain fine group (ff/f) = %.1f%%, coarse group (c/cc) = %.1f%% (paper: 5.9%% vs 24.1%%)",
				100*stats.Mean(fine), 100*stats.Mean(coarse)),
		},
	}
}

// Fig20 runs the dual-granularity and switching-overhead ablations over
// the selected scenarios.
func Fig20(o Options) Figure {
	o = o.fill()
	cfg := o.cfg()
	schemes := []core.Scheme{core.Ours, core.OursDual, core.OursNoSwitch, core.BMFUnusedOursNoSwitch}
	t := stats.NewTable("scenario", "ours", "dual", "w/o switch", "bmf+ours w/o switch")
	means := map[core.Scheme][]float64{}
	for _, sc := range hetero.SelectedScenarios() {
		base := hetero.Run(sc, core.Unsecure, cfg)
		row := []interface{}{sc.ID}
		for _, s := range schemes {
			n := hetero.Normalize(hetero.Run(sc, s, cfg), base)
			row = append(row, n.Mean)
			means[s] = append(means[s], n.Mean)
		}
		t.Row(row...)
	}
	ours := stats.Mean(means[core.Ours])
	dual := stats.Mean(means[core.OursDual])
	nosw := stats.Mean(means[core.OursNoSwitch])
	return Figure{
		ID:    "fig20",
		Title: "dual-granularity and switching-overhead ablations (selected scenarios)",
		Table: t,
		Notes: []string{
			fmt.Sprintf("dual-granularity delay vs Ours = %+.1f%% (paper: +3.3%%)", 100*(dual-ours)/ours),
			fmt.Sprintf("removing switching overhead = %+.1f%% (paper: -4.4%%)", 100*(nosw-ours)/ours),
		},
	}
}

// Fig21 runs the Table 6 real-world pipelines under the headline schemes.
func Fig21(o Options) Figure {
	o = o.fill()
	cfg := o.cfg()
	t := stats.NewTable("application", "scheme", "norm exec")
	for _, p := range []hetero.Pipeline{hetero.Finance(), hetero.AutoDrive()} {
		for _, s := range []core.Scheme{core.Conventional, core.StaticDeviceBest, core.Ours, core.BMFUnusedOurs} {
			t.Row(p.Name, s.String(), hetero.NormalizedPipeline(p, s, cfg))
		}
	}
	return Figure{
		ID:    "fig21",
		Title: "real-world applications (paper: Finance 45.0%->24.2%->19.6%, AutoDrive 41.4%->34.5%->21.9% overhead)",
		Table: t,
	}
}

// All regenerates every experiment.
func All(o Options) []Figure {
	return []Figure{
		Fig04(o), Fig05(o), Fig06(o), Table02(o),
		Fig15(o), Fig16(o), Fig17(o), Fig18(o),
		Fig19(o), Fig20(o), Fig21(o),
	}
}

// ByID returns one experiment by its identifier.
func ByID(id string, o Options) (Figure, error) {
	gen, ok := map[string]func(Options) Figure{
		"fig04": Fig04, "fig05": Fig05, "fig06": Fig06, "table2": Table02,
		"fig15": Fig15, "fig16": Fig16, "fig17": Fig17, "fig18": Fig18,
		"fig19": Fig19, "fig20": Fig20, "fig21": Fig21,
		"ext-latency": ExtLatency, "ext-walklen": ExtWalkLen, "ext-breakdown": ExtBreakdown,
		"ext-matrix": ExtMatrix,
	}[id]
	if !ok {
		return Figure{}, fmt.Errorf("report: unknown experiment %q", id)
	}
	return gen(o), nil
}

// IDs lists the experiment identifiers in paper order.
func IDs() []string {
	return []string{"fig04", "fig05", "fig06", "table2", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "ext-latency", "ext-walklen", "ext-breakdown", "ext-matrix"}
}

// ExtLatency is an extension experiment beyond the paper's figures: the
// read-latency distribution per scheme over the selected scenarios. It
// makes the mechanism's effect visible where heterogeneous SoCs feel it —
// the tail a latency-sensitive CPU sees behind an NPU burst.
func ExtLatency(o Options) Figure {
	o = o.fill()
	cfg := o.cfg()
	t := stats.NewTable("scheme", "p50 ns", "p90 ns", "p99 ns", "cpu mean ns", "cpu max us")
	for _, s := range []core.Scheme{core.Unsecure, core.Conventional, core.Ours, core.BMFUnusedOurs} {
		var lat core.LatencyHistogram
		var cpuMean, cpuMax float64
		n := 0
		for _, sc := range hetero.SelectedScenarios() {
			r := hetero.Run(sc, s, cfg)
			for b, v := range r.Latency {
				lat[b] += v
			}
			cpuMean += r.EngineDev[0].MeanReadLatencyPs() / 1000
			if mx := float64(r.EngineDev[0].MaxReadLatencyPs) / 1e6; mx > cpuMax {
				cpuMax = mx
			}
			n++
		}
		t.Row(s.String(),
			lat.Percentile(50), lat.Percentile(90), lat.Percentile(99),
			cpuMean/float64(n), cpuMax)
	}
	return Figure{
		ID:    "ext-latency",
		Title: "extension: read-latency distribution per scheme (selected scenarios)",
		Table: t,
	}
}

// ExtMatrix is the registry-wide scheme matrix: every registered scheme —
// paper reproductions and extensions alike — run over one accelerator-heavy
// scenario. The scheme list is derived from the core registry, so a new
// registered policy shows up here (and in mgsim -list) without touching
// this package: the row set IS the registry.
func ExtMatrix(o Options) Figure {
	o = o.fill()
	cfg := o.cfg()
	sc := hetero.Scenario{ID: "npuheavy", CPU: "xal", GPU: "mm", NPU1: "alex", NPU2: "dlrm"}
	base := hetero.Run(sc, core.Unsecure, cfg)
	t := stats.NewTable("scheme", "origin", "norm exec", "meta %", "mean walk")
	for _, s := range core.Schemes {
		res := hetero.Run(sc, s, cfg)
		n := hetero.Normalize(res, base)
		origin := "paper"
		if s.IsExtension() {
			origin = "extension"
		}
		metaPct := 0.0
		if res.TotalBytes > 0 {
			metaPct = 100 * float64(res.MetaBytes) / float64(res.TotalBytes)
		}
		t.Row(s.String(), origin, n.Mean, metaPct, res.MeanWalk)
	}
	return Figure{
		ID:    "ext-matrix",
		Title: "extension: full scheme registry over an accelerator-heavy mix",
		Table: t,
	}
}

package core

import (
	"unimem/internal/cache"
	"unimem/internal/mem"
	"unimem/internal/meta"
	"unimem/internal/probe"
	"unimem/internal/sim"
	"unimem/internal/tracker"
	"unimem/internal/tree"
)

// Request is one LLC-miss memory transaction from a processing unit.
type Request struct {
	// Device indexes the issuing processing unit (for per-device policy
	// and statistics).
	Device int
	// Addr is the starting byte address (64B aligned).
	Addr uint64
	// Size is the transaction size in bytes (64B for a cacheline miss,
	// up to 32KB for a DMA tile).
	Size int
	// Write marks a dirty-eviction / DMA store.
	Write bool
}

// Options tunes the engine. Zero values select the paper's configuration
// (section 5.1).
type Options struct {
	// Devices is the number of processing units (default 4).
	Devices int
	// StaticGran is the per-device fixed granularity for StaticDeviceBest.
	StaticGran []meta.Gran
	// FixedTable preloads the granularity table for PerPartitionOracle.
	FixedTable *meta.Table
	// MetaCacheBytes is the security-metadata cache size (default 8KB).
	MetaCacheBytes int
	// MACCacheBytes is the MAC cache size (default 4KB).
	MACCacheBytes int
	// GTCacheBytes is the granularity-table cache size (default 32KB; one
	// 64B line covers four chunks = 128KB of data, giving the high
	// locality section 4.4 relies on).
	GTCacheBytes int
	// OTPPs / XORPs are the crypto latencies (defaults: 10 cycles, 1 cycle
	// at 1 GHz per section 5.1).
	OTPPs, XORPs sim.Time
	// CommonCTRLimit caps the shared-counter set of the CommonCTR scheme
	// (default 16, per section 2.3).
	CommonCTRLimit int
	// OpenUnits is the size of the in-flight coarse-unit buffer that
	// coalesces the member beats of one bulk verification (default 16).
	OpenUnits int
	// Tracker configures the access tracker (default: paper's 12 entries,
	// 16K-cycle lifetime).
	Tracker tracker.Config
	// Probe, when non-nil, receives engine events (request issue/retire,
	// tree walks, cache accesses, MAC fetches, granularity switches, DRAM
	// beats — see internal/probe). The nil default is the production
	// setting: every emission site is guarded by one nil check, so the
	// disabled hot path carries only a dead branch (BenchmarkProbeOff).
	// Probes observe without influencing timing, so attaching one never
	// changes simulation results.
	Probe probe.Probe
}

func (o *Options) fill() {
	if o.Devices <= 0 {
		o.Devices = 4
	}
	if o.MetaCacheBytes <= 0 {
		o.MetaCacheBytes = 8 << 10
	}
	if o.MACCacheBytes <= 0 {
		o.MACCacheBytes = 4 << 10
	}
	if o.GTCacheBytes <= 0 {
		o.GTCacheBytes = 32 << 10
	}
	if o.OTPPs <= 0 {
		o.OTPPs = 10 * sim.PsPerGPUCycle
	}
	if o.XORPs <= 0 {
		o.XORPs = 1 * sim.PsPerGPUCycle
	}
	if o.CommonCTRLimit <= 0 {
		o.CommonCTRLimit = 16
	}
	if o.OpenUnits <= 0 {
		o.OpenUnits = 16
	}
}

// SwitchStats counts granularity-switch events by the Table 2 taxonomy.
// Field X holds the count of class probe.SwX; countSwitch is its only
// writer (mglint probe-discipline), so every count has its probe event.
// Correct counts requests that needed no switch, a non-event.
type SwitchStats struct {
	// Counter/tree side.
	DownAll uint64 // coarse->fine, all types: zero cost (lazy switching)
	UpWAR   uint64 // fine->coarse, write-after-read: zero cost
	UpWAW   uint64 // fine->coarse, write-after-write: zero cost
	UpRAR   uint64 // fine->coarse, read-after-read: fetch parent to root
	UpRAW   uint64 // fine->coarse, read-after-write: mostly metadata-cache hits
	// MAC side.
	MACDownRO uint64 // coarse->fine on read-only data: fetch fine MACs
	MACDownRW uint64 // coarse->fine on written data: fetch whole data chunk
	MACUpLazy uint64 // fine->coarse: zero cost (lazy)
	// Correct counts requests that needed no switch.
	Correct uint64
}

// Total returns all classified requests (switching + correct).
func (s *SwitchStats) Total() uint64 {
	return s.DownAll + s.UpWAR + s.UpWAW + s.UpRAR + s.UpRAW + s.Correct
}

// Of returns the count of switch class c.
func (s SwitchStats) Of(c probe.SwitchClass) uint64 {
	return [...]uint64{
		probe.SwDownAll: s.DownAll, probe.SwUpWAR: s.UpWAR, probe.SwUpWAW: s.UpWAW,
		probe.SwUpRAR: s.UpRAR, probe.SwUpRAW: s.UpRAW, probe.SwMACDownRO: s.MACDownRO,
		probe.SwMACDownRW: s.MACDownRW, probe.SwMACUpLazy: s.MACUpLazy,
	}[c]
}

// Stats aggregates engine activity.
type Stats struct {
	Requests   uint64
	Reads      uint64
	Writes     uint64
	Switches   SwitchStats
	Detections uint64
	// OverfetchBeats counts extra 64B data beats fetched because an access
	// was finer than its protection unit.
	OverfetchBeats uint64
	// WalkLevels accumulates traversed tree levels (divide by Reads+Writes
	// for the mean validation path).
	WalkLevels    uint64
	PrunedWalks   uint64
	SubtreeHits   uint64
	SharedCTRHits uint64 // CommonCTR treeless hits
}

// Engine is the timing model of the unified memory-protection engine.
type Engine struct {
	se     *sim.Engine
	mm     *mem.Memory
	geom   *meta.Geometry
	scheme Scheme
	pol    Policy
	spec   Spec // cached pol.Spec(): hot-path trait flags
	opts   Options

	table     *meta.Table
	trk       *tracker.Tracker
	walker    *tree.Walker
	metaCache *cache.Cache
	macCache  *cache.Cache
	gtCache   *cache.Cache
	openUnits *cache.Cache

	prb probe.Probe // nil = observability off (the hot-path default)

	lastWrite    map[meta.ChunkIdx]bool // last access type per chunk
	writtenParts map[meta.ChunkIdx]uint64
	demoteVotes  map[meta.ChunkIdx]meta.StreamPart // demotion hysteresis per chunk

	cryptoPs sim.Time

	// Free lists and scratch buffers keep the probe-off steady state
	// allocation-free (the simulation is single-threaded, so plain linked
	// lists and [:0] reuse suffice; see TestSubmitSteadyStateZeroAlloc).
	freeOps    *chunkOp
	freeSplits *splitOp
	ctrUnits   []unitSpan
	macUnits   []unitSpan
	macLines   []uint64

	perDev []DeviceStats
	lat    LatencyHistogram

	// Stats is the running account.
	Stats Stats
}

// New builds an engine for one scheme over a protected region of
// regionBytes, sharing the simulation engine and memory system with the
// device models. The scheme's behaviour comes entirely from its registered
// Policy; New wires the scheme-independent machinery around it.
func New(se *sim.Engine, mm *mem.Memory, regionBytes uint64, scheme Scheme, opts Options) *Engine {
	opts.fill()
	pol := policyFor(scheme, &opts)
	spec := pol.Spec()
	e := &Engine{
		se:           se,
		mm:           mm,
		geom:         meta.NewGeometry(regionBytes),
		scheme:       scheme,
		pol:          pol,
		spec:         spec,
		opts:         opts,
		prb:          opts.Probe,
		lastWrite:    map[meta.ChunkIdx]bool{},
		writtenParts: map[meta.ChunkIdx]uint64{},
		demoteVotes:  map[meta.ChunkIdx]meta.StreamPart{},
		cryptoPs:     opts.OTPPs + opts.XORPs,
		perDev:       make([]DeviceStats, opts.Devices),
	}
	if !spec.Protect {
		return e
	}
	e.metaCache = cache.New(cache.Config{SizeBytes: opts.MetaCacheBytes, LineBytes: 64, Ways: 8})
	e.macCache = cache.New(cache.Config{SizeBytes: opts.MACCacheBytes, LineBytes: 64, Ways: 8})
	e.walker = tree.New(e.geom, e.metaCache, pol.TreeConfig())
	if spec.UseTable {
		e.gtCache = cache.New(cache.Config{SizeBytes: opts.GTCacheBytes, LineBytes: 64, Ways: 8})
		if spec.Oracle && opts.FixedTable != nil {
			e.table = opts.FixedTable
		} else {
			e.table = meta.NewTable()
		}
	}
	if spec.Detect {
		e.trk = tracker.New(opts.Tracker)
	}
	e.openUnits = cache.New(cache.Config{
		SizeBytes: opts.OpenUnits * 64,
		LineBytes: 64,
		Ways:      opts.OpenUnits,
	})
	return e
}

// Scheme returns the configured scheme.
func (e *Engine) Scheme() Scheme { return e.scheme }

// Geometry returns the metadata layout.
func (e *Engine) Geometry() *meta.Geometry { return e.geom }

// Table returns the granularity table (nil for schemes without one).
func (e *Engine) Table() *meta.Table { return e.table }

// SecurityCacheMisses returns combined metadata + MAC (+ granularity
// table) cache misses — the quantity Fig. 16 / Fig. 18 report.
func (e *Engine) SecurityCacheMisses() uint64 {
	var n uint64
	if e.metaCache != nil {
		n += e.metaCache.Stats.Misses
	}
	if e.macCache != nil {
		n += e.macCache.Stats.Misses
	}
	if e.gtCache != nil {
		n += e.gtCache.Stats.Misses
	}
	return n
}

// CacheStats exposes the individual security caches (may be nil).
func (e *Engine) CacheStats() (metaC, macC, gtC *cache.Stats) {
	if e.metaCache != nil {
		metaC = &e.metaCache.Stats
	}
	if e.macCache != nil {
		macC = &e.macCache.Stats
	}
	if e.gtCache != nil {
		gtC = &e.gtCache.Stats
	}
	return
}

// MeanWalkLevels returns the average integrity-tree validation path length.
func (e *Engine) MeanWalkLevels() float64 {
	n := e.Stats.Reads + e.Stats.Writes
	if n == 0 {
		return 0
	}
	return float64(e.Stats.WalkLevels) / float64(n)
}

// Finish flushes the tracker so trailing detections land in the table
// (mirrors the end-of-kernel behaviour of the baselines).
func (e *Engine) Finish() {
	if e.trk == nil {
		return
	}
	for _, det := range e.trk.Flush() {
		e.applyDetection(det)
	}
}

// unitSpan is one protection unit covering part of a request.
type unitSpan struct {
	base uint64
	gran meta.Gran
}

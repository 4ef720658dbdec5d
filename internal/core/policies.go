package core

import (
	"unimem/internal/meta"
)

// cpuDevice is the harness device convention: index 0 is the CPU; higher
// indices are accelerators (GPU, NPUs) with their own address quadrants.
const cpuDevice = 0

// staticPolicy applies a fixed per-device granularity to both metadata
// sides (StaticDeviceBest; the harness finds the best assignment by
// exhaustive search).
type staticPolicy struct {
	basePolicy
	grans []meta.Gran
}

// GranRules implements Policy.
func (p *staticPolicy) GranRules(device int) (ctr, mac granRule) {
	g := meta.Gran64
	if device < len(p.grans) {
		g = p.grans[device]
	}
	rule := granRule{fixed: true, gran: g}
	return rule, rule
}

// macOnlyPolicy protects with fixed 64B MACs and no counters or integrity
// tree (the Fig. 5 breakdown's intermediate bar).
type macOnlyPolicy struct {
	basePolicy
}

// CounterMode implements Policy.
func (p *macOnlyPolicy) CounterMode(Request, meta.ChunkIdx) CounterMode { return CounterSkip }

// commonCTRPolicy models Na et al. [35]: chunks classified all-stream join
// a limited set of treeless on-chip shared counters; everything else walks
// the tree at 64B. The shared set is policy state — the pipeline only sees
// the CounterMode/OnDetection seams.
type commonCTRPolicy struct {
	basePolicy
	shared map[meta.ChunkIdx]bool
	limit  int
}

// CounterMode implements Policy.
func (p *commonCTRPolicy) CounterMode(r Request, chunk meta.ChunkIdx) CounterMode {
	if p.shared[chunk] {
		return CounterShared
	}
	return CounterWalk
}

// OnDetection implements Policy: all-stream chunks enter the shared set
// while it has room; anything finer evicts the chunk back to the tree.
func (p *commonCTRPolicy) OnDetection(chunk meta.ChunkIdx, sp meta.StreamPart) bool {
	if sp == meta.AllStream {
		if p.shared[chunk] || len(p.shared) < p.limit {
			p.shared[chunk] = true
		}
	} else {
		delete(p.shared, chunk)
	}
	return true
}

// mgxPolicy is the MGXVersioned extension (Hua et al.): accelerator-private
// regions carry application-managed version counters, so their accesses
// need no integrity-tree walk — the version is known from the dataflow and
// the 64B MAC alone authenticates the data. The CPU's general-purpose
// region cannot promise write-once/read-once dataflow and keeps the
// conventional counter tree.
type mgxPolicy struct {
	basePolicy
}

// CounterMode implements Policy.
func (p *mgxPolicy) CounterMode(r Request, chunk meta.ChunkIdx) CounterMode {
	if r.Device != cpuDevice {
		return CounterSkip
	}
	return CounterWalk
}

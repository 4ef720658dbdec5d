package core

import (
	"unimem/internal/meta"
	"unimem/internal/tree"
)

// Spec is a scheme's static trait sheet: the flags the scheme-agnostic
// pipeline consults directly on the hot path. Everything richer than a
// boolean — granularity rules, MAC layout, tree configuration, counter
// sourcing, detection routing — goes through the Policy methods instead,
// so a new scheme never adds a branch to the pipeline stages.
type Spec struct {
	// Protect enables counters/MACs at all; false is the Unsecure bypass.
	Protect bool
	// UseTable consults the granularity table (and pays GT traffic).
	UseTable bool
	// Detect feeds the access tracker into the table.
	Detect bool
	// MultiCTR lets counters follow the table's granularity.
	MultiCTR bool
	// MultiMAC lets MACs follow the table's granularity (and enables the
	// retained-fine-MAC misprediction fallback of section 4.4).
	MultiMAC bool
	// DualOnly restricts detections to {64B, 32KB} (Fig. 20 ablation,
	// CommonCTR).
	DualOnly bool
	// FreeSwitch waives the Table 2 switch charges (perfect prediction).
	FreeSwitch bool
	// DoubleStore stores coarse and fine MACs on update (Adaptive [56]).
	DoubleStore bool
	// Oracle replays a preloaded table with detection and switching off.
	Oracle bool
}

// CounterMode is a policy's per-chunk decision on how a request sources its
// version counters (stage 6 of the pipeline).
type CounterMode uint8

const (
	// CounterWalk verifies through the integrity tree (the default).
	CounterWalk CounterMode = iota
	// CounterSkip uses no counters at all: MAC-only interface protection
	// (Fig. 5 breakdown) or application-managed versioning (MGX).
	CounterSkip
	// CounterShared hits a treeless on-chip shared counter (CommonCTR).
	CounterShared
)

// Policy is one scheme's pluggable decision object. The pipeline calls it
// at fixed seams; policies carry their own state (e.g. CommonCTR's shared
// set), so adding a scheme means adding a Policy and a registry row — the
// stage code in pipeline.go does not change.
//
// All methods are on the per-request hot path and must not allocate.
type Policy interface {
	// Spec returns the static traits (called once at engine build; the
	// engine caches the result).
	Spec() Spec
	// GranRules returns the unit-granularity rule for the counter and MAC
	// sides of a request from the given device.
	GranRules(device int) (ctr, mac granRule)
	// MACLine resolves the 64B MAC line holding a unit's MAC.
	MACLine(geom *meta.Geometry, chunk meta.ChunkIdx, chunkBase uint64, sp meta.StreamPart, u unitSpan, rule granRule) uint64
	// TreeConfig returns the integrity-tree walker configuration (subtree
	// caching, unused-region pruning).
	TreeConfig() tree.Config
	// CounterMode decides how a request sources the counters of one chunk.
	// It is evaluated once per chunk, after pending detections applied.
	CounterMode(r Request, chunk meta.ChunkIdx) CounterMode
	// OnDetection routes one merged+clamped detection. Returning true
	// consumes it (the engine skips the granularity-table update);
	// returning false lands it in the table as usual.
	OnDetection(chunk meta.ChunkIdx, sp meta.StreamPart) bool
}

// granRule describes how units are derived for one metadata side.
type granRule struct {
	fixed bool
	gran  meta.Gran
	table bool
	cap   meta.Gran
}

// basePolicy implements Policy with the common-case behavior: fixed or
// table-driven granularity rules chosen at build time, the standard MAC
// layout, tree walks for every counter, and detections landing in the
// table. Scheme policies embed it and override the seams they bend.
type basePolicy struct {
	spec    Spec
	ctr     granRule
	mac     granRule
	treeCfg tree.Config
}

// Spec implements Policy.
func (p *basePolicy) Spec() Spec { return p.spec }

// GranRules implements Policy.
func (p *basePolicy) GranRules(int) (ctr, mac granRule) { return p.ctr, p.mac }

// MACLine implements Policy. Schemes with compacted multi-granular MACs
// (Ours family) use the Fig. 9 layout through the stream-part encoding;
// fixed and capped schemes use the flat per-block layout (slot = block
// index within chunk).
func (p *basePolicy) MACLine(geom *meta.Geometry, chunk meta.ChunkIdx, chunkBase uint64, sp meta.StreamPart, u unitSpan, rule granRule) uint64 {
	if rule.table && rule.cap == meta.Gran32K {
		addr, _ := geom.MACAddrFor(u.base, sp)
		return meta.AlignBlock(addr)
	}
	slot := int((u.base - chunkBase) / meta.BlockSize)
	return geom.MACLineAddr(chunk, slot)
}

// TreeConfig implements Policy.
func (p *basePolicy) TreeConfig() tree.Config { return p.treeCfg }

// CounterMode implements Policy.
func (p *basePolicy) CounterMode(Request, meta.ChunkIdx) CounterMode { return CounterWalk }

// OnDetection implements Policy.
func (p *basePolicy) OnDetection(meta.ChunkIdx, meta.StreamPart) bool { return false }

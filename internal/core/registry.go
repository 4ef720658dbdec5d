package core

import (
	"unimem/internal/meta"
	"unimem/internal/tree"
)

// schemeEntry is one row of the scheme registry: the display name, whether
// the scheme reproduces the source paper (vs. an extension), and the
// builder producing its Policy for one engine instance.
type schemeEntry struct {
	name  string
	paper bool
	build func(o *Options) Policy
}

// Granularity-rule shorthand for registry rows.
var (
	fixed64  = granRule{fixed: true, gran: meta.Gran64}
	table32K = granRule{table: true, cap: meta.Gran32K}
	table4K  = granRule{table: true, cap: meta.Gran4K}
)

// registry is the single source of truth for the scheme matrix: Schemes,
// Scheme.String, Scheme.IsExtension and engine construction all derive from
// it, and the drift-guard test in scheme_test.go fails (rather than a
// runtime panic) when a Scheme constant lacks a row. Adding a scheme means
// adding a constant in scheme.go and a row here — nothing else.
var registry = [nSchemes]schemeEntry{
	Unsecure: {name: "Unsecure", paper: true, build: func(*Options) Policy {
		return &basePolicy{ctr: fixed64, mac: fixed64}
	}},
	Conventional: {name: "Conventional", paper: true, build: func(*Options) Policy {
		return &basePolicy{spec: Spec{Protect: true}, ctr: fixed64, mac: fixed64}
	}},
	StaticDeviceBest: {name: "Static-device-best", paper: true, build: func(o *Options) Policy {
		return &staticPolicy{
			basePolicy: basePolicy{spec: Spec{Protect: true}},
			grans:      o.StaticGran,
		}
	}},
	MultiCTROnly: {name: "Multi(CTR)-only", paper: true, build: func(*Options) Policy {
		return &basePolicy{
			spec: Spec{Protect: true, UseTable: true, Detect: true, MultiCTR: true},
			ctr:  table32K, mac: fixed64,
		}
	}},
	Ours: {name: "Ours", paper: true, build: func(*Options) Policy {
		return &basePolicy{
			spec: Spec{Protect: true, UseTable: true, Detect: true, MultiCTR: true, MultiMAC: true},
			ctr:  table32K, mac: table32K,
		}
	}},
	Adaptive: {name: "Adaptive", paper: true, build: func(*Options) Policy {
		return &basePolicy{
			spec: Spec{Protect: true, UseTable: true, Detect: true, MultiMAC: true, DoubleStore: true},
			ctr:  fixed64, mac: table4K,
		}
	}},
	CommonCTR: {name: "CommonCTR", paper: true, build: func(o *Options) Policy {
		return &commonCTRPolicy{
			basePolicy: basePolicy{
				spec: Spec{Protect: true, UseTable: true, Detect: true, DualOnly: true},
				ctr:  fixed64, mac: fixed64,
			},
			shared: map[meta.ChunkIdx]bool{},
			limit:  o.CommonCTRLimit,
		}
	}},
	BMFUnused: {name: "BMF&Unused", paper: true, build: func(*Options) Policy {
		return &basePolicy{
			spec: Spec{Protect: true},
			ctr:  fixed64, mac: fixed64,
			treeCfg: tree.DefaultSubtree(),
		}
	}},
	BMFUnusedOurs: {name: "BMF&Unused+Ours", paper: true, build: func(*Options) Policy {
		return &basePolicy{
			spec: Spec{Protect: true, UseTable: true, Detect: true, MultiCTR: true, MultiMAC: true},
			ctr:  table32K, mac: table32K,
			treeCfg: tree.DefaultSubtree(),
		}
	}},
	OursDual: {name: "Ours(dual)", paper: true, build: func(*Options) Policy {
		return &basePolicy{
			spec: Spec{Protect: true, UseTable: true, Detect: true, MultiCTR: true, MultiMAC: true, DualOnly: true},
			ctr:  table32K, mac: table32K,
		}
	}},
	OursNoSwitch: {name: "Ours w/o Switch.Overhead", paper: true, build: func(*Options) Policy {
		return &basePolicy{
			spec: Spec{Protect: true, UseTable: true, Detect: true, MultiCTR: true, MultiMAC: true, FreeSwitch: true},
			ctr:  table32K, mac: table32K,
		}
	}},
	BMFUnusedOursNoSwitch: {name: "BMF&Unused+Ours w/o Switch.Overhead", paper: true, build: func(*Options) Policy {
		return &basePolicy{
			spec: Spec{Protect: true, UseTable: true, Detect: true, MultiCTR: true, MultiMAC: true, FreeSwitch: true},
			ctr:  table32K, mac: table32K,
			treeCfg: tree.DefaultSubtree(),
		}
	}},
	PerPartitionOracle: {name: "Per-partition-best", paper: true, build: func(*Options) Policy {
		return &basePolicy{
			spec: Spec{Protect: true, UseTable: true, MultiCTR: true, MultiMAC: true, FreeSwitch: true, Oracle: true},
			ctr:  table32K, mac: table32K,
		}
	}},
	MACOnly: {name: "MAC-only", paper: true, build: func(*Options) Policy {
		return &macOnlyPolicy{basePolicy{spec: Spec{Protect: true}, ctr: fixed64, mac: fixed64}}
	}},
	MGXVersioned: {name: "MGX-versioned", paper: false, build: func(*Options) Policy {
		return &mgxPolicy{basePolicy{spec: Spec{Protect: true}, ctr: fixed64, mac: fixed64}}
	}},
}

// Schemes lists every registered scheme in registry order.
var Schemes = func() []Scheme {
	out := make([]Scheme, nSchemes)
	for i := range out {
		out[i] = Scheme(i)
	}
	return out
}()

// policyFor builds the Policy for one engine instance. Options are already
// filled, so builders can capture defaults (CommonCTRLimit, StaticGran).
// Out-of-range schemes panic — a caller bug, never valid input; a missing
// registry row for an in-range constant is caught by the drift-guard test.
func policyFor(s Scheme, o *Options) Policy {
	if s < 0 || s >= nSchemes || registry[s].build == nil {
		panic("core: unknown scheme")
	}
	return registry[s].build(o)
}

package core

// Regression tests pinning defects an mgmutate campaign proved invisible
// to the suite (see DESIGN.md, "Mutation testing"). Each test names the
// operator and site of the surviving mutant it kills.

import (
	"testing"

	"unimem/internal/mem"
	"unimem/internal/meta"
	"unimem/internal/probe"
	"unimem/internal/sim"
)

// Kills the off-by-one mutants on Options.fill's default guards
// (engine.go): an explicit value of 1 sits exactly on the <=0 boundary
// and must survive filling, for every guarded field.
func TestOptionsFillPreservesExplicitValues(t *testing.T) {
	o := Options{
		Devices: 1, MetaCacheBytes: 1, MACCacheBytes: 1, GTCacheBytes: 1,
		OTPPs: 1, XORPs: 1, CommonCTRLimit: 1, OpenUnits: 1,
	}
	o.fill()
	if o.Devices != 1 || o.MetaCacheBytes != 1 || o.MACCacheBytes != 1 ||
		o.GTCacheBytes != 1 || o.OTPPs != 1 || o.XORPs != 1 ||
		o.CommonCTRLimit != 1 || o.OpenUnits != 1 {
		t.Fatalf("fill clobbered explicit values: %+v", o)
	}
	var zero Options
	zero.fill()
	if zero.Devices != 4 || zero.OpenUnits != 16 {
		t.Fatalf("fill defaults off: %+v", zero)
	}
}

// Kills the off-by-one mutant on chunkOp.child's join-time update
// (pipeline.go): a child completing exactly one tick after the current
// latest must advance the join time, and an earlier child must not move
// it back.
func TestChunkOpChildAdvancesJoinTime(t *testing.T) {
	r := newRig(Ours, Options{})
	op := r.en.getOp(Request{Size: 64}, func(sim.Time) {})
	op.slot()
	op.slot()
	op.slot()
	op.child(100)
	if op.latest != 100 {
		t.Fatalf("latest = %d after child(100), want 100", op.latest)
	}
	op.child(101)
	if op.latest != 101 {
		t.Fatalf("latest = %d, want 101: a child one tick later must move the join", op.latest)
	}
	op.child(50)
	if op.latest != 101 {
		t.Fatalf("latest = %d, want 101: an earlier child must not move the join back", op.latest)
	}
	if op.pending != 0 {
		t.Fatalf("pending = %d after all children, want 0", op.pending)
	}
}

// Kills the swap-ineq mutant in partMask (pipeline.go): the partition
// holding the last byte of a span must be part of the mask.
func TestPartMaskCoversLastPartition(t *testing.T) {
	if got := partMask(0, 0, meta.PartitionSize); got != 0b1 {
		t.Fatalf("partMask one partition = %#b, want 0b1", got)
	}
	if got := partMask(0, 0, 2*meta.PartitionSize); got != 0b11 {
		t.Fatalf("partMask two partitions = %#b, want 0b11", got)
	}
	if got := partMask(0, meta.PartitionSize-64, 128); got != 0b11 {
		t.Fatalf("partMask straddling span = %#b, want 0b11", got)
	}
}

// Kills the unit-swap mutant on the MACDownRW data-fetch base
// (switching.go): demoting a written sub-chunk coarse unit must fetch
// that unit's own bytes, not an address scaled past the chunk. The
// scenario promotes only the second 4KB group of chunk 0 so the unit
// base block is nonzero — a whole-chunk unit has base 0 and hides any
// base-scaling defect.
func TestScaleDownFetchStaysInsideChunk(t *testing.T) {
	var captured []probe.Event
	armed := false
	pr := probe.Func(func(ev probe.Event) {
		if armed && ev.Kind == probe.EvMemRead && mem.Kind(ev.Class) == mem.Switch {
			captured = append(captured, ev)
		}
	})
	se := sim.NewEngine()
	mm := mem.New(se, mem.OrinConfig())
	en := New(se, mm, regionBytes, Ours, Options{Probe: pr})
	do := func(req Request) {
		t.Helper()
		done := false
		en.Submit(req, func(sim.Time) { done = true })
		se.RunAll()
		if !done {
			t.Fatalf("request %+v never completed", req)
		}
	}

	// Stream-write one 4KB unit at offset 4KB; the flush turns the
	// window into a detection (next = coarse group 1), the second write
	// commits the scale-up lazily.
	do(Request{Addr: 4096, Size: 4096, Write: true})
	en.Finish()
	if g := en.Table().Next(0).GranOf(8); g != meta.Gran4K {
		t.Fatalf("detected gran = %v, want Gran4K", g)
	}
	do(Request{Addr: 4096, Size: 4096, Write: true})
	en.Finish()
	if g := en.Table().Current(0).GranOf(8); g != meta.Gran4K {
		t.Fatalf("committed gran = %v, want Gran4K", g)
	}

	// Two sparse windows into the unit confirm the demotion
	// (two-strike hysteresis).
	for round := 0; round < 2; round++ {
		for _, a := range []uint64{4608, 6144, 7680} {
			do(Request{Addr: a, Size: 64})
		}
		en.Finish()
	}
	if g := en.Table().Next(0).GranOf(8); g != meta.Gran64 {
		t.Fatalf("demotion not pending: next gran = %v", g)
	}

	armed = true
	do(Request{Addr: 4096, Size: 64})
	if en.Stats.Switches.MACDownRW == 0 {
		t.Fatalf("switches = %+v, want MACDownRW", en.Stats.Switches)
	}
	if len(captured) == 0 {
		t.Fatal("demoting a written unit charged no switch fetch")
	}
	for _, ev := range captured {
		if ev.Addr+uint64(ev.Size) > meta.ChunkSize {
			t.Fatalf("switch fetch [%#x,+%d) escapes chunk 0", ev.Addr, ev.Size)
		}
	}
}

// Kills the negate-cond mutant on the write-only counter-unit expansion
// (pipeline.go, stage 5): under Multi(CTR)-only the counters follow the
// table while MACs stay 64B, so only the counter units can widen the data
// span. A cold sub-unit write into a 32KB counter unit must fetch the unit
// (read-modify of the shared counter's span); a read must not, since its
// 64B MAC verifies alone.
func TestCounterUnitsWidenWritesOnly(t *testing.T) {
	promoted := func() *rig {
		r := newRig(MultiCTROnly, Options{})
		r.do(Request{Addr: 0, Size: meta.ChunkSize}) // stream read -> detection
		r.do(Request{Addr: 0, Size: meta.ChunkSize}) // commits 32KB counters
		if g := r.en.Table().Current(0).GranOfBlock(5); g != meta.Gran32K {
			t.Fatalf("chunk 0 at %v, want 32KB", g)
		}
		return r
	}
	w := promoted()
	before := w.en.Stats.OverfetchBeats
	w.do(Request{Addr: 5 * meta.BlockSize, Size: meta.BlockSize, Write: true})
	if w.en.Stats.OverfetchBeats == before {
		t.Fatal("cold sub-unit write into a 32KB counter unit fetched no extra beats")
	}
	r := promoted()
	before = r.en.Stats.OverfetchBeats
	r.do(Request{Addr: 5 * meta.BlockSize, Size: meta.BlockSize})
	if r.en.Stats.OverfetchBeats != before {
		t.Fatalf("64B read overfetched %d beats through counter units", r.en.Stats.OverfetchBeats-before)
	}
}

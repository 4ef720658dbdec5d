package tracker

import (
	"testing"
	"testing/quick"

	"unimem/internal/meta"
	"unimem/internal/sim"
)

func newT() *Tracker {
	return New(Config{Entries: 4, LifetimePs: 1000})
}

func TestDetectAllFine(t *testing.T) {
	var bits [Words]uint64
	bits[0] = 0x7f // partition 0 missing one bit
	if sp := Detect(&bits); sp != 0 {
		t.Fatalf("sp = %#x, want 0", uint64(sp))
	}
}

func TestDetectStreamPartitions(t *testing.T) {
	var bits [Words]uint64
	bits[0] = 0xff      // partition 0 complete
	bits[2] = 0xff << 8 // partition 17 complete
	sp := Detect(&bits)
	if !sp.IsStream(0) || !sp.IsStream(17) {
		t.Fatalf("sp = %#x, want partitions 0 and 17", uint64(sp))
	}
	if sp.CountStream() != 2 {
		t.Fatalf("count = %d, want 2", sp.CountStream())
	}
}

func TestDetectFullChunk(t *testing.T) {
	var bits [Words]uint64
	for i := range bits {
		bits[i] = ^uint64(0)
	}
	if sp := Detect(&bits); sp != meta.AllStream {
		t.Fatalf("sp = %#x, want all-stream", uint64(sp))
	}
}

func TestFullChunkEviction(t *testing.T) {
	tr := New(Config{Entries: 4, LifetimePs: sim.MaxTime / 2})
	var dets []Detection
	for b := 0; b < meta.BlocksPerChunk; b++ {
		dets = append(dets, tr.Access(uint64(b*meta.BlockSize), 1)...)
	}
	if len(dets) != 1 {
		t.Fatalf("detections = %d, want 1", len(dets))
	}
	d := dets[0]
	if d.Cause != EvictFull || d.Chunk != 0 || d.Stream != meta.AllStream {
		t.Fatalf("detection = %+v", d)
	}
	if tr.Occupancy() != 0 {
		t.Fatal("entry survived full eviction")
	}
}

func TestDuplicateTouchesDoNotDoubleCount(t *testing.T) {
	tr := New(Config{Entries: 4, LifetimePs: sim.MaxTime / 2})
	for i := 0; i < 1000; i++ {
		if dets := tr.Access(0, 1); len(dets) != 0 {
			t.Fatal("repeated single-block touches evicted the entry")
		}
	}
}

func TestLifetimeEviction(t *testing.T) {
	tr := newT() // lifetime 1000
	tr.Access(0, 0)
	dets := tr.Access(meta.ChunkSize, 1000) // different chunk, first expired
	if len(dets) != 1 || dets[0].Cause != EvictLifetime {
		t.Fatalf("dets = %+v, want one lifetime eviction", dets)
	}
}

func TestLRUCapacityEviction(t *testing.T) {
	tr := New(Config{Entries: 2, LifetimePs: sim.MaxTime / 2})
	tr.Access(0*meta.ChunkSize, 1)
	tr.Access(1*meta.ChunkSize, 2)
	tr.Access(0*meta.ChunkSize, 3) // chunk 0 now MRU
	dets := tr.Access(2*meta.ChunkSize, 4)
	if len(dets) != 1 || dets[0].Cause != EvictLRU || dets[0].Chunk != 1 {
		t.Fatalf("dets = %+v, want LRU eviction of chunk 1", dets)
	}
}

func TestStreamDetectionPartialChunk(t *testing.T) {
	tr := New(Config{Entries: 1, LifetimePs: sim.MaxTime / 2})
	// Touch every block of partition 3 and one block of partition 5.
	for b := 0; b < meta.BlocksPerPartition; b++ {
		tr.Access(uint64(3*meta.PartitionSize+b*meta.BlockSize), 1)
	}
	tr.Access(5*meta.PartitionSize, 1)
	dets := tr.Flush()
	if len(dets) != 1 {
		t.Fatalf("flush produced %d detections", len(dets))
	}
	sp := dets[0].Stream
	if !sp.IsStream(3) || sp.IsStream(5) || sp.CountStream() != 1 {
		t.Fatalf("sp = %#x, want only partition 3", uint64(sp))
	}
	if dets[0].Cause != EvictFlush {
		t.Fatal("flush cause wrong")
	}
}

func TestStorageBits(t *testing.T) {
	tr := New(DefaultConfig())
	// Paper section 4.5: 12 x 561 bits = 6732 bits = 842B (rounding up).
	if got := tr.StorageBits(); got != 12*561 {
		t.Fatalf("storage = %d bits, want %d", got, 12*561)
	}
}

func TestDefaultsApplied(t *testing.T) {
	tr := New(Config{})
	if tr.cfg.Entries != 12 || tr.cfg.LifetimePs != 16384*sim.PsPerGPUCycle {
		t.Fatalf("defaults not applied: %+v", tr.cfg)
	}
}

func TestStatsAccounting(t *testing.T) {
	tr := New(Config{Entries: 2, LifetimePs: sim.MaxTime / 2})
	for b := 0; b < meta.BlocksPerChunk; b++ {
		tr.Access(uint64(b*meta.BlockSize), 1)
	}
	if tr.Stats.Detections != 1 || tr.Stats.Evictions[EvictFull] != 1 {
		t.Fatalf("stats = %+v", tr.Stats)
	}
	if tr.Stats.StreamBits != 64 {
		t.Fatalf("stream bits = %d, want 64", tr.Stats.StreamBits)
	}
	if tr.Stats.Accesses != meta.BlocksPerChunk {
		t.Fatalf("accesses = %d", tr.Stats.Accesses)
	}
}

func TestCauseStrings(t *testing.T) {
	for c, s := range map[EvictCause]string{EvictFull: "full", EvictLifetime: "lifetime", EvictLRU: "lru", EvictFlush: "flush", EvictCause(9): "unknown"} {
		if c.String() != s {
			t.Fatalf("cause %d = %q, want %q", c, c.String(), s)
		}
	}
}

// Property: Detect marks partition p iff all 8 of its bits are set.
func TestDetectProperty(t *testing.T) {
	f := func(raw [Words]uint64) bool {
		sp := Detect(&raw)
		for p := meta.PartIdx(0); p < meta.PartsPerChunk; p++ {
			all := byte(raw[p/8]>>(uint(p%8)*8)) == 0xff
			if sp.IsStream(p) != all {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(100)); err != nil {
		t.Fatal(err)
	}
}

// Property: a sequential walk over any whole chunk always yields an
// all-stream detection for that chunk.
func TestSequentialWalkDetectsStreamProperty(t *testing.T) {
	f := func(chunkSeed uint16) bool {
		tr := New(Config{Entries: 4, LifetimePs: sim.MaxTime / 2})
		base := uint64(chunkSeed) * meta.ChunkSize
		var dets []Detection
		for b := 0; b < meta.BlocksPerChunk; b++ {
			dets = append(dets, tr.Access(base+uint64(b*meta.BlockSize), 5)...)
		}
		return len(dets) == 1 && dets[0].Stream == meta.AllStream && dets[0].Chunk == meta.ChunkIdx(chunkSeed)
	}
	if err := quick.Check(f, quickCfg(20)); err != nil {
		t.Fatal(err)
	}
}

// Property: AccessRange is semantically identical to per-block Access.
func TestAccessRangeEquivalenceProperty(t *testing.T) {
	f := func(start uint16, span uint16) bool {
		addr := uint64(start) * meta.BlockSize
		size := (int(span)%2048 + 1) * meta.BlockSize
		a := New(Config{Entries: 4, LifetimePs: sim.MaxTime / 2})
		b := New(Config{Entries: 4, LifetimePs: sim.MaxTime / 2})
		// AccessRange returns tracker-owned scratch; copy before a.Flush
		// reuses it below.
		detA := append([]Detection(nil), a.AccessRange(addr, size, 5)...)
		var detB []Detection
		for off := 0; off < size; off += meta.BlockSize {
			detB = append(detB, b.Access(addr+uint64(off), 5)...)
		}
		detA = append(detA, a.Flush()...)
		detB = append(detB, b.Flush()...)
		if len(detA) != len(detB) {
			return false
		}
		seen := map[meta.ChunkIdx]meta.StreamPart{}
		for _, d := range detA {
			seen[d.Chunk] = d.Stream
		}
		for _, d := range detB {
			if seen[d.Chunk] != d.Stream {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(60)); err != nil {
		t.Fatal(err)
	}
}

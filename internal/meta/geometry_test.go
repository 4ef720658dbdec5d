package meta

import (
	"testing"
	"testing/quick"
)

// A small 1MB region keeps exhaustive tests fast: 16384 blocks.
func smallGeom() *Geometry { return NewGeometry(1 << 20) }

func TestGeometryLevels(t *testing.T) {
	g := smallGeom()
	// 16384 block counters -> lines per level: 2048, 256, 32, 4; the 4-entry
	// level is held on chip.
	if g.Levels() != 4 {
		t.Fatalf("levels = %d, want 4", g.Levels())
	}
	if g.RootEntries() != 4 {
		t.Fatalf("root entries = %d, want 4", g.RootEntries())
	}
}

func TestGeometry4GB(t *testing.T) {
	g := NewGeometry(4 << 30)
	// 2^26 blocks -> levels of 2^23, 2^20, 2^17, 2^14, 2^11, 2^8, 2^5, 2^2
	// lines; the last stored level has 32 entries... the 4-line level's 4
	// entries... iterate: entries 2^26,2^23,...,stop when <=8: 2^2=4 -> 8
	// stored levels + 4 root entries... entries sequence: 2^26 (L0 lines
	// 2^23), 2^23 (L1), 2^20, 2^17, 2^14, 2^11, 2^8, 2^5, 2^2=4 <= 8 stop.
	if g.Levels() != 8 {
		t.Fatalf("levels = %d, want 8", g.Levels())
	}
	// Granularity table: 1 bit per 512B for current = 1MB, same for next
	// (paper: ~2MB for 4GB).
	gtBytes := g.End - g.GTBase
	if gtBytes != 2<<20 {
		t.Fatalf("granularity table = %d bytes, want 2MB", gtBytes)
	}
}

func TestGeometryBadRegionPanics(t *testing.T) {
	for _, n := range []uint64{0, ChunkSize - 1, ChunkSize + 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGeometry(%d) did not panic", n)
				}
			}()
			NewGeometry(n)
		}()
	}
}

func TestRegionsDisjoint(t *testing.T) {
	g := smallGeom()
	if !(g.RegionBytes <= g.MACBase && g.MACBase < g.CounterBase && g.CounterBase < g.GTBase && g.GTBase < g.End) {
		t.Fatalf("regions out of order: %+v", g)
	}
	// MAC region: 8B per block.
	if g.CounterBase-g.MACBase != uint64(g.Blocks())*MACSize {
		t.Fatal("MAC region size wrong")
	}
}

func TestCounterAddressing(t *testing.T) {
	g := smallGeom()
	// Block 0: L0 counter in first L0 line, slot 0.
	if addr := g.CounterLineAddr(0, 0); addr != g.CounterBase {
		t.Fatalf("L0 line of block 0 at %#x, want CounterBase %#x", addr, g.CounterBase)
	}
	// Block 9: L0 entry 9 -> line 1, slot 1.
	if addr := g.CounterLineAddr(0, 9); addr != g.CounterBase+64 {
		t.Fatal("L0 line of block 9 wrong")
	}
	if slot := g.CounterSlot(0, 9); slot != 1 {
		t.Fatalf("slot = %d, want 1", slot)
	}
	// Level 1: one counter per 512B; block 9 -> entry 1 -> line 0 slot 1.
	if slot := g.CounterSlot(1, 9); slot != 1 {
		t.Fatalf("L1 slot = %d, want 1", slot)
	}
}

func TestCounterLevelArraysDisjoint(t *testing.T) {
	g := smallGeom()
	type span struct{ lo, hi uint64 }
	var spans []span
	for l := 0; l < g.Levels(); l++ {
		lo := g.CounterLineAddr(l, 0)
		hi := g.CounterLineAddr(l, g.Blocks()-1) + BlockSize
		spans = append(spans, span{lo, hi})
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			t.Fatalf("level %d overlaps level %d", i, i-1)
		}
	}
	if spans[len(spans)-1].hi > g.GTBase {
		t.Fatal("counter levels overflow into granularity table")
	}
}

func TestRootSlotBounded(t *testing.T) {
	g := smallGeom()
	for blk := BlockIdx(0); blk < g.Blocks(); blk += 977 {
		if s := g.RootSlot(blk); s < 0 || s >= g.RootEntries() {
			t.Fatalf("root slot %d out of [0,%d)", s, g.RootEntries())
		}
	}
}

func TestMACAddressing(t *testing.T) {
	g := smallGeom()
	if a := g.MACAddr(0, 0); a != g.MACBase {
		t.Fatal("first MAC not at MACBase")
	}
	// Slot 8 starts the second MAC line.
	if a := g.MACLineAddr(0, 8); a != g.MACBase+64 {
		t.Fatal("slot 8 line wrong")
	}
	// Chunk 1's slots start after chunk 0's full fine-grained reservation.
	if a := g.MACAddr(1, 0); a != g.MACBase+BlocksPerChunk*MACSize {
		t.Fatal("chunk 1 MAC base wrong")
	}
}

func TestMACAddrForUsesEncoding(t *testing.T) {
	g := smallGeom()
	addr := uint64(ChunkSize + 8*BlockSize) // chunk 1, block 8 (partition 1)
	fineAddr, fineGran := g.MACAddrFor(addr, 0)
	coarseAddr, coarseGran := g.MACAddrFor(addr, StreamPart(0b11))
	if fineGran != Gran64 || coarseGran != Gran512 {
		t.Fatalf("grans = %v,%v", fineGran, coarseGran)
	}
	if fineAddr == coarseAddr {
		t.Fatal("compaction did not move the MAC")
	}
	// Compacted: slot 1 of chunk 1.
	if want := g.MACAddr(1, 1); coarseAddr != want {
		t.Fatalf("coarse MAC at %#x, want %#x", coarseAddr, want)
	}
}

func TestMACSlotRangePanics(t *testing.T) {
	g := smallGeom()
	defer func() {
		if recover() == nil {
			t.Fatal("MACLineAddr(0, 512) did not panic")
		}
	}()
	g.MACLineAddr(0, BlocksPerChunk)
}

func TestWalkLen(t *testing.T) {
	g := smallGeom() // 4 stored levels
	want := map[Gran]int{Gran64: 4, Gran512: 3, Gran4K: 2, Gran32K: 1}
	for gran, n := range want {
		if got := g.WalkLen(gran); got != n {
			t.Errorf("WalkLen(%v) = %d, want %d", gran, got, n)
		}
	}
}

func TestGTEntryAddr(t *testing.T) {
	g := smallGeom()
	if a := g.GTEntryAddr(0); a != g.GTBase {
		t.Fatal("chunk 0 GT entry not at GTBase")
	}
	if a := g.GTEntryAddr(3); a != g.GTBase+3*GTEntrySize {
		t.Fatal("GT entry stride wrong")
	}
	if g.End-g.GTBase != uint64(g.Chunks())*GTEntrySize {
		t.Fatal("GT region size wrong")
	}
}

func TestCheckLevelPanics(t *testing.T) {
	g := smallGeom()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range level did not panic")
		}
	}()
	g.CounterLineAddr(g.Levels(), 0)
}

// Property: counter line addresses at one level never collide across
// different entries, and always fall inside the level's array.
func TestCounterAddressInjectivityProperty(t *testing.T) {
	g := smallGeom()
	f := func(b1, b2 uint32, lvl uint8) bool {
		l := int(lvl) % g.Levels()
		blk1 := BlockIdx(b1) % g.Blocks()
		blk2 := BlockIdx(b2) % g.Blocks()
		a1 := g.CounterLineAddr(l, blk1)
		a2 := g.CounterLineAddr(l, blk2)
		e1 := g.CounterEntryIndex(l, blk1)
		e2 := g.CounterEntryIndex(l, blk2)
		if e1/Arity == e2/Arity {
			return a1 == a2
		}
		return a1 != a2
	}
	if err := quick.Check(f, quickCfg(100)); err != nil {
		t.Fatal(err)
	}
}

// Property: MAC addresses of distinct chunks never collide.
func TestMACChunkIsolationProperty(t *testing.T) {
	g := smallGeom()
	f := func(c1, c2 uint8, s1, s2 uint16) bool {
		ch1 := ChunkIdx(c1) % g.Chunks()
		ch2 := ChunkIdx(c2) % g.Chunks()
		sl1 := int(s1) % BlocksPerChunk
		sl2 := int(s2) % BlocksPerChunk
		a1 := g.MACAddr(ch1, sl1)
		a2 := g.MACAddr(ch2, sl2)
		if ch1 == ch2 && sl1 == sl2 {
			return a1 == a2
		}
		return a1 != a2
	}
	if err := quick.Check(f, quickCfg(100)); err != nil {
		t.Fatal(err)
	}
}

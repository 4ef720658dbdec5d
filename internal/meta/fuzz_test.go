package meta

import "testing"

// FuzzMACSlot fuzzes the Fig. 9 MAC-compaction mapping: for every encoding
// and block, the resolved slot must fall inside the compacted prefix, agree
// with the encoding's granularity view, be shared by every block of the
// unit, and pack units front-to-back in address order.
func FuzzMACSlot(f *testing.F) {
	f.Add(uint64(0), 0)           // all fine
	f.Add(uint64(AllStream), 511) // one 32KB unit
	f.Add(uint64(0xff)<<24, 200)  // one 4KB group
	f.Add(uint64(0x8001), 17)     // two stream partitions
	f.Add(uint64(0xfffe_0000_0000_00ff), 300)
	f.Fuzz(func(t *testing.T, spBits uint64, raw int) {
		sp := StreamPart(spBits)
		b := ChunkBlock(((raw % BlocksPerChunk) + BlocksPerChunk) % BlocksPerChunk)

		slot, g := sp.MACSlot(b)
		if want := sp.GranOfBlock(b); g != want {
			t.Fatalf("sp=%#x b=%d: slot granularity %v, encoding says %v", spBits, b, g, want)
		}
		used := sp.SlotsUsed()
		if used < 1 || used > BlocksPerChunk {
			t.Fatalf("sp=%#x: SlotsUsed %d outside [1,%d]", spBits, used, BlocksPerChunk)
		}
		if slot < 0 || slot >= used {
			t.Fatalf("sp=%#x b=%d: slot %d outside compacted prefix %d", spBits, b, slot, used)
		}

		// Every block of the unit shares the unit's single MAC slot.
		u := sp.UnitOf(b)
		for _, probe := range []ChunkBlock{u.Block, u.End() - 1} {
			ps, pg := sp.MACSlot(probe)
			if pg != g || (g != Gran64 && ps != slot) {
				t.Fatalf("sp=%#x: unit [%d,+%d) blocks disagree: (%d,%v) vs (%d,%v)",
					spBits, u.Block, u.Blocks(), slot, g, ps, pg)
			}
		}

		// Front-to-back packing: the next unit starts at a strictly greater
		// slot (fragmentation-free compaction, Fig. 9).
		if next := u.End(); next < BlocksPerChunk && sp != AllStream {
			us, _ := sp.MACSlot(u.Block)
			ns, _ := sp.MACSlot(next)
			if ns <= us {
				t.Fatalf("sp=%#x: unit at %d has slot %d, next unit at %d has slot %d (not ascending)",
					spBits, u.Block, us, next, ns)
			}
		}
	})
}

// FuzzGeometryEqs fuzzes the Eq. 1-4 metadata address computation across
// region sizes: parent-index division (Eq. 3), counter lines confined to the
// counter region and ascending with level (Eq. 4), and compacted MAC
// addresses confined to the MAC region (Eq. 1). Under -tags invariants the
// MACAddrFor call additionally exercises the internal/check assertions.
func FuzzGeometryEqs(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint64(0))
	f.Add(uint64(128), uint64(511), uint64(AllStream))
	f.Add(uint64(7), uint64(3*512+200), uint64(0xff)<<24)
	f.Fuzz(func(t *testing.T, chunks, rawBlock, spBits uint64) {
		chunks = chunks%256 + 1
		g := NewGeometry(chunks * ChunkSize)
		blockIdx := BlockIdx(rawBlock) % g.Blocks()
		sp := StreamPart(spBits)

		for level := 0; level+1 < g.Levels(); level++ {
			parent := g.CounterEntryIndex(level+1, blockIdx)
			if parent != g.CounterEntryIndex(level, blockIdx)/Arity {
				t.Fatalf("chunks=%d block=%d: Eq.3 broken at level %d", chunks, blockIdx, level)
			}
		}

		var prev uint64
		for level := 0; level < g.Levels(); level++ {
			a := g.CounterLineAddr(level, blockIdx)
			if a < g.CounterBase || a >= g.GTBase {
				t.Fatalf("chunks=%d block=%d level=%d: counter line %#x outside [%#x,%#x)",
					chunks, blockIdx, level, a, g.CounterBase, g.GTBase)
			}
			if !Aligned(a, BlockSize) {
				t.Fatalf("counter line %#x not 64B aligned", a)
			}
			if level > 0 && a <= prev {
				t.Fatalf("chunks=%d block=%d: walk not ascending at level %d (%#x after %#x)",
					chunks, blockIdx, level, a, prev)
			}
			prev = a
		}

		dataAddr := uint64(blockIdx) * BlockSize
		macAddr, gran := g.MACAddrFor(dataAddr, sp)
		if macAddr < g.MACBase || macAddr >= g.CounterBase {
			t.Fatalf("MAC addr %#x outside MAC region [%#x,%#x)", macAddr, g.MACBase, g.CounterBase)
		}
		if want := sp.GranOfBlock(BlockInChunk(dataAddr)); gran != want {
			t.Fatalf("MACAddrFor granularity %v, encoding says %v", gran, want)
		}
	})
}

package meta

import "testing"

func TestTableDefaultsFine(t *testing.T) {
	tb := NewTable()
	if tb.Current(5) != 0 || tb.Next(5) != 0 {
		t.Fatal("untouched chunk not fine-grained")
	}
	if tb.Pending(5, 0) {
		t.Fatal("untouched chunk pending")
	}
}

func TestSetNextThenLazyCommit(t *testing.T) {
	tb := NewTable()
	tb.SetNext(7, StreamPart(0b11)) // partitions 0,1 become 512B
	if tb.Current(7) != 0 {
		t.Fatal("SetNext applied eagerly")
	}
	if !tb.Pending(7, 0) || !tb.Pending(7, 8) {
		t.Fatal("switch not pending on affected partitions")
	}
	if tb.Pending(7, 16) {
		t.Fatal("switch pending on unaffected partition")
	}
	from, to := tb.CommitUnit(7, 0)
	if from != Gran64 || to != Gran512 {
		t.Fatalf("commit = %v->%v, want 64B->512B", from, to)
	}
	if tb.Current(7) != StreamPart(0b01) {
		t.Fatalf("current = %#x, want 0b01 (only unit 0 committed)", uint64(tb.Current(7)))
	}
	tb.CommitUnit(7, 8)
	if tb.Current(7) != StreamPart(0b11) {
		t.Fatal("second unit not committed")
	}
	if tb.PendingChunks() != 0 {
		t.Fatal("fully committed chunk still pending")
	}
}

func TestCommitUnitNoPending(t *testing.T) {
	tb := NewTable()
	from, to := tb.CommitUnit(3, 0)
	if from != Gran64 || to != Gran64 {
		t.Fatal("no-op commit changed granularity")
	}
}

func TestDemotionCommitSpansCoarseUnit(t *testing.T) {
	tb := NewTable()
	// Chunk starts as one 4KB unit over group 0.
	tb.SetNext(1, StreamPart(0xff))
	tb.CommitUnit(1, 0)
	if tb.Current(1) != StreamPart(0xff) {
		t.Fatal("promotion to 4KB failed")
	}
	// Detection now says group 0 is fine-grained.
	tb.SetNext(1, 0)
	// A touch of block 9 (partition 1) must demote the whole 4KB unit.
	from, to := tb.CommitUnit(1, 9)
	if from != Gran4K || to != Gran64 {
		t.Fatalf("commit = %v->%v, want 4KB->64B", from, to)
	}
	if tb.Current(1) != 0 {
		t.Fatalf("current = %#x, want 0 after demotion", uint64(tb.Current(1)))
	}
}

func TestSetNextEqualCurrentClearsPending(t *testing.T) {
	tb := NewTable()
	tb.SetNext(2, StreamPart(0b1))
	tb.SetNext(2, 0) // detection reverts before any access
	if tb.PendingChunks() != 0 {
		t.Fatal("pending not cleared when next == current")
	}
}

func TestCommitAll(t *testing.T) {
	tb := NewTable()
	tb.SetNext(4, AllStream)
	tb.CommitAll(4)
	if tb.Current(4) != AllStream || tb.PendingChunks() != 0 {
		t.Fatal("CommitAll broken")
	}
}

func TestPartialPromotion32K(t *testing.T) {
	tb := NewTable()
	tb.SetNext(9, AllStream)
	// Committing any block of the 32KB next-unit applies the whole chunk.
	from, to := tb.CommitUnit(9, 300)
	if from != Gran64 || to != Gran32K {
		t.Fatalf("commit = %v->%v, want 64B->32KB", from, to)
	}
	if tb.Current(9) != AllStream {
		t.Fatal("32KB promotion did not cover chunk")
	}
}

func TestReset(t *testing.T) {
	tb := NewTable()
	tb.SetNext(1, AllStream)
	tb.CommitAll(1)
	tb.Reset()
	if tb.Chunks() != 0 || tb.PendingChunks() != 0 || tb.Current(1) != 0 {
		t.Fatal("reset incomplete")
	}
}

// Property: repeatedly committing units for random blocks converges the
// current encoding to the pending one, regardless of order.
func TestCommitConvergesProperty(t *testing.T) {
	for seed := uint64(1); seed < 40; seed++ {
		tb := NewTable()
		cur := StreamPart(seed * 0x9e3779b97f4a7c15)
		next := StreamPart(seed * 0xbf58476d1ce4e5b9)
		tb.SetNext(3, cur)
		tb.CommitAll(3)
		tb.SetNext(3, next)
		// Touch every partition once (any order would do; use a stride
		// that permutes 0..63).
		for i := 0; i < PartsPerChunk; i++ {
			p := PartIdx((i*37 + int(seed)) % PartsPerChunk)
			tb.CommitUnit(3, p.FirstBlock())
		}
		if tb.Current(3) != next {
			t.Fatalf("seed %d: current %#x, want %#x", seed, uint64(tb.Current(3)), uint64(next))
		}
		if tb.PendingChunks() != 0 {
			t.Fatalf("seed %d: still pending after full commit", seed)
		}
	}
}

// A partial commit must never complete a coarser pattern the next encoding
// did not ask for: with partitions 24..30 already streaming, promoting
// partition 31 alone would set the group to 0xff — which the encoding
// defines as a 4KB unit — silently reinterpreting metadata laid out as
// eight 512B partitions. Such commits widen to take the whole group from
// next instead (a regression fixed alongside the invariants layer).
func TestCommitDoesNotAccidentallyCoarsen(t *testing.T) {
	tb := NewTable()
	cur := StreamPart(0x7f) << 24  // group 3: partitions 24..30 stream
	next := StreamPart(0x80) << 24 // group 3: only partition 31 streams
	tb.SetNext(3, cur)
	tb.CommitAll(3)
	tb.SetNext(3, next)

	p := PartIdx(31)
	from, to := tb.CommitUnit(3, p.FirstBlock())
	if from != Gran64 || to != Gran512 {
		t.Fatalf("commit = %v->%v, want 64B->512B", from, to)
	}
	if g := tb.Current(3).GranOf(p); g != Gran512 {
		t.Fatalf("partition %d at %v after commit, want 512B", p, g)
	}

	// The chunk-level analogue: completing the last group of an otherwise
	// fully streaming chunk must not form AllStream (= one 32KB unit).
	tb2 := NewTable()
	cur2 := AllStream &^ (StreamPart(0x80) << 56) // all but partition 63
	next2 := StreamPart(0x80) << 56               // only partition 63
	tb2.SetNext(4, cur2)
	tb2.CommitAll(4)
	tb2.SetNext(4, next2)
	tb2.CommitUnit(4, 63*BlocksPerPartition)
	if g := tb2.Current(4).GranOf(63); g != Gran512 {
		t.Fatalf("partition 63 at %v after commit, want 512B", g)
	}
}

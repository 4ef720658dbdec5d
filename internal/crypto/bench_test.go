package crypto

import "testing"

// Sinks keep the compiler from discarding benchmarked results.
var (
	macSink MAC
	ctSink  [BlockSize]byte
)

// TestMACsDoNotAllocate guards the reused keyed state: no MAC primitive
// allocates once the engine exists.
func TestMACsDoNotAllocate(t *testing.T) {
	e := NewEngine(1)
	ct := make([]byte, BlockSize)
	fine := make([]MAC, 512)
	counters := make([]uint64, 8)
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"BlockMAC", func() { macSink = e.BlockMAC(0x40, 3, ct) }},
		{"NestedMAC", func() { macSink = e.NestedMAC(fine) }},
		{"NodeMAC", func() { macSink = e.NodeMAC(0x40, 3, counters) }},
		{"SealInto", func() { e.SealInto(&ctSink, 0x40, 3, ct) }},
		{"OpenInto", func() { e.OpenInto(&ctSink, 0x40, 3, ct) }},
	} {
		if n := testing.AllocsPerRun(20, c.fn); n != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", c.name, n)
		}
	}
}

// TestIntoAliasesInput: SealInto and OpenInto may write over their input.
func TestIntoAliasesInput(t *testing.T) {
	e := NewEngine(2)
	var buf [BlockSize]byte
	for i := range buf {
		buf[i] = byte(i)
	}
	want := e.Seal(0x80, 5, buf[:])
	e.SealInto(&buf, 0x80, 5, buf[:])
	if string(buf[:]) != string(want) {
		t.Fatal("in-place SealInto differs from Seal")
	}
	e.OpenInto(&buf, 0x80, 5, buf[:])
	for i := range buf {
		if buf[i] != byte(i) {
			t.Fatal("in-place OpenInto did not restore the plaintext")
		}
	}
}

// TestBlockMACAnyLength: BlockMAC stages its input through a 64B buffer;
// inputs longer than one buffer must hash as one message.
func TestBlockMACAnyLength(t *testing.T) {
	e := NewEngine(3)
	long := make([]byte, 3*BlockSize+5)
	a := e.BlockMAC(0, 1, long)
	long[len(long)-1] ^= 1
	if Equal(a, e.BlockMAC(0, 1, long)) {
		t.Fatal("the tail past the staging buffer is not hashed")
	}
	long[len(long)-1] ^= 1
	long[BlockSize+1] ^= 1
	if Equal(a, e.BlockMAC(0, 1, long)) {
		t.Fatal("the second staged chunk is not hashed")
	}
}

func BenchmarkBlockMAC(b *testing.B) {
	e := NewEngine(1)
	ct := make([]byte, BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		macSink = e.BlockMAC(uint64(i)*BlockSize, uint64(i), ct)
	}
}

// BenchmarkNestedMAC512 folds the fine MACs of one 32KB unit.
func BenchmarkNestedMAC512(b *testing.B) {
	e := NewEngine(1)
	fine := make([]MAC, 512)
	for i := range fine {
		fine[i] = MAC{byte(i), byte(i >> 8)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		macSink = e.NestedMAC(fine)
	}
}

func BenchmarkNodeMAC(b *testing.B) {
	e := NewEngine(1)
	counters := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		macSink = e.NodeMAC(uint64(i)*BlockSize, uint64(i), counters)
	}
}

// BenchmarkSeal measures SealInto, the form the data path uses; Seal adds
// one 64B allocation for the slice it returns.
func BenchmarkSeal(b *testing.B) {
	e := NewEngine(1)
	pt := make([]byte, BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.SealInto(&ctSink, uint64(i)*BlockSize, uint64(i), pt)
	}
}

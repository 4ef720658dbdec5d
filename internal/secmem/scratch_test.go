package secmem

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"unimem/internal/meta"
)

// Tests for the staging scratch the data path reuses across operations
// (Memory.fines, Memory.plain/held) and for the allocations it saves.

// granChunks builds a 4-chunk memory whose chunk g holds one fully written
// unit of granularity g at the chunk base: 64B, 512B, 4KB, 32KB.
func granChunks(t testing.TB) *Memory {
	m := New(4*meta.ChunkSize, 7)
	for g := meta.Gran64; g <= meta.Gran32K; g++ {
		base := uint64(g) * meta.ChunkSize
		if g != meta.Gran64 {
			if err := m.Promote(meta.ChunkIdx(g), 0, int(g.Bytes()/meta.PartitionSize)); err != nil {
				t.Fatal(err)
			}
		}
		for a := base; a < base+g.Bytes(); a += meta.BlockSize {
			if err := m.Write(a, block(byte(a>>6))); err != nil {
				t.Fatal(err)
			}
		}
		if got := m.GranOf(base); got != g {
			t.Fatalf("chunk %d unit is %v, want %v", g, got, g)
		}
	}
	return m
}

// TestDataPathAllocs: a read allocates only the plaintext it returns, at
// any granularity, and a steady-state overwrite of a written unit
// allocates nothing.
func TestDataPathAllocs(t *testing.T) {
	m := granChunks(t)
	for g := meta.Gran64; g <= meta.Gran32K; g++ {
		addr := uint64(g)*meta.ChunkSize + uint64(g.Blocks()-1)*meta.BlockSize
		read := func() {
			if _, err := m.Read(addr); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(10, read); n > 1 {
			t.Errorf("Read in a %v unit allocates %.1f times, want at most 1", g, n)
		}
		pt := block(0x3c)
		write := func() {
			if err := m.Write(addr, pt); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(10, write); n != 0 {
			t.Errorf("overwrite in a %v unit allocates %.1f times, want 0", g, n)
		}
	}
}

// TestStagingZeroesNeverWrittenMembers: after an op that staged non-zero
// plaintext at every block position, units with never-written members —
// a pristine chunk whose table entry already reads 32KB (as a loaded image
// can hold), and a partly written chunk promoted to 32KB — must still read
// zeros there.
func TestStagingZeroesNeverWrittenMembers(t *testing.T) {
	m := New(4*meta.ChunkSize, 9)
	// Chunk 0: a written 32KB unit; each write stages all 512 blocks.
	if err := m.Promote(0, 0, meta.PartsPerChunk); err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < meta.ChunkSize; a += meta.BlockSize {
		mustWrite(t, m, a, block(0xff))
	}
	// Chunk 1: pristine, recorded as 32KB. Its unit has no MAC and no
	// stored block; the first write must materialize zeros around itself.
	m.table.SetNext(1, meta.AllStream)
	m.table.CommitAll(1)
	mustWrite(t, m, meta.ChunkSize+7*meta.BlockSize, block(1))
	// Chunk 2: one block written at 64B, then promoted.
	mustWrite(t, m, 2*meta.ChunkSize+3*meta.BlockSize, block(2))
	mustWrite(t, m, 0, block(0xfe)) // stage non-zero data again
	if err := m.Promote(2, 0, meta.PartsPerChunk); err != nil {
		t.Fatal(err)
	}
	zero := make([]byte, meta.BlockSize)
	for c, written := range map[uint64]uint64{1: 7, 2: 3} {
		base := c * meta.ChunkSize
		for b := uint64(0); b < meta.BlocksPerChunk; b++ {
			got := mustRead(t, m, base+b*meta.BlockSize)
			if b != written && !bytes.Equal(got, zero) {
				t.Fatalf("chunk %d never-written block %d reads %x, want zeros", c, b, got[:8])
			}
		}
	}
}

// TestReadResultIsCallerOwned: mutating a slice Read returned changes no
// later read.
func TestReadResultIsCallerOwned(t *testing.T) {
	m := granChunks(t)
	for g := meta.Gran64; g <= meta.Gran32K; g++ {
		addr := uint64(g) * meta.ChunkSize
		first := mustRead(t, m, addr)
		want := bytes.Clone(first)
		for i := range first {
			first[i] ^= 0xa5
		}
		if got := mustRead(t, m, addr); !bytes.Equal(got, want) {
			t.Fatalf("%v unit: a caller's edit to a returned slice reached a later read", g)
		}
	}
}

// imageDigest drives a fixed op sequence on a fresh memory keyed by seed
// and returns the SHA-256 of its saved image.
func imageDigest(seed uint64) (string, error) {
	m := New(2*meta.ChunkSize, seed)
	for i := uint64(0); i < 64; i++ {
		if err := m.Write(i*5%512*meta.BlockSize, block(byte(i))); err != nil {
			return "", err
		}
		if i == 20 {
			if err := m.Promote(0, 0, meta.PartsPerChunk); err != nil {
				return "", err
			}
		}
		if i == 40 {
			if err := m.Demote(0, 8, 8); err != nil {
				return "", err
			}
		}
		if _, err := m.Read(meta.ChunkSize + i*meta.BlockSize); err != nil {
			return "", err
		}
	}
	h := sha256.New()
	roots, err := m.Save(h)
	return fmt.Sprintf("%x %v", h.Sum(nil), roots), err
}

// TestMemoriesRunInParallel: each Memory owns its engine and scratch, so
// two memories under different keys driven from parallel goroutines end
// with the images a sequential run produces. Run under -race.
func TestMemoriesRunInParallel(t *testing.T) {
	seeds := []uint64{3, 4}
	want := make([]string, len(seeds))
	for i, s := range seeds {
		d, err := imageDigest(s)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = d
	}
	if want[0] == want[1] {
		t.Fatal("different keys produced the same image")
	}
	got := make([]string, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, s := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = imageDigest(s)
		}()
	}
	wg.Wait()
	for i := range seeds {
		if errs[i] != nil || got[i] != want[i] {
			t.Errorf("seed %d: parallel run gave %s (%v), sequential %s", seeds[i], got[i], errs[i], want[i])
		}
	}
}

var readSink []byte

// BenchmarkRead and BenchmarkWrite time one 64B access to the last block
// of a fully written unit at each granularity: a coarse unit verifies
// (and on write reseals) every member.
func BenchmarkRead(b *testing.B) {
	m := granChunks(b)
	for g := meta.Gran64; g <= meta.Gran32K; g++ {
		addr := uint64(g)*meta.ChunkSize + uint64(g.Blocks()-1)*meta.BlockSize
		b.Run(g.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if readSink, err = m.Read(addr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWrite(b *testing.B) {
	m := granChunks(b)
	pt := block(0x5a)
	for g := meta.Gran64; g <= meta.Gran32K; g++ {
		addr := uint64(g)*meta.ChunkSize + uint64(g.Blocks()-1)*meta.BlockSize
		b.Run(g.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := m.Write(addr, pt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

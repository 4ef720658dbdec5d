package unimem

import (
	"errors"
	"testing"
)

// FuzzProtectedBoundary drives Read, Write and Verify with arbitrary
// addresses and plaintext lengths, and Promote and Demote with arbitrary
// chunks and partition ranges, on a fresh image. No input may panic, and a
// call fails exactly when its input is invalid: then with ErrAddress and
// no granularity changed, otherwise not at all (nothing tampered with the
// image).
func FuzzProtectedBoundary(f *testing.F) {
	const size = 2 * ChunkSize
	f.Add(byte(0), uint64(0), uint8(64))
	f.Add(byte(0), uint64(size-BlockSize), uint8(64))
	f.Add(byte(1), uint64(size), uint8(64))
	f.Add(byte(1), uint64(0x1020), uint8(64))
	f.Add(byte(1), uint64(0x1000), uint8(63))
	f.Add(byte(2), ^uint64(0), uint8(0))
	f.Add(byte(2), uint64(0x40), uint8(0))
	// Promote/Demote: the chunk is addr>>32, the first partition the low
	// 32 bits read as signed, the count n read as signed.
	f.Add(byte(3), uint64(1)<<32|8, uint8(8))
	f.Add(byte(3), uint64(5)<<32, uint8(1))
	f.Add(byte(3), uint64(60), uint8(10))
	f.Add(byte(4), uint64(0xffffffff), uint8(2))
	f.Add(byte(4), uint64(0), uint8(0))
	f.Add(byte(4), uint64(63), uint8(1))
	f.Fuzz(func(t *testing.T, op byte, addr uint64, n uint8) {
		p := NewProtected(size, 5)
		invalid := addr >= size || addr%BlockSize != 0
		var err error
		switch op % 5 {
		case 0:
			_, err = p.Read(addr)
		case 1:
			invalid = invalid || n != BlockSize
			err = p.Write(addr, make([]byte, n))
		case 2:
			err = p.Verify(addr)
		default:
			chunk, first, count := addr>>32, int(int32(addr)), int(int8(n))
			invalid = chunk >= size/ChunkSize || first < 0 || count < 1 || first+count > 64
			if op%5 == 3 {
				err = p.Promote(chunk, first, count)
			} else {
				err = p.Demote(chunk, first, count)
			}
			if err != nil {
				for a := uint64(0); a < size; a += ChunkSize / 64 {
					if g := p.GranOf(a); g != Gran64 {
						t.Fatalf("rejected op %d left %#x at %v", op%5, a, g)
					}
				}
			}
		}
		if invalid != (err != nil) || (err != nil && !errors.Is(err, ErrAddress)) {
			t.Fatalf("op %d at %#x (len %d): invalid=%v, err=%v", op%5, addr, n, invalid, err)
		}
	})
}

// TestBoundaryErrors: each invalid input class returns ErrAddress before
// the access tracker or the protection layer sees it.
func TestBoundaryErrors(t *testing.T) {
	p := NewProtected(ChunkSize, 1)
	for name, err := range map[string]error{
		"read out of range":   func() error { _, err := p.Read(ChunkSize); return err }(),
		"read misaligned":     func() error { _, err := p.Read(8); return err }(),
		"write out of range":  p.Write(1<<40, make([]byte, BlockSize)),
		"write misaligned":    p.Write(BlockSize+1, make([]byte, BlockSize)),
		"write short block":   p.Write(0, make([]byte, BlockSize-1)),
		"write long block":    p.Write(0, make([]byte, BlockSize+1)),
		"verify out of range": p.Verify(^uint64(0) &^ (BlockSize - 1)),
		"verify misaligned":   p.Verify(3),
		"promote chunk":       p.Promote(5, 0, 1),
		"promote past end":    p.Promote(0, 60, 10),
		"promote negative":    p.Promote(0, -1, 2),
		"promote empty":       p.Promote(0, 0, 0),
		"demote chunk":        p.Demote(1, 0, 1),
		"demote past end":     p.Demote(0, 63, 2),
	} {
		if !errors.Is(err, ErrAddress) {
			t.Errorf("%s: %v, want ErrAddress", name, err)
		}
	}
	if p.now != 0 {
		t.Fatalf("rejected accesses reached the tracker")
	}
	for a := uint64(0); a < ChunkSize; a += ChunkSize / 64 {
		if g := p.GranOf(a); g != Gran64 {
			t.Fatalf("a rejected Promote left %#x at %v", a, g)
		}
	}
	if err := p.Promote(0, 56, 8); err != nil || p.GranOf(ChunkSize-BlockSize) != Gran4K {
		t.Fatalf("valid Promote(0, 56, 8): err=%v, gran %v; want nil and 4KB", err, p.GranOf(ChunkSize-BlockSize))
	}
}

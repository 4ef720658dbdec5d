package unimem

import (
	"errors"
	"testing"
)

// FuzzProtectedBoundary drives Read, Write and Verify with arbitrary
// addresses and plaintext lengths on a fresh image. No input may panic,
// and a call fails exactly when its input is invalid: then with
// ErrAddress, otherwise not at all (nothing tampered with the image).
func FuzzProtectedBoundary(f *testing.F) {
	const size = 2 * ChunkSize
	f.Add(byte(0), uint64(0), uint8(64))
	f.Add(byte(0), uint64(size-BlockSize), uint8(64))
	f.Add(byte(1), uint64(size), uint8(64))
	f.Add(byte(1), uint64(0x1020), uint8(64))
	f.Add(byte(1), uint64(0x1000), uint8(63))
	f.Add(byte(2), ^uint64(0), uint8(0))
	f.Add(byte(2), uint64(0x40), uint8(0))
	f.Fuzz(func(t *testing.T, op byte, addr uint64, n uint8) {
		p := NewProtected(size, 5)
		invalid := addr >= size || addr%BlockSize != 0
		var err error
		switch op % 3 {
		case 0:
			_, err = p.Read(addr)
		case 1:
			invalid = invalid || n != BlockSize
			err = p.Write(addr, make([]byte, n))
		default:
			err = p.Verify(addr)
		}
		if invalid != (err != nil) || (err != nil && !errors.Is(err, ErrAddress)) {
			t.Fatalf("op %d at %#x (len %d): invalid=%v, err=%v", op%3, addr, n, invalid, err)
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
	} {
		if !errors.Is(err, ErrAddress) {
			t.Errorf("%s: %v, want ErrAddress", name, err)
		}
	}
	if p.now != 0 {
		t.Fatalf("rejected accesses reached the tracker")
	}
}

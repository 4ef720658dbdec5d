package secmem

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"unimem/internal/meta"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	m := newMem()
	mustWrite(t, m, 0x1000, block(1))
	mustWrite(t, m, 0x8000, block(2))
	if err := m.Promote(0, 0, 8); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, m, 0x40, block(3))

	var buf bytes.Buffer
	roots, err := m.Save(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) == 0 {
		t.Fatal("no roots returned")
	}

	m2, err := Load(&buf, 42, roots)
	if err != nil {
		t.Fatal(err)
	}
	for addr, want := range map[uint64][]byte{0x1000: block(1), 0x8000: block(2), 0x40: block(3)} {
		got := mustRead(t, m2, addr)
		if !bytes.Equal(got, want) {
			t.Fatalf("addr %#x lost across save/load", addr)
		}
	}
	// Granularity table survived.
	if g := m2.GranOf(0x40); g != meta.Gran4K {
		t.Fatalf("granularity after load = %v, want 4KB", g)
	}
}

// TestSaveIsDeterministic: two Saves of the same memory must be
// byte-identical — every map section is emitted in sorted key order, so
// the image is a pure function of the protected state (attestation and
// artifact diffing depend on it).
func TestSaveIsDeterministic(t *testing.T) {
	m := newMem()
	for i := uint64(0); i < 24; i++ {
		mustWrite(t, m, i*0x400, block(byte(i)))
	}
	if err := m.Promote(0, 0, 8); err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if _, err := m.Save(&first); err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 4; run++ {
		var buf bytes.Buffer
		if _, err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), buf.Bytes()) {
			t.Fatalf("save %d produced different image bytes (%d vs %d)", run, first.Len(), buf.Len())
		}
	}
}

func TestLoadRejectsWrongKey(t *testing.T) {
	m := newMem()
	mustWrite(t, m, 0, block(1))
	var buf bytes.Buffer
	roots, err := m.Save(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf, 43, roots); err == nil {
		t.Fatal("image loaded under the wrong key")
	}
}

func TestLoadRejectsStaleRoots(t *testing.T) {
	m := newMem()
	mustWrite(t, m, 0, block(1))
	var pre bytes.Buffer
	oldRoots, err := m.Save(&pre)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, m, 0, block(2)) // image advances
	var buf bytes.Buffer
	if _, err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Offline replay: new image + old roots must not authenticate.
	if _, err := Load(&buf, 42, oldRoots); err == nil {
		t.Fatal("stale roots accepted")
	}
}

func TestLoadRejectsTamperedImage(t *testing.T) {
	m := newMem()
	mustWrite(t, m, 0, block(1))
	var buf bytes.Buffer
	roots, err := m.Save(&buf)
	if err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	img[len(img)/2] ^= 1 // flip a bit somewhere in the payload
	m2, err := Load(bytes.NewReader(img), 42, roots)
	if err != nil {
		return // rejected at load: good
	}
	// If the flip landed in data or a data MAC, the read must catch it.
	if _, err := m2.Read(0); err == nil {
		t.Fatal("tampered image loaded and read cleanly")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not an image")), 1, nil); !errors.Is(err, ErrImageFormat) {
		t.Fatalf("err = %v, want ErrImageFormat", err)
	}
	var empty bytes.Buffer
	if _, err := Load(&empty, 1, nil); err == nil {
		t.Fatal("empty image accepted")
	}
}

func TestSaveLoadEmptyImage(t *testing.T) {
	m := newMem()
	var buf bytes.Buffer
	roots, err := m.Save(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf, 42, roots)
	if err != nil {
		t.Fatal(err)
	}
	got := mustRead(t, m2, 0x2000)
	if !bytes.Equal(got, make([]byte, meta.BlockSize)) {
		t.Fatal("fresh loaded image not zero")
	}
}

// katImage drives a fixed, seeded op sequence that touches every path that
// writes image bytes: fine writes, a bounded-counter overflow at 64B and
// inside a 32KB unit, promotion to 32KB, 4KB and 512B over partly written
// chunks (never-written members inside coarse units), and demotions. It
// returns the SHA-256 of the saved image followed by the root counters.
func katImage(t *testing.T) string {
	t.Helper()
	m := New(1<<20, 0x5eed)
	m.SetCounterWidth(3) // minors saturate at 8
	x := uint64(0x9e3779b97f4a7c15)
	write := func(addr uint64) {
		b := make([]byte, meta.BlockSize)
		for i := range b {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			b[i] = byte(x)
		}
		mustWrite(t, m, addr, b)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		write(0x40)
	}
	write(0x0)
	write(0x1000)
	write(0x8000)
	write(0x8040)
	write(0x9000)
	must(m.Promote(1, 0, meta.PartsPerChunk)) // 32KB unit, mostly never written
	write(0x8080)
	for i := 0; i < 8; i++ {
		write(0x8000) // overflows the 32KB unit's minor
	}
	write(0x10000)
	write(0x10200)
	must(m.Promote(2, 0, 8)) // 4KB group 0
	must(m.Promote(2, 8, 1)) // 512B partition 8
	write(0x11000)
	write(0x11040)
	must(m.Demote(1, 0, 8)) // 32KB → 64B group 0 + 4KB groups 1..7
	write(0x8000)
	write(0xa000)
	must(m.Demote(2, 0, 4))
	write(0x10040)
	for _, a := range []uint64{0x0, 0x40, 0x8000, 0x80c0, 0xa040, 0x10000, 0x11000} {
		mustRead(t, m, a)
	}
	if m.Stats.Overflows == 0 || m.Stats.Promotions == 0 || m.Stats.Demotions == 0 {
		t.Fatalf("op sequence missed a path: %+v", m.Stats)
	}
	h := sha256.New()
	roots, err := m.Save(h)
	must(err)
	for _, r := range roots {
		binary.Write(h, binary.LittleEndian, r)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestSaveImageKnownAnswer pins the saved image of katImage's sequence.
// The digest was recorded before the engine reused its keyed hash state
// and secmem staged through scratch buffers; a match proves images saved
// by earlier builds still load and verify byte for byte.
func TestSaveImageKnownAnswer(t *testing.T) {
	const want = "f0274d68dc8320d44d6c3311e89490a7499c9f7d66bad595045014a6894720db"
	if got := katImage(t); got != want {
		t.Fatalf("saved image digest = %s, want %s", got, want)
	}
}

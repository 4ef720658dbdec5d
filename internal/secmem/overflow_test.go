package secmem

import (
	"bytes"
	"testing"
	"testing/quick"

	"unimem/internal/meta"
)

func newBounded(bits int) *Memory {
	m := New(1<<20, 42)
	m.SetCounterWidth(bits)
	return m
}

func TestOverflowPreservesData(t *testing.T) {
	m := newBounded(3) // minors saturate at 8
	other := block(0x77)
	mustWrite(t, m, 0x100, other) // sibling data in the same chunk
	for i := 0; i < 20; i++ {     // overflows at least twice
		mustWrite(t, m, 0x40, block(byte(i)))
		if !bytes.Equal(mustRead(t, m, 0x40), block(byte(i))) {
			t.Fatalf("write %d lost", i)
		}
	}
	if m.Stats.Overflows == 0 {
		t.Fatal("no overflow recorded despite 20 writes at width 3")
	}
	// The sibling survived the chunk re-encryptions.
	if !bytes.Equal(mustRead(t, m, 0x100), other) {
		t.Fatal("sibling data corrupted by overflow re-encryption")
	}
}

func TestOverflowKeepsReplayDetection(t *testing.T) {
	m := newBounded(3)
	mustWrite(t, m, 0, block(1))
	snap := m.Snapshot()
	for i := 0; i < 12; i++ { // crosses an overflow boundary
		mustWrite(t, m, 0, block(byte(2+i)))
	}
	m.Replay(snap)
	if _, err := m.Read(0); err == nil {
		t.Fatal("replay across a major-epoch bump undetected")
	}
}

func TestMajorTamperDetected(t *testing.T) {
	m := newBounded(4)
	mustWrite(t, m, 0, block(1))
	chunk := meta.ChunkIdx(0)
	m.majors[chunk]++ // attacker bumps the off-chip major directly
	if _, err := m.Read(0); err == nil {
		t.Fatal("major-counter tamper undetected")
	}
}

func TestOverflowAcrossPromotion(t *testing.T) {
	m := newBounded(3)
	for b := 0; b < meta.BlocksPerPartition; b++ {
		mustWrite(t, m, uint64(b*64), block(byte(b)))
	}
	// Drive the shared counter to saturation through coarse writes.
	if err := m.Promote(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		mustWrite(t, m, 0, block(byte(i)))
	}
	if m.Stats.Overflows == 0 {
		t.Fatal("promoted unit never overflowed at width 3")
	}
	for b := 1; b < meta.BlocksPerPartition; b++ {
		if !bytes.Equal(mustRead(t, m, uint64(b*64)), block(byte(b))) {
			t.Fatalf("block %d corrupted by overflow of a coarse unit", b)
		}
	}
	// Demotion still retains ciphertext under the same (major, minor).
	before := m.data[0x40]
	if err := m.Demote(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if m.data[0x40] != before {
		t.Fatal("demotion re-encrypted data under bounded counters")
	}
	if !bytes.Equal(mustRead(t, m, 0x40), block(1)) {
		t.Fatal("data lost after demotion under bounded counters")
	}
}

func TestOverflowSurvivesSaveLoad(t *testing.T) {
	m := newBounded(3)
	for i := 0; i < 12; i++ {
		mustWrite(t, m, 0, block(byte(i)))
	}
	var buf bytes.Buffer
	roots, err := m.Save(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf, 42, roots)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustRead(t, m2, 0), block(11)) {
		t.Fatal("major epoch lost across save/load")
	}
}

func TestSetCounterWidthGuards(t *testing.T) {
	New(1<<20, 1).SetCounterWidth(0) // both ends of the range are accepted
	New(1<<20, 1).SetCounterWidth(63)
	m := New(1<<20, 1)
	mustWrite(t, m, 0, block(1))
	for _, f := range []func(){
		func() { m.SetCounterWidth(3) },              // after writes
		func() { New(1<<20, 1).SetCounterWidth(64) }, // out of range
		func() { New(1<<20, 1).SetCounterWidth(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("guard did not panic")
				}
			}()
			f()
		}()
	}
}

// Property: random write/read sequences behave like a plain memory even
// with tiny counters (overflow handling is transparent).
func TestBoundedCountersLinearizeProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		m := New(meta.ChunkSize, 5)
		m.SetCounterWidth(2) // saturate after 4 writes
		shadow := map[uint64]byte{}
		for i, o := range ops {
			addr := uint64(o%32) * meta.BlockSize
			if i%3 == 0 {
				got, err := m.Read(addr)
				if err != nil {
					return false
				}
				if got[0] != shadow[addr] {
					return false
				}
			} else {
				b := block(byte(i))
				if err := m.Write(addr, b); err != nil {
					return false
				}
				shadow[addr] = b[0]
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(25)); err != nil {
		t.Fatal(err)
	}
}

package secmem

import (
	"bytes"
	"testing"
	"testing/quick"

	"unimem/internal/meta"
)

// op is one step of a random protection-layer workload, decoded from a
// byte triple: an action, an address selector, and a payload.
type op struct {
	kind byte // 0-3 write, 4-5 read, 6 promote, 7 demote
	sel  byte
	val  byte
}

// interpSmall drives a two-chunk memory with a shadow map and reports
// whether every read matched the shadow.
func interpSmall(t *testing.T, ops []op) bool {
	t.Helper()
	m := New(2*meta.ChunkSize, 7)
	shadow := map[uint64][]byte{}
	for _, o := range ops {
		addr := uint64(o.sel) % (2 * meta.BlocksPerChunk) * meta.BlockSize
		switch {
		case o.kind < 4:
			b := block(o.val)
			if err := m.Write(addr, b); err != nil {
				t.Logf("write error: %v", err)
				return false
			}
			shadow[addr] = b
		case o.kind < 6:
			got, err := m.Read(addr)
			if err != nil {
				t.Logf("read error: %v", err)
				return false
			}
			want, ok := shadow[addr]
			if !ok {
				want = make([]byte, meta.BlockSize)
			}
			if !bytes.Equal(got, want) {
				t.Logf("mismatch at %#x", addr)
				return false
			}
		case o.kind == 6:
			chunk := meta.ChunkIdx(o.sel % 2)
			if err := m.Promote(chunk, meta.PartIdx(o.val%60), int(o.val)%8+1); err != nil {
				t.Logf("promote error: %v", err)
				return false
			}
		default:
			chunk := meta.ChunkIdx(o.sel % 2)
			if err := m.Demote(chunk, meta.PartIdx(o.val%60), int(o.val)%8+1); err != nil {
				t.Logf("demote error: %v", err)
				return false
			}
		}
	}
	// Final sweep: everything written must still verify and match.
	for addr, want := range shadow {
		got, err := m.Read(addr)
		if err != nil || !bytes.Equal(got, want) {
			t.Logf("final sweep failed at %#x: %v", addr, err)
			return false
		}
	}
	return true
}

// Property: under any interleaving of writes, reads, promotions and
// demotions, the protected memory behaves exactly like a plain map.
func TestRandomOpsLinearizeProperty(t *testing.T) {
	f := func(raw []byte) bool {
		var ops []op
		for i := 0; i+2 < len(raw); i += 3 {
			ops = append(ops, op{kind: raw[i] % 8, sel: raw[i+1], val: raw[i+2]})
		}
		if len(ops) > 60 {
			ops = ops[:60]
		}
		return interpSmall(t, ops)
	}
	if err := quick.Check(f, quickCfg(40)); err != nil {
		t.Fatal(err)
	}
}

// Property: after any workload, flipping one ciphertext bit of any written
// block is always detected by a read of that block.
func TestTamperAlwaysDetectedProperty(t *testing.T) {
	f := func(seed uint8, writes []uint8) bool {
		m := New(2*meta.ChunkSize, uint64(seed))
		addrs := map[uint64]bool{}
		for i, w := range writes {
			addr := uint64(w) % (2 * meta.BlocksPerChunk) * meta.BlockSize
			if err := m.Write(addr, block(byte(i))); err != nil {
				return false
			}
			addrs[addr] = true
		}
		if len(addrs) == 0 {
			return true
		}
		// Promote part of chunk 0 so both fine and coarse paths are hit.
		if err := m.Promote(0, 0, int(seed)%32+1); err != nil {
			return false
		}
		for addr := range addrs {
			snap := m.Snapshot()
			m.TamperData(addr)
			if _, err := m.Read(addr); err == nil {
				return false
			}
			m.Replay(snap) // restore for next probe
		}
		return true
	}
	if err := quick.Check(f, quickCfg(25)); err != nil {
		t.Fatal(err)
	}
}

// Property: a snapshot taken strictly before the last write never verifies
// after being replayed (freshness).
func TestReplayAlwaysDetectedProperty(t *testing.T) {
	f := func(sel uint8, n uint8) bool {
		m := New(meta.ChunkSize, 3)
		addr := uint64(sel) % meta.BlocksPerChunk * meta.BlockSize
		if err := m.Write(addr, block(1)); err != nil {
			return false
		}
		snap := m.Snapshot()
		for i := 0; i <= int(n%3); i++ {
			if err := m.Write(addr, block(2+byte(i))); err != nil {
				return false
			}
		}
		m.Replay(snap)
		_, err := m.Read(addr)
		return err != nil
	}
	if err := quick.Check(f, quickCfg(50)); err != nil {
		t.Fatal(err)
	}
}

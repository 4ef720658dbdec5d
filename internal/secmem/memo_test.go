package secmem

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"unimem/internal/crypto"
	"unimem/internal/meta"
)

// Tests for the exact-input MAC memo (memo.go). The oracle is an
// independent engine under the same key: whatever the memo returns must be
// what that engine computes from the same input.

const memoSeed = 11

// TestMemoRecomputesOnAnyInputChange primes each memoized primitive with
// one input, then changes a single input field and checks that the memo
// returns the MAC the oracle computes for the new input.
func TestMemoRecomputesOnAnyInputChange(t *testing.T) {
	m := New(2*meta.ChunkSize, memoSeed)
	oracle := crypto.NewEngine(memoSeed)

	addr, ctr := uint64(meta.ChunkSize+5*meta.BlockSize), uint64(9)
	var ct [meta.BlockSize]byte
	copy(ct[:], block(0x3d))
	flipped := ct
	flipped[17] ^= 0x04
	for _, c := range []struct {
		name      string
		addr, ctr uint64
		ct        [meta.BlockSize]byte
	}{
		{"ciphertext bit", addr, ctr, flipped},
		{"counter", addr, ctr + 1, ct},
		{"address", addr + meta.BlockSize, ctr, ct},
	} {
		old := m.blockMAC(addr, ctr, &ct)
		got := m.blockMAC(c.addr, c.ctr, &c.ct)
		want := oracle.BlockMAC(c.addr, c.ctr, c.ct[:])
		if got != want || got == old {
			t.Errorf("BlockMAC after a %s change: got %x, want %x (old %x)", c.name, got, want, old)
		}
	}

	fines := make([]crypto.MAC, meta.Gran4K.Blocks())
	for i := range fines {
		fines[i] = crypto.MAC{byte(i), 1}
	}
	base := uint64(meta.ChunkSize + 2*meta.Gran4K.Bytes())
	old := m.nestedMAC(base, meta.Gran4K, fines)
	changed := slices.Clone(fines)
	changed[63][7] ^= 0x80
	if got, want := m.nestedMAC(base, meta.Gran4K, changed), oracle.NestedMAC(changed); got != want || got == old {
		t.Errorf("NestedMAC after a fine-MAC change: got %x, want %x (old %x)", got, want, old)
	}

	line := m.lineAddr(1, 3)
	ents := [meta.Arity]uint64{1, 2, 3, 4, 5, 6, 7, 8}
	entry := ents
	entry[5]++
	for _, c := range []struct {
		name         string
		addr, parent uint64
		ents         [meta.Arity]uint64
	}{
		{"parent counter", line, 5, ents},
		{"tree entry", line, 4, entry},
		{"line address", line + meta.BlockSize, 4, ents},
	} {
		old := m.nodeMAC(line, 4, &ents)
		got := m.nodeMAC(c.addr, c.parent, &c.ents)
		want := oracle.NodeMAC(c.addr, c.parent, c.ents[:])
		if got != want || got == old {
			t.Errorf("NodeMAC after a %s change: got %x, want %x (old %x)", c.name, got, want, old)
		}
	}
}

// TestMemoComparesEveryField plants a record whose input differs from the
// next call's in exactly one field and whose result is a sentinel: the
// call must compute the MAC rather than return the sentinel, so every
// field is part of the hit condition, even ones a correct slot choice
// already implies.
func TestMemoComparesEveryField(t *testing.T) {
	m := New(2*meta.ChunkSize, memoSeed)
	oracle := crypto.NewEngine(memoSeed)
	sentinel := crypto.MAC{0xde, 0xad}

	addr, ctr := uint64(7*meta.BlockSize), uint64(3)
	var ct [meta.BlockSize]byte
	for _, c := range []struct {
		field string
		plant func(r *blockRec)
	}{
		{"valid flag", func(r *blockRec) { r.ok = false }},
		{"address", func(r *blockRec) { r.addr ^= meta.ChunkSize }},
		{"counter", func(r *blockRec) { r.ctr++ }},
		{"ciphertext", func(r *blockRec) { r.ct[63] ^= 1 }},
	} {
		r := &m.memo.page(0).blocks[7]
		*r = blockRec{addr: addr, ctr: ctr, ct: ct, mac: sentinel, ok: true}
		c.plant(r)
		if got := m.blockMAC(addr, ctr, &ct); got != oracle.BlockMAC(addr, ctr, ct[:]) {
			t.Errorf("BlockMAC reused a record differing in its %s", c.field)
		}
	}

	fines := make([]crypto.MAC, meta.Gran512.Blocks())
	base := uint64(meta.ChunkSize + 3*meta.Gran512.Bytes())
	for _, c := range []struct {
		field string
		plant func(r *nestedRec, in []crypto.MAC)
	}{
		{"valid flag", func(r *nestedRec, _ []crypto.MAC) { r.ok = false }},
		{"base", func(r *nestedRec, _ []crypto.MAC) { r.base += meta.ChunkSize }},
		{"count", func(r *nestedRec, _ []crypto.MAC) { r.n = 64 }},
		{"fine list", func(_ *nestedRec, in []crypto.MAC) { in[2][0] ^= 1 }},
	} {
		p := m.memo.page(1)
		r := &p.nested[nestedSlot(24, 8)]
		in := p.fines[meta.Gran512.Level()-1][24:32]
		copy(in, fines)
		*r = nestedRec{base: base, n: 8, mac: sentinel, ok: true}
		c.plant(r, in)
		if got := m.nestedMAC(base, meta.Gran512, fines); got != oracle.NestedMAC(fines) {
			t.Errorf("NestedMAC reused a record differing in its %s", c.field)
		}
	}

	line := m.lineAddr(0, 9)
	var ents [meta.Arity]uint64
	for _, c := range []struct {
		field string
		plant func(r *nodeRec)
	}{
		{"line address", func(r *nodeRec) { r.addr += meta.BlockSize }},
		{"parent counter", func(r *nodeRec) { r.parent++ }},
		{"entries", func(r *nodeRec) { r.entries[7]++ }},
	} {
		r := &nodeRec{addr: line, parent: 2, entries: ents, mac: sentinel}
		c.plant(r)
		m.memo.nodes[line] = r
		if got := m.nodeMAC(line, 2, &ents); got != oracle.NodeMAC(line, 2, ents[:]) {
			t.Errorf("NodeMAC reused a record differing in its %s", c.field)
		}
	}
}

// TestNestedSlotsAreDistinct: every coarse unit a chunk can hold has its
// own nested record.
func TestNestedSlotsAreDistinct(t *testing.T) {
	seen := map[int]meta.Unit{}
	for g := meta.Gran512; g <= meta.Gran32K; g++ {
		for first := meta.ChunkBlock(0); first < meta.BlocksPerChunk; first += meta.ChunkBlock(g.Blocks()) {
			s := nestedSlot(first, g.Blocks())
			u := meta.Unit{Block: first, Gran: g}
			if prev, dup := seen[s]; dup || s < 0 || s >= nestedSlots {
				t.Fatalf("unit %+v gets slot %d (taken by %+v: %v)", u, s, prev, dup)
			}
			seen[s] = u
		}
	}
	if len(seen) != nestedSlots {
		t.Fatalf("%d coarse units, %d slots", len(seen), nestedSlots)
	}
}

// checkMemo asserts that every record in m's memo holds the MAC the oracle
// computes from the record's input.
func checkMemo(t *testing.T, m *Memory, oracle *crypto.Engine) {
	t.Helper()
	for c, p := range m.memo.pages {
		if p == nil {
			continue
		}
		for i, r := range p.blocks {
			if r.ok && (r.addr != uint64(c)*meta.ChunkSize+uint64(i)*meta.BlockSize || r.mac != oracle.BlockMAC(r.addr, r.ctr, r.ct[:])) {
				t.Fatalf("chunk %d block %d: memoized BlockMAC %x does not match its input", c, i, r.mac)
			}
		}
		for g := meta.Gran512; g <= meta.Gran32K; g++ {
			n := g.Blocks()
			for first := meta.ChunkBlock(0); first < meta.BlocksPerChunk; first += meta.ChunkBlock(n) {
				r := p.nested[nestedSlot(first, n)]
				if r.ok && (r.n != n || r.mac != oracle.NestedMAC(p.fines[g.Level()-1][first:first+meta.ChunkBlock(n)])) {
					t.Fatalf("chunk %d %v unit at block %d: memoized NestedMAC does not match its input", c, g, first)
				}
			}
		}
	}
	for a, r := range m.memo.nodes {
		if r.addr != a || r.mac != oracle.NodeMAC(r.addr, r.parent, r.entries[:]) {
			t.Fatalf("line %#x: memoized NodeMAC does not match its input", a)
		}
	}
}

// fromScratch returns a memory with m's off-chip image, roots and counter
// width and an empty memo: what m computes must match what it computes.
func fromScratch(m *Memory, seed uint64) *Memory {
	f := New(m.geom.RegionBytes, seed)
	f.ctrBits = m.ctrBits
	f.Replay(m.Snapshot())
	copy(f.roots, m.roots)
	return f
}

// verdict renders an operation's outcome for comparison.
func verdict(data []byte, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("ok %x", data)
}

// TestMemoMatchesRecomputationProperty drives seeded random writes, reads
// and switches mixed with data, MAC and counter tampering, splices,
// flip-and-restore, and replays of older snapshots. Every operation runs
// both on the memoized memory and on a from-scratch copy of its off-chip
// image: verdicts and resulting images must agree, and after every step
// every memoized MAC must match the oracle. A heal step puts back the last
// unattacked state, roots included, with the memo left warm.
func TestMemoMatchesRecomputationProperty(t *testing.T) {
	const region = 2 * meta.ChunkSize
	rng := rand.New(rand.NewSource(13))
	var ok, failed int // verdicts of reads and legitimate ops, run-wide
	for epoch := 0; epoch < 8; epoch++ {
		m := New(region, memoSeed)
		if epoch%2 == 1 {
			m.SetCounterWidth(3) // exercise major-epoch bumps
		}
		oracle := crypto.NewEngine(memoSeed)
		var snaps []*Snapshot
		good, goodRoots, attacked := m.Snapshot(), slices.Clone(m.roots), false
		randAddr := func() uint64 { return uint64(rng.Intn(region/meta.BlockSize)) * meta.BlockSize }
		for step := 0; step < 100; step++ {
			f := fromScratch(m, memoSeed)
			a := randAddr()
			var got, want string
			both := true // the op ran on m and on f
			switch k := rng.Intn(20); {
			case k < 6:
				pt := block(byte(rng.Intn(256)))
				got, want = verdict(nil, m.Write(a, pt)), verdict(nil, f.Write(a, pt))
			case k < 10:
				d, err := m.Read(a)
				got = verdict(d, err)
				d, err = f.Read(a)
				want = verdict(d, err)
			case k < 12:
				chunk, first, count := meta.ChunkIdx(rng.Intn(2)), meta.PartIdx(rng.Intn(56)), rng.Intn(8)+1
				if k == 10 {
					got, want = verdict(nil, m.Promote(chunk, first, count)), verdict(nil, f.Promote(chunk, first, count))
				} else {
					got, want = verdict(nil, m.Demote(chunk, first, count)), verdict(nil, f.Demote(chunk, first, count))
				}
			case k == 12:
				both = false
				m.TamperData(a)
				if rng.Intn(2) == 0 {
					_ = m.Check(a) // observe the flip, then restore it
					m.TamperData(a)
				} else {
					attacked = true
				}
			case k == 13:
				both, attacked = false, true
				m.TamperMAC(a)
			case k == 14:
				both, attacked = false, m.TamperCounter(a) || attacked
			case k == 15:
				both, attacked = false, true
				m.SpliceData(a, randAddr())
			case k == 16:
				both = false
				snaps = append(snaps, m.Snapshot())
			case k == 17 && len(snaps) > 0:
				both, attacked = false, true
				m.Replay(snaps[rng.Intn(len(snaps))])
			default:
				both, attacked = false, false
				m.Replay(good)
				copy(m.roots, goodRoots)
			}
			if got != want {
				t.Fatalf("epoch %d step %d at %#x: memoized %q, from scratch %q", epoch, step, a, got, want)
			}
			if both && (!m.Snapshot().Equal(f.Snapshot()) || !slices.Equal(m.roots, f.roots)) {
				t.Fatalf("epoch %d step %d: memoized and from-scratch images differ", epoch, step)
			}
			if both && !attacked {
				good, goodRoots = m.Snapshot(), slices.Clone(m.roots)
			}
			checkMemo(t, m, oracle)
			// Every verdict on the current image matches recomputation.
			f = fromScratch(m, memoSeed)
			for i := 0; i < 4; i++ {
				c := randAddr()
				d, err := m.Read(c)
				got = verdict(d, err)
				d, err = f.Read(c)
				if want = verdict(d, err); got != want {
					t.Fatalf("epoch %d step %d: read %#x memoized %q, from scratch %q", epoch, step, c, got, want)
				}
				if err == nil {
					ok++
				} else {
					failed++
				}
				if (m.Check(c) == nil) != (f.Check(c) == nil) {
					t.Fatalf("epoch %d step %d: Check %#x disagrees with recomputation", epoch, step, c)
				}
			}
		}
	}
	// Both verdicts must be common, or the run proves little.
	t.Logf("reads: %d verified, %d failed", ok, failed)
	if ok < 1000 || failed < 300 {
		t.Fatalf("degenerate run: %d reads verified, %d failed", ok, failed)
	}
}

// TestTamperInsideFullyMemoizedUnit: once a read has memoized a whole 32KB
// unit, tampering one member block must fail a read of a different member.
func TestTamperInsideFullyMemoizedUnit(t *testing.T) {
	m := granChunks(t)
	base := uint64(meta.Gran32K) * meta.ChunkSize
	victim := base + 100*meta.BlockSize + 9
	mustRead(t, m, base)
	m.TamperData(victim)
	m.TamperData(victim)
	mustRead(t, m, base+300*meta.BlockSize) // flip and restore verifies
	m.TamperData(victim)
	if _, err := m.Read(base + 300*meta.BlockSize); !errors.Is(err, ErrMAC) {
		t.Fatalf("read of an untampered member after a tamper: %v, want ErrMAC", err)
	}
}

// TestRepeatReadComputesNoMACs: reading an unchanged unit again computes
// no MAC at all; every BlockMAC, nested step and node MAC is reused, and
// every tree level is still verified.
func TestRepeatReadComputesNoMACs(t *testing.T) {
	m := granChunks(t)
	for g := meta.Gran64; g <= meta.Gran32K; g++ {
		base := uint64(g) * meta.ChunkSize
		mustRead(t, m, base)
		before := m.Stats
		mustRead(t, m, base+uint64(g.Blocks()-1)*meta.BlockSize)
		d := statsDelta(before, m.Stats)
		nested := uint64(g.Blocks())
		if g == meta.Gran64 {
			nested = 0
		}
		want := Stats{
			Reads: 1, Verified: d.Verified,
			BlockMACs:   MACCount{Reused: uint64(g.Blocks())},
			NestedSteps: MACCount{Reused: nested},
			NodeMACs:    MACCount{Reused: d.Verified},
		}
		if d != want || (d.Verified == 0) != (g.Level() >= m.geom.Levels()) {
			t.Errorf("repeat read in a %v unit: %+v, want %+v", g, d, want)
		}
	}
}

// TestWriteMACCounts pins the steady-state write costs of DESIGN.md §12:
// verifying the unchanged unit reuses every MAC; resealing under the new
// counter computes n BlockMACs, n nested steps (coarse units) and one
// node MAC per tree level from the unit's level up to the root.
func TestWriteMACCounts(t *testing.T) {
	m := granChunks(t)
	levels := uint64(m.geom.Levels())
	for g := meta.Gran64; g <= meta.Gran32K; g++ {
		addr := uint64(g) * meta.ChunkSize
		mustWrite(t, m, addr, block(1))
		before := m.Stats
		mustWrite(t, m, addr, block(2))
		d := statsDelta(before, m.Stats)
		n, nested := uint64(g.Blocks()), uint64(g.Blocks())
		if g == meta.Gran64 {
			nested = 0
		}
		want := Stats{
			Writes: 1, Verified: levels - uint64(g.Level()),
			BlockMACs:   MACCount{Computed: n, Reused: n},
			NestedSteps: MACCount{Computed: nested, Reused: nested},
			NodeMACs:    MACCount{Computed: levels - uint64(g.Level()), Reused: levels - uint64(g.Level())},
		}
		if d != want {
			t.Errorf("write in a %v unit: %+v, want %+v", g, d, want)
		}
	}
}

// statsDelta returns b - a field by field.
func statsDelta(a, b Stats) Stats {
	sub := func(x, y MACCount) MACCount { return MACCount{y.Computed - x.Computed, y.Reused - x.Reused} }
	return Stats{
		Reads: b.Reads - a.Reads, Writes: b.Writes - a.Writes,
		Promotions: b.Promotions - a.Promotions, Demotions: b.Demotions - a.Demotions,
		Verified: b.Verified - a.Verified, Overflows: b.Overflows - a.Overflows,
		BlockMACs:   sub(a.BlockMACs, b.BlockMACs),
		NestedSteps: sub(a.NestedSteps, b.NestedSteps),
		NodeMACs:    sub(a.NodeMACs, b.NodeMACs),
	}
}

// TestLoadStartsWithEmptyMemo: the memo is on-chip state, never saved; a
// loaded memory recomputes every data MAC on first touch. (Load's own
// tree verification records node MACs, as any verification does.)
func TestLoadStartsWithEmptyMemo(t *testing.T) {
	m := granChunks(t)
	mustRead(t, m, uint64(meta.Gran32K)*meta.ChunkSize)
	var img bytes.Buffer
	roots, err := m.Save(&img)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Load(&img, 7, roots)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range l.memo.pages {
		if p != nil {
			t.Fatal("a loaded memory starts with memoized block MACs")
		}
	}
	before := l.Stats
	mustRead(t, l, uint64(meta.Gran32K)*meta.ChunkSize)
	if d := statsDelta(before, l.Stats); d.BlockMACs.Computed != meta.BlocksPerChunk || d.BlockMACs.Reused != 0 {
		t.Fatalf("first read after Load: %+v, want every BlockMAC computed", d.BlockMACs)
	}
}

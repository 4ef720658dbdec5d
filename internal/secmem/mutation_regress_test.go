package secmem

// Regression tests pinning defects an mgmutate campaign proved invisible
// to the suite (see DESIGN.md, "Mutation testing").

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"unimem/internal/meta"
)

// Kills the drop-window mutant on unitOf (secmem.go): while a detected
// granularity switch is pending but uncommitted, accesses must resolve
// units through the *current* encoding — during the lazy-switch window
// "next" describes metadata that does not exist yet, and resolving
// through it reads counters and MAC slots that were never written.
func TestReadDuringPendingSwitchUsesCurrentEncoding(t *testing.T) {
	m := newMem()
	want := block(0x5a)
	mustWrite(t, m, 0, want)
	// Detection wants the chunk coarse; nothing has committed it.
	m.table.SetNext(0, meta.AllStream)
	got, err := m.Read(0)
	if err != nil {
		t.Fatalf("read inside the lazy-switch window: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read inside the lazy-switch window returned wrong data")
	}
	// Sanity: the window really was open for the whole read.
	if m.table.Current(0) == m.table.Next(0) {
		t.Fatal("test no longer exercises an open switch window")
	}
}

// Kills the drop-window mutants on sealUnit's, Write's and Read's encoding
// (secmem.go): inside an open switch window a write must verify and store
// the unit MAC in the slot of the current encoding, the one reads verify
// against. Block 1 is used because block 0's slot is the same under every
// encoding.
func TestWriteDuringPendingSwitchSealsCurrentEncoding(t *testing.T) {
	m := newMem()
	m.table.SetNext(0, meta.AllStream)
	mustWrite(t, m, meta.BlockSize, block(0x3b))
	want := block(0x3c) // the second write verifies the first one's unit
	mustWrite(t, m, meta.BlockSize, want)
	if got := mustRead(t, m, meta.BlockSize); !bytes.Equal(got, want) {
		t.Fatal("write inside the lazy-switch window read back wrong data")
	}
	if m.table.Current(0) == m.table.Next(0) {
		t.Fatal("test no longer exercises an open switch window")
	}
}

// Kills the drop-window mutants on Promote and Demote (switch.go): both
// edit the current encoding, not a pending one the Memory API never
// committed.
func TestPromoteDemoteEditCurrentEncoding(t *testing.T) {
	m := newMem()
	m.table.SetNext(0, meta.AllStream) // pending scale-up, not committed
	if err := m.Promote(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if got, want := m.table.Current(0), meta.StreamPart(0).PromoteMask(0, 1); got != want {
		t.Fatalf("Promote in a window: encoding %#x, want %#x", got, want)
	}

	if err := m.ApplyDetection(1, meta.AllStream); err != nil {
		t.Fatal(err)
	}
	m.table.SetNext(1, 0) // pending scale-down, not committed
	if err := m.Demote(1, 0, 1); err != nil {
		t.Fatal(err)
	}
	if got, want := m.table.Current(1), meta.AllStream.DemoteMask(0, 1); got != want {
		t.Fatalf("Demote in a window: encoding %#x, want %#x", got, want)
	}
}

// Kills the off-by-one mutant on the scale-up max scan (switch.go): the
// promoted unit's counter must strictly exceed every child counter —
// reusing a child's value re-encrypts new content under an already-used
// (address, counter) pad.
func TestScaleUpCounterExceedsAllChildren(t *testing.T) {
	m := newMem()
	want := block(0x17)
	mustWrite(t, m, 0, want)
	if c := m.unitCounter(0, meta.Gran64); c != 1 {
		t.Fatalf("child counter = %d before promotion, want 1", c)
	}
	if err := m.ApplyDetection(0, meta.AllStream); err != nil {
		t.Fatal(err)
	}
	if c := m.unitCounter(0, meta.Gran32K); c != 2 {
		t.Fatalf("promoted counter = %d, want max(children)+1 = 2", c)
	}
	if got := mustRead(t, m, 0); !bytes.Equal(got, want) {
		t.Fatal("promotion lost data")
	}
}

// Kills the negate-cond mutant on the scale-up saturation guard
// (switch.go): the major epoch must bump exactly when assigning
// max(children)+1 would saturate a bounded minor counter — bumping on
// every scale-up pays a needless whole-chunk re-encryption, and skipping
// the saturated case wraps the minor into a reused pad.
func TestScaleUpBumpsMajorOnlyWhenMinorSaturates(t *testing.T) {
	// Unsaturated: plenty of headroom, the epoch must stay put.
	m := newMem()
	m.SetCounterWidth(8)
	mustWrite(t, m, 0, block(1))
	if err := m.ApplyDetection(0, meta.AllStream); err != nil {
		t.Fatal(err)
	}
	if m.majors[0] != 0 {
		t.Fatalf("majors[0] = %d after unsaturated scale-up, want 0", m.majors[0])
	}

	// Saturated: the next counter value would not fit 2 bits.
	m = newMem()
	m.SetCounterWidth(2)
	want := block(2)
	for i := 0; i < 3; i++ {
		mustWrite(t, m, 0, want) // minor reaches 3 = minorLimit-1
	}
	if c := m.unitCounter(0, meta.Gran64); c != 3 {
		t.Fatalf("child counter = %d before promotion, want 3", c)
	}
	if err := m.ApplyDetection(0, meta.AllStream); err != nil {
		t.Fatal(err)
	}
	if m.majors[0] != 1 {
		t.Fatalf("majors[0] = %d after saturated scale-up, want 1", m.majors[0])
	}
	if m.table.Current(0) != meta.AllStream {
		t.Fatal("saturated scale-up bumped the epoch but never switched")
	}
	if got := mustRead(t, m, 0); !bytes.Equal(got, want) {
		t.Fatal("saturated promotion lost data")
	}
}

// openWindow leaves chunk 0 with a detected scale-up to AllStream pending:
// the table's Next differs from Current until something commits it, a
// state reachable through Table() and Replay.
func openWindow(t *testing.T, m *Memory) {
	t.Helper()
	m.table.SetNext(0, meta.AllStream)
	if m.table.Current(0) != 0 {
		t.Fatal("window test needs chunk 0 fine-grained")
	}
}

// Kills the drop-window mutants on GranOf, TamperMAC, TamperTable and
// ApplyDetection (secmem.go, attack.go, switch.go): each reads the
// committed encoding, not a pending one.
func TestAccessorsUseCurrentEncodingInWindow(t *testing.T) {
	m := newMem()
	mustWrite(t, m, meta.BlockSize, block(0x21))
	openWindow(t, m)
	if g := m.GranOf(meta.BlockSize); g != meta.Gran64 {
		t.Fatalf("GranOf in a window = %v, want the committed 64B", g)
	}
	if !m.TamperMAC(meta.BlockSize) {
		t.Fatal("TamperMAC did not land")
	}
	if _, err := m.Read(meta.BlockSize); err == nil {
		t.Fatal("TamperMAC in a window missed the MAC the read verifies")
	}

	m = newMem()
	openWindow(t, m)
	if !m.TamperTable(0, meta.AllStream) || m.table.Current(0) != meta.AllStream {
		t.Fatal("TamperTable to a pending-only encoding must land and commit it")
	}

	m = newMem()
	mustWrite(t, m, meta.BlockSize, block(0x22))
	openWindow(t, m)
	if err := m.ApplyDetection(0, meta.AllStream); err != nil {
		t.Fatal(err)
	}
	if m.table.Current(0) != meta.AllStream || m.Stats.Promotions == 0 {
		t.Fatal("ApplyDetection to a pending-only encoding did not switch")
	}
	if got := mustRead(t, m, meta.BlockSize); !bytes.Equal(got, block(0x22)) {
		t.Fatal("switch from a window lost data")
	}
}

// Kills the drop-window mutants on Snapshot, Replay, Save and bumpMajor
// (attack.go, persist.go, overflow.go): a pending encoding survives a
// snapshot and replay as pending, Save records the committed one, and a
// counter overflow inside a window re-encrypts under the committed one.
func TestWindowSurvivesSnapshotSaveAndOverflow(t *testing.T) {
	m := newMem()
	want := block(0x31)
	mustWrite(t, m, meta.BlockSize, want)
	openWindow(t, m)
	s := m.Snapshot()
	if err := m.ApplyDetection(0, meta.AllStream); err != nil {
		t.Fatal(err)
	}
	m.Replay(s)
	if cur, next := m.table.Current(0), m.table.Next(0); cur != 0 || next != meta.AllStream {
		t.Fatalf("replayed window = {%#x, %#x}, want {0, %#x}", cur, next, meta.AllStream)
	}

	m = newMem()
	mustWrite(t, m, meta.BlockSize, want)
	openWindow(t, m)
	var buf bytes.Buffer
	roots, err := m.Save(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf, 42, roots)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, m2, meta.BlockSize); !bytes.Equal(got, want) {
		t.Fatal("image saved in a window lost data")
	}

	m = newMem()
	m.SetCounterWidth(1)
	mustWrite(t, m, meta.BlockSize, block(0x32))
	openWindow(t, m)
	mustWrite(t, m, meta.BlockSize, want) // saturates: bumps the epoch
	if m.majors[0] != 1 {
		t.Fatalf("majors[0] = %d, want 1", m.majors[0])
	}
	if got := mustRead(t, m, meta.BlockSize); !bytes.Equal(got, want) {
		t.Fatal("overflow inside a window lost data")
	}
}

// mustPanic runs f and requires a panic whose message contains want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Errorf("panic %v, want one containing %q", r, want)
		}
	}()
	f()
}

// Kills the boundary mutants on the chunk checks of TamperTable and
// ApplyDetection: the first chunk past the region is rejected, the last
// one accepted.
func TestChunkGuardsAtTheRegionEnd(t *testing.T) {
	m := newMem()
	end := m.geom.Chunks()
	mustPanic(t, "outside region", func() { m.TamperTable(end, 0) })
	mustPanic(t, "outside region", func() { _ = m.ApplyDetection(end, 0) })
	m.TamperTable(end-1, meta.AllStream)
}

// Kills the unit-swap mutant on unitUntouched's block stride (secmem.go):
// ciphertext on any member block makes a MAC-less unit tampered, not
// pristine.
func TestStoredBlockMakesMACLessUnitTampered(t *testing.T) {
	m := newMem()
	m.TamperTable(0, meta.AllStream) // a 32KB unit with no MAC yet
	m.TamperData(meta.BlockSize)     // ciphertext appears on block 1
	if _, err := m.Read(0); !errors.Is(err, ErrMAC) {
		t.Fatalf("read of a MAC-less unit with stored data: %v, want ErrMAC", err)
	}
}

// Kills the mutants on Load's region and counter-width checks
// (persist.go): a region that is not a whole number of chunks and a width
// past 63 are format errors; width 63 itself loads.
func TestLoadHeaderBoundaries(t *testing.T) {
	m := New(meta.ChunkSize, 1)
	m.SetCounterWidth(63)
	mustWrite(t, m, 0, block(0x41))
	var buf bytes.Buffer
	roots, err := m.Save(&buf)
	if err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	if _, err := Load(bytes.NewReader(img), 1, roots); err != nil {
		t.Fatalf("width-63 image: %v", err)
	}
	for _, tc := range []struct {
		field int // header word: 2 region, 3 counter width
		val   uint64
		want  string
	}{
		{2, meta.ChunkSize + meta.PartitionSize, "bad region size"},
		{3, 64, "bad counter width"},
	} {
		bad := bytes.Clone(img)
		binary.LittleEndian.PutUint64(bad[8*tc.field:], tc.val)
		if _, err := Load(bytes.NewReader(bad), 1, roots); !errors.Is(err, ErrImageFormat) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("header word %d = %d: %v, want %q", tc.field, tc.val, err, tc.want)
		}
	}
}

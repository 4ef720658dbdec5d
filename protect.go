package unimem

import (
	"errors"
	"fmt"
	"io"

	"unimem/internal/meta"
	"unimem/internal/secmem"
	"unimem/internal/tracker"
)

// BlockSize is the finest protection granularity (one cacheline).
const BlockSize = meta.BlockSize

// ChunkSize is the coarsest granularity and the granularity-tracking unit.
const ChunkSize = meta.ChunkSize

// Gran is a protection granularity: 64B, 512B, 4KB or 32KB.
type Gran = meta.Gran

// The four granularity candidates of the multi-granular design.
const (
	Gran64  = meta.Gran64
	Gran512 = meta.Gran512
	Gran4K  = meta.Gran4K
	Gran32K = meta.Gran32K
)

// Protection errors surfaced by reads of a corrupted image.
var (
	// ErrMAC reports tampered or spliced data.
	ErrMAC = secmem.ErrMAC
	// ErrTree reports counter tampering or replay (stale snapshots).
	ErrTree = secmem.ErrTree
	// ErrAddress reports a Read, Write or Verify whose address lies outside
	// the image or is not 64B-aligned, a Write whose plaintext is not one
	// 64B block, or a Promote or Demote whose chunk lies outside the image
	// or whose partition range is empty or leaves the chunk.
	ErrAddress = errors.New("unimem: invalid block access")
)

// Protected is a functionally protected memory image: counter-mode
// encrypted, MAC-authenticated, replay-protected by an 8-ary integrity
// tree, with multi-granular protection units per the paper's design.
//
// It is not safe for concurrent use; wrap with a mutex if shared.
type Protected struct {
	mem *secmem.Memory
	trk *tracker.Tracker
	now int64
}

// NewProtected creates a protected image of size bytes, keyed from seed.
// All regions start fine-grained (64B). It panics when size is not a
// positive multiple of 32KB.
func NewProtected(size uint64, seed uint64) *Protected {
	return &Protected{
		mem: secmem.New(size, seed),
		trk: tracker.New(tracker.DefaultConfig()),
	}
}

// Write stores one aligned 64B block of plaintext. Writes into a
// coarse-grained unit re-encrypt the unit under a fresh shared counter.
// It fails with ErrAddress for a bad address or a plaintext that is not
// 64 bytes.
func (p *Protected) Write(addr uint64, plaintext []byte) error {
	if err := p.checkAddr(addr); err != nil {
		return err
	}
	if len(plaintext) != BlockSize {
		return fmt.Errorf("%w: plaintext is %d bytes, want %d", ErrAddress, len(plaintext), BlockSize)
	}
	p.track(addr)
	return p.mem.Write(addr, plaintext)
}

// Read fetches and verifies one aligned 64B block, returning its
// plaintext. It fails with ErrMAC or ErrTree when the off-chip image was
// corrupted, and with ErrAddress for a bad address.
func (p *Protected) Read(addr uint64) ([]byte, error) {
	if err := p.checkAddr(addr); err != nil {
		return nil, err
	}
	p.track(addr)
	return p.mem.Read(addr)
}

// checkAddr rejects an address the protection layer would panic on,
// before the access tracker sees it.
func (p *Protected) checkAddr(addr uint64) error {
	if size := p.mem.Geometry().RegionBytes; addr >= size {
		return fmt.Errorf("%w: address %#x outside the %d-byte image", ErrAddress, addr, size)
	}
	if addr%BlockSize != 0 {
		return fmt.Errorf("%w: address %#x is not %d-byte aligned", ErrAddress, addr, BlockSize)
	}
	return nil
}

// track feeds the built-in access tracker; detections adjust granularity
// automatically, mirroring the hardware's dynamic management.
func (p *Protected) track(addr uint64) {
	p.now += 1000 // one access per modeled cycle is enough for detection
	for _, det := range p.trk.AccessRange(addr, meta.BlockSize, simTime(p.now)) {
		// Functional layer applies detections eagerly; the timing layer
		// models the lazy variant.
		_ = p.mem.ApplyDetection(det.Chunk, det.Stream)
	}
}

// GranOf reports the current protection granularity covering addr. It
// panics when addr lies outside the image.
func (p *Protected) GranOf(addr uint64) Gran { return p.mem.GranOf(addr) }

// Promote raises count 512B partitions starting at partition first of the
// given 32KB chunk to stream (coarse) granularity. It fails with
// ErrAddress, changing nothing, when the chunk lies outside the image or
// [first, first+count) is empty or leaves the chunk's 64 partitions.
func (p *Protected) Promote(chunk uint64, first, count int) error {
	c, f, err := p.partitions(chunk, first, count)
	if err != nil {
		return err
	}
	return p.mem.Promote(c, f, count)
}

// Demote lowers partitions back to fine granularity. It rejects the same
// inputs as Promote.
func (p *Protected) Demote(chunk uint64, first, count int) error {
	c, f, err := p.partitions(chunk, first, count)
	if err != nil {
		return err
	}
	return p.mem.Demote(c, f, count)
}

// partitions validates a Promote/Demote range before any state is touched.
func (p *Protected) partitions(chunk uint64, first, count int) (meta.ChunkIdx, meta.PartIdx, error) {
	if n := p.mem.Geometry().Chunks(); chunk >= uint64(n) {
		return 0, 0, fmt.Errorf("%w: chunk %d outside the %d-chunk image", ErrAddress, chunk, n)
	}
	if first < 0 || count < 1 || count > meta.PartsPerChunk-first {
		return 0, 0, fmt.Errorf("%w: partitions [%d,+%d) outside the chunk's %d", ErrAddress, first, count, meta.PartsPerChunk)
	}
	return meta.ChunkIdx(chunk), meta.PartIdx(first), nil
}

// Snapshot captures all off-chip state (ciphertext, MACs, counters, tree
// nodes) — everything an attacker with physical memory access controls.
func (p *Protected) Snapshot() *Snapshot { return &Snapshot{s: p.mem.Snapshot()} }

// Restore overwrites off-chip state with a snapshot, modelling a replay
// attack; on-chip roots are untouched, so subsequent reads detect it.
func (p *Protected) Restore(s *Snapshot) { p.mem.Replay(s.s) }

// TamperData flips one stored ciphertext bit at addr (attack model). It
// reports whether the mutation landed (always true for data).
func (p *Protected) TamperData(addr uint64) bool { return p.mem.TamperData(addr) }

// TamperMAC flips one stored MAC bit guarding addr (attack model). It
// reports whether the mutation landed (always true for MACs).
func (p *Protected) TamperMAC(addr uint64) bool { return p.mem.TamperMAC(addr) }

// TamperCounter bumps the stored counter guarding addr without resealing
// the tree (attack model). It reports false when the guarding counter
// lives on chip and is out of the attacker's reach.
func (p *Protected) TamperCounter(addr uint64) bool { return p.mem.TamperCounter(addr) }

// Verify checks integrity of the block at addr without returning data. It
// fails with ErrAddress for a bad address.
func (p *Protected) Verify(addr uint64) error {
	if err := p.checkAddr(addr); err != nil {
		return err
	}
	return p.mem.Check(addr)
}

// Snapshot is an opaque capture of off-chip memory state.
type Snapshot struct {
	s *secmem.Snapshot
}

// FlushDetection force-evicts all access-tracker windows so pending
// granularity detections apply immediately (hardware does this with
// window-lifetime expiry; tests and demos use it to avoid waiting).
func (p *Protected) FlushDetection() {
	for _, det := range p.trk.Flush() {
		_ = p.mem.ApplyDetection(det.Chunk, det.Stream)
	}
}

// Save writes the off-chip image (ciphertext, MACs, tree, granularity
// table) to w and returns the on-chip root counters; persist the roots in
// trusted (sealed) storage — an image replayed with stale roots will not
// load.
func (p *Protected) Save(w io.Writer) (roots []uint64, err error) {
	return p.mem.Save(w)
}

// LoadProtected reconstructs a protected image saved by Save, keyed from
// the same seed and authenticated against the trusted roots.
func LoadProtected(r io.Reader, seed uint64, roots []uint64) (*Protected, error) {
	m, err := secmem.Load(r, seed, roots)
	if err != nil {
		return nil, err
	}
	return &Protected{mem: m, trk: tracker.New(tracker.DefaultConfig())}, nil
}

// SetCounterWidth bounds the per-unit minor counters to the given number
// of bits (real engines store small counters; saturation bumps the
// region's major epoch and re-encrypts it transparently). Must be called
// before the first write; 0 restores unbounded counters.
func (p *Protected) SetCounterWidth(bits int) { p.mem.SetCounterWidth(bits) }

// Overflows reports how many minor-counter saturations the image has
// absorbed.
func (p *Protected) Overflows() uint64 { return p.mem.Stats.Overflows }

package secmem

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"unimem/internal/crypto"
	"unimem/internal/meta"
)

// Image persistence: a protected memory image can be written out and
// reloaded later. The OFF-CHIP state (ciphertext, MACs, tree nodes,
// counters, granularity table) needs no secrecy — it is exactly what an
// attacker already sees — but the ON-CHIP state (root counters) must come
// from trusted storage: Save emits the roots separately so a deployment
// can put them in sealed storage, and Load refuses an image whose roots
// do not authenticate the tree (an offline replay attempt).

const (
	imageMagic   = 0x756d656d31 // "umem1"
	imageVersion = 1
)

// ErrImageFormat reports a malformed or incompatible image.
var ErrImageFormat = errors.New("secmem: bad image format")

// Save writes the off-chip image to w and returns the on-chip root
// counters the caller must persist in trusted storage.
func (m *Memory) Save(w io.Writer) (roots []uint64, err error) {
	bw := bufio.NewWriter(w)
	put := func(vals ...uint64) {
		if err != nil {
			return
		}
		for _, v := range vals {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			_, err = bw.Write(b[:])
			if err != nil {
				return
			}
		}
	}
	put(imageMagic, imageVersion, m.geom.RegionBytes, uint64(m.ctrBits))

	// Every map section is emitted in sorted key order: the image bytes
	// must be a pure function of the protected state, so two Saves of the
	// same memory are byte-identical (attestation and artifact diffing
	// depend on it; Go map iteration order would break it).
	putMACs := func(macs map[uint64]crypto.MAC) {
		put(uint64(len(macs)))
		for _, addr := range sortedKeys(macs) {
			mac := macs[addr]
			put(addr)
			if err == nil {
				_, err = bw.Write(mac[:])
			}
		}
	}

	put(uint64(len(m.data)))
	for _, addr := range sortedKeys(m.data) {
		ct := m.data[addr]
		put(addr)
		if err == nil {
			_, err = bw.Write(ct[:])
		}
	}
	put(uint64(len(m.counters)))
	ctrKeys := make([]counterKey, 0, len(m.counters))
	for k := range m.counters {
		ctrKeys = append(ctrKeys, k)
	}
	slices.SortFunc(ctrKeys, func(a, b counterKey) int {
		return cmp.Or(cmp.Compare(a.level, b.level), cmp.Compare(a.entry, b.entry))
	})
	for _, k := range ctrKeys {
		put(uint64(k.level), uint64(k.entry), m.counters[k])
	}
	putMACs(m.macs)
	putMACs(m.nodeMACs)
	// Granularity table: per non-default chunk, its current encoding.
	type chunkSP struct {
		chunk meta.ChunkIdx
		sp    meta.StreamPart
	}
	var chunks []chunkSP
	for c := range m.geom.Chunks() {
		if sp := m.table.Current(c); sp != 0 {
			chunks = append(chunks, chunkSP{c, sp})
		}
	}
	put(uint64(len(chunks)))
	for _, c := range chunks {
		put(uint64(c.chunk), uint64(c.sp))
	}
	put(uint64(len(m.majors)))
	for _, c := range sortedKeys(m.majors) {
		put(uint64(c), m.majors[c])
	}
	if err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return append([]uint64(nil), m.roots...), nil
}

// sortedKeys returns the keys of a uint64-keyed map in ascending order —
// the deterministic iteration order Save emits every section in.
func sortedKeys[K ~uint64, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Load reconstructs a protected memory from an image and the trusted root
// counters, using the engine key derived from seed (which must match the
// key the image was written under, or every read will fail verification).
// Load verifies the top tree level against the supplied roots and rejects
// images that do not authenticate.
func Load(r io.Reader, seed uint64, roots []uint64) (*Memory, error) {
	br := bufio.NewReader(r)
	read := func() (uint64, error) {
		var b [8]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b[:]), nil
	}
	magic, err := read()
	if err != nil || magic != imageMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrImageFormat)
	}
	version, err := read()
	if err != nil || version != imageVersion {
		return nil, fmt.Errorf("%w: unsupported version", ErrImageFormat)
	}
	region, err := read()
	if err != nil || region == 0 || region%meta.ChunkSize != 0 {
		return nil, fmt.Errorf("%w: bad region size", ErrImageFormat)
	}
	ctrBits, err := read()
	if err != nil || ctrBits > 63 {
		return nil, fmt.Errorf("%w: bad counter width", ErrImageFormat)
	}
	m := New(region, seed)
	m.ctrBits = int(ctrBits)
	if len(roots) != len(m.roots) {
		return nil, fmt.Errorf("%w: root count %d, want %d", ErrImageFormat, len(roots), len(m.roots))
	}
	copy(m.roots, roots)

	n, err := read()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < n; i++ {
		addr, err := read()
		if err != nil {
			return nil, err
		}
		var ct [meta.BlockSize]byte
		if _, err := io.ReadFull(br, ct[:]); err != nil {
			return nil, err
		}
		m.data[addr] = ct
	}
	if n, err = read(); err != nil {
		return nil, err
	}
	for i := uint64(0); i < n; i++ {
		level, err1 := read()
		entry, err2 := read()
		val, err3 := read()
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("%w: truncated counters", ErrImageFormat)
		}
		m.counters[counterKey{int(level), meta.EntryIdx(entry)}] = val
	}
	readMACs := func(dst map[uint64]crypto.MAC) error {
		n, err := read()
		if err != nil {
			return err
		}
		for i := uint64(0); i < n; i++ {
			addr, err := read()
			if err != nil {
				return err
			}
			var mac crypto.MAC
			if _, err := io.ReadFull(br, mac[:]); err != nil {
				return err
			}
			dst[addr] = mac
		}
		return nil
	}
	if err := readMACs(m.macs); err != nil {
		return nil, err
	}
	if err := readMACs(m.nodeMACs); err != nil {
		return nil, err
	}
	if n, err = read(); err != nil {
		return nil, err
	}
	for i := uint64(0); i < n; i++ {
		chunk, err1 := read()
		sp, err2 := read()
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%w: truncated granularity table", ErrImageFormat)
		}
		m.table.SetNext(meta.ChunkIdx(chunk), meta.StreamPart(sp))
		m.table.CommitAll(meta.ChunkIdx(chunk))
	}
	if n, err = read(); err != nil {
		return nil, err
	}
	for i := uint64(0); i < n; i++ {
		chunk, err1 := read()
		val, err2 := read()
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%w: truncated majors", ErrImageFormat)
		}
		m.majors[meta.ChunkIdx(chunk)] = val
	}

	// Authenticate: every written counter entry must verify against the
	// trusted roots before the image is trusted at all.
	if err := m.verifyImage(); err != nil {
		return nil, err
	}
	return m, nil
}

// verifyImage checks the counter chains of every touched top-level region
// against the on-chip roots.
func (m *Memory) verifyImage() error {
	seen := map[int]bool{}
	for k := range m.counters {
		// Verify from this entry's level upward; dedupe by top-level line.
		blockIdx := k.entry.FirstBlock(k.level)
		top := m.geom.RootSlot(blockIdx)
		if seen[top] {
			continue
		}
		seen[top] = true
		if err := m.verifyChain(k.level, blockIdx); err != nil {
			return fmt.Errorf("image rejected: %w", err)
		}
	}
	return nil
}

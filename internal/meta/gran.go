// Package meta owns the protection geometry shared by the functional layer
// (internal/secmem) and the timing layer (internal/core): granularity
// arithmetic, the per-chunk stream-partition bitmaps (paper section 4.4),
// the compacted multi-granular MAC layout (Fig. 9, Eq. 1), the promoted
// counter addressing of the multi-granular integrity tree (Fig. 10,
// Eq. 2-4), and the granularity table.
package meta

import "fmt"

// Fixed geometry of the paper's baseline 8-arity design (section 4.2).
const (
	// BlockSize is the finest protection granularity: one 64B cacheline.
	BlockSize = 64
	// Arity is the integrity-tree fan-out; one 64B counter cacheline holds
	// Arity counters.
	Arity = 8
	// PartitionSize is the second-finest granularity (512B); the unit the
	// stream-partition bitmap tracks.
	PartitionSize = BlockSize * Arity
	// ChunkSize is the coarsest granularity and the access-tracking unit
	// (32KB).
	ChunkSize = PartitionSize * Arity * Arity
	// PartsPerChunk is the number of 512B partitions per 32KB chunk.
	PartsPerChunk = ChunkSize / PartitionSize // 64
	// BlocksPerChunk is the number of 64B blocks per 32KB chunk.
	BlocksPerChunk = ChunkSize / BlockSize // 512
	// BlocksPerPartition is the number of 64B blocks per 512B partition.
	BlocksPerPartition = PartitionSize / BlockSize // 8
	// MACSize is the per-64B-block MAC size in bytes.
	MACSize = 8
	// MACsPerLine is the number of MAC slots per 64B MAC cacheline.
	MACsPerLine = BlockSize / MACSize // 8
)

// Gran is one of the four supported protection granularities
// (64B, 512B, 4KB, 32KB).
type Gran uint8

// The four granularity candidates, each Arity times coarser than the
// previous (section 4.2).
const (
	Gran64 Gran = iota
	Gran512
	Gran4K
	Gran32K
	nGran
)

// Grans lists all granularities fine to coarse.
var Grans = [4]Gran{Gran64, Gran512, Gran4K, Gran32K}

// Bytes returns the granularity in bytes.
func (g Gran) Bytes() uint64 { return BlockSize << (3 * uint(g)) }

// Blocks returns the number of 64B blocks the granularity covers.
func (g Gran) Blocks() int { return 1 << (3 * uint(g)) }

// Level returns the number of pruned tree levels (paper Eq. 2): the tree
// level at which the shared counter of this granularity lives.
func (g Gran) Level() int { return int(g) }

// Valid reports whether g is one of the four candidates.
func (g Gran) Valid() bool { return g < nGran }

// String returns the human-readable size.
func (g Gran) String() string {
	switch g {
	case Gran64:
		return "64B"
	case Gran512:
		return "512B"
	case Gran4K:
		return "4KB"
	case Gran32K:
		return "32KB"
	}
	return fmt.Sprintf("Gran(%d)", uint8(g))
}

// GranForBytes returns the granularity whose size is n bytes.
func GranForBytes(n uint64) (Gran, bool) {
	for _, g := range Grans {
		if g.Bytes() == n {
			return g, true
		}
	}
	return Gran64, false
}

// Unit domains. Byte addresses are plain uint64; every index into the
// protected region has its own type, so mixing domains (a chunk index added
// to a byte address, a block compared with a partition) fails to compile.
// The methods below are the conversions between domains (Eq. 1-4 factors).

// ChunkIdx is a 32KB chunk number.
type ChunkIdx uint64

// BlockIdx is a global 64B block number: the leaf index of the counter
// tree.
type BlockIdx uint64

// ChunkBlock is the number of a 64B block within its chunk (0..511).
type ChunkBlock int

// PartIdx is the number of a 512B partition within its chunk (0..63).
type PartIdx int

// EntryIdx is the index of a counter entry at one tree level (Eq. 3); the
// entry at level l covers the blocks [e<<3l, (e+1)<<3l).
type EntryIdx uint64

// Base returns the byte address of the chunk's first byte.
func (c ChunkIdx) Base() uint64 { return uint64(c) * ChunkSize }

// Block returns the global index of block b of the chunk.
func (c ChunkIdx) Block(b ChunkBlock) BlockIdx {
	return BlockIdx(c)*BlocksPerChunk + BlockIdx(b)
}

// Chunk returns the chunk holding the block.
func (b BlockIdx) Chunk() ChunkIdx { return ChunkIdx(b / BlocksPerChunk) }

// Offset returns the block's byte offset from its chunk base.
func (b ChunkBlock) Offset() uint64 { return uint64(b) * BlockSize }

// Part returns the partition holding the block.
func (b ChunkBlock) Part() PartIdx { return PartIdx(b / BlocksPerPartition) }

// Align returns the first block of the g-sized unit holding b.
func (b ChunkBlock) Align(g Gran) ChunkBlock { return b &^ ChunkBlock(g.Blocks()-1) }

// FirstBlock returns the partition's first block.
func (p PartIdx) FirstBlock() ChunkBlock { return ChunkBlock(p * BlocksPerPartition) }

// FirstBlock returns the first block the level-l entry covers.
func (e EntryIdx) FirstBlock(level int) BlockIdx { return BlockIdx(e) << (3 * uint(level)) }

// Address decomposition helpers. Addresses are byte addresses into the
// protected data region.

// ChunkIndex returns the 32KB chunk number of addr (the upper bits of the
// address; paper section 4.4 uses the upper 49 of 64 bits).
func ChunkIndex(addr uint64) ChunkIdx { return ChunkIdx(addr / ChunkSize) }

// ChunkBase returns the base address of the chunk containing addr.
func ChunkBase(addr uint64) uint64 { return addr &^ uint64(ChunkSize-1) }

// PartIndex returns the 512B partition number of addr within its chunk
// (0..63).
func PartIndex(addr uint64) PartIdx { return PartIdx(int(addr%ChunkSize) / PartitionSize) }

// BlockIndex returns the global 64B block number of addr.
func BlockIndex(addr uint64) BlockIdx { return BlockIdx(addr / BlockSize) }

// BlockInChunk returns the 64B block number of addr within its chunk
// (0..511).
func BlockInChunk(addr uint64) ChunkBlock { return ChunkBlock(int(addr%ChunkSize) / BlockSize) }

// AlignGran returns addr rounded down to a g-sized boundary.
func AlignGran(addr uint64, g Gran) uint64 { return addr &^ (g.Bytes() - 1) }

// AlignBlock returns addr rounded down to its 64B block boundary.
func AlignBlock(addr uint64) uint64 { return addr &^ (BlockSize - 1) }

// Aligned reports whether addr is naturally aligned to n bytes. n need not
// be a power of two (bus natural alignment is size-modulo); a zero n never
// counts as aligned.
func Aligned(addr, n uint64) bool { return n != 0 && addr%n == 0 }

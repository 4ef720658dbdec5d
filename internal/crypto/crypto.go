// Package crypto implements the cryptographic primitives of the
// counter-mode memory-protection engine (paper section 2.2):
//
//   - OTP generation: a one-time pad derived from (secret key, block
//     address, counter value), XORed with plaintext for encryption
//     (AES-128 over a nonce block, the standard counter-mode MEE design).
//   - MACs: 8-byte keyed hashes over (address, counter, ciphertext)
//     guarding each 64B block against tampering and splicing.
//   - Nested coarse MACs (paper Eq. 5): the multi-granular MAC of a
//     coarse region is the chained hash of its fine-grained MACs, so a
//     coarse MAC can be formed from, and checked against, fine MACs
//     without a second pass over the data.
//
// The functional layer (internal/secmem) uses these primitives for real
// tamper/replay detection; the timing layer charges the paper's fixed
// latencies (OTP 10 cycles, XOR 1 cycle) instead of running them.
package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"hash"
)

// BlockSize is the protected block granularity in bytes.
const BlockSize = 64

// MACSize is the stored MAC size in bytes (8B per 64B block, section 2.2).
const MACSize = 8

// MAC is a truncated keyed hash.
type MAC [MACSize]byte

// Engine holds the secret keys of one memory-protection engine instance.
//
// An Engine is not safe for concurrent use: it keeps one keyed HMAC state
// and the scratch every primitive stages through, so each owner (a
// secmem.Memory, an attack victim) holds its own.
type Engine struct {
	block cipher.Block
	// mac is the keyed HMAC-SHA256 state. Reset restores the saved
	// ipad/opad midstates, so no MAC pays the key setup again.
	mac hash.Hash

	// Scratch. Data reaches the cipher and the hash only through these
	// fields, so no caller's buffer escapes through the interface calls
	// and no primitive allocates.
	nonce [16]byte
	pad   [BlockSize]byte
	buf   [BlockSize]byte
	sum   [sha256.Size]byte
}

// NewEngine derives an engine from a seed. Production hardware fuses a
// random key at manufacturing; here the seed keeps simulations
// deterministic while exercising the full cryptographic path.
func NewEngine(seed uint64) *Engine {
	var aesKey [16]byte
	binary.LittleEndian.PutUint64(aesKey[0:], seed)
	binary.LittleEndian.PutUint64(aesKey[8:], seed^0x9e3779b97f4a7c15)
	b, err := aes.NewCipher(aesKey[:])
	if err != nil {
		// aes.NewCipher only fails on bad key length; 16 is always valid.
		panic(err)
	}
	macKey := sha256.Sum256(aesKey[:])
	e := &Engine{block: b, mac: hmac.New(sha256.New, macKey[:])}
	// The first Reset saves the midstates (allocating); take it here so
	// that every MAC is allocation-free.
	e.mac.Reset()
	return e
}

// OTP returns the 64-byte one-time pad for (addr, counter). Uniqueness of
// the (addr, counter) pair is what guarantees pad uniqueness; the caller
// (the counter-management layer) is responsible for never reusing a counter
// value for the same address.
func (e *Engine) OTP(addr uint64, counter uint64) [BlockSize]byte {
	e.fillPad(addr, counter)
	return e.pad
}

// fillPad computes the pad for (addr, counter) into e.pad.
func (e *Engine) fillPad(addr, counter uint64) {
	binary.LittleEndian.PutUint64(e.nonce[0:], addr)
	for i := 0; i < BlockSize/16; i++ {
		binary.LittleEndian.PutUint64(e.nonce[8:], counter<<2|uint64(i))
		e.block.Encrypt(e.pad[i*16:(i+1)*16], e.nonce[:])
	}
}

// Seal returns the ciphertext of a 64B plaintext block for (addr, counter)
// in a new slice.
func (e *Engine) Seal(addr, counter uint64, plaintext []byte) []byte {
	out := new([BlockSize]byte)
	e.SealInto(out, addr, counter, plaintext)
	return out[:]
}

// Open returns the plaintext of a 64B ciphertext block for (addr, counter)
// in a new slice.
func (e *Engine) Open(addr, counter uint64, ciphertext []byte) []byte {
	out := new([BlockSize]byte)
	e.OpenInto(out, addr, counter, ciphertext)
	return out[:]
}

// SealInto encrypts a 64B plaintext block for (addr, counter) into dst,
// which may alias plaintext.
func (e *Engine) SealInto(dst *[BlockSize]byte, addr, counter uint64, plaintext []byte) {
	e.xorPad(dst, addr, counter, plaintext)
}

// OpenInto decrypts a 64B ciphertext block for (addr, counter) into dst,
// which may alias ciphertext.
func (e *Engine) OpenInto(dst *[BlockSize]byte, addr, counter uint64, ciphertext []byte) {
	e.xorPad(dst, addr, counter, ciphertext)
}

func (e *Engine) xorPad(dst *[BlockSize]byte, addr, counter uint64, in []byte) {
	if len(in) != BlockSize {
		panic("crypto: block must be 64 bytes")
	}
	e.fillPad(addr, counter)
	for i := range dst {
		dst[i] = in[i] ^ e.pad[i]
	}
}

// BlockMAC computes the fine-grained MAC over (addr, counter, ciphertext).
// Binding the address prevents splicing; binding the counter prevents
// replay of a (ciphertext, MAC) pair from an earlier version.
func (e *Engine) BlockMAC(addr, counter uint64, ciphertext []byte) MAC {
	e.begin(addr, counter)
	e.write(ciphertext)
	return e.end()
}

// NestedMAC folds fine-grained MACs into one coarse MAC by chained hashing
// (paper Eq. 5): MAC_coarse = H(...H(H(m1), m2)..., mn).
func (e *Engine) NestedMAC(fine []MAC) MAC {
	if len(fine) == 0 {
		panic("crypto: NestedMAC of zero MACs")
	}
	acc := e.hashMAC(fine[0], nil)
	for i := range fine[1:] {
		acc = e.hashMAC(acc, &fine[i+1])
	}
	return acc
}

// hashMAC returns H(a) or, when b is non-nil, H(a || b).
func (e *Engine) hashMAC(a MAC, b *MAC) MAC {
	e.mac.Reset()
	n := copy(e.buf[:], a[:])
	if b != nil {
		n += copy(e.buf[n:], b[:])
	}
	e.mac.Write(e.buf[:n])
	return e.end()
}

// NodeMAC authenticates an integrity-tree node: the hash of a counter-line
// payload keyed by the parent counter that versions it. Used by the
// functional tree to chain each level to its parent up to the on-chip root.
func (e *Engine) NodeMAC(nodeAddr uint64, parentCounter uint64, counters []uint64) MAC {
	e.begin(nodeAddr, parentCounter)
	for _, c := range counters {
		binary.LittleEndian.PutUint64(e.buf[:8], c)
		e.mac.Write(e.buf[:8])
	}
	return e.end()
}

// begin resets the MAC state and feeds it the 16B (addr, counter) header.
func (e *Engine) begin(addr, counter uint64) {
	e.mac.Reset()
	binary.LittleEndian.PutUint64(e.buf[0:], addr)
	binary.LittleEndian.PutUint64(e.buf[8:], counter)
	e.mac.Write(e.buf[:16])
}

// write feeds p to the MAC through e.buf, so p never escapes.
func (e *Engine) write(p []byte) {
	for len(p) > 0 {
		n := copy(e.buf[:], p)
		e.mac.Write(e.buf[:n])
		p = p[n:]
	}
}

// end returns the MAC truncated from the digest of what was fed since
// the last Reset.
func (e *Engine) end() MAC {
	var m MAC
	copy(m[:], e.mac.Sum(e.sum[:0]))
	return m
}

// Equal compares two MACs in constant time.
func Equal(a, b MAC) bool {
	var v byte
	for i := range a {
		v |= a[i] ^ b[i]
	}
	return v == 0
}

package crypto

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func TestSealOpenRoundTrip(t *testing.T) {
	e := NewEngine(1)
	pt := make([]byte, BlockSize)
	for i := range pt {
		pt[i] = byte(i * 7)
	}
	ct := e.Seal(0x1000, 42, pt)
	if bytes.Equal(ct, pt) {
		t.Fatal("ciphertext equals plaintext")
	}
	got := e.Open(0x1000, 42, ct)
	if !bytes.Equal(got, pt) {
		t.Fatal("round trip failed")
	}
}

func TestOpenWrongCounterGarbles(t *testing.T) {
	e := NewEngine(1)
	pt := make([]byte, BlockSize)
	ct := e.Seal(0x1000, 42, pt)
	if bytes.Equal(e.Open(0x1000, 43, ct), pt) {
		t.Fatal("wrong counter decrypted correctly")
	}
	if bytes.Equal(e.Open(0x1040, 42, ct), pt) {
		t.Fatal("wrong address decrypted correctly")
	}
}

func TestOTPUniqueness(t *testing.T) {
	e := NewEngine(7)
	seen := map[[BlockSize]byte]string{}
	for addr := uint64(0); addr < 4; addr++ {
		for ctr := uint64(0); ctr < 4; ctr++ {
			p := e.OTP(addr*64, ctr)
			if prev, dup := seen[p]; dup {
				t.Fatalf("OTP collision between (%d,%d) and %s", addr, ctr, prev)
			}
			seen[p] = "earlier pair"
		}
	}
}

func TestOTPDeterministic(t *testing.T) {
	a := NewEngine(9).OTP(0x40, 5)
	b := NewEngine(9).OTP(0x40, 5)
	if a != b {
		t.Fatal("same seed produced different OTPs")
	}
	c := NewEngine(10).OTP(0x40, 5)
	if a == c {
		t.Fatal("different seeds produced identical OTPs")
	}
}

func TestBlockMACDetectsTamper(t *testing.T) {
	e := NewEngine(3)
	ct := make([]byte, BlockSize)
	ct[5] = 0xaa
	m := e.BlockMAC(0x80, 9, ct)
	ct[5] ^= 1
	if Equal(m, e.BlockMAC(0x80, 9, ct)) {
		t.Fatal("single-bit tamper not reflected in MAC")
	}
}

// TestBlockMACCoversEveryByte: the MAC input is staged through a 64B
// buffer, and a ciphertext whose length leaves a short final piece must
// still have every byte bound, the last one included.
func TestBlockMACCoversEveryByte(t *testing.T) {
	e := NewEngine(3)
	for _, n := range []int{1, 2, BlockSize - 1, BlockSize + 1, 2*BlockSize + 1} {
		ct := make([]byte, n)
		m := e.BlockMAC(0x80, 9, ct)
		ct[n-1] ^= 1
		if Equal(m, e.BlockMAC(0x80, 9, ct)) {
			t.Fatalf("%d-byte ciphertext: a flip of the last byte is not reflected in the MAC", n)
		}
	}
}

func TestBlockMACBindsAddressAndCounter(t *testing.T) {
	e := NewEngine(3)
	ct := make([]byte, BlockSize)
	m := e.BlockMAC(0x80, 9, ct)
	if Equal(m, e.BlockMAC(0xc0, 9, ct)) {
		t.Fatal("MAC does not bind address (splicing possible)")
	}
	if Equal(m, e.BlockMAC(0x80, 10, ct)) {
		t.Fatal("MAC does not bind counter (replay possible)")
	}
}

func TestNestedMACOrderSensitive(t *testing.T) {
	e := NewEngine(4)
	m1 := MAC{1}
	m2 := MAC{2}
	a := e.NestedMAC([]MAC{m1, m2})
	b := e.NestedMAC([]MAC{m2, m1})
	if Equal(a, b) {
		t.Fatal("nested MAC ignores order")
	}
}

func TestNestedMACSingle(t *testing.T) {
	e := NewEngine(4)
	m := MAC{9, 9}
	a := e.NestedMAC([]MAC{m})
	if Equal(a, m) {
		t.Fatal("nested MAC of one element should still hash")
	}
}

func TestNestedMACEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NestedMAC(nil) did not panic")
		}
	}()
	NewEngine(1).NestedMAC(nil)
}

func TestNodeMACBindsEverything(t *testing.T) {
	e := NewEngine(5)
	ctrs := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	base := e.NodeMAC(0x1000, 77, ctrs)
	if Equal(base, e.NodeMAC(0x1040, 77, ctrs)) {
		t.Fatal("node MAC ignores node address")
	}
	if Equal(base, e.NodeMAC(0x1000, 78, ctrs)) {
		t.Fatal("node MAC ignores parent counter")
	}
	ctrs[3]++
	if Equal(base, e.NodeMAC(0x1000, 77, ctrs)) {
		t.Fatal("node MAC ignores counter payload")
	}
}

func TestSealWrongSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Seal with short block did not panic")
		}
	}()
	NewEngine(1).Seal(0, 0, make([]byte, 32))
}

// Property: Seal then Open is identity for any block content, address and
// counter.
func TestSealOpenProperty(t *testing.T) {
	e := NewEngine(11)
	f := func(content [BlockSize]byte, addr, ctr uint64) bool {
		ct := e.Seal(addr, ctr, content[:])
		return bytes.Equal(e.Open(addr, ctr, ct), content[:])
	}
	if err := quick.Check(f, quickCfg(100)); err != nil {
		t.Fatal(err)
	}
}

// Property: MACs over distinct ciphertexts are distinct (no trivial
// collisions at 64-bit truncation for random inputs).
func TestMACDistinguishesProperty(t *testing.T) {
	e := NewEngine(12)
	f := func(a, b [BlockSize]byte) bool {
		ma := e.BlockMAC(0, 0, a[:])
		mb := e.BlockMAC(0, 0, b[:])
		if a == b {
			return Equal(ma, mb)
		}
		return !Equal(ma, mb)
	}
	if err := quick.Check(f, quickCfg(100)); err != nil {
		t.Fatal(err)
	}
}

// TestKnownAnswers pins every primitive's output under a fixed seed. The
// vectors were recorded before the engine reused its keyed hash state; a
// change to any of them changes the bytes of saved images.
func TestKnownAnswers(t *testing.T) {
	e := NewEngine(0x5eed)
	ct := make([]byte, BlockSize)
	for i := range ct {
		ct[i] = byte(i*13 + 5)
	}
	fine := make([]MAC, 512)
	for i := range fine {
		fine[i] = e.BlockMAC(uint64(i)*BlockSize, uint64(i)+1, ct)
	}
	otp := e.OTP(0x1240, 7)
	for _, c := range []struct {
		name string
		got  []byte
		want string
	}{
		{"OTP", otp[:], "64f86fc7f489829c3fcc6552859c470dc2ade13ce6b1745e5d05d62b6a1a26424f4a09950c75aa99ddccf3b072e9d8307fed21f79ab39d590a94d49beac1dc10"},
		{"Seal", e.Seal(0x1240, 7, ct), "61ea70ebcdcfd1fc52b6e2c62432fcc5174f0ec0efa7576e604f814f1b64addaeaf8b659d5935999d0d6d48433a783580a6fae6b33055e89d77e239ffbdff728"},
		{"BlockMAC", mac(e.BlockMAC(0x1240, 7, ct)), "2049e0968a997d7a"},
		{"NestedMAC/1", mac(e.NestedMAC(fine[:1])), "cc3d84b8bd5c92c0"},
		{"NestedMAC/2", mac(e.NestedMAC(fine[:2])), "6ba146ae7394b639"},
		{"NestedMAC/512", mac(e.NestedMAC(fine)), "0c86345c8db3f73e"},
		{"NodeMAC", mac(e.NodeMAC(0x80040, 99, []uint64{1, 2, 3, 4, 5, 6, 7, 1 << 40})), "d5dd73f6273712d8"},
	} {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s = %s, want %s", c.name, got, c.want)
		}
	}
}

func mac(m MAC) []byte { return m[:] }

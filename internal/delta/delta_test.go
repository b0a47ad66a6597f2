package delta

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"ode/internal/codec"
)

func roundtrip(t *testing.T, base, target []byte) []byte {
	t.Helper()
	d := Encode(base, target)
	got, err := Apply(base, d)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if !bytes.Equal(got, target) {
		t.Fatalf("roundtrip mismatch: got %d bytes want %d", len(got), len(target))
	}
	return d
}

func TestEmptyCases(t *testing.T) {
	roundtrip(t, nil, nil)
	roundtrip(t, []byte("base"), nil)
	roundtrip(t, nil, []byte("target"))
	roundtrip(t, []byte("x"), []byte("y"))
}

func TestIdenticalCompressesWell(t *testing.T) {
	payload := bytes.Repeat([]byte("abcdefgh"), 512) // 4 KiB
	d := roundtrip(t, payload, payload)
	if len(d) > 64 {
		t.Fatalf("identical payload delta too large: %d bytes", len(d))
	}
}

func TestSmallEditCompressesWell(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := make([]byte, 8192)
	rng.Read(base)
	target := append([]byte(nil), base...)
	// Point edits at three places.
	target[100] ^= 0xFF
	target[4000] ^= 0xFF
	target[8000] ^= 0xFF
	d := roundtrip(t, base, target)
	if len(d) > len(target)/4 {
		t.Fatalf("small edit delta too large: %d of %d", len(d), len(target))
	}
}

func TestInsertionInMiddle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base := make([]byte, 4096)
	rng.Read(base)
	target := append(append(append([]byte(nil), base[:2000]...), []byte("INSERTED CONTENT HERE")...), base[2000:]...)
	d := roundtrip(t, base, target)
	if len(d) > len(target)/4 {
		t.Fatalf("insertion delta too large: %d of %d", len(d), len(target))
	}
}

func TestDeletionAndReorder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := make([]byte, 4096)
	rng.Read(base)
	// Delete the middle quarter and swap two halves of the rest.
	target := append(append([]byte(nil), base[3072:]...), base[:1024]...)
	roundtrip(t, base, target)
}

func TestUnrelatedDataDegeneratesGracefully(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	base := make([]byte, 2048)
	target := make([]byte, 2048)
	rng.Read(base)
	rng.Read(target)
	d := roundtrip(t, base, target)
	// Pure insert plus framing: must not blow up beyond ~2x.
	if len(d) > 2*len(target)+64 {
		t.Fatalf("degenerate delta too large: %d of %d", len(d), len(target))
	}
}

func TestQuickRoundtrip(t *testing.T) {
	f := func(base, target []byte) bool {
		d := Encode(base, target)
		got, err := Apply(base, d)
		return err == nil && bytes.Equal(got, target)
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRoundtripRelated(t *testing.T) {
	// Random edits of a shared base: the realistic versioning case.
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 200; iter++ {
		n := rng.Intn(6000) + 1
		base := make([]byte, n)
		rng.Read(base)
		target := append([]byte(nil), base...)
		for e := rng.Intn(8); e >= 0; e-- {
			switch rng.Intn(3) {
			case 0: // mutate a run
				if len(target) == 0 {
					continue
				}
				at := rng.Intn(len(target))
				ln := rng.Intn(50) + 1
				for j := at; j < at+ln && j < len(target); j++ {
					target[j] ^= byte(rng.Intn(255) + 1)
				}
			case 1: // insert a run
				at := rng.Intn(len(target) + 1)
				ins := make([]byte, rng.Intn(100))
				rng.Read(ins)
				target = append(target[:at], append(ins, target[at:]...)...)
			case 2: // delete a run
				if len(target) < 2 {
					continue
				}
				at := rng.Intn(len(target) - 1)
				end := at + rng.Intn(len(target)-at)
				target = append(target[:at], target[end:]...)
			}
		}
		roundtrip(t, base, target)
	}
}

func TestApplyRejectsCorrupt(t *testing.T) {
	base := bytes.Repeat([]byte("b"), 100)
	target := bytes.Repeat([]byte("t"), 100)
	d := Encode(base, target)

	// Truncated delta.
	if _, err := Apply(base, d[:len(d)/2]); err == nil {
		t.Fatal("truncated delta accepted")
	}
	// Unknown op.
	bad := append([]byte(nil), d...)
	bad[1] = 0x7F
	if _, err := Apply(base, bad); err == nil {
		t.Fatal("unknown op accepted")
	}
	// Copy beyond base: apply against a shorter base.
	dd := Encode(base, base) // all-copy delta
	if _, err := Apply(base[:10], dd); err == nil {
		t.Fatal("out-of-range copy accepted")
	}
}

func TestMaterializeChain(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	v := make([]byte, 2048)
	rng.Read(v)
	versions := [][]byte{v}
	var chain [][]byte
	for i := 0; i < 20; i++ {
		next := append([]byte(nil), versions[len(versions)-1]...)
		at := rng.Intn(len(next))
		next[at] ^= 0x55
		chain = append(chain, Encode(versions[len(versions)-1], next))
		versions = append(versions, next)
	}
	got, err := MaterializeChain(versions[0], chain)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, versions[len(versions)-1]) {
		t.Fatal("chain materialisation mismatch")
	}
	// Prefixes materialise intermediate versions.
	for i := range chain {
		got, err := MaterializeChain(versions[0], chain[:i+1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, versions[i+1]) {
			t.Fatalf("prefix %d mismatch", i)
		}
	}
}

func TestRatio(t *testing.T) {
	if Ratio(50, 100) != 0.5 {
		t.Fatal("ratio arithmetic")
	}
	if Ratio(10, 0) != 1 {
		t.Fatal("zero target ratio")
	}
}

// TestPositionalEditNoLargerThanBlocks holds the positional pass to the
// edit the benchmark makes to a version (a 12-byte header rewritten at
// offset 0 and a 64-byte window at a random offset of a 1 KiB payload):
// its delta is never larger than the block matcher's for the same pair,
// and both rebuild the target. A shifted copy of the base, which has the
// same length but nothing in place, falls back to the block matcher.
func TestPositionalEditNoLargerThanBlocks(t *testing.T) {
	const size, header, window = 1024, 12, 64
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		base := make([]byte, size)
		rng.Read(base)
		target := append([]byte(nil), base...)
		rng.Read(target[:header])
		off := header + rng.Intn(size-header-window)
		rng.Read(target[off : off+window])
		d := roundtrip(t, base, target)
		hdr := codecHeader(len(target))
		blocks := encodeBlocks(hdr, base, target)
		if len(d) > len(blocks) {
			t.Fatalf("trial %d (window at %d): positional delta %d bytes, block matcher %d", trial, off, len(d), len(blocks))
		}
		if len(d) > header+window+32 {
			t.Fatalf("trial %d: %d-byte delta for a %d-byte edit", trial, len(d), header+window)
		}
	}
	base := make([]byte, size)
	rng.Read(base)
	shifted := append(append([]byte(nil), base[100:]...), base[:100]...)
	if d := roundtrip(t, base, shifted); len(d) >= size/4 {
		t.Fatalf("a rotated base encodes to %d bytes; the block matcher should find it", len(d))
	}
}

// codecHeader is the length header every delta starts with.
func codecHeader(n int) []byte { return codec.AppendUVarint(nil, uint64(n)) }

func BenchmarkEncodeSmallEdit(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	base := make([]byte, 4096)
	rng.Read(base)
	target := append([]byte(nil), base...)
	target[1000] ^= 1
	b.SetBytes(int64(len(target)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(base, target)
	}
}

func BenchmarkApplySmallEdit(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	base := make([]byte, 4096)
	rng.Read(base)
	target := append([]byte(nil), base...)
	target[1000] ^= 1
	d := Encode(base, target)
	b.SetBytes(int64(len(target)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Apply(base, d); err != nil {
			b.Fatal(err)
		}
	}
}

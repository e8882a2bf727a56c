package wire

import (
	"errors"
	"testing"

	"cswap/internal/compress"
)

func roundTrip(t *testing.T, f *Frame) *Frame {
	t.Helper()
	b, err := Encode(f)
	if err != nil {
		t.Fatalf("encode %s: %v", f.Type, err)
	}
	out, err := decodeAllWays(t, b, 0)
	if err != nil {
		t.Fatalf("decode %s: %v", f.Type, err)
	}
	if !Equal(f, out) {
		t.Fatalf("round trip drift: %+v -> %+v", f, out)
	}
	return out
}

func TestBatchFrameRoundTrip(t *testing.T) {
	roundTrip(t, &Frame{Type: TypeRegisterPool, Name: "kv", BlockElems: 256, NumBlocks: 1024})
	roundTrip(t, &Frame{Type: TypeBatchSwapOut, Name: "kv", Compress: true, Alg: compress.Auto,
		BlockIDs: []int{9, 3, 3, 700}})
	roundTrip(t, &Frame{Type: TypeBatchSwapOut, Name: "kv", Compress: false, BlockIDs: []int{0}})
	roundTrip(t, &Frame{Type: TypeBatchSwapIn, Name: "kv", BlockIDs: []int{}})
	roundTrip(t, &Frame{Type: TypeBatchPrefetch, Name: "kv", BlockIDs: []int{5, 6, 7}})
	roundTrip(t, &Frame{Type: TypeBatchData, Name: "kv", BlockElems: 3,
		Runs: []BlockRun{{Start: 1, Count: 2}, {Start: 9, Count: 1}},
		Data: []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}})
}

// TestBatchPeekName pins the tentpole routing property: the cluster peeks
// the pool name out of batch frames exactly as it does tensor names.
func TestBatchPeekName(t *testing.T) {
	for _, f := range []*Frame{
		{Type: TypeRegisterPool, Name: "tenant-pool", BlockElems: 8, NumBlocks: 8},
		{Type: TypeBatchSwapOut, Name: "tenant-pool", BlockIDs: []int{1, 2}},
		{Type: TypeBatchSwapIn, Name: "tenant-pool", BlockIDs: []int{1}},
		{Type: TypeBatchPrefetch, Name: "tenant-pool", BlockIDs: []int{}},
		{Type: TypeBatchData, Name: "tenant-pool", BlockElems: 1,
			Runs: []BlockRun{{Start: 0, Count: 1}}, Data: []float32{42}},
	} {
		b, err := Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		typ, name, err := PeekName(b, 0)
		if err != nil {
			t.Fatalf("PeekName(%s): %v", f.Type, err)
		}
		if typ != f.Type || name != "tenant-pool" {
			t.Fatalf("PeekName(%s) = %s, %q", f.Type, typ, name)
		}
	}
}

func TestBatchFrameErrors(t *testing.T) {
	encodeRejects := []*Frame{
		{Type: TypeRegisterPool, Name: "p", BlockElems: 0, NumBlocks: 4},
		{Type: TypeRegisterPool, Name: "p", BlockElems: 4, NumBlocks: 0},
		{Type: TypeRegisterPool, Name: "p", BlockElems: 4, NumBlocks: MaxBlockID + 1},
		{Type: TypeBatchSwapIn, Name: "p", BlockIDs: []int{-1}},
		{Type: TypeBatchSwapIn, Name: "p", BlockIDs: []int{MaxBlockID}},
		{Type: TypeBatchData, Name: "p", BlockElems: 2,
			Runs: []BlockRun{{Start: 0, Count: 1}}, Data: []float32{1, 2, 3}}, // table/payload mismatch
		{Type: TypeBatchData, Name: "p", BlockElems: 1,
			Runs: []BlockRun{{Start: 4, Count: 2}, {Start: 5, Count: 1}}, Data: []float32{1, 2, 3}}, // overlap
		{Type: TypeBatchData, Name: "p", BlockElems: 1,
			Runs: []BlockRun{{Start: 4, Count: 0}}, Data: nil}, // empty run
	}
	for i, f := range encodeRejects {
		if _, err := Encode(f); err == nil {
			t.Errorf("case %d: Encode accepted invalid %s frame", i, f.Type)
		}
	}

	// Truncation inside the ID list must surface as the recoverable
	// taxonomy, never a panic or misdecode.
	b, err := Encode(&Frame{Type: TypeBatchSwapIn, Name: "p", BlockIDs: []int{1, 2, 300}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := HeaderLen; cut < len(b); cut++ {
		if _, err := decodeAllWays(t, b[:cut], 0); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		} else if !compress.Recoverable(err) && !errors.Is(err, ErrTooLarge) {
			t.Fatalf("truncation at %d outside taxonomy: %v", cut, err)
		}
	}
}

func TestTotalBlocks(t *testing.T) {
	if n := TotalBlocks(nil); n != 0 {
		t.Fatalf("TotalBlocks(nil) = %d", n)
	}
	if n := TotalBlocks([]BlockRun{{0, 3}, {7, 2}}); n != 5 {
		t.Fatalf("TotalBlocks = %d, want 5", n)
	}
}

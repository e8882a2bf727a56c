package wire

import (
	"encoding/hex"
	"testing"

	"cswap/internal/compress"
)

// golden is one frame per type plus two carrying the sched extension, with
// the hex recorded at the commit before the scalar and batch codecs were
// merged into one field-driven cursor.
var golden = []struct {
	f   *Frame
	hex string
}{
	{&Frame{Type: TypeRegister, Name: "t", Data: []float32{1.5, 0, -2}},
		"4353575001010000000000138d7f39ee000174000000030000c03f00000000000000c0"},
	{&Frame{Type: TypeSwapOut, Name: "conv1/act", Compress: true, Alg: compress.ZVC},
		"43535750010200000000000dcd52cfb80009636f6e76312f6163740101"},
	{&Frame{Type: TypeSwapIn, Name: "t"}, "435357500103000000000003b1325d76000174"},
	{&Frame{Type: TypePrefetch, Name: "t"}, "435357500104000000000003b1325d76000174"},
	{&Frame{Type: TypeFree, Name: "t"}, "435357500105000000000003b1325d76000174"},
	{&Frame{Type: TypeTensorData, Name: "t", Data: []float32{0, 3.25}},
		"43535750010600000000000fd200c0c1000174000000020000000000005040"},
	{&Frame{Type: TypeAck, Name: "t"}, "435357500107000000000003b1325d76000174"},
	{&Frame{Type: TypeRegisterPool, Name: "kv", BlockElems: 4096, NumBlocks: 1024},
		"43535750010800000000000ceebdfde900026b760000100000000400"},
	{&Frame{Type: TypeBatchSwapOut, Name: "kv", Compress: true, Alg: compress.Auto, BlockIDs: []int{0, 1, 2, 300, 7}},
		"43535750010900000000000dc5f7b54400026b76010005000102ac0207"},
	{&Frame{Type: TypeBatchSwapIn, Name: "kv", BlockIDs: []int{5, 5, 130}},
		"43535750010a000000000009f8e1674600026b760305058201"},
	{&Frame{Type: TypeBatchPrefetch, Name: "kv", BlockIDs: []int{16384}},
		"43535750010b000000000008f311f08e00026b7601808001"},
	{&Frame{Type: TypeBatchData, Name: "kv", BlockElems: 2,
		Runs: []BlockRun{{Start: 0, Count: 1}, {Start: 3, Count: 2}}, Data: []float32{1, 2, 3, 4, 5, 6}},
		"43535750010c000000000025c43ff18d00026b760000000202000103020000803f0000004000004040000080400000a0400000c040"},
	{&Frame{Type: TypeBatchSwapIn, Name: "kv", BlockIDs: []int{1, 2}, HasSched: true, Lane: 0, DeadlineMicros: 250000},
		"43535750010a00010000000b27a8d28f00026b760090a10f020102"},
	{&Frame{Type: TypeSwapOut, Name: "t", Compress: false, Alg: compress.ZVC, HasSched: true, Lane: 2},
		"435357500102000100000007876cb2c900017402000001"},
}

// TestGoldenFrames pins the bytes on the wire against golden. A refactor of
// the encoder that moves a single byte fails here; the decoder must read the
// recorded bytes back into the same frame.
func TestGoldenFrames(t *testing.T) {
	seen := map[Type]bool{}
	for _, g := range golden {
		seen[g.f.Type] = true
		b, err := Encode(g.f)
		if err != nil {
			t.Fatalf("%s: encode: %v", g.f.Type, err)
		}
		if got := hex.EncodeToString(b); got != g.hex {
			t.Errorf("%s: encoded\n  %s\nwant\n  %s", g.f.Type, got, g.hex)
		}
		want, _ := hex.DecodeString(g.hex)
		back, err := Decode(want, 0)
		if err != nil {
			t.Fatalf("%s: decode of the recorded bytes: %v", g.f.Type, err)
		}
		if !Equal(g.f, back) {
			t.Errorf("%s: recorded bytes decode to %+v, want %+v", g.f.Type, back, g.f)
		}
	}
	for typ := TypeRegister; typ.valid(); typ++ {
		if !seen[typ] {
			t.Errorf("no golden frame for %s", typ)
		}
	}
}

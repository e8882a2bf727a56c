package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
)

// Launch is a GPU kernel launch geometry: the (grid, block) pair CSWAP
// tunes with Bayesian optimization (Section IV-D). Grid is the number of
// thread blocks (1–4096 in the paper's search space); Block is threads per
// block (64 or 128, matching the 2/4 warp schedulers per SM on the
// evaluated GPUs). On the CPU, Grid is the most chunks the container may
// cut a tensor into: ChunkCount caps it so that no chunk falls below 16 Ki
// elements. Block is validated and carried, but changes neither the blob
// nor the worker count.
type Launch struct {
	Grid  int
	Block int
}

// Validate reports whether the launch geometry is inside the paper's search
// space.
func (l Launch) Validate() error {
	if l.Grid < 1 || l.Grid > 4096 {
		return fmt.Errorf("compress: grid %d outside [1,4096]", l.Grid)
	}
	if l.Block != 64 && l.Block != 128 {
		return fmt.Errorf("compress: block %d not in {64,128}", l.Block)
	}
	return nil
}

// Threads returns the total thread count of the launch.
func (l Launch) Threads() int { return l.Grid * l.Block }

func (l Launch) String() string { return fmt.Sprintf("(%d,%d)", l.Grid, l.Block) }

// Hooks intercepts per-chunk codec work on the parallel path — the seam the
// fault injector (internal/faultinject) and instrumentation attach to. A
// nil *Hooks or nil field is a no-op; a non-nil error from a hook aborts
// that chunk.
type Hooks struct {
	ChunkEncode func(alg Algorithm, chunk int) error
	ChunkDecode func(alg Algorithm, chunk int) error
}

func (h *Hooks) chunkEncode(alg Algorithm, chunk int) error {
	if h == nil || h.ChunkEncode == nil {
		return nil
	}
	return h.ChunkEncode(alg, chunk)
}

func (h *Hooks) chunkDecode(alg Algorithm, chunk int) error {
	if h == nil || h.ChunkDecode == nil {
		return nil
	}
	return h.ChunkDecode(alg, chunk)
}

// Parallel blob framing:
//
//	[0]      0x50 ('P') container marker
//	[1]      algorithm byte
//	[2:10]   uint64 total element count
//	[10:14]  uint32 chunk count
//	[14:..]  chunk count × uint64 chunk blob lengths
//	then the concatenated per-chunk codec blobs.
const parallelMarker = 0x50

// parHeaderSize is the fixed container prefix before the chunk directory.
const parHeaderSize = 14

// maxParallelElems bounds the element count a container header may claim;
// anything larger is treated as corrupt before any allocation happens.
const maxParallelElems = math.MaxInt32

// minChunkElems is the container's chunk floor: 16 Ki elements (64 KiB).
// Below it a chunk's fixed costs dominate (its codec header and directory
// slot, HUF's code table, LZ4's hash-table reset, and a ZVC decode that
// never reaches its unchecked loop), so a grid that would cut smaller
// chunks is capped (ChunkCount).
const minChunkElems = 16 << 10

// ChunkCount returns how many chunks the container encoder cuts an
// n-element tensor into at the given grid: the grid, capped so that no chunk
// holds fewer than minChunkElems elements, and at least one. A tensor
// smaller than the floor is one chunk; an 8 MiB tensor at grid 128 is 128
// chunks of exactly the floor.
func ChunkCount(n, grid int) int {
	_, k := chunkShape(n, min(grid, n/minChunkElems)) // chunkShape takes a grid below 1 as 1
	return k
}

// ParallelEncode compresses src with the codec for alg, partitioned into
// ChunkCount(len(src), launch.Grid) independent chunks the way a GPU kernel
// assigns one tensor slice per thread block. Chunks are 32-element aligned
// so ZVC bitmap words never straddle a boundary. On a real GPU every block
// runs concurrently; on the CPU host the chunks share GOMAXPROCS workers,
// so the output is byte-exact for a given grid whatever the core count.
func ParallelEncode(alg Algorithm, src []float32, launch Launch) ([]byte, error) {
	if err := launch.Validate(); err != nil {
		return nil, err
	}
	bound, err := MaxParallelEncodedLen(alg, len(src), launch)
	if err != nil {
		return nil, err
	}
	return AppendParallelEncode(make([]byte, 0, bound), alg, src, launch)
}

// MaxParallelEncodedLen returns an upper bound on the container size
// AppendParallelEncode can produce for an n-element tensor at the given
// launch, derived arithmetically from the codec's per-chunk MaxEncodedLen.
// Callers use it to pre-size append destinations (e.g. arena buffers) so
// the encode path performs no allocation.
func MaxParallelEncodedLen(alg Algorithm, n int, launch Launch) (int, error) {
	codec, err := New(alg)
	if err != nil {
		return 0, err
	}
	per, k := chunkShape(n, ChunkCount(n, launch.Grid))
	last := n - (k-1)*per
	if last > per {
		last = per // single-chunk case: the chunk holds all n <= per elements
	}
	return parHeaderSize + 8*k + (k-1)*codec.MaxEncodedLen(per) + codec.MaxEncodedLen(last), nil
}

// AppendParallelEncode appends the parallel container encoding of src to
// dst, returning the extended slice. The appended bytes are identical to
// ParallelEncode's output for the same launch. When cap(dst)-len(dst) is at
// least MaxParallelEncodedLen, no allocation occurs: every chunk encodes
// directly into a disjoint span of dst and the spans are then compacted in
// place — there is no per-chunk blob or concatenation copy.
func AppendParallelEncode(dst []byte, alg Algorithm, src []float32, launch Launch) ([]byte, error) {
	return AppendParallelEncodeWith(dst, alg, src, launch, nil)
}

// AppendParallelEncodeWith is AppendParallelEncode with per-chunk hooks.
func AppendParallelEncodeWith(dst []byte, alg Algorithm, src []float32, launch Launch, hooks *Hooks) ([]byte, error) {
	if err := launch.Validate(); err != nil {
		return nil, err
	}
	return appendParallelChunks(dst, alg, src, ChunkCount(len(src), launch.Grid), hooks)
}

// appendParallelChunks is the encoder body: it cuts src into
// chunkBounds(len(src), numChunks), with no floor applied. The exported path
// passes ChunkCount; tests pass a count directly to build the small-chunk
// directories older encoders wrote, which the decoder still accepts.
func appendParallelChunks(dst []byte, alg Algorithm, src []float32, numChunks int, hooks *Hooks) ([]byte, error) {
	codec, err := New(alg)
	if err != nil {
		return nil, err
	}
	chunks := chunkBounds(len(src), numChunks)
	k := len(chunks)

	// Reserve the header, the directory, and one worst-case span per chunk.
	// Every non-last chunk has the same element count, hence the same bound.
	base := len(dst)
	dirEnd := base + parHeaderSize + 8*k
	maxPer := codec.MaxEncodedLen(chunks[0].hi - chunks[0].lo)
	need := dirEnd + (k-1)*maxPer + codec.MaxEncodedLen(chunks[k-1].hi-chunks[k-1].lo)
	if cap(dst) < need {
		grown := make([]byte, need, need+(need-base)/4)
		copy(grown, dst)
		dst = grown
	} else {
		dst = dst[:need]
	}

	// Each chunk encodes into its own capacity-capped span; the three-index
	// slice keeps appends inside the reservation. encoded records where each
	// blob actually lives — normally the span itself, or an escaped append
	// allocation if a MaxEncodedLen bound were ever violated (the compaction
	// below copies from wherever the blob is, so correctness never depends
	// on the bound).
	encoded := make([][]byte, k)
	errs := make([]error, k)
	runWorkers(k, workerCount(k), func(i int) {
		if herr := hooks.chunkEncode(alg, i); herr != nil {
			errs[i] = chunkErr(alg, i, k, herr)
			return
		}
		off := dirEnd + i*maxPer
		lim := off + codec.MaxEncodedLen(chunks[i].hi-chunks[i].lo)
		encoded[i] = codec.AppendEncode(dst[off:off:lim], src[chunks[i].lo:chunks[i].hi])
	})
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}

	// Header, directory, then left-compaction. Chunk i's final position
	// starts at dirEnd + sum(len(b_j), j<i) <= dirEnd + i*maxPer, its
	// scratch position, so the ascending copy never clobbers unread bytes.
	dst[base] = parallelMarker
	dst[base+1] = byte(alg)
	binary.LittleEndian.PutUint64(dst[base+2:], uint64(len(src)))
	binary.LittleEndian.PutUint32(dst[base+10:], uint32(k))
	w := dirEnd
	for i, b := range encoded {
		binary.LittleEndian.PutUint64(dst[base+parHeaderSize+8*i:], uint64(len(b)))
		copy(dst[w:], b)
		w += len(b)
	}
	return dst[:w], nil
}

// ParallelDecode reverses ParallelEncode, decoding chunks concurrently on
// GOMAXPROCS workers. The chunk bounds come from the blob's directory, so
// the launch is only validated: a blob decodes the same at any launch.
//
// The container is fully validated before the n-element destination is
// allocated: the algorithm byte must name a known codec, the chunk count
// must be consistent with the declared element count (no blob may claim
// more chunks than ceil(n/32) 32-aligned spans), the chunk directory must
// exactly tile the payload, and the per-chunk headers must agree with the
// container header — so a hostile header cannot drive a huge allocation or
// a mismatched decode.
func ParallelDecode(blob []byte, launch Launch) ([]float32, error) {
	if err := launch.Validate(); err != nil {
		return nil, err
	}
	pc, err := parseParallelContainer(blob)
	if err != nil {
		return nil, err
	}
	dst := make([]float32, pc.n)
	if err := pc.decodeInto(dst, blob, nil); err != nil {
		return nil, err
	}
	return dst, nil
}

// ParallelDecodeInto reverses ParallelEncode into the caller-owned dst,
// whose length must equal the container's declared element count
// (ErrDstSize otherwise). Each chunk scatters straight into its span of
// dst with no intermediate slices; on success every element of dst has
// been written, so a dirty recycled buffer is fully overwritten. On error
// dst's contents are unspecified. As with ParallelDecode, the launch is
// only validated.
func ParallelDecodeInto(dst []float32, blob []byte, launch Launch) error {
	if err := launch.Validate(); err != nil {
		return err
	}
	return ParallelDecodeIntoWith(dst, blob, nil)
}

// ParallelDecodeIntoWith is ParallelDecodeInto with per-chunk hooks. It
// takes no launch: decoding reads the chunking from the blob.
func ParallelDecodeIntoWith(dst []float32, blob []byte, hooks *Hooks) error {
	pc, err := parseParallelContainer(blob)
	if err != nil {
		return err
	}
	if len(dst) != pc.n {
		return fmt.Errorf("%w: dst holds %d elements, container declares %d",
			ErrDstSize, len(dst), pc.n)
	}
	return pc.decodeInto(dst, blob, hooks)
}

// parContainer is a validated view over a parallel container blob.
type parContainer struct {
	codec   Codec
	alg     Algorithm
	n       int
	bounds  []span // element spans, one per chunk
	offsets []int  // len(bounds)+1 absolute byte offsets of chunk blobs
}

// parseParallelContainer performs the full structural validation described
// on ParallelDecode and returns the chunk layout. Nothing is allocated
// proportional to the (untrusted) declared element count.
func parseParallelContainer(blob []byte) (parContainer, error) {
	var pc parContainer
	if len(blob) < parHeaderSize {
		return pc, fmt.Errorf("%w: parallel container header", ErrTruncated)
	}
	if blob[0] != parallelMarker {
		return pc, fmt.Errorf("%w: not a parallel container", ErrCorrupt)
	}
	// The algorithm byte must map to a known codec before anything is
	// allocated on the strength of the header.
	alg := Algorithm(blob[1])
	codec, err := New(alg)
	if err != nil {
		return pc, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	n := int(binary.LittleEndian.Uint64(blob[2:10]))
	if n < 0 || n > maxParallelElems {
		return pc, fmt.Errorf("%w: container claims %d elements", ErrCorrupt, n)
	}
	numChunks := int(binary.LittleEndian.Uint32(blob[10:14]))
	// Chunks are 32-element aligned and non-empty (except the single empty
	// chunk of an empty tensor), so a container claiming more chunks than
	// ceil(n/32) — or none at all — is corrupt.
	maxChunks := (n + 31) / 32
	if maxChunks < 1 {
		maxChunks = 1
	}
	if numChunks < 1 || numChunks > maxChunks {
		return pc, fmt.Errorf("%w: %d chunks for %d elements (max %d)",
			ErrCorrupt, numChunks, n, maxChunks)
	}
	dirEnd := parHeaderSize + 8*numChunks
	if len(blob) < dirEnd {
		return pc, fmt.Errorf("%w: chunk directory", ErrTruncated)
	}
	offsets := make([]int, numChunks+1)
	offsets[0] = dirEnd
	for i := 0; i < numChunks; i++ {
		length := int(binary.LittleEndian.Uint64(blob[parHeaderSize+8*i:]))
		if length < 0 || offsets[i]+length > len(blob) {
			return pc, chunkErr(alg, i, numChunks, ErrTruncated)
		}
		offsets[i+1] = offsets[i] + length
	}
	if offsets[numChunks] != len(blob) {
		return pc, fmt.Errorf("%w: directory covers %d bytes, payload has %d",
			ErrCorrupt, offsets[numChunks]-dirEnd, len(blob)-dirEnd)
	}
	bounds := chunkBounds(n, numChunks)
	if len(bounds) != numChunks {
		return pc, fmt.Errorf("%w: chunk count %d inconsistent with %d elements",
			ErrCorrupt, numChunks, n)
	}
	// Cross-check every chunk's own header against the container before
	// the destination is touched: each must carry the container's algorithm
	// and declare exactly its span's element count (which also forces the
	// counts to sum to n). Classifying a count mismatch here keeps it
	// ErrCorrupt — recoverable data corruption — rather than surfacing as a
	// structural ErrDstSize from the per-chunk DecodeInto.
	for i := range bounds {
		chunk := blob[offsets[i]:offsets[i+1]]
		if len(chunk) < headerSize {
			return pc, chunkErr(alg, i, numChunks, ErrTruncated)
		}
		if Algorithm(chunk[0]) != alg {
			return pc, chunkErr(alg, i, numChunks, fmt.Errorf(
				"%w: chunk algorithm byte %d, container is %s", ErrCorrupt, chunk[0], alg))
		}
		if count := binary.LittleEndian.Uint64(chunk[1:9]); count != uint64(bounds[i].hi-bounds[i].lo) {
			return pc, chunkErr(alg, i, numChunks, fmt.Errorf(
				"%w: chunk declares %d elements, span holds %d",
				ErrCorrupt, count, bounds[i].hi-bounds[i].lo))
		}
	}
	return parContainer{codec: codec, alg: alg, n: n, bounds: bounds, offsets: offsets}, nil
}

// decodeInto runs the per-chunk decodes, scattering each chunk straight
// into its span of dst. HUF chunks go to the workers in adjacent pairs while
// there are at least two pairs per worker; below that, pairing would leave
// a core idle, and chunks go singly. An odd last chunk decodes alone.
func (pc parContainer) decodeInto(dst []float32, blob []byte, hooks *Hooks) error {
	numChunks := len(pc.bounds)
	errs := make([]error, numChunks)
	if workers := workerCount(numChunks); pc.alg != Huffman || numChunks/2 < 2*workers {
		runWorkers(numChunks, workers, func(i int) {
			pc.decodeChunks(dst, blob, hooks, errs, i, i+1)
		})
	} else {
		pairs := (numChunks + 1) / 2
		runWorkers(pairs, workerCount(pairs), func(p int) {
			pc.decodeChunks(dst, blob, hooks, errs, 2*p, min(2*p+2, numChunks))
		})
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// decodeChunks decodes chunks lo to hi-1, one or two of them, recording
// each chunk's error in errs. Two chunks that pass their hooks decode as a
// pair, their two HUF bit streams interleaved in one loop, so the two
// dependency chains overlap; a chunk whose partner's hook failed decodes
// alone.
func (pc parContainer) decodeChunks(dst []float32, blob []byte, hooks *Hooks, errs []error, lo, hi int) {
	var live [2]int
	n := 0
	for i := lo; i < hi; i++ {
		if herr := hooks.chunkDecode(pc.alg, i); herr != nil {
			errs[i] = chunkErr(pc.alg, i, len(errs), herr)
		} else {
			live[n] = i
			n++
		}
	}
	var err [2]error
	switch n {
	case 1:
		err[0] = pc.codec.DecodeInto(pc.chunk(dst, blob, live[0]))
	case 2:
		dA, bA := pc.chunk(dst, blob, live[0])
		dB, bB := pc.chunk(dst, blob, live[1])
		err[0], err[1] = huffDecodePair(dA, bA, dB, bB)
	}
	for k, i := range live[:n] {
		if err[k] != nil {
			errs[i] = chunkErr(pc.alg, i, len(errs), err[k])
		}
	}
}

// chunk returns chunk i's span of dst and its codec blob.
func (pc parContainer) chunk(dst []float32, blob []byte, i int) ([]float32, []byte) {
	return dst[pc.bounds[i].lo:pc.bounds[i].hi], blob[pc.offsets[i]:pc.offsets[i+1]]
}

type span struct{ lo, hi int }

// chunkShape returns the 32-aligned per-chunk element count and the number
// of chunks chunkBounds produces for (n, grid).
func chunkShape(n, grid int) (per, k int) {
	if grid < 1 {
		grid = 1
	}
	per = (n + grid - 1) / grid
	per = (per + 31) &^ 31
	if per == 0 {
		per = 32
	}
	k = (n + per - 1) / per
	if k < 1 {
		k = 1
	}
	return per, k
}

// chunkBounds splits n elements into at most grid 32-aligned spans; the last
// span absorbs the remainder. Fewer spans than grid are produced when the
// tensor is small.
func chunkBounds(n, grid int) []span {
	per, k := chunkShape(n, grid)
	out := make([]span, 0, k)
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		out = append(out, span{lo, hi})
	}
	if len(out) == 0 {
		out = append(out, span{0, 0})
	}
	return out
}

// workerCount bounds host-side concurrency for a parallel codec call: one
// CPU-bound worker per P, and never more workers than chunks.
func workerCount(jobs int) int {
	return max(1, min(runtime.GOMAXPROCS(0), jobs))
}

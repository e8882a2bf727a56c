package client

// The ten service operations, written once. Both client types embed ops and
// differ only in the round trip underneath it: Client's goes straight to
// the daemon, ClusterClient's routes to the owning shard first. The URL and
// the expected response frame of each operation come from the wire
// package's operation table, keyed by the request frame's type.
//
//	if err := c.RegisterPool(ctx, "kv", 4096, 1024); err != nil { ... }
//	if err := c.WriteBlocks(ctx, "kv", []int{0, 1, 2}, packed); err != nil { ... }
//	if err := c.SwapOutBlocks(ctx, "kv", []int{0, 1, 2}); err != nil { ... }
//	bd, err := c.SwapInBlocks(ctx, "kv", []int{0, 1, 2})

import (
	"context"
	"fmt"
	"time"

	"cswap/internal/wire"
)

// ops carries the operations over call, one framed round trip: send the
// request, retry the bounded refusals, decode the response frame the
// operation table promises for it.
type ops struct {
	// The request frame travels by value: through a function value a pointer
	// would escape, and every operation would pay a heap-allocated frame. dst,
	// when long enough, receives the response's float field.
	call func(ctx context.Context, f wire.Frame, dst []float32) (*wire.Frame, error)
}

// ack runs an operation that answers with a bare acknowledgement.
func (o *ops) ack(ctx context.Context, f wire.Frame) error {
	_, err := o.call(ctx, f, nil)
	return err
}

// SwapOption configures one swap call (SwapOut, SwapIn, Prefetch, and
// their batch forms). The swap-out default — no options — is compressed
// with the Auto selector: the service picks the codec (the tenant's tuned
// verdict when the daemon runs with -tune, else the best modeled ratio
// for the tensor's sparsity).
type SwapOption func(*swapOpts)

type swapOpts struct {
	compress bool
	alg      Algorithm
	hasSched bool
	lane     Lane
	deadline time.Duration
}

// WithCodec compresses the swap-out with a specific algorithm, overriding
// the service-side Auto choice.
func WithCodec(alg Algorithm) SwapOption {
	return func(o *swapOpts) { o.compress, o.alg = true, alg }
}

// WithRaw swaps out uncompressed.
func WithRaw() SwapOption {
	return func(o *swapOpts) { o.compress, o.alg = false, ZVC }
}

// WithLane tags the request with an admission lane for the service's SLO
// scheduler. A daemon without -sched never queues, so there the lane
// changes nothing; old daemons that predate the extension refuse the frame.
func WithLane(l Lane) SwapOption {
	return func(o *swapOpts) { o.hasSched, o.lane = true, l }
}

// WithDeadline bounds how long the request may wait in the admission
// queue, relative to its arrival at the service. A request whose deadline
// passes while queued answers ErrExpired instead of running late.
// Deadline without lane rides LaneNormal; combine with WithLane to set
// both.
func WithDeadline(d time.Duration) SwapOption {
	return func(o *swapOpts) {
		if !o.hasSched {
			o.hasSched, o.lane = true, LaneNormal
		}
		o.deadline = d
	}
}

// swapFrame builds a swap request: f with the options folded over the
// swap-out defaults (the codec fields only mean something to swap-outs)
// and the lane/deadline hint stamped on when one was given.
func swapFrame(f wire.Frame, opts []SwapOption) wire.Frame {
	o := swapOpts{compress: true, alg: Auto}
	for _, opt := range opts {
		opt(&o)
	}
	if f.Type == wire.TypeSwapOut || f.Type == wire.TypeBatchSwapOut {
		f.Compress, f.Alg = o.compress, o.alg
	}
	if o.hasSched {
		f.HasSched, f.Lane = true, uint8(o.lane)
		if o.deadline > 0 {
			f.DeadlineMicros = uint64(o.deadline / time.Microsecond)
		}
	}
	return f
}

// Register places a float32 tensor in the service's device pool under the
// client's tenant namespace. The request is sent from the data slice itself,
// which must not change during the call; it is not read after the call
// returns, nor retained.
func (o *ops) Register(ctx context.Context, name string, data []float32) error {
	return o.ack(ctx, wire.Frame{Type: wire.TypeRegister, Name: name, Data: data})
}

// SwapOut moves the tensor to the service's host pool. With no options the
// payload is compressed and the service chooses the codec; WithCodec and
// WithRaw override.
func (o *ops) SwapOut(ctx context.Context, name string, opts ...SwapOption) error {
	return o.ack(ctx, swapFrame(wire.Frame{Type: wire.TypeSwapOut, Name: name}, opts))
}

// SwapIn restores the tensor to device residency and returns its data in a
// fresh slice. WithLane/WithDeadline tag the request for the service's SLO
// scheduler (a decode-step-blocking restore wants LaneCritical).
func (o *ops) SwapIn(ctx context.Context, name string, opts ...SwapOption) ([]float32, error) {
	f, err := o.call(ctx, swapFrame(wire.Frame{Type: wire.TypeSwapIn, Name: name}, opts), nil)
	if err != nil {
		return nil, err
	}
	return f.Data, nil
}

// SwapInInto is SwapIn for a caller that owns the tensor's buffer: the data
// is read off the response straight into dst, which must hold exactly the
// tensor's element count (a mismatch is an error, after the tensor has been
// restored). The response's checksum verdict comes after its last byte, so
// on any error dst's content is unspecified.
func (o *ops) SwapInInto(ctx context.Context, name string, dst []float32, opts ...SwapOption) error {
	f, err := o.call(ctx, swapFrame(wire.Frame{Type: wire.TypeSwapIn, Name: name}, opts), dst)
	if err == nil && len(f.Data) != len(dst) {
		err = fmt.Errorf("cswap client: SwapInInto %q: tensor has %d elements, dst holds %d", name, len(f.Data), len(dst))
	}
	return err
}

// Prefetch asks the service to make the tensor resident ahead of need;
// it is idempotent on already-resident tensors. Without options the
// service treats it as speculative work.
func (o *ops) Prefetch(ctx context.Context, name string, opts ...SwapOption) error {
	return o.ack(ctx, swapFrame(wire.Frame{Type: wire.TypePrefetch, Name: name}, opts))
}

// Free releases the tensor (or block pool) and returns its bytes to the
// tenant quota.
func (o *ops) Free(ctx context.Context, name string) error {
	return o.ack(ctx, wire.Frame{Type: wire.TypeFree, Name: name})
}

// BlockRun is one contiguous run of block IDs: Count blocks starting at
// Start.
type BlockRun = wire.BlockRun

// BlockData is a batch swap-in result: the pool's per-block element
// count, the (sorted, disjoint) runs covering the requested IDs, and
// their contents packed run by run.
type BlockData struct {
	BlockElems int
	Runs       []BlockRun
	Data       []float32
}

// Block returns one block's elements from the packed payload, or false
// when the ID is not covered by the result's runs. The returned slice
// aliases Data.
func (bd *BlockData) Block(id int) ([]float32, bool) {
	off := 0
	for _, r := range bd.Runs {
		if id >= r.Start && id < r.Start+r.Count {
			base := (off + id - r.Start) * bd.BlockElems
			return bd.Data[base : base+bd.BlockElems], true
		}
		off += r.Count
	}
	return nil, false
}

// runsOf converts a strictly-ascending unique ID list into the canonical
// run table the batch-data frame carries. Any other shape errors: packed
// payloads have no unambiguous layout for unsorted or duplicate IDs.
func runsOf(ids []int) ([]BlockRun, error) {
	var runs []BlockRun
	for i, id := range ids {
		if i > 0 && id <= ids[i-1] {
			return nil, fmt.Errorf("%w: block IDs must be strictly ascending (%d after %d)",
				ErrProtocol, id, ids[i-1])
		}
		if n := len(runs); n > 0 && id == runs[n-1].Start+runs[n-1].Count {
			runs[n-1].Count++
			continue
		}
		runs = append(runs, BlockRun{Start: id, Count: 1})
	}
	return runs, nil
}

// RegisterPool reserves a paged block pool: numBlocks fixed-size blocks
// of blockElems float32s under one name, charged against the tenant
// quota once, here. Every later operation on the pool goes by that name
// (and, against a cluster, to the shard that owns it).
func (o *ops) RegisterPool(ctx context.Context, pool string, blockElems, numBlocks int) error {
	return o.ack(ctx, wire.Frame{Type: wire.TypeRegisterPool, Name: pool, BlockElems: blockElems, NumBlocks: numBlocks})
}

// WriteBlocks stores packed block contents: data holds len(ids) blocks
// back to back in the order of the strictly-ascending ID list. Target
// blocks must be resident. Like Register, the request is sent from data
// itself.
func (o *ops) WriteBlocks(ctx context.Context, pool string, ids []int, data []float32) error {
	runs, err := runsOf(ids)
	if err != nil || len(ids) == 0 {
		return err
	}
	return o.ack(ctx, wire.Frame{Type: wire.TypeBatchData, Name: pool,
		BlockElems: len(data) / len(ids), Runs: runs, Data: data})
}

// SwapOutBlocks moves the listed blocks to the service's host pool as one
// batch: IDs may repeat and arrive in any order; the service coalesces
// contiguous runs. Options as SwapOut.
func (o *ops) SwapOutBlocks(ctx context.Context, pool string, ids []int, opts ...SwapOption) error {
	return o.ack(ctx, swapFrame(wire.Frame{Type: wire.TypeBatchSwapOut, Name: pool, BlockIDs: ids}, opts))
}

// SwapInBlocks restores the listed blocks and returns their packed
// contents. Already-resident blocks are included in the result without a
// restore. WithLane/WithDeadline tag the batch for the SLO scheduler.
func (o *ops) SwapInBlocks(ctx context.Context, pool string, ids []int, opts ...SwapOption) (*BlockData, error) {
	f, err := o.call(ctx, swapFrame(wire.Frame{Type: wire.TypeBatchSwapIn, Name: pool, BlockIDs: ids}, opts), nil)
	if err != nil {
		return nil, err
	}
	return &BlockData{BlockElems: f.BlockElems, Runs: f.Runs, Data: f.Data}, nil
}

// PrefetchBlocks asks the service to restore the listed blocks ahead of
// need; already-resident blocks are no-ops. Without options the service
// treats the batch as speculative work.
func (o *ops) PrefetchBlocks(ctx context.Context, pool string, ids []int, opts ...SwapOption) error {
	return o.ack(ctx, swapFrame(wire.Frame{Type: wire.TypeBatchPrefetch, Name: pool, BlockIDs: ids}, opts))
}

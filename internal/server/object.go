package server

// object is the one seam between the two things a registered name can be: a
// tensor (one executor handle, swapped whole) or a paged block pool (one
// device reservation of fixed-size blocks, swapped by coalesced runs of
// block IDs, so a decode step's worth of KV-cache blocks costs one
// admission slot and one round trip). Above this file nothing asks which of
// the two an entry holds; it asks the entry's object to do the thing.
//
// What differs, and therefore lives behind the seam:
//
//   - Quota is charged once, at register time: a tensor's bytes, or a
//     pool's whole reservation (numBlocks x blockElems x 4). Batch
//     operations move block contents inside that reservation and are never
//     re-charged, and a pool's charge stays in the device bucket even while
//     individual runs are tiered — so a pool reports inTier false and
//     refuses demote.
//   - A swap claims ONE admission slot whatever its block count. The
//     executor fans a batch out into coalesced runs on its own bounded
//     window; admitting per block would re-introduce the per-block control
//     cost batching exists to amortize.
//   - A tensor's whole content is one frame of data; a pool's is a run
//     table plus packed blocks.

import (
	"context"
	"errors"

	"cswap/internal/compress"
	"cswap/internal/executor"
	"cswap/internal/tensor"
	"cswap/internal/wire"
)

// errNotPool reports a batch operation addressed to a plain tensor name.
var errNotPool = errors.New("server: name is a tensor, not a block pool")

// errNotTensor reports a tensor operation addressed to a block-pool name.
var errNotTensor = errors.New("server: name is a block pool, not a tensor")

// errGeometry reports a batch-write whose block size is not the pool's.
var errGeometry = errors.New("server: batch-write block geometry does not match the pool")

type object interface {
	// accepts refuses an operation addressed to the other kind of object:
	// the per-tensor endpoints don't apply to a pool name, nor the batch
	// ones to a tensor.
	accepts(op *wire.Op) error
	// swapBytes is how many raw bytes the swap-out f asks for moves.
	swapBytes(f *wire.Frame) int64
	// submit starts the swap f asks for — out (with the resolved codec), in,
	// or prefetch — on the executor's async pipeline.
	submit(ctx context.Context, f *wire.Frame, doCompress bool, alg compress.Algorithm) *executor.Ticket
	// read answers a swap-in with the resident content the request covers
	// (runs is the coalesced form of its block IDs; a tensor has only the
	// whole), in place: the frame's float field is the object's own memory —
	// a tensor's as Data, a pool's as one segment per run — valid while the
	// caller holds the entry lock.
	read(name string, runs []executor.BlockRun) (*wire.Frame, [][]float32, error)
	// write stores f's packed blocks and reports the fraction of the object
	// they cover.
	write(f *wire.Frame) (covered float64, err error)
	// inTier reports whether the object's payload lives in the disk tier as
	// one unit (a pool's never does).
	inTier() bool
	// demote moves the swapped payload to the disk tier as one unit.
	demote() error
	free() error

	// The migration half: restoreAll makes everything resident and returns
	// the swap-out request that puts back what had been swapped — submit
	// takes it, here or on the copy a migration built (nil: nothing had
	// been) — and readAll is the whole content as the frame newObject
	// rebuilds from.
	restoreAll() (was *wire.Frame, err error)
	readAll(name string) (*wire.Frame, [][]float32, error)
}

// chargeOf is the quota a register request pre-pays: a tensor's bytes, or a
// pool's whole reservation (a register frame carries data and no geometry, a
// register-pool frame the reverse).
func chargeOf(f *wire.Frame) int64 {
	return (int64(len(f.Data)) + int64(f.BlockElems)*int64(f.NumBlocks)) * tensor.BytesPerElement
}

// newObject registers what f describes on exec under the qualified name: a
// tensor from a register or tensor-data frame, charged to the tenant's
// ledger, an empty pool from a register-pool frame, a pool with its content
// from a batch-data frame whose run table starts at block zero (readAll's
// form). It is both the register handlers' body and the arriving half of a
// migration.
func newObject(exec *executor.Executor, qname string, f *wire.Frame, charge executor.Charge) (object, error) {
	switch f.Type {
	case wire.TypeRegister, wire.TypeTensorData:
		h, err := exec.Register(qname, tensor.FromSlice(f.Data))
		if err != nil {
			return nil, err
		}
		h.SetCharge(charge)
		return tensorObj{exec, h}, nil
	case wire.TypeRegisterPool:
		p, err := exec.RegisterBlockPool(qname, f.BlockElems, f.NumBlocks)
		if err != nil {
			return nil, err
		}
		return poolObj{p}, nil
	}
	p, err := exec.RegisterBlockPool(qname, f.BlockElems, wire.TotalBlocks(f.Runs))
	if err != nil {
		return nil, err
	}
	if _, err := (poolObj{p}).write(f); err != nil {
		_ = p.Free()
		return nil, err
	}
	return poolObj{p}, nil
}

// tensorObj is a tensor: one handle on the executor that registered it.
type tensorObj struct {
	e *executor.Executor
	h *executor.Handle
}

func (o tensorObj) swapBytes(*wire.Frame) int64 { return o.h.Bytes() }
func (o tensorObj) inTier() bool                { return o.h.InTier() }
func (o tensorObj) demote() error               { return o.e.Demote(o.h) }
func (o tensorObj) free() error                 { return o.e.Free(o.h) }

func (o tensorObj) accepts(op *wire.Op) error {
	if op.Pool {
		return errNotPool
	}
	return nil
}

func (o tensorObj) submit(ctx context.Context, f *wire.Frame, doCompress bool, alg compress.Algorithm) *executor.Ticket {
	switch f.Type {
	case wire.TypeSwapOut:
		return o.e.SwapOutAsyncCtx(ctx, o.h, doCompress, alg)
	case wire.TypeSwapIn:
		return o.e.SwapInAsyncCtx(ctx, o.h)
	}
	return o.e.PrefetchCtx(ctx, o.h)
}

func (o tensorObj) read(name string, _ []executor.BlockRun) (*wire.Frame, [][]float32, error) {
	data, err := o.h.Data()
	return &wire.Frame{Type: wire.TypeTensorData, Name: name, Data: data}, nil, err
}

func (o tensorObj) readAll(name string) (*wire.Frame, [][]float32, error) { return o.read(name, nil) }

func (o tensorObj) write(*wire.Frame) (float64, error) { return 0, errNotPool }

func (o tensorObj) restoreAll() (*wire.Frame, error) {
	if o.h.State() != executor.Swapped {
		return nil, nil
	}
	return &wire.Frame{Type: wire.TypeSwapOut}, o.e.SwapIn(o.h)
}

// poolObj is a paged block pool.
type poolObj struct{ p *executor.BlockPool }

func (o poolObj) inTier() bool  { return false }
func (o poolObj) demote() error { return errNotTensor }
func (o poolObj) free() error   { return o.p.Free() }

func (o poolObj) accepts(op *wire.Op) error {
	if !op.Pool {
		return errNotTensor
	}
	return nil
}

func (o poolObj) swapBytes(f *wire.Frame) int64 {
	return int64(len(f.BlockIDs)) * int64(o.p.BlockElems()) * tensor.BytesPerElement
}

func (o poolObj) submit(ctx context.Context, f *wire.Frame, doCompress bool, alg compress.Algorithm) *executor.Ticket {
	switch f.Type {
	case wire.TypeBatchSwapOut:
		return o.p.SwapOutBlocksCtx(ctx, f.BlockIDs, doCompress, alg)
	case wire.TypeBatchSwapIn:
		return o.p.SwapInBlocksCtx(ctx, f.BlockIDs)
	}
	return o.p.PrefetchBlocksCtx(ctx, f.BlockIDs)
}

// expandRuns flattens a canonical (sorted, disjoint) run table into the
// strictly-ascending ID list the pool's packed read/write API wants.
func expandRuns(runs []wire.BlockRun) []int {
	ids := make([]int, 0, wire.TotalBlocks(runs))
	for _, r := range runs {
		for id := r.Start; id < r.Start+r.Count; id++ {
			ids = append(ids, id)
		}
	}
	return ids
}

func (o poolObj) read(name string, runs []executor.BlockRun) (*wire.Frame, [][]float32, error) {
	table := make([]wire.BlockRun, len(runs))
	for i, r := range runs {
		table[i] = wire.BlockRun(r)
	}
	segs, err := o.p.ViewRuns(runs)
	return &wire.Frame{Type: wire.TypeBatchData, Name: name, BlockElems: o.p.BlockElems(), Runs: table}, segs, err
}

func (o poolObj) readAll(name string) (*wire.Frame, [][]float32, error) {
	return o.read(name, []executor.BlockRun{{Start: 0, Count: o.p.NumBlocks()}})
}

func (o poolObj) write(f *wire.Frame) (float64, error) {
	if f.BlockElems != o.p.BlockElems() {
		return 0, errGeometry
	}
	ids := expandRuns(f.Runs)
	return float64(len(ids)) / float64(o.p.NumBlocks()), o.p.WriteBlocks(ids, f.Data)
}

func (o poolObj) restoreAll() (*wire.Frame, error) {
	was := o.p.SwappedIDs()
	if len(was) == 0 {
		return nil, nil
	}
	return &wire.Frame{Type: wire.TypeBatchSwapOut, BlockIDs: was}, o.p.SwapInBlocks(was)
}

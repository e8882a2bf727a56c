package server

// object is what a registered name holds: one executor block pool. A
// tensor is a pool of one block (executor.Handle.Pool), so register, swap,
// read, write, demote, free and migration each have one body whatever the
// name was registered as — a paged KV region swapped by coalesced runs
// of block IDs (a decode step's worth of blocks costs one admission slot and
// one round trip) or a tensor swapped whole.
//
// The only thing an object remembers about how it was made is one bit: the
// wire.Ops Pool flag of the frame that created it (register and tensor-data
// clear it, register-pool and batch-data set it). A frame whose Pool flag
// differs is refused with errKind, answered 409 state — even a scalar frame
// on a register-pool pool of one block — so the two frame families keep
// their meaning until they merge. Scalar frames address block 0.
//
// Quota is charged once, at register time: a tensor's bytes, or a pool's
// whole reservation (numBlocks x blockElems x 4). Batch operations move
// block contents inside that reservation and are never re-charged; every
// object carries the tenant's executor.Charge, so the executor moves each
// stored run's bytes to the tier bucket and back as it demotes and promotes.

import (
	"errors"
	"fmt"
	"time"

	"cswap/internal/executor"
	"cswap/internal/tensor"
	"cswap/internal/wire"
)

// errKind reports a tensor frame addressed to a block pool or a pool frame
// addressed to a tensor.
var errKind = errors.New("server: frame addresses the other kind of object (tensor or block pool)")

// errGeometry reports a batch-write whose block size is not the pool's.
var errGeometry = errors.New("server: batch-write block geometry does not match the pool")

// block0 is the run a scalar frame addresses, shared read-only.
var block0 = []executor.BlockRun{{Start: 0, Count: 1}}

// family names, by the Pool flag, the frame types a migration moves an
// object with: the swap-out that puts back what had been swapped and the
// frame that carries its whole content.
var family = map[bool]struct{ out, data wire.Type }{
	false: {wire.TypeSwapOut, wire.TypeTensorData},
	true:  {wire.TypeBatchSwapOut, wire.TypeBatchData},
}

type object struct {
	p *executor.BlockPool
	// pool is the Pool flag of the frame that created the object: the
	// family of frames it accepts.
	pool bool
	// A tensor's float-field CRC as its frame arrived (wire.Frame.DataCRC),
	// stamped on every tensor-data frame read answers with, so a swap-in
	// makes no CRC pass over the payload. It stays right because a tensor's
	// content never changes after register — batch-write refuses tensors,
	// their sealed pools refuse writes, and every swap, demotion and
	// promotion is bit-exact — and were it ever wrong, the reader would
	// refuse the frame, never accept bad data. Pools record none:
	// batch-write rewrites their blocks.
	hasDataCRC bool
	dataCRC    uint32
}

// chargeOf is the quota a register request pre-pays: a tensor's bytes, or a
// pool's whole reservation (a register frame carries data and no geometry, a
// register-pool frame the reverse).
func chargeOf(f *wire.Frame) int64 {
	return (int64(len(f.Data)) + int64(f.BlockElems)*int64(f.NumBlocks)) * tensor.BytesPerElement
}

// newObject registers what f describes on exec under the qualified name and
// attaches the tenant's ledger: a tensor from a register or tensor-data
// frame, an empty pool from a register-pool frame, a pool with its content
// from a batch-data frame whose run table starts at block zero (readAll's
// form). It is both the register handlers' body and the arriving half of a
// migration, so a tensor keeps the float-field CRC its frame was read with
// wherever it lives. A tensor is sealed (executor.Handle.Seal): nothing
// here writes its memory — batch-write refuses it with errKind, and reads
// go through ViewRuns — so under Verify it is digested at its first
// swap-out only, and again after a migration, on its new shard.
func newObject(exec *executor.Executor, qname string, f *wire.Frame, charge executor.Charge) (object, error) {
	o := object{pool: wire.Ops[f.Type].Pool}
	var err error
	if o.pool { // a register-pool frame carries no runs, a batch-data frame no block count
		o.p, err = exec.RegisterBlockPool(qname, f.BlockElems, f.NumBlocks+wire.TotalBlocks(f.Runs))
	} else {
		var h *executor.Handle
		if h, err = exec.Register(qname, tensor.FromSlice(f.Data)); err == nil {
			h.Seal()
			o.p, o.hasDataCRC, o.dataCRC = h.Pool(), f.HasDataCRC, f.DataCRC
		}
	}
	if err == nil && f.Type == wire.TypeBatchData {
		if _, err = o.write(f); err != nil {
			_ = o.p.Free()
		}
	}
	if err != nil {
		return object{}, err
	}
	o.p.SetCharge(charge)
	return o, nil
}

// acquireFor is session.acquire for a frame addressed to an existing object:
// a frame of the other family than the object's creator is refused with
// errKind.
func (s *session) acquireFor(f *wire.Frame, wait time.Duration) (*entry, error) {
	ent, err := s.acquire(f.Name, wait)
	if err == nil && wire.Ops[f.Type].Pool != ent.obj.pool {
		ent.mu.Unlock()
		return nil, fmt.Errorf("%w: %s/%s", errKind, s.tenant, f.Name)
	}
	return ent, err
}

// swapBytes is how many raw bytes a swap-out of that many blocks moves.
func (o object) swapBytes(blocks int) int64 {
	return int64(blocks) * int64(o.p.BlockElems()) * tensor.BytesPerElement
}

// reply is a swap-in's answer in the making: the response frame, its run
// table, and the views of the memory its float field is written from — the
// object's own, or the gathered copy of scattered runs (Server.swapData).
// A handler takes it from the server's pool (Server.replies) and gives it
// back once the frame is written: nothing of it reaches the client but the
// bytes respond writes, and reset drops every reference it holds.
type reply struct {
	f    wire.Frame
	runs []wire.BlockRun
	segs [][]float32
}

// reset empties rep for its next request, keeping the lists' memory.
func (rep *reply) reset() {
	clear(rep.segs)
	rep.f, rep.runs, rep.segs = wire.Frame{}, rep.runs[:0], rep.segs[:0]
}

// read fills rep with the resident content runs cover as a frame of type
// typ (tensor-data or batch-data), in place: its float field is the
// object's own memory, one segment per run, valid while the caller holds
// the entry lock. A tensor's frame carries the CRC recorded when it arrived.
func (o object) read(rep *reply, typ wire.Type, name string, runs []executor.BlockRun) error {
	rep.f = wire.Frame{Type: typ, Name: name, HasDataCRC: o.hasDataCRC, DataCRC: o.dataCRC}
	if typ == wire.TypeBatchData {
		for _, r := range runs {
			rep.runs = append(rep.runs, wire.BlockRun(r))
		}
		rep.f.BlockElems, rep.f.Runs = o.p.BlockElems(), rep.runs
	}
	var err error
	rep.segs, err = o.p.ViewRuns(rep.segs, runs)
	return err
}

// write stores f's packed blocks and reports the fraction of the object
// they cover. The run table is canonical (sorted, disjoint), so flattened it
// is the strictly-ascending ID list the pool's packed write wants.
func (o object) write(f *wire.Frame) (covered float64, err error) {
	if f.BlockElems != o.p.BlockElems() {
		return 0, errGeometry
	}
	ids := make([]int, 0, wire.TotalBlocks(f.Runs))
	for _, r := range f.Runs {
		for id := r.Start; id < r.Start+r.Count; id++ {
			ids = append(ids, id)
		}
	}
	return float64(len(ids)) / float64(o.p.NumBlocks()), o.p.WriteBlocks(ids, f.Data)
}

// restoreAll, the migration's first half, makes everything resident —
// serially, in the caller's goroutine, taking no admission slot —
// and returns the swap-out request that puts back what had been swapped:
// reswap runs it, here or on the copy a migration built (nil: nothing had
// been).
func (o object) restoreAll() (was *wire.Frame, err error) {
	ids := o.p.SwappedIDs()
	if len(ids) == 0 {
		return nil, nil
	}
	return &wire.Frame{Type: family[o.pool].out, BlockIDs: ids}, o.p.SwapInBlocks(ids)
}

// readAll is the object's whole content as the frame newObject rebuilds it
// from: tensor-data, or batch-data with one run from block zero.
func (o object) readAll(name string) (*wire.Frame, [][]float32, error) {
	rep := new(reply)
	err := o.read(rep, family[o.pool].data, name, []executor.BlockRun{{Start: 0, Count: o.p.NumBlocks()}})
	return &rep.f, rep.segs, err
}

package server

// Batch block swapping: the service face of the executor's paged block
// pools. One registered name maps to a whole pool; the batch endpoints
// move lists of block IDs per request, so a decode step's worth of
// KV-cache blocks costs one admission slot and one HTTP round trip
// instead of one per block.
//
// Admission and quota accounting for batches:
//
//   - Quota is charged ONCE, at register-pool time, for the pool's full
//     device reservation (numBlocks x blockElems x 4 bytes). Batch
//     operations move block contents inside that reservation and are
//     never re-charged.
//   - A batch swap operation claims ONE admission slot regardless of its
//     block count. The executor fans the batch out into coalesced runs on
//     its own bounded window; admitting per-block would re-introduce the
//     per-block control cost batching exists to amortize.
//   - The entry lock is per pool: one batch per pool at a time at the
//     HTTP boundary (409 on contention), same discipline as tensors.

import (
	"context"
	"errors"
	"net/http"

	"cswap/internal/executor"
	"cswap/internal/metrics"
	"cswap/internal/sched"
	"cswap/internal/wire"
)

// errNotPool reports a batch operation addressed to a plain tensor name.
var errNotPool = errors.New("server: name is a tensor, not a block pool")

// errNotTensor reports a tensor operation addressed to a block-pool name.
var errNotTensor = errors.New("server: name is a block pool, not a tensor")

// batchSeen counts one batch request and its block volume.
func (s *Server) batchSeen(op string, blocks int) {
	s.ins.reg.Counter("server_batch_requests_total", metrics.L("op", op)).Inc()
	s.ins.reg.Counter("server_batch_blocks_total", metrics.L("op", op)).Add(float64(blocks))
}

// toWireRuns converts the executor's coalesced runs to their wire form.
func toWireRuns(runs []executor.BlockRun) []wire.BlockRun {
	out := make([]wire.BlockRun, len(runs))
	for i, r := range runs {
		out[i] = wire.BlockRun{Start: r.Start, Count: r.Count}
	}
	return out
}

// expandRuns flattens a canonical (sorted, disjoint) run table into the
// strictly-ascending ID list the pool's packed read/write API wants.
func expandRuns(runs []wire.BlockRun) []int {
	var ids []int
	for _, r := range runs {
		for id := r.Start; id < r.Start+r.Count; id++ {
			ids = append(ids, id)
		}
	}
	return ids
}

// handleRegisterPool admits the pool's whole device reservation against
// the tenant quota — the batch ops that follow are pre-paid.
func (s *Server) handleRegisterPool(w http.ResponseWriter, r *http.Request) {
	f, ok := s.readFrame(w, r, wire.TypeRegisterPool)
	if !ok {
		return
	}
	tenant := tenantOf(r)
	sess := s.session(tenant)
	bytes := int64(f.BlockElems) * int64(f.NumBlocks) * 4
	ent, err := s.reserveDemoting(sess, f.Name, bytes)
	if err != nil {
		if errors.Is(err, ErrQuotaExceeded) {
			s.ins.reg.Counter("server_quota_rejections_total", metrics.L("tenant", tenant)).Inc()
		}
		s.failErr(w, err)
		return
	}
	pool, err := s.exec.RegisterBlockPool(qualified(tenant, f.Name), f.BlockElems, f.NumBlocks)
	if err != nil {
		sess.release(f.Name, ent)
		ent.mu.Unlock()
		s.failErr(w, err)
		return
	}
	ent.pool = pool
	ent.sparsity = 1 // the region starts zeroed; batch-write re-measures
	ent.mu.Unlock()
	s.batchSeen("register-pool", f.NumBlocks)
	s.writeFrame(w, &wire.Frame{Type: wire.TypeAck, Name: f.Name})
}

// handleBatchWrite stores packed block contents into resident blocks. It
// is a device-memory write, not a swap: no admission slot is consumed.
func (s *Server) handleBatchWrite(w http.ResponseWriter, r *http.Request) {
	f, ok := s.readFrame(w, r, wire.TypeBatchData)
	if !ok {
		return
	}
	sess := s.session(tenantOf(r))
	ent, ok := s.acquireKind(w, sess, f.Name, true)
	if !ok {
		return
	}
	if f.BlockElems != ent.pool.BlockElems() {
		ent.mu.Unlock()
		s.fail(w, http.StatusBadRequest, CodeBadFrame,
			"server: batch-write block geometry does not match the pool")
		return
	}
	ids := expandRuns(f.Runs)
	if err := ent.pool.WriteBlocks(ids, f.Data); err != nil {
		ent.mu.Unlock()
		s.failErr(w, err)
		return
	}
	// Fold what was actually written into the pool-wide sparsity, weighted
	// by the fraction of blocks this write covers: the signal Auto codec
	// resolution and the tuner profile key off describes the whole pool,
	// and letting a partial write overwrite it would swing every later
	// codec decision on the sliver this batch happened to touch.
	frac := float64(len(ids)) / float64(ent.pool.NumBlocks())
	ent.sparsity = ent.sparsity*(1-frac) + sliceSparsity(f.Data)*frac
	ent.mu.Unlock()
	s.batchSeen("write", len(ids))
	s.writeFrame(w, &wire.Frame{Type: wire.TypeAck, Name: f.Name})
}

// handleBatchSwapOut moves the listed blocks to the host pool: one
// admission slot, one coalesced executor batch, one ack.
func (s *Server) handleBatchSwapOut(w http.ResponseWriter, r *http.Request) {
	f, ok := s.readFrame(w, r, wire.TypeBatchSwapOut)
	if !ok {
		return
	}
	sess := s.session(tenantOf(r))
	ent, ok := s.swapOp(w, r, sess, f.Name, true, hintOf(f, sched.LaneNormal), func(ctx context.Context, ent *entry) *executor.Ticket {
		bytes := int64(len(f.BlockIDs)) * int64(ent.pool.BlockElems()) * 4
		sess.observeSwap(ent.sparsity, bytes)
		doCompress, alg := s.resolveCodec(sess, ent, f.Compress, f.Alg)
		return ent.pool.SwapOutBlocksCtx(ctx, f.BlockIDs, doCompress, alg)
	})
	if ok {
		s.batchSeen("swap-out", len(f.BlockIDs))
		s.swapAck(w, sess, ent, f.Name)
	}
}

// handleBatchSwapIn restores the listed blocks and streams their packed
// contents back as one batch-data frame (run table + payload).
func (s *Server) handleBatchSwapIn(w http.ResponseWriter, r *http.Request) {
	f, ok := s.readFrame(w, r, wire.TypeBatchSwapIn)
	if !ok {
		return
	}
	sess := s.session(tenantOf(r))
	ent, ok := s.swapOp(w, r, sess, f.Name, true, hintOf(f, sched.LaneNormal), func(ctx context.Context, ent *entry) *executor.Ticket {
		return ent.pool.SwapInBlocksCtx(ctx, f.BlockIDs)
	})
	if !ok {
		return
	}
	runs := toWireRuns(executor.CoalesceBlockIDs(f.BlockIDs))
	ids := expandRuns(runs)
	data, err := ent.pool.ReadBlocks(ids)
	if err != nil {
		s.swapFail(w, ent, err)
		return
	}
	s.batchSeen("swap-in", len(ids))
	s.swapData(w, ent, &wire.Frame{
		Type: wire.TypeBatchData, Name: f.Name,
		BlockElems: ent.pool.BlockElems(),
		Runs:       runs, Data: data,
	})
}

// handleBatchPrefetch requests residency for the listed blocks;
// already-resident blocks complete without work.
func (s *Server) handleBatchPrefetch(w http.ResponseWriter, r *http.Request) {
	f, ok := s.readFrame(w, r, wire.TypeBatchPrefetch)
	if !ok {
		return
	}
	sess := s.session(tenantOf(r))
	ent, ok := s.swapOp(w, r, sess, f.Name, true, hintOf(f, sched.LaneSpeculative), func(ctx context.Context, ent *entry) *executor.Ticket {
		return ent.pool.PrefetchBlocksCtx(ctx, f.BlockIDs)
	})
	if ok {
		s.batchSeen("prefetch", len(f.BlockIDs))
		s.swapAck(w, sess, ent, f.Name)
	}
}

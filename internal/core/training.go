package core

import (
	"fmt"

	"cswap/internal/compress"
	"cswap/internal/dnn"
	"cswap/internal/executor"
	"cswap/internal/sparsity"
	"cswap/internal/swap"
	"cswap/internal/tensor"
)

// IterationReport summarises one functional training iteration.
type IterationReport struct {
	Epoch      int
	Tensors    int
	Compressed int
	// RawBytes / MovedBytes for this iteration only.
	RawBytes, MovedBytes int64
	// PeakDeviceBytes is the device pool's high-water mark — the memory
	// relief swapping buys.
	PeakDeviceBytes int64
	// MeanSparsity is the average realized sparsity of the generated
	// activations.
	MeanSparsity float64
}

// Ratio returns moved/raw for the iteration.
func (r *IterationReport) Ratio() float64 {
	if r.RawBytes == 0 {
		return 1
	}
	return float64(r.MovedBytes) / float64(r.RawBytes)
}

// RunIteration executes one training iteration *functionally*: for every
// swappable tensor of the model it synthesises a real activation at the
// epoch's sparsity, registers it in device memory, swaps it out per the
// plan (through the real codecs when the plan compresses), then replays the
// backward pass — swapping every tensor back in, verifying it bit-exactly,
// and freeing it. scaleDiv divides tensor sizes so multi-GB workloads run
// in test-sized memory; the plan's structure is unchanged.
func RunIteration(e *executor.Executor, m *dnn.Model, plan *swap.Plan, sp *sparsity.Profile, epoch int, scaleDiv int, seed int64) (*IterationReport, error) {
	tensors := m.SwapTensors()
	if len(plan.Tensors) != len(tensors) {
		return nil, fmt.Errorf("core: plan covers %d tensors, model has %d",
			len(plan.Tensors), len(tensors))
	}
	if scaleDiv < 1 {
		scaleDiv = 1
	}
	gen := tensor.NewGenerator(seed)
	report := &IterationReport{Epoch: epoch, Tensors: len(tensors)}
	statsBefore := e.Stats()

	// Forward: produce each activation, then swap it out to free device
	// memory for the next layer.
	handles := make([]*executor.Handle, len(tensors))
	var sparSum float64
	for k, st := range tensors {
		size := int(st.Bytes) / scaleDiv
		if size < 128 {
			size = 128
		}
		s := sp.Sparsity(k, epoch)
		act := gen.SizedUniform(size, s)
		sparSum += act.Sparsity()
		h, err := e.Register(st.Name, act)
		if err != nil {
			return nil, fmt.Errorf("core: forward %s: %w", st.Name, err)
		}
		handles[k] = h
		tp := plan.Tensors[k]
		alg := tp.Alg
		if alg == 0 {
			alg = compress.ZVC
		}
		if err := e.SwapOut(h, tp.Compress, alg); err != nil {
			return nil, fmt.Errorf("core: swap out %s: %w", st.Name, err)
		}
	}
	report.MeanSparsity = sparSum / float64(len(tensors))

	// Backward: consume activations in reverse, restoring each from host
	// memory and releasing it after use.
	for k := len(tensors) - 1; k >= 0; k-- {
		h := handles[k]
		if err := e.SwapIn(h); err != nil {
			return nil, fmt.Errorf("core: swap in %s: %w", h.Name(), err)
		}
		if _, err := h.Data(); err != nil {
			return nil, err
		}
		if err := e.Free(h); err != nil {
			return nil, fmt.Errorf("core: free %s: %w", h.Name(), err)
		}
	}

	statsAfter := e.Stats()
	report.Compressed = statsAfter.CompressedTensors - statsBefore.CompressedTensors
	report.RawBytes = statsAfter.RawBytes - statsBefore.RawBytes
	report.MovedBytes = statsAfter.MovedBytes - statsBefore.MovedBytes
	report.PeakDeviceBytes = e.DeviceStats().Peak
	return report, nil
}

// MinDeviceCapacity returns a device-pool size sufficient for RunIteration
// at the given scale: the two largest scaled tensors plus slack (one being
// produced while the previous one drains).
func MinDeviceCapacity(m *dnn.Model, scaleDiv int) int64 {
	if scaleDiv < 1 {
		scaleDiv = 1
	}
	var first, second int64
	for _, st := range m.SwapTensors() {
		s := st.Bytes / int64(scaleDiv)
		if s > first {
			first, second = s, first
		} else if s > second {
			second = s
		}
	}
	return first + second + (1 << 16)
}

// HostCapacityFor returns a pinned-pool size sufficient to hold every
// scaled tensor uncompressed simultaneously (the worst case of an
// all-raw plan).
func HostCapacityFor(m *dnn.Model, scaleDiv int) int64 {
	if scaleDiv < 1 {
		scaleDiv = 1
	}
	var total int64
	for _, st := range m.SwapTensors() {
		total += st.Bytes/int64(scaleDiv) + (1 << 12)
	}
	return total + (1 << 20)
}

// Package dnn provides the DNN workload substrate: a layer-graph IR with
// shape inference, builders for the six models evaluated in the paper
// (AlexNet, VGG16, Plain20, MobileNet — linear; ResNet, SqueezeNet —
// non-linear), per-layer FLOP and memory-traffic accounting, and the
// Table III batch-size configuration.
//
// Feature-map tensor sizes are computed from the real architectures: e.g.
// VGG16 on ImageNet at batch 128 yields a 1568 MiB first ReLU output and a
// 49 MiB last-block ReLU output, exactly the range the paper reports in
// Figure 1.
package dnn

import (
	"fmt"

	"cswap/internal/gpu"
	"cswap/internal/tensor"
)

// Dataset describes the input geometry of a training set.
type Dataset struct {
	Name    string
	H, W, C int
	Classes int
}

// The two datasets of Section V.
var (
	CIFAR10  = Dataset{Name: "CIFAR10", H: 32, W: 32, C: 3, Classes: 10}
	ImageNet = Dataset{Name: "ImageNet", H: 224, W: 224, C: 3, Classes: 1000}
)

// Op is a layer operator type.
type Op int

// Supported operator types.
const (
	OpConv   Op = iota
	OpDWConv    // depthwise convolution (MobileNet)
	OpReLU
	OpMaxPool
	OpAvgPool
	OpFC
	OpBatchNorm
	OpAdd    // residual element-wise addition (ResNet)
	OpConcat // channel concatenation (SqueezeNet fire modules)
	OpSoftmax
)

// String returns the operator mnemonic.
func (o Op) String() string {
	switch o {
	case OpConv:
		return "CONV"
	case OpDWConv:
		return "DWCONV"
	case OpReLU:
		return "ReLU"
	case OpMaxPool:
		return "MAX"
	case OpAvgPool:
		return "AVG"
	case OpFC:
		return "FC"
	case OpBatchNorm:
		return "BN"
	case OpAdd:
		return "ADD"
	case OpConcat:
		return "CONCAT"
	case OpSoftmax:
		return "SOFTMAX"
	case OpMatMul:
		return "MATMUL"
	case OpAttention:
		return "ATTN"
	case OpGELU:
		return "GELU"
	case OpLayerNorm:
		return "LN"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Layer is one node of the model graph with inferred activation shapes.
type Layer struct {
	Name string
	Op   Op

	// Convolution / pooling hyper-parameters (zero for other ops).
	K, Stride, Pad int
	OutC           int // output channels (conv/fc); 0 = same as input

	// Inputs are indices of predecessor layers; empty means the previous
	// layer (linear chaining). Multiple inputs occur at Add/Concat.
	Inputs []int

	// Inferred shapes (per sample, not including batch).
	InH, InW, InC     int
	OutH, OutW, OutCh int
}

// Model is a compiled DNN: layers in topological (execution) order with
// shapes inferred for a dataset and batch size.
type Model struct {
	Name    string
	Dataset Dataset
	Batch   int
	Linear  bool // true when the graph is a simple chain
	Layers  []Layer
}

// OutputElems returns the element count of the layer's output activation
// for the model's batch size.
func (m *Model) OutputElems(i int) int64 {
	l := &m.Layers[i]
	return int64(l.OutH) * int64(l.OutW) * int64(l.OutCh) * int64(m.Batch)
}

// OutputBytes returns the activation size in bytes for the layer output —
// the tensor that would be swapped.
func (m *Model) OutputBytes(i int) int64 {
	return m.OutputElems(i) * tensor.BytesPerElement
}

// InputElems returns the total element count of the layer's inputs.
func (m *Model) InputElems(i int) int64 {
	l := &m.Layers[i]
	return int64(l.InH) * int64(l.InW) * int64(l.InC) * int64(m.Batch)
}

// FLOPs returns the forward floating-point operations of layer i.
func (m *Model) FLOPs(i int) float64 {
	if f, ok := m.transformerFLOPs(i); ok {
		return f
	}
	l := &m.Layers[i]
	outElems := float64(m.OutputElems(i))
	switch l.Op {
	case OpConv:
		return 2 * float64(l.K*l.K*l.InC) * outElems
	case OpDWConv:
		// One input channel per output channel.
		return 2 * float64(l.K*l.K) * outElems
	case OpFC:
		return 2 * float64(l.InH*l.InW*l.InC) * outElems
	case OpMaxPool, OpAvgPool:
		return float64(l.K*l.K) * outElems
	case OpBatchNorm:
		return 4 * outElems
	case OpAdd, OpReLU:
		return outElems
	case OpConcat:
		return 0 // pure data movement
	case OpSoftmax:
		return 5 * outElems
	default:
		return outElems
	}
}

// MemBytes returns the forward global-memory traffic of layer i (activations
// read + written + weights read).
func (m *Model) MemBytes(i int) float64 {
	l := &m.Layers[i]
	in := float64(m.InputElems(i)) * tensor.BytesPerElement
	out := float64(m.OutputBytes(i))
	var weights float64
	switch l.Op {
	case OpConv:
		weights = float64(l.K*l.K*l.InC*l.OutCh) * tensor.BytesPerElement
	case OpDWConv:
		weights = float64(l.K*l.K*l.OutCh) * tensor.BytesPerElement
	case OpFC:
		weights = float64(l.InH*l.InW*l.InC*l.OutCh) * tensor.BytesPerElement
	case OpMatMul:
		weights = float64(l.InC*l.OutCh) * tensor.BytesPerElement
	case OpAttention:
		// The seq×seq score matrices are written and re-read.
		weights = 2 * float64(m.AttentionScoreBytes(i))
	}
	if l.Op == OpAdd || l.Op == OpConcat {
		in *= 2 // two operands
	}
	return in + out + weights
}

// Class maps the layer operator to the roofline class of the GPU model.
func (m *Model) Class(i int) gpu.LayerClass {
	switch m.Layers[i].Op {
	case OpConv, OpDWConv, OpMatMul, OpAttention:
		return gpu.ClassConv
	case OpFC:
		return gpu.ClassFC
	case OpMaxPool, OpAvgPool:
		return gpu.ClassPool
	case OpBatchNorm, OpSoftmax, OpAdd, OpConcat, OpLayerNorm:
		return gpu.ClassNorm
	default:
		return gpu.ClassActivation
	}
}

// ForwardTime returns the modeled forward wall-clock of layer i on a device.
func (m *Model) ForwardTime(d *gpu.Device, i int) float64 {
	return d.ComputeTime(m.Class(i), m.FLOPs(i), m.MemBytes(i))
}

// BackwardTime returns the modeled backward wall-clock of layer i: conv and
// FC layers compute both data and weight gradients (≈2× forward); element
// ops replay roughly the forward traffic.
func (m *Model) BackwardTime(d *gpu.Device, i int) float64 {
	f := m.ForwardTime(d, i)
	switch m.Layers[i].Op {
	case OpConv, OpDWConv, OpFC, OpMatMul, OpAttention:
		return 2 * f
	default:
		return f
	}
}

// IterationComputeTime is the pure compute time of one training iteration
// (forward + backward, no swapping).
func (m *Model) IterationComputeTime(d *gpu.Device) float64 {
	var t float64
	for i := range m.Layers {
		t += m.ForwardTime(d, i) + m.BackwardTime(d, i)
	}
	return t
}

// TotalActivationBytes sums every layer's output activation — a proxy for
// the training memory footprint that determines whether swapping is needed.
func (m *Model) TotalActivationBytes() int64 {
	var s int64
	for i := range m.Layers {
		s += m.OutputBytes(i)
	}
	return s
}

// SwapTensor identifies one swappable activation: the output of a ReLU or
// MAX layer, the tensors CSWAP considers for compression (Section IV). Seq
// numbers tensors in execution order; Kind distinguishes the paper's
// "ReLU<i>" and "MAX<i>" labels.
type SwapTensor struct {
	LayerIdx int
	Name     string // e.g. "ReLU4", "MAX2"
	Kind     Op     // OpReLU or OpMaxPool
	Seq      int    // position among swappable tensors, 0-based
	Bytes    int64
}

// SwapTensors enumerates the swappable tensors of the model in execution
// order, labeled ReLU1..n / MAX1..m the way the paper's figures are.
func (m *Model) SwapTensors() []SwapTensor {
	var out []SwapTensor
	relu, max := 0, 0
	for i := range m.Layers {
		l := &m.Layers[i]
		var name string
		switch l.Op {
		case OpReLU:
			relu++
			name = fmt.Sprintf("ReLU%d", relu)
		case OpMaxPool:
			max++
			name = fmt.Sprintf("MAX%d", max)
		default:
			continue
		}
		out = append(out, SwapTensor{
			LayerIdx: i,
			Name:     name,
			Kind:     l.Op,
			Seq:      len(out),
			Bytes:    m.OutputBytes(i),
		})
	}
	return out
}

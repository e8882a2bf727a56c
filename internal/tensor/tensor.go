// Package tensor provides the dense float32 tensor representation used by
// the CSWAP compression codecs and the synthetic tensor generator from the
// paper (Section IV-C): "we develop a synthetic tensor generator which can
// output tensors of different size and sparsity".
//
// Tensors here are flat float32 buffers with an optional logical shape. DNN
// feature maps in the swapping path are treated as opaque byte streams by
// the codecs, so the flat view is the primary one.
package tensor

import (
	"fmt"
	"math/rand"

	"cswap/internal/stats"
)

// BytesPerElement is the size of one tensor element (float32).
const BytesPerElement = 4

// Tensor is a dense float32 tensor. Data is the flat row-major buffer;
// Shape, when non-empty, records the logical dimensions (its product must
// equal len(Data)).
type Tensor struct {
	Data  []float32
	Shape []int
}

// New returns a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d", d))
		}
		n *= d
	}
	return &Tensor{Data: make([]float32, n), Shape: append([]int(nil), shape...)}
}

// FromSlice wraps data in a 1-D tensor without copying.
func FromSlice(data []float32) *Tensor {
	return &Tensor{Data: data, Shape: []int{len(data)}}
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// SizeBytes returns the in-memory footprint of the raw data in bytes.
func (t *Tensor) SizeBytes() int { return len(t.Data) * BytesPerElement }

// Sparsity returns the fraction of exactly-zero elements, the quantity the
// paper tracks per layer per epoch (Figure 1). An empty tensor has sparsity 0.
func (t *Tensor) Sparsity() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	zeros := 0
	for _, v := range t.Data {
		if v == 0 {
			zeros++
		}
	}
	return float64(zeros) / float64(len(t.Data))
}

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	cp := &Tensor{
		Data:  append([]float32(nil), t.Data...),
		Shape: append([]int(nil), t.Shape...),
	}
	return cp
}

// Equal reports whether two tensors hold bit-identical data. Shapes are not
// compared: the swapping path only round-trips the flat buffer.
func (t *Tensor) Equal(o *Tensor) bool {
	if len(t.Data) != len(o.Data) {
		return false
	}
	for i, v := range t.Data {
		if v != o.Data[i] {
			return false
		}
	}
	return true
}

// Generator produces synthetic sparse tensors of controlled size and
// sparsity, mimicking ReLU/MAX layer outputs: non-negative activations with
// exact zeros at the requested density. It is deterministic for a given
// seed.
type Generator struct {
	rng *rand.Rand
}

// NewGenerator returns a deterministic synthetic tensor generator.
func NewGenerator(seed int64) *Generator {
	return &Generator{rng: stats.NewRNG(seed)}
}

// Uniform returns a tensor with n elements where each element is zero with
// probability sparsity and otherwise a positive activation value. The
// realized sparsity concentrates tightly around the target for large n.
func (g *Generator) Uniform(n int, sparsity float64) *Tensor {
	if sparsity < 0 || sparsity > 1 {
		panic(fmt.Sprintf("tensor: sparsity %v out of [0,1]", sparsity))
	}
	t := &Tensor{Data: make([]float32, n), Shape: []int{n}}
	for i := range t.Data {
		if g.rng.Float64() >= sparsity {
			// ReLU outputs are non-negative; keep values in a small
			// positive range typical of normalized activations.
			t.Data[i] = float32(g.rng.Float64()*4 + 1e-3)
		}
	}
	return t
}

// Runs returns a tensor whose zeros appear in contiguous runs with the given
// mean run length, at the target overall sparsity. Run-structured zeros are
// the favourable case for RLE and the adversarial case for per-element
// schemes, so codec tests and benchmarks use both layouts.
func (g *Generator) Runs(n int, sparsity float64, meanRun int) *Tensor {
	if meanRun < 1 {
		meanRun = 1
	}
	t := &Tensor{Data: make([]float32, n), Shape: []int{n}}
	i := 0
	for i < n {
		// Alternate a zero run and a non-zero run whose expected lengths
		// keep the global zero fraction at the target sparsity.
		zeroLen := 1 + g.rng.Intn(2*meanRun)
		var nonZeroLen int
		if sparsity > 0 {
			nonZeroLen = int(float64(zeroLen) * (1 - sparsity) / sparsity)
		} else {
			zeroLen = 0
			nonZeroLen = n - i
		}
		if nonZeroLen < 1 && sparsity < 1 {
			nonZeroLen = 1
		}
		for j := 0; j < zeroLen && i < n; j++ {
			t.Data[i] = 0
			i++
		}
		for j := 0; j < nonZeroLen && i < n; j++ {
			t.Data[i] = float32(g.rng.Float64()*4 + 1e-3)
			i++
		}
	}
	return t
}

// SizedUniform returns a tensor of approximately sizeBytes bytes at the
// target sparsity; this matches the paper's synthetic training-sample
// protocol (size 20 MB–2000 MB, sparsity 20–90 %). The element count is
// rounded down to a multiple of 32 so ZVC bitmap words are always full.
func (g *Generator) SizedUniform(sizeBytes int, sparsity float64) *Tensor {
	n := sizeBytes / BytesPerElement
	if n < 32 {
		n = 32
	}
	n -= n % 32
	return g.Uniform(n, sparsity)
}

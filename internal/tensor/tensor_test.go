package tensor

import (
	"math"
	"testing"
)

func TestNewShapeAndSize(t *testing.T) {
	tn := New(2, 3, 4)
	if tn.Len() != 24 {
		t.Fatalf("Len = %d, want 24", tn.Len())
	}
	if tn.SizeBytes() != 96 {
		t.Fatalf("SizeBytes = %d, want 96", tn.SizeBytes())
	}
	if tn.Sparsity() != 1 {
		t.Fatalf("zero tensor sparsity = %v, want 1", tn.Sparsity())
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero dimension")
		}
	}()
	New(3, 0)
}

func TestSparsityCounts(t *testing.T) {
	tn := FromSlice([]float32{0, 1, 0, 2, 0, 0, 3, 0})
	if got := tn.Sparsity(); got != 5.0/8 {
		t.Fatalf("Sparsity = %v, want 0.625", got)
	}
	if got := (&Tensor{}).Sparsity(); got != 0 {
		t.Fatalf("empty tensor sparsity = %v, want 0", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3})
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("Clone shares backing storage")
	}
	if !a.Equal(a.Clone()) {
		t.Fatal("clone not Equal to original")
	}
}

func TestEqual(t *testing.T) {
	a := FromSlice([]float32{1, 2})
	b := FromSlice([]float32{1, 2, 3})
	if a.Equal(b) {
		t.Fatal("tensors of different length reported Equal")
	}
	c := FromSlice([]float32{1, 3})
	if a.Equal(c) {
		t.Fatal("different data reported Equal")
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(1).Uniform(1000, 0.5)
	b := NewGenerator(1).Uniform(1000, 0.5)
	if !a.Equal(b) {
		t.Fatal("same seed produced different tensors")
	}
	c := NewGenerator(2).Uniform(1000, 0.5)
	if a.Equal(c) {
		t.Fatal("different seeds produced identical tensors")
	}
}

func TestGeneratorUniformSparsityTargets(t *testing.T) {
	g := NewGenerator(42)
	for _, s := range []float64{0, 0.2, 0.5, 0.8, 1} {
		tn := g.Uniform(200000, s)
		if got := tn.Sparsity(); math.Abs(got-s) > 0.01 {
			t.Errorf("target sparsity %v, got %v", s, got)
		}
	}
}

func TestGeneratorUniformNonNegative(t *testing.T) {
	tn := NewGenerator(3).Uniform(10000, 0.5)
	for _, v := range tn.Data {
		if v < 0 {
			t.Fatalf("activation %v is negative; ReLU outputs are non-negative", v)
		}
	}
}

func TestGeneratorPanicsOnBadSparsity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for sparsity > 1")
		}
	}()
	NewGenerator(1).Uniform(10, 1.5)
}

func TestGeneratorRunsSparsityAndStructure(t *testing.T) {
	g := NewGenerator(7)
	tn := g.Runs(100000, 0.6, 16)
	s := tn.Sparsity()
	if math.Abs(s-0.6) > 0.08 {
		t.Fatalf("runs sparsity = %v, want ≈0.6", s)
	}
	// Run-structured data must have far fewer zero runs than i.i.d. data
	// at the same sparsity (≈ n·s·(1−s) runs for i.i.d.).
	runs := 0
	inZero := false
	for _, v := range tn.Data {
		if v == 0 && !inZero {
			runs++
			inZero = true
		} else if v != 0 {
			inZero = false
		}
	}
	iid := int(float64(tn.Len()) * s * (1 - s))
	if runs >= iid/2 {
		t.Fatalf("run-structured tensor has %d zero runs, i.i.d. would have ≈%d", runs, iid)
	}
}

func TestGeneratorRunsExtremes(t *testing.T) {
	g := NewGenerator(9)
	dense := g.Runs(1000, 0, 8)
	if got := dense.Sparsity(); got != 0 {
		t.Errorf("sparsity-0 runs tensor has sparsity %v", got)
	}
	if dense.Len() != 1000 {
		t.Errorf("len = %d, want 1000", dense.Len())
	}
}

func TestSizedUniform(t *testing.T) {
	g := NewGenerator(5)
	tn := g.SizedUniform(1<<20, 0.5)
	if tn.SizeBytes() > 1<<20 || tn.SizeBytes() < (1<<20)-128 {
		t.Fatalf("SizedUniform bytes = %d, want ≈%d", tn.SizeBytes(), 1<<20)
	}
	if tn.Len()%32 != 0 {
		t.Fatalf("element count %d not 32-aligned", tn.Len())
	}
	tiny := g.SizedUniform(10, 0.5)
	if tiny.Len() != 32 {
		t.Fatalf("minimum tensor length = %d, want 32", tiny.Len())
	}
}

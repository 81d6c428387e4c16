package linalg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randHermitian(n int, rng *rand.Rand) *CMatrix {
	m := NewCMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, complex(rng.NormFloat64(), 0))
		for j := i + 1; j < n; j++ {
			v := complex(rng.NormFloat64(), rng.NormFloat64())
			m.Set(i, j, v)
			m.Set(j, i, cmplx.Conj(v))
		}
	}
	return m
}

// randPSD returns B^H B, Hermitian positive semi-definite.
func randPSD(n int, rng *rand.Rand) *CMatrix {
	b := NewCMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	m := NewCMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s complex128
			for k := 0; k < n; k++ {
				s += cmplx.Conj(b.At(k, i)) * b.At(k, j)
			}
			m.Set(i, j, s)
		}
	}
	return m
}

func TestMatVec(t *testing.T) {
	m := NewCMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(0, 2, 3)
	m.Set(1, 0, complex(0, 1))
	y := m.MatVec([]complex128{1, 1, 1})
	if y[0] != 6 || y[1] != complex(0, 1) {
		t.Fatalf("got %v", y)
	}
}

func TestIsHermitian(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if !randHermitian(5, rng).IsHermitian(1e-12) {
		t.Fatal("random Hermitian not detected")
	}
	m := NewCMatrix(2, 2)
	m.Set(0, 1, 1)
	m.Set(1, 0, 2)
	if m.IsHermitian(1e-12) {
		t.Fatal("non-Hermitian accepted")
	}
}

func TestOrthonormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vecs := make([][]complex128, 4)
	for i := range vecs {
		vecs[i] = make([]complex128, 10)
		for j := range vecs[i] {
			vecs[i][j] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	// Make one vector a duplicate to exercise the rank-repair path.
	copy(vecs[2], vecs[1])
	Orthonormalize(vecs)
	for i := range vecs {
		for j := range vecs {
			d := Dot(vecs[i], vecs[j])
			want := complex(0, 0)
			if i == j {
				want = 1
			}
			if cmplx.Abs(d-want) > 1e-9 {
				t.Fatalf("<v%d, v%d> = %v, want %v", i, j, d, want)
			}
		}
	}
}

func TestJacobiSymDiagonalizes(t *testing.T) {
	// Known 2x2: [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := []float64{2, 1, 1, 2}
	eig, _ := JacobiSym(a, 2)
	lo, hi := math.Min(eig[0], eig[1]), math.Max(eig[0], eig[1])
	if math.Abs(lo-1) > 1e-12 || math.Abs(hi-3) > 1e-12 {
		t.Fatalf("eigenvalues %v, want [1 3]", eig)
	}
}

func TestJacobiSymEigenpairs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 8
	a := make([]float64, n*n)
	orig := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a[i*n+j] = v
			a[j*n+i] = v
		}
	}
	copy(orig, a)
	eig, vecs := JacobiSym(a, n)
	// Check A v = lambda v for every pair.
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			var av float64
			for j := 0; j < n; j++ {
				av += orig[i*n+j] * vecs[j*n+k]
			}
			want := eig[k] * vecs[i*n+k]
			if math.Abs(av-want) > 1e-8 {
				t.Fatalf("pair %d: (Av)[%d] = %g, want %g", k, i, av, want)
			}
		}
	}
}

func TestHermEigSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 6
	h := randHermitian(n, rng)
	eig, vecs := HermEigSmall(h)
	if len(eig) != n || len(vecs) != n {
		t.Fatalf("got %d eigenpairs, want %d", len(eig), n)
	}
	// Descending order.
	for i := 1; i < n; i++ {
		if eig[i] > eig[i-1]+1e-12 {
			t.Fatalf("eigenvalues not descending: %v", eig)
		}
	}
	// Residuals and orthonormality.
	for i := 0; i < n; i++ {
		av := h.MatVec(vecs[i])
		for j := range av {
			av[j] -= complex(eig[i], 0) * vecs[i][j]
		}
		if Norm(av) > 1e-7 {
			t.Fatalf("pair %d residual %g", i, Norm(av))
		}
		for j := i + 1; j < n; j++ {
			if cmplx.Abs(Dot(vecs[i], vecs[j])) > 1e-7 {
				t.Fatalf("vectors %d,%d not orthogonal", i, j)
			}
		}
	}
	// Trace check: sum of eigenvalues equals trace.
	var tr float64
	for i := 0; i < n; i++ {
		tr += real(h.At(i, i))
	}
	var se float64
	for _, e := range eig {
		se += e
	}
	if math.Abs(tr-se) > 1e-8 {
		t.Fatalf("trace %g != eigenvalue sum %g", tr, se)
	}
}

func TestHermEigSmallPSDNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randPSD(5, rng)
		eig, _ := HermEigSmall(h)
		for _, e := range eig {
			if e < -1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestHermEigTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, k = 30, 4
	h := randPSD(n, rng)
	eigAll, _ := HermEigSmall(h)
	eig, vecs := HermEigTopK(tcc{h}, k, 300, 1e-11)
	for i := 0; i < k; i++ {
		if math.Abs(eig[i]-eigAll[i]) > 1e-6*(1+math.Abs(eigAll[i])) {
			t.Fatalf("eigenvalue %d: subspace %g vs dense %g", i, eig[i], eigAll[i])
		}
		av := h.MatVec(vecs[i])
		for j := range av {
			av[j] -= complex(eig[i], 0) * vecs[i][j]
		}
		if r := Norm(av); r > 1e-5*(1+math.Abs(eig[i])) {
			t.Fatalf("pair %d residual %g", i, r)
		}
	}
}

// tcc is the reference operator: a dense Hermitian matrix applied with
// CMatrix.MatVec, one vector at a time.
type tcc struct{ m *CMatrix }

func (t tcc) Dim() int { return t.m.R }

func (t tcc) Apply(xs, ys [][]complex128) {
	for i, x := range xs {
		copy(ys[i], t.m.MatVec(x))
	}
}

// eigSum is the SHA-256 of an eigensolve's output as IEEE-754 bit
// patterns: every eigenvalue, then every vector.
func eigSum(eig []float64, vecs [][]complex128) string {
	h := sha256.New()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, e := range eig {
		put(e)
	}
	for _, v := range vecs {
		for _, x := range v {
			put(real(x))
			put(imag(x))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestHermEigTopKBitsPinned holds both exits of the subspace iteration to
// the bits they had when every product was a single-vector sum and the
// converged round was projected twice (recorded at commit 7adcb8e): maxIter
// 200 converges (400 gives the same bits), maxIter 3 runs out and takes the
// post-loop Rayleigh-Ritz round. The block size is 5 + 2 + 2 = 9, so the
// blocked sums meet a remainder too.
func TestHermEigTopKBitsPinned(t *testing.T) {
	h := randPSD(24, rand.New(rand.NewSource(6)))
	for _, tc := range []struct {
		maxIter int
		want    string
	}{
		{200, "2e3443faa83167bb0d7e82528b5ac41043269bced810b0c3d1f13dd41700fea5"},
		{400, "2e3443faa83167bb0d7e82528b5ac41043269bced810b0c3d1f13dd41700fea5"},
		{3, "3c23e198599e2701386f58f93bf943b018bd89a4cfc6c8f245c1b699e1bba57a"},
	} {
		if got := eigSum(HermEigTopK(tcc{h}, 5, tc.maxIter, 1e-10)); got != tc.want {
			t.Errorf("maxIter %d: eigenpairs hash to %s, want %s", tc.maxIter, got, tc.want)
		}
	}
}

// TestRayleighMatchesDot checks the blocked projection entry by entry
// against Dot at every block size mod 4, on vectors with signed zeros and
// subnormal components.
func TestRayleighMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 37
	vec := func() []complex128 {
		x := make([]complex128, n)
		for i := range x {
			switch rng.Intn(6) {
			case 0:
				x[i] = complex(math.Copysign(0, -1), 0)
			case 1:
				x[i] = complex(rng.NormFloat64()*1e-310, rng.NormFloat64())
			default:
				x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
		}
		return x
	}
	for _, b := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
		t.Run(fmt.Sprint(b), func(t *testing.T) {
			v, av := make([][]complex128, b), make([][]complex128, b)
			for i := range v {
				v[i], av[i] = vec(), vec()
			}
			s := rayleigh(v, av)
			for i := range v {
				for j := range av {
					got, want := s.At(i, j), Dot(v[i], av[j])
					if math.Float64bits(real(got)) != math.Float64bits(real(want)) ||
						math.Float64bits(imag(got)) != math.Float64bits(imag(want)) {
						t.Fatalf("S[%d][%d] = %v, Dot gives %v", i, j, got, want)
					}
				}
			}
		})
	}
}

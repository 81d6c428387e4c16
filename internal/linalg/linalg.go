// Package linalg provides the dense linear algebra needed to turn a Hopkins
// transmission-cross-coefficient (TCC) matrix into a sum-of-coherent-systems
// (SOCS) kernel set: complex matrix/vector kernels, modified Gram-Schmidt
// orthonormalization, a cyclic Jacobi eigensolver for small real symmetric
// matrices, and subspace iteration with Rayleigh-Ritz projection for the
// leading eigenpairs of large Hermitian positive semi-definite operators.
package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
)

// CMatrix is a dense complex matrix with R rows and C columns, row-major.
type CMatrix struct {
	R, C int
	Data []complex128
}

// NewCMatrix returns a zeroed r x c complex matrix.
func NewCMatrix(r, c int) *CMatrix {
	return &CMatrix{R: r, C: c, Data: make([]complex128, r*c)}
}

// At returns element (i, j).
func (m *CMatrix) At(i, j int) complex128 { return m.Data[i*m.C+j] }

// Set stores v at element (i, j).
func (m *CMatrix) Set(i, j int, v complex128) { m.Data[i*m.C+j] = v }

// Row returns the backing slice of row i (shared).
func (m *CMatrix) Row(i int) []complex128 { return m.Data[i*m.C : (i+1)*m.C] }

// MatVec computes y = m * x. len(x) must equal m.C; the result has length
// m.R.
func (m *CMatrix) MatVec(x []complex128) []complex128 {
	if len(x) != m.C {
		panic(fmt.Sprintf("linalg: MatVec dimension mismatch %d vs %d", len(x), m.C))
	}
	y := make([]complex128, m.R)
	for i := 0; i < m.R; i++ {
		row := m.Row(i)
		var s complex128
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// IsHermitian reports whether m is square and equal to its conjugate
// transpose within tol.
func (m *CMatrix) IsHermitian(tol float64) bool {
	if m.R != m.C {
		return false
	}
	for i := 0; i < m.R; i++ {
		for j := i; j < m.C; j++ {
			if cmplx.Abs(m.At(i, j)-cmplx.Conj(m.At(j, i))) > tol {
				return false
			}
		}
	}
	return true
}

// Dot returns the Hermitian inner product conj(a) . b.
func Dot(a, b []complex128) complex128 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	var s complex128
	for i, v := range a {
		s += cmplx.Conj(v) * b[i]
	}
	return s
}

// Norm returns the Euclidean norm of v.
func Norm(v []complex128) float64 {
	s := 0.0
	for _, x := range v {
		re, im := real(x), imag(x)
		s += re*re + im*im
	}
	return math.Sqrt(s)
}

// Orthonormalize applies modified Gram-Schmidt to the columns stored in
// vecs (each vecs[i] is one column vector). Vectors that become numerically
// zero are replaced by deterministic pseudo-random vectors re-orthogonalized
// against the preceding ones, so the output always has full rank.
func Orthonormalize(vecs [][]complex128) {
	if len(vecs) == 0 {
		return
	}
	n := len(vecs[0])
	rng := newLCG(0x9E3779B97F4A7C15)
	for i := range vecs {
		for attempt := 0; ; attempt++ {
			for j := 0; j < i; j++ {
				p := Dot(vecs[j], vecs[i])
				for k := range vecs[i] {
					vecs[i][k] -= p * vecs[j][k]
				}
			}
			nrm := Norm(vecs[i])
			if nrm > 1e-12 {
				inv := complex(1/nrm, 0)
				for k := range vecs[i] {
					vecs[i][k] *= inv
				}
				break
			}
			if attempt > 4 {
				panic("linalg: cannot orthonormalize; space exhausted")
			}
			for k := 0; k < n; k++ {
				vecs[i][k] = complex(rng.float(), rng.float())
			}
		}
	}
}

// lcg is a tiny deterministic pseudo-random generator, used only to seed
// iterative eigensolvers reproducibly (results are refined to convergence,
// so the seed does not affect outputs beyond tolerance).
type lcg struct{ s uint64 }

func newLCG(seed uint64) *lcg { return &lcg{s: seed} }

func (l *lcg) next() uint64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return l.s
}

func (l *lcg) float() float64 {
	return float64(l.next()>>11)/(1<<53) - 0.5
}

// JacobiSym diagonalizes the real symmetric matrix a (n x n, row-major,
// modified in place) by the cyclic Jacobi method. It returns the
// eigenvalues and the matrix of eigenvectors (column j corresponds to
// eigenvalue j), unsorted.
//
// The eigenvectors are accumulated transposed, one per row, so a rotation
// updates two contiguous rows instead of two strided columns; each element
// sees the same operations either way.
func JacobiSym(a []float64, n int) (eig []float64, vecs []float64) {
	if len(a) != n*n {
		panic("linalg: JacobiSym size mismatch")
	}
	vt := make([]float64, n*n) // row j is eigenvector j
	for i := 0; i < n; i++ {
		vt[i*n+i] = 1
	}
	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += a[i*n+j] * a[i*n+j]
			}
		}
		if off < 1e-26*float64(n*n) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a[p*n+q]
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := a[p*n+p], a[q*n+q]
				tau := (aqq - app) / (2 * apq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				// Update rows/columns p and q of a.
				for k := 0; k < n; k++ {
					akp, akq := a[k*n+p], a[k*n+q]
					a[k*n+p] = c*akp - s*akq
					a[k*n+q] = s*akp + c*akq
				}
				rotate(a[p*n:p*n+n], a[q*n:q*n+n], c, s)
				// Accumulate eigenvectors.
				rotate(vt[p*n:p*n+n], vt[q*n:q*n+n], c, s)
			}
		}
	}
	eig = make([]float64, n)
	vecs = make([]float64, n*n)
	for i := 0; i < n; i++ {
		eig[i] = a[i*n+i]
		for k, x := range vt[i*n : i*n+n] {
			vecs[k*n+i] = x
		}
	}
	return eig, vecs
}

// rotate applies the plane rotation (c, s) to the rows x and y in place.
func rotate(x, y []float64, c, s float64) {
	y = y[:len(x)]
	for k, xk := range x {
		yk := y[k]
		x[k] = c*xk - s*yk
		y[k] = s*xk + c*yk
	}
}

// HermEigSmall computes the full eigendecomposition of a small dense
// Hermitian matrix h via the real symmetric embedding
// [[X, -Y], [Y, X]] of h = X + iY. Eigenvalues are returned in descending
// order with matching unit-norm complex eigenvectors.
//
// The embedding doubles every eigenvalue's multiplicity; duplicates are
// collapsed by taking every other sorted pair, which is valid because the
// embedded eigenvectors (u; v) and (-v; u) map to complex eigenvectors
// u + iv that differ only by a phase.
func HermEigSmall(h *CMatrix) (eig []float64, vecs [][]complex128) {
	if h.R != h.C {
		panic("linalg: HermEigSmall requires a square matrix")
	}
	n := h.R
	m := 2 * n
	a := make([]float64, m*m)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x := real(h.At(i, j))
			y := imag(h.At(i, j))
			a[i*m+j] = x
			a[(i+n)*m+j+n] = x
			a[i*m+j+n] = -y
			a[(i+n)*m+j] = y
		}
	}
	ev, v := JacobiSym(a, m)
	// Sort indices by eigenvalue descending.
	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < m; i++ { // insertion sort; m is small
		for j := i; j > 0 && ev[idx[j]] > ev[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	eig = make([]float64, 0, n)
	vecs = make([][]complex128, 0, n)
	for _, id := range idx {
		if len(eig) == n {
			break
		}
		// Build the candidate complex eigenvector u + iv.
		cand := make([]complex128, n)
		for k := 0; k < n; k++ {
			cand[k] = complex(v[k*m+id], v[(k+n)*m+id])
		}
		// Skip duplicates of the degenerate embedded pair: reject if the
		// candidate is (numerically) in the span of already-accepted vectors
		// with the same eigenvalue.
		for _, w := range vecs {
			p := Dot(w, cand)
			for k := range cand {
				cand[k] -= p * w[k]
			}
		}
		nrm := Norm(cand)
		if nrm < 1e-8 {
			continue
		}
		inv := complex(1/nrm, 0)
		for k := range cand {
			cand[k] *= inv
		}
		eig = append(eig, ev[id])
		vecs = append(vecs, cand)
	}
	return eig, vecs
}

// HermOp is a Hermitian linear operator on complex vectors. Dim returns the
// vector length and Apply computes ys[i] = A xs[i] for every i, into the
// caller's slices of length Dim. An operator may serve several vectors per
// pass over its entries, but every output must carry the bits of a
// single-vector product.
type HermOp interface {
	Dim() int
	Apply(xs, ys [][]complex128)
}

// rayleigh returns the b x b projection S = V^H A V, S[i][j] = Dot(v[i],
// av[j]). A row of S takes four columns per pass over v[i], with one
// accumulator each that sums in Dot's order, so every entry has Dot's bits.
func rayleigh(v, av [][]complex128) *CMatrix {
	b := len(v)
	s := NewCMatrix(b, b)
	for i, vi := range v {
		row := s.Row(i)
		j := 0
		for ; j+4 <= b; j += 4 {
			a0, a1, a2, a3 := av[j][:len(vi)], av[j+1][:len(vi)], av[j+2][:len(vi)], av[j+3][:len(vi)]
			var s0, s1, s2, s3 complex128
			for t, x := range vi {
				c := cmplx.Conj(x)
				s0 += c * a0[t]
				s1 += c * a1[t]
				s2 += c * a2[t]
				s3 += c * a3[t]
			}
			row[j], row[j+1], row[j+2], row[j+3] = s0, s1, s2, s3
		}
		for ; j < b; j++ {
			row[j] = Dot(vi, av[j])
		}
	}
	return s
}

// HermEigTopK computes the k algebraically largest eigenpairs of the
// Hermitian positive semi-definite operator op by blocked subspace
// iteration with Rayleigh-Ritz projection. Eigenvalues are returned in
// descending order. maxIter bounds the number of iterations; tol is the
// relative residual tolerance per eigenpair.
func HermEigTopK(op HermOp, k, maxIter int, tol float64) (eig []float64, vecs [][]complex128) {
	n := op.Dim()
	if k <= 0 || k > n {
		panic(fmt.Sprintf("linalg: HermEigTopK k=%d out of range for dim %d", k, n))
	}
	// Oversample the block for faster convergence of the trailing pairs.
	b := k + k/2 + 2
	if b > n {
		b = n
	}
	rng := newLCG(0xC0FFEE123456789)
	v := make([][]complex128, b)
	av := make([][]complex128, b)
	for i := range v {
		v[i] = make([]complex128, n)
		for j := range v[i] {
			v[i][j] = complex(rng.float(), rng.float())
		}
		av[i] = make([]complex128, n)
	}
	Orthonormalize(v)

	// Each round's Rayleigh-Ritz pairs on the current span track
	// convergence; the converged round's pairs are the answer.
	var ev []float64
	var u [][]complex128
	prev := make([]float64, b)
	converged := false
	for iter := 0; iter < maxIter && !converged; iter++ {
		op.Apply(v, av)
		ev, u = HermEigSmall(rayleigh(v, av))
		converged = iter > 0
		for i := 0; i < k; i++ {
			ref := math.Abs(ev[0])
			if ref < 1e-300 {
				ref = 1
			}
			if math.Abs(ev[i]-prev[i]) > tol*ref {
				converged = false
			}
		}
		copy(prev, ev)
		if !converged {
			// Power step: advance the subspace to span(A V) and
			// re-orthonormalize.
			for i := range v {
				copy(v[i], av[i])
			}
			Orthonormalize(v)
		}
	}
	if !converged {
		// Out of iterations: the last power step left a span no round
		// has projected onto yet.
		op.Apply(v, av)
		ev, u = HermEigSmall(rayleigh(v, av))
	}
	// The Rayleigh-Ritz rotation aligns the basis with the eigenvectors.
	eig = make([]float64, k)
	vecs = make([][]complex128, k)
	for i := 0; i < k; i++ {
		eig[i] = ev[i]
		w := make([]complex128, n)
		for j := 0; j < b; j++ {
			c := u[i][j]
			if c == 0 {
				continue
			}
			for t := 0; t < n; t++ {
				w[t] += c * v[j][t]
			}
		}
		vecs[i] = w
	}
	return eig, vecs
}

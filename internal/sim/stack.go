package sim

import (
	"math"
	"sort"

	"mosaic/internal/grid"
	"mosaic/internal/linalg"
	"mosaic/internal/optics"
	"mosaic/internal/par"
)

// Stack is a SOCS kernel stack (Eq. 1-2), I = sum_k w_k |M conv h_k|^2, in
// the form the imaging grid transforms it. A transform unit is what one
// field transform carries: a complex stack transforms each H_k; a paired
// stack transforms two real kernels of its real form (realForm) as the real
// and imaginary parts of one field, E_a + i*E_b, and folds
// mu_a*Re^2 + mu_b*Im^2. A stack is paired when its real rank r leaves
// ceil(r/2) units for its n kernels, fewer than n: a stack whose TCC is real
// (best focus, where the pupil is real and even). A defocused plane has
// real rank 2n and the Eq. 21 kernel is one kernel, so both keep the
// complex path. A Stack is read-only once built.
type Stack struct {
	Freqs   []*grid.CField // H_k on the central (2K+1)^2 block, as the optics define them
	Weights []float64      // w_k
	units   []*grid.CField // per transform unit: H_k, or E_a + i*E_b
	real    []*grid.CField // paired: the real-form kernels E_j in pair order, two a unit; nil for a complex stack
	mu      []float64      // paired: the weight of each E_j
}

// Paired reports whether the stack's units carry two real kernels each.
func (s *Stack) Paired() bool { return s.real != nil }

// Units returns the frequency response of every transform unit, in fold
// order; ImagingGrid.Field images one. The slice is shared, not a copy.
func (s *Stack) Units() []*grid.CField { return s.units }

// Scaled returns the stack with every weight divided by d — ilt's open-frame
// renormalization of a truncated stack. The real form of w/d is the real
// form of w with mu/d, so the kernels and units are shared.
func (s *Stack) Scaled(d float64) *Stack {
	t := *s
	t.Weights = divided(s.Weights, d)
	if s.mu != nil {
		t.mu = divided(s.mu, d)
	}
	return &t
}

func divided(v []float64, d float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x / d
	}
	return out
}

type stackKey struct {
	ks *optics.KernelSet
	n  int
}

// stacks memoises SOCSStack per kernel set and order: the real form costs an
// eigensolve of a 2n x 2n matrix (a few ms at n = 24), paid once.
var stacks par.Memo[stackKey, *Stack]

// SOCSStack returns the stack of the n leading kernels of ks, paired when
// its real rank allows. It is memoised per kernel set and order.
func SOCSStack(ks *optics.KernelSet, n int) *Stack {
	s, _, _ := stacks.Do(stackKey{ks, n}, func() (*Stack, error) {
		return newStack(ks.Freqs[:n], ks.Weights[:n]), nil
	})
	return s
}

// CombinedStack returns the one-kernel stack of Eq. 21, |M conv H|^2 with
// H = ks.Combined() at unit weight. One kernel is one unit: it is never
// paired.
func CombinedStack(ks *optics.KernelSet) *Stack {
	return newStack([]*grid.CField{ks.Combined()}, []float64{1})
}

// newStack builds the real form of (freqs, weights) and pairs its kernels
// when that takes fewer transforms than the complex stack.
func newStack(freqs []*grid.CField, weights []float64) *Stack {
	s := &Stack{Freqs: freqs, Weights: weights, units: freqs}
	if len(freqs) < 2 {
		return s
	}
	e, mu := realForm(freqs, weights)
	nu := (len(e) + 1) / 2
	if nu >= len(freqs) {
		return s
	}
	if len(e)%2 == 1 {
		// A lone last kernel pairs with a zero one of zero weight, which
		// adds exact zeros to its fold and its adjoint.
		e = append(e, grid.NewC(freqs[0].W, freqs[0].H))
		mu = append(mu, 0)
	}
	s.real, s.mu = e, mu
	s.units = make([]*grid.CField, nu)
	for u := range s.units {
		unit := grid.NewC(freqs[0].W, freqs[0].H)
		for i, a := range e[2*u].Data {
			b := e[2*u+1].Data[i]
			unit.Data[i] = complex(real(a)-imag(b), imag(a)+real(b))
		}
		s.units[u] = unit
	}
	return s
}

// realRankTol is the relative weight below which a term of the real form is
// dropped: its share of any intensity is under 1e-14 of the largest term's.
const realRankTol = 1e-14

// realForm writes the quadratic form of a stack as a sum of squares of real
// fields. On the central block -f is the mirrored entry, so each H_k splits
// into its Hermitian parts, H_k = P_k + i*Q_k with
//
//	P_k(f) = (H_k(f) + conj H_k(-f)) / 2,   Q_k(f) = (H_k(f) - conj H_k(-f)) / 2i,
//
// the spectra of real kernels p_k and q_k. For a real mask M conv p_k and
// M conv q_k are real, so |M conv h_k|^2 = (M conv p_k)^2 + (M conv q_k)^2 and
// I = sum_j (M conv b_j)^2 over the 2n real kernels b = (sqrt(w_k) p_k,
// sqrt(w_k) q_k). With B the matrix of their spectra, the Gram matrix B^T B
// (2n x 2n, real symmetric: Re of the spectral inner products, by
// Parseval) = U diag(mu) U^T gives the same form as
// I = sum_j mu_j (M conv e_j)^2 with E_j = B u_j / sqrt(mu_j), the
// eigenvectors of B B^T. It returns the E_j and mu_j in descending mu, the
// terms of mu_j <= realRankTol * mu_max dropped: their count is the stack's
// real rank. Every P_k, Q_k and E_j is Hermitian bit for bit, as real
// combinations of exactly mirrored entries.
func realForm(freqs []*grid.CField, weights []float64) (e []*grid.CField, mu []float64) {
	sz := len(freqs[0].Data)
	m := 2 * len(freqs)
	b := make([][]complex128, m)
	for k, h := range freqs {
		s := 0.5 * math.Sqrt(weights[k])
		p, q := make([]complex128, sz), make([]complex128, sz)
		for i, v := range h.Data {
			c := h.Data[sz-1-i] // H_k(-f)
			sr, si := real(v)+real(c), imag(v)-imag(c)
			dr, di := real(v)-real(c), imag(v)+imag(c)
			p[i] = complex(s*sr, s*si)
			q[i] = complex(s*di, -s*dr) // (H - conj H(-f)) / 2i
		}
		b[2*k], b[2*k+1] = p, q
	}
	gram := make([]float64, m*m)
	for i := 0; i < m; i++ {
		for j := i; j < m; j++ {
			d := 0.0
			for f, x := range b[i] {
				y := b[j][f]
				d += real(x)*real(y) + imag(x)*imag(y)
			}
			gram[i*m+j], gram[j*m+i] = d, d
		}
	}
	eig, vecs := linalg.JacobiSym(gram, m)
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, c int) bool { return eig[order[a]] > eig[order[c]] })
	top := eig[order[0]]
	for _, j := range order {
		if eig[j] <= realRankTol*top {
			break
		}
		ej := grid.NewC(freqs[0].W, freqs[0].H)
		inv := 1 / math.Sqrt(eig[j])
		for i, bi := range b {
			c := vecs[i*m+j] * inv
			for f, v := range bi {
				ej.Data[f] += complex(real(v)*c, imag(v)*c)
			}
		}
		e = append(e, ej)
		mu = append(mu, eig[j])
	}
	return e, mu
}

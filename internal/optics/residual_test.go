package optics

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"mosaic/internal/linalg"
)

// TestKernelResiduals pins which part of the stored SOCS set is an
// eigendecomposition of the TCC and records the part that is not.
// linalg.HermEigTopK stops when the Ritz *values* stop moving (1e-9·λ₀),
// which the leading kernels reach long before the trailing Ritz *vectors*
// have converged: kernels 0–19 are eigenpairs to ≤ 1e-4 and mutually
// orthonormal, while the tail of the 24-kernel set (20–23) has residuals
// of 1e-3…1e-1, overlaps up to 0.2 between its members, and stored
// weights that are not the Rayleigh quotients of their kernels. The tail
// is logged, not asserted: fixing it (the factored S × S builder of
// ROADMAP item 1) moves 13 of 20 golden masks and needs a re-baselining
// decision — see DESIGN.md, "Known defect: the tail of the kernel set".
func TestKernelResiduals(t *testing.T) {
	const converged = 20 // kernels [0, converged) are asserted
	for _, tc := range []struct {
		grid    int
		defocus float64
	}{{64, 0}, {64, 25}, {128, 0}, {128, 25}} {
		t.Run(fmt.Sprintf("%dpx/defocus%g", tc.grid, tc.defocus), func(t *testing.T) {
			if tc.grid > 64 && testing.Short() {
				t.Skip("128 px TCC eigensolve skipped in -short mode")
			}
			c := Default()
			c.GridSize, c.PixelNM = tc.grid, 8
			ks, err := BuildKernels(c, tc.defocus)
			if err != nil {
				t.Fatal(err)
			}
			if len(ks.Freqs) != c.Kernels {
				t.Fatalf("kernel set has order %d, want %d", len(ks.Freqs), c.Kernels)
			}
			tcc := BuildTCC(c, tc.defocus)

			// Stored weights carry the open-frame normalization; kernel 0
			// is converged, so its Rayleigh quotient gives the scale back.
			tu := make([][]complex128, len(ks.Freqs))
			rayleigh := make([]float64, len(ks.Freqs))
			for k, f := range ks.Freqs {
				tu[k] = tcc.MatVec(f.Data)
				rayleigh[k] = real(linalg.Dot(f.Data, tu[k]))
			}
			scale := rayleigh[0] / ks.Weights[0]

			for k, f := range ks.Freqs {
				lambda := ks.Weights[k] * scale
				r := make([]complex128, len(f.Data))
				for i, v := range f.Data {
					r[i] = tu[k][i] - complex(lambda, 0)*v
				}
				residual := linalg.Norm(r)
				overlap, with := 0.0, -1
				for j := 0; j < k; j++ {
					if o := cmplx.Abs(linalg.Dot(ks.Freqs[j].Data, f.Data)); o > overlap {
						overlap, with = o, j
					}
				}
				norm := linalg.Norm(f.Data)
				if k >= converged {
					t.Logf("tail kernel %d: weight %.5f, Rayleigh quotient %.5f, |T·u − λ·u| = %.1e, |u| = %.6f, largest overlap %.1e (with kernel %d)",
						k, lambda, rayleigh[k], residual, norm, overlap, with)
					continue
				}
				if residual > 1e-4 {
					t.Errorf("kernel %d: |T·u − λ·u| = %.2e, want ≤ 1e-4 (λ = %.5f)", k, residual, lambda)
				}
				if math.Abs(norm-1) > 1e-6 || overlap > 1e-4 {
					t.Errorf("kernel %d: |u| = %.8f, largest overlap %.2e with kernel %d; want an orthonormal set", k, norm, overlap, with)
				}
			}
		})
	}
}

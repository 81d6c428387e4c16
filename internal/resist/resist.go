// Package resist models the photoresist development step of the forward
// lithography process: the hard threshold of Eq. 3 and its differentiable
// sigmoid approximation of Eq. 4 (used wherever the inverse problem needs a
// gradient). Dose variation enters as a multiplicative scale on the aerial
// image intensity before thresholding.
package resist

import (
	"fmt"
	"math"

	"mosaic/internal/grid"
)

// Model holds the resist parameters. The paper uses ThetaZ = 50 with a
// print threshold around the open-frame-normalized intensity level; the
// exact threshold is calibrated against the optical model (see
// sim.CalibrateThreshold).
type Model struct {
	Threshold float64 // print threshold th_r on normalized intensity
	ThetaZ    float64 // sigmoid steepness theta_Z (Eq. 4), paper: 50
}

// Validate refuses a model no print can be computed with: a threshold or
// steepness that is not finite, or a steepness that is not positive.
func (m Model) Validate() error {
	switch {
	case math.IsNaN(m.Threshold) || math.IsInf(m.Threshold, 0):
		return fmt.Errorf("resist: Threshold must be finite, got %g", m.Threshold)
	case math.IsNaN(m.ThetaZ) || math.IsInf(m.ThetaZ, 0):
		return fmt.Errorf("resist: ThetaZ must be finite, got %g", m.ThetaZ)
	case m.ThetaZ <= 0:
		return fmt.Errorf("resist: ThetaZ (steepness) must be positive, got %g", m.ThetaZ)
	}
	return nil
}

// Default returns the paper's resist parameters with a conventional
// positive-resist threshold on open-frame-normalized intensity.
func Default() Model { return Model{Threshold: 0.225, ThetaZ: 50} }

// Sigmoid evaluates Eq. 4 at a single intensity value:
// Z = 1 / (1 + exp(-theta_Z * (I - th_r))).
func (m Model) Sigmoid(i float64) float64 {
	return 1 / (1 + math.Exp(-m.ThetaZ*(i-m.Threshold)))
}

// Prints reports whether the resist prints at intensity i under dose: the
// hard threshold of Eq. 3 at a single pixel.
func (m Model) Prints(i, dose float64) bool { return i*dose > m.Threshold }

// Print applies the hard threshold of Eq. 3 to an aerial image scaled by
// dose, producing a binary printed pattern.
func (m Model) Print(i *grid.Field, dose float64) *grid.Field {
	return m.PrintInto(grid.NewLike(i), i, dose)
}

// PrintInto is Print writing into dst (fully overwritten, so dst may come
// from the workspace pool without zeroing). Dimensions must match.
func (m Model) PrintInto(dst, i *grid.Field, dose float64) *grid.Field {
	if dst.W != i.W || dst.H != i.H {
		panic("resist: dimension mismatch in PrintInto")
	}
	for idx, v := range i.Data {
		if m.Prints(v, dose) {
			dst.Data[idx] = 1
		} else {
			dst.Data[idx] = 0
		}
	}
	return dst
}

// PrintSigmoid applies the sigmoid resist of Eq. 4 to an aerial image
// scaled by dose, producing a continuous printed pattern in (0, 1).
func (m Model) PrintSigmoid(i *grid.Field, dose float64) *grid.Field {
	return m.PrintSigmoidInto(grid.NewLike(i), i, dose)
}

// PrintSigmoidInto is PrintSigmoid writing into dst (fully overwritten, so
// dst may come from the workspace pool without zeroing).
func (m Model) PrintSigmoidInto(dst, i *grid.Field, dose float64) *grid.Field {
	if dst.W != i.W || dst.H != i.H {
		panic("resist: dimension mismatch in PrintSigmoidInto")
	}
	for idx, v := range i.Data {
		dst.Data[idx] = m.Sigmoid(v * dose)
	}
	return dst
}

// Sig is the generic logistic function 1/(1+exp(-theta*(x-x0))) used for
// every threshold relaxation in the paper: the resist model (Eq. 4), the
// mask relaxation (Eq. 8) and the EPE-violation indicator (Eq. 11).
func Sig(x, x0, theta float64) float64 {
	return 1 / (1 + math.Exp(-theta*(x-x0)))
}
